import copy
import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from ydweyl.cyclo import (MAX_CONDUCTOR, CycScalar, CycloDivisionError,
                          cyclotomic_polynomial, det, euler_phi,
                          identity_matrix, mat_mul, nullspace, parse_scalar,
                          root_of_unity, rref)
from ydweyl.errors import ResourceBoundError
from oracles import (complex_value, dense_rows, dense_rref,
                     reference_cyclotomic, reference_product,
                     reference_promote, reference_reduce)


def test_roots_of_unity_basics():
    assert root_of_unity(2, 1) == -1
    assert root_of_unity(4, 2) == -1
    assert root_of_unity(3, 1) + root_of_unity(3, 2) == -1
    assert root_of_unity(5, 0) == 1
    z4 = root_of_unity(4, 1)
    assert z4 * z4 == -1


def test_root_depends_on_k_mod_n():
    for n in (1, 2, 3, 4, 6, 8, 12):
        for k in range(-2 * n, 2 * n):
            assert root_of_unity(n, k) == root_of_unity(n, k % n)


def test_multiplicativity_in_k():
    for n in (3, 4, 5, 8):
        for a in range(n):
            for b in range(n):
                assert (root_of_unity(n, a) * root_of_unity(n, b)
                        == root_of_unity(n, a + b))


def test_inverse_law():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.choice([1, 3, 4, 5, 8, 12])
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                  for _ in range(euler_phi(n))]
        a = CycScalar(n, coeffs)
        if a.is_zero():
            continue
        assert a * a.inv() == 1
        assert a.inv() * a == 1


def test_division_by_zero_is_distinct():
    with pytest.raises(CycloDivisionError):
        CycScalar.zero().inv()


def test_canonical_zero_one_across_conductors():
    assert CycScalar(8, [0, 0, 0, 0]) == CycScalar.zero()
    assert CycScalar(8, [1, 0, 0, 0]) == CycScalar.one()
    assert CycScalar(8, [1, 0, 0, 0]).conductor == 1


def test_promote_then_demote_identity():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.choice([1, 2, 3, 4, 6])
        m = n * rng.choice([2, 3, 4])
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(euler_phi(n))]
        a = CycScalar(n, coeffs)
        promoted = a.promote(m)
        back = promoted.try_demote(n)
        assert back is not None and back == a


def test_demote_impossible():
    assert root_of_unity(8, 1).try_demote(4) is None


def test_canonical_key_matches_equality():
    # Values stored above their minimal conductor share the key of the
    # minimal form: zeta_8^2 = zeta_4, zeta_6 = 1 + zeta_3, zeta_9^3 = zeta_3.
    assert root_of_unity(8, 1) ** 2 == root_of_unity(4, 1)
    assert (root_of_unity(8, 1) ** 2).canonical_key() == (4, (0, 1), 1)
    assert root_of_unity(6, 1).canonical_key() == (3, (1, 1), 1)
    assert (root_of_unity(9, 1) ** 3).canonical_key() == (3, (0, 1), 1)
    rng = random.Random(5)
    values = []
    for _ in range(40):
        n = rng.choice([1, 3, 4, 6, 8, 9, 12])
        m = n * rng.choice([1, 2, 3])
        coeffs = [Fraction(rng.randint(-1, 1)) for _ in range(euler_phi(n))]
        values.append(CycScalar(n, coeffs).promote(m))
    for a in values:
        for b in values:
            assert (a.canonical_key() == b.canonical_key()) == (a == b)


def test_multiplying_by_one_keeps_the_stored_conductor():
    # zeta(9) * zeta(9)^2 equals zeta(3) but is stored at conductor 9.
    x = root_of_unity(9, 1) * root_of_unity(9, 2)
    assert (x.conductor, str(x)) == (9, "zeta(9)^3")
    for y in (x * 1, 1 * x, x * Fraction(1), x * CycScalar.one(),
              CycScalar.one() * x):
        assert (y.conductor, y.num, y.den, str(y)) == (9, x.num, x.den, str(x))
    for r in (3, -2, 0):
        a, b = CycScalar.from_rational(r), CycScalar.from_rational(Fraction(r))
        assert (a.conductor, a.num, a.den) == (b.conductor, b.num, b.den)
        assert type(a.num[0]) is int


def test_promotion_example_mixed_conductors():
    # zeta_2 over conductor 4 times zeta_4 is zeta_4^3; float cross-check.
    lhs = root_of_unity(2, 1).promote(4) * root_of_unity(4, 1)
    assert lhs == root_of_unity(4, 3)
    assert abs(complex_value(lhs) - complex_value(root_of_unity(4, 3))) < 1e-12


def test_float_oracle_agreement():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.choice([3, 4, 5, 8, 12])
        a = CycScalar(n, [Fraction(rng.randint(-3, 3)) for _ in range(euler_phi(n))])
        b = CycScalar(n, [Fraction(rng.randint(-3, 3)) for _ in range(euler_phi(n))])
        assert abs(complex_value(a * b) - complex_value(a) * complex_value(b)) < 1e-9
        assert abs(complex_value(a + b) - (complex_value(a) + complex_value(b))) < 1e-9


REFERENCE_CONDUCTORS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16)


def _assert_normal_form(x):
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert len(x.num) == euler_phi(x.conductor)
    assert x.conductor == 1 or any(x.num[1:])  # a rational is at conductor 1
    assert all(isinstance(c, Fraction) for c in x.coeffs)
    assert x.coeffs == tuple(Fraction(a, x.den) for a in x.num)


def _assert_matches(x, ref, m, stored):
    """x has the reference coefficients at conductor m, and is stored at
    conductor `stored` or, for a rational value only, at 1."""
    _assert_normal_form(x)
    assert x.coeffs_at(m) == ref
    assert x.conductor == (1 if not any(ref[1:]) else stored)


def test_arithmetic_matches_fraction_reference():
    rng = random.Random(23)

    def scalar(n):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                  for _ in range(euler_phi(n))]
        if rng.random() < 0.2:  # rational values too
            coeffs[1:] = [0] * (len(coeffs) - 1)
        return CycScalar(n, coeffs), reference_reduce(coeffs, n)

    for n in REFERENCE_CONDUCTORS:
        assert list(cyclotomic_polynomial(n)) == reference_cyclotomic(n)
        for k in range(n):
            x = root_of_unity(n, k)
            _assert_normal_form(x)
            assert x.coeffs_at(n) == reference_reduce([0] * k + [1], n)
    for _ in range(150):
        n, m = rng.choice(REFERENCE_CONDUCTORS), rng.choice(REFERENCE_CONDUCTORS)
        l = lcm(n, m)
        (a, ra), (b, rb) = scalar(n), scalar(m)
        _assert_matches(-a, tuple(-x for x in ra), n, n)
        # Operands are promoted to the lcm of their stored conductors.
        lcm_stored = lcm(a.conductor, b.conductor)
        ra, rb = reference_promote(ra, n, l), reference_promote(rb, m, l)
        _assert_matches(a.promote(l), ra, l, l)
        _assert_matches(a + b, tuple(x + y for x, y in zip(ra, rb)), l,
                        lcm_stored)
        _assert_matches(a - b, tuple(x - y for x, y in zip(ra, rb)), l,
                        lcm_stored)
        _assert_matches(a * b, reference_product(ra, rb, l), l, lcm_stored)
        if a:
            inv = a.inv()
            _assert_normal_form(inv)
            unit = (Fraction(1),) + (Fraction(0),) * (len(ra) - 1)
            assert reference_product(ra, inv.coeffs_at(l), l) == unit


def test_rational_fast_path_matches_fraction():
    # Two rational operands are added, subtracted, multiplied and compared
    # on plain ints; the results must be Fraction's, in normal form at
    # conductor 1, with every integer of the shared table that one instance.
    from ydweyl.cyclo import _ONE, _SMALL, _ZERO
    assert _SMALL[0] is _ZERO and _SMALL[1] is _ONE
    assert CycScalar.zero() is _ZERO and CycScalar.one() is _ONE
    rng = random.Random(31)

    def value():
        kind = rng.randrange(4)
        if kind == 0:
            return Fraction(rng.choice((0, 1, -1)))
        if kind == 1:  # whole, inside and beyond the shared table
            size = 10 ** rng.randrange(1, 6)
            return Fraction(rng.choice((1, -1)) * rng.randrange(size))
        return Fraction(rng.randint(-50, 50), rng.randint(2, 40))

    def check(x, ref):
        assert (x.conductor, x.den > 0, gcd(x.den, *x.num)) == (1, True, 1)
        assert x.rational_value() == ref
        if ref.denominator == 1 and ref.numerator in _SMALL:
            assert x is _SMALL[ref.numerator]

    for _ in range(400):
        p, q = value(), value()
        a, b = CycScalar.from_rational(p), CycScalar.from_rational(q)
        check(a, p)
        check(a + b, p + q)
        check(a - b, p - q)
        check(a * b, p * q)
        check(-a, -p)
        if p:
            check(a.inv(), 1 / p)
        assert (a == b) == (p == q) and (a == q) == (p == q)
        for y in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert y == a
            assert (y.conductor, y.num, y.den) == (a.conductor, a.num, a.den)
        z = root_of_unity(rng.choice((3, 4, 9)), rng.randrange(1, 3))
        for prod in (a * z, z * a):
            assert abs(complex_value(prod) - float(p) * complex_value(z)) < 1e-6
            assert prod.conductor == (z.conductor if p else 1)


def test_pickle_and_deepcopy_round_trip():
    z9 = root_of_unity(9, 5) * Fraction(3, 4) + Fraction(1, 2)
    for x in (z9, CycScalar.from_rational(Fraction(-7, 3))):
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert y == x
            assert (y.conductor, y.coeffs) == (x.conductor, x.coeffs)
        for name, value in (("conductor", 3), ("num", (1,)), ("den", 2),
                            ("coeffs", (Fraction(1),))):
            with pytest.raises(AttributeError):
                setattr(x, name, value)
    assert z9.conductor == 9


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_string_round_trip():
    samples = [
        CycScalar.zero(),
        CycScalar.one(),
        CycScalar.from_rational(Fraction(-7, 3)),
        root_of_unity(8, 3),
        root_of_unity(8, 1) * 3 - root_of_unity(8, 2) + Fraction(1, 2),
        -root_of_unity(5, 2),
    ]
    for x in samples:
        assert parse_scalar(str(x)) == x
    assert parse_scalar("zeta(4)^2") == -1
    assert parse_scalar("-2/3*zeta(3)^2") == root_of_unity(3, 2) * Fraction(-2, 3)
    # A negative exponent's sign does not start a new term.
    assert parse_scalar("zeta(8)^-1") == root_of_unity(8, -1)
    assert parse_scalar("1 - zeta(8)^-3") == 1 - root_of_unity(8, -3)


def test_parse_rejects_garbage():
    for bad in ["", "zeta", "1 + + 2", "--1", "zeta(8)^ -1", "zeta(0)^1",
                "1/0", "1/0*zeta(3)"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_conductor_limit():
    # The limit is on the conductor stored, literal or reached by promotion.
    assert root_of_unity(2 * MAX_CONDUCTOR, 2).conductor == MAX_CONDUCTOR
    assert parse_scalar("zeta(100000000)^100000000") == 1
    for text in ["zeta(100000000)", "zeta(997) + zeta(991)"]:
        with pytest.raises(ResourceBoundError):
            parse_scalar(text)
    with pytest.raises(ResourceBoundError):
        CycScalar(MAX_CONDUCTOR + 1, [0, 1])


def test_rref_and_nullspace():
    one, zero = CycScalar.one(), CycScalar.zero()
    z4 = root_of_unity(4, 1)
    mat = [[one, z4, zero], [z4, CycScalar.from_rational(-1), zero]]
    reduced, pivots = rref(mat)
    assert pivots == [0]
    ns = nullspace(mat, 3)
    assert len(ns) == 2
    for vec in ns:
        for row in mat:
            s = sum((a * x for a, x in zip(row, vec)), zero)
            assert s.is_zero()


def _random_entry(rng, conductors):
    n = rng.choice(conductors)
    x = (Fraction(rng.randint(-4, 4), rng.randint(1, 3))
         * root_of_unity(n, rng.randrange(n)))
    if rng.random() < 0.3:
        x = x + rng.randint(1, 3)
    return x


def _random_matrix(rng, nrows, ncols, density, conductors):
    return [[_random_entry(rng, conductors) if rng.random() < density
             else CycScalar.zero() for _ in range(ncols)]
            for _ in range(nrows)]


def _rref_cases():
    rng = random.Random(11)
    zero = CycScalar.zero()
    # The sweep's pivot rows decide the stored conductor of -zeta(3) in the
    # result: taking row 0 before row 1 for column 1 prints zeta(3), the
    # dense sweep (rows 0 and 2 swapped) prints zeta(9)^3.
    yield [[parse_scalar(x) for x in row] for row in
           [["0", "zeta(3)^2", "-1"], ["0", "zeta(9)", "-zeta(9)^4"],
            ["zeta(9)^2", "0", "1"]]]
    # Non-unit rational pivots (2, -1/3), rational entries in conductor-9
    # and conductor-8 rows, and entries that cancel to 0: row 3 of the
    # first is twice row 0, and in the second zeta(9) cancels out of
    # column 2, leaving a rational pivot -2 that the sweep reached as a
    # CycScalar.
    for mat in ([["2", "1", "-1", "0"], ["0", "-1/3", "1", "1/2"],
                 ["-1/3", "0", "2/3", "1"], ["4", "2", "-2", "0"]],
                [["zeta(9)", "1/3", "zeta(9) + 2", "-1"],
                 ["zeta(9)", "1/3", "zeta(9)", "zeta(9)^4 - 1/3"],
                 ["2", "-zeta(9)^2", "1", "0"]],
                [["0", "-1/3", "zeta(8)", "1"],
                 ["zeta(8)^2", "2", "0", "-1"],
                 ["1", "zeta(8)^3", "1/2", "zeta(8)"]]):
        yield [[parse_scalar(x) for x in row] for row in mat]
    for conductors in ([1], [9, 3], [4, 8], [1, 9], [1, 8]):
        for density in (0.05, 0.15, 0.3):
            mat = _random_matrix(rng, 10, 14, density, conductors)
            mat.insert(3, [zero] * 14)
            mat.append([zero] * 14)
            mat.insert(1, list(mat[5]))
            mat.append(list(mat[0]))
            yield mat
        yield [[zero] * 5 for _ in range(4)]
        yield _random_matrix(rng, 1, 9, 0.3, conductors)
        yield _random_matrix(rng, 9, 1, 0.3, conductors)
        while True:  # until the square has full rank
            square = _random_matrix(rng, 6, 6, 0.5, conductors)
            if len(dense_rref(square)[1]) == 6:
                yield square
                break


def test_rref_matches_dense_oracle():
    for mat in _rref_cases():
        reduced, pivots = rref(mat)
        oracle, oracle_pivots = dense_rref(mat)
        assert pivots == oracle_pivots
        # Sparse rows: nonzero CycScalars only, keys ascending.
        for row in reduced:
            assert list(row) == sorted(row)
            assert all(isinstance(x, CycScalar) and not x.is_zero()
                       for x in row.values())
        ncols = len(mat[0])
        dense = dense_rows(reduced, ncols)
        assert dense == oracle
        # Same stored conductors too, so printed values cannot change.
        assert ([[str(x) for x in row] for row in dense]
                == [[str(x) for x in row] for row in oracle])
        free = [j for j in range(ncols) if j not in oracle_pivots]
        kernel = nullspace(mat, ncols)
        assert len(kernel) == len(free)
        for vec in kernel:
            assert all(isinstance(x, CycScalar) for x in vec)
            for row in mat:
                assert sum((a * x for a, x in zip(row, vec)),
                           CycScalar.zero()).is_zero()


def test_det_and_matmul():
    z4 = root_of_unity(4, 1)
    one = CycScalar.one()
    m = [[z4, one], [one, z4]]
    assert det(m) == -2
    assert det(identity_matrix(3)) == 1
    prod = mat_mul(m, m)
    assert prod[0][0] == 0  # z4^2 + 1
