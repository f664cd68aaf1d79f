import copy
import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from ydweyl.cyclo import (MAX_CONDUCTOR, CycScalar, CycloDivisionError,
                          as_cyc, cyclotomic_polynomial, det, euler_phi,
                          identity_matrix, inv, mat_mul, nullspace,
                          parse_scalar, root_of_unity, rref, scalar_key)
from ydweyl.errors import ResourceBoundError
from oracles import (complex_value, dense_rows, dense_rref,
                     reference_cyclotomic, reference_product,
                     reference_promote, reference_reduce, stored_conductor)


def _cells(mat):
    """A matrix of plain scalars as rref's input: CycScalar cells."""
    return [[as_cyc(x) for x in row] for row in mat]


def _assert_plain_rational(x, ref):
    """x is the rational ref as the engine gives one: an int when whole,
    else a Fraction, equal to Fraction's own result."""
    ref = Fraction(ref)
    assert x == ref
    assert type(x) is (int if ref.denominator == 1 else Fraction)


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
        if not a:
            continue
        assert a * inv(a) == 1
        assert inv(a) * a == 1


def test_division_by_zero_is_distinct():
    for zero in (0, Fraction(0), CycScalar(5, [0, 0, 0, 0])):
        with pytest.raises(CycloDivisionError):
            inv(zero)


def test_canonical_zero_one_across_conductors():
    # A rational value is never a CycScalar, whatever conductor it is
    # written at: 0 and 1 are the ints.
    _assert_plain_rational(CycScalar(8, [0, 0, 0, 0]), 0)
    _assert_plain_rational(CycScalar(8, [1, 0, 0, 0]), 1)
    _assert_plain_rational(CycScalar(8, [Fraction(4, 2), 0, 0, 0]), 2)
    _assert_plain_rational(CycScalar(9, [Fraction(-1, 2)]), Fraction(-1, 2))
    _assert_plain_rational(root_of_unity(8, 4), -1)


def test_promote_then_demote_identity():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.choice([1, 2, 3, 4, 6])
        m = n * rng.choice([2, 3, 4])
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(euler_phi(n))]
        a = CycScalar(n, coeffs)
        if not any(coeffs[1:]):  # every draw at n = 1 and 2, where phi(n) = 1
            _assert_plain_rational(a, coeffs[0])
            continue
        promoted = a.promote(m)
        back = promoted.try_demote(n)
        assert back is not None and back == a


def test_demote_impossible():
    assert root_of_unity(8, 1).try_demote(4) is None


def test_canonical_key_matches_equality():
    # Values stored above their minimal conductor share the key of the
    # minimal form: zeta_8^2 = zeta_4, zeta_6 = 1 + zeta_3, zeta_9^3 = zeta_3.
    assert root_of_unity(8, 1) ** 2 == root_of_unity(4, 1)
    assert scalar_key(root_of_unity(8, 1) ** 2) == (4, (0, 1), 1)
    assert scalar_key(root_of_unity(6, 1)) == (3, (1, 1), 1)
    assert scalar_key(root_of_unity(9, 1) ** 3) == (3, (0, 1), 1)
    # A rational's key is the one CycScalar.canonical_key gave it.
    assert scalar_key(2) == (1, (2,), 1)
    assert scalar_key(Fraction(-3, 4)) == (1, (-3,), 4)
    rng = random.Random(5)
    values = []
    for _ in range(40):
        n = rng.choice([1, 3, 4, 6, 8, 9, 12])
        m = n * rng.choice([1, 2, 3])
        coeffs = [Fraction(rng.randint(-1, 1)) for _ in range(euler_phi(n))]
        x = CycScalar(n, coeffs)
        values.append(x.promote(m) if isinstance(x, CycScalar) else x)
    for a in values:
        for b in values:
            assert (scalar_key(a) == scalar_key(b)) == (a == b)


def test_multiplying_by_one_keeps_the_stored_conductor():
    # zeta(9) * zeta(9)^2 equals zeta(3) but is stored at conductor 9.
    x = root_of_unity(9, 1) * root_of_unity(9, 2)
    assert (x.conductor, str(x)) == (9, "zeta(9)^3")
    for y in (x * 1, 1 * x, x * Fraction(1), Fraction(1) * x):
        assert (y.conductor, y.num, y.den, str(y)) == (9, x.num, x.den, str(x))
    for r in (3, -2, 0):
        for a in (CycScalar(1, [r]), CycScalar(1, [Fraction(r)]),
                  CycScalar(9, [r, 0, 0, 0, 0, 0])):
            _assert_plain_rational(a, r)


def test_promotion_example_mixed_conductors():
    # zeta_2 = -1 times zeta_4 is zeta_4^3, at conductor 4; float check.
    lhs = root_of_unity(2, 1) * root_of_unity(4, 1)
    assert lhs == root_of_unity(4, 3) and lhs.conductor == 4
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
    if not isinstance(x, CycScalar):  # a rational, never a float
        assert type(x) in (int, Fraction)
        return
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert len(x.num) == euler_phi(x.conductor)
    assert any(x.num[1:])  # a rational is never a CycScalar
    assert all(isinstance(c, Fraction) for c in x.coeffs)
    assert x.coeffs == tuple(Fraction(a, x.den) for a in x.num)


def _coeffs_at(x, m):
    """x's power-basis coefficients in Q(zeta_m), by reference promotion."""
    if isinstance(x, CycScalar):
        return reference_promote(x.coeffs, x.conductor, m)
    return reference_promote((Fraction(x),), 1, m)


def _assert_matches(x, ref, m, stored, engine=True):
    """x has the reference coefficients at conductor m, and is stored at
    conductor `stored` or, for a rational value only, is an int or a
    Fraction: the int when whole if the engine computed x, not Python's
    own Fraction arithmetic."""
    _assert_normal_form(x)
    assert _coeffs_at(x, m) == ref
    assert stored_conductor(x) == (1 if not any(ref[1:]) else stored)
    if engine and not any(ref[1:]):
        _assert_plain_rational(x, ref[0])


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
            assert _coeffs_at(x, n) == reference_reduce([0] * k + [1], n)
    for _ in range(150):
        n, m = rng.choice(REFERENCE_CONDUCTORS), rng.choice(REFERENCE_CONDUCTORS)
        l = lcm(n, m)
        (a, ra), (b, rb) = scalar(n), scalar(m)
        engine = CycScalar in (type(a), type(b))
        _assert_matches(-a, tuple(-x for x in ra), n, n,
                        isinstance(a, CycScalar))
        # Operands are promoted to the lcm of their stored conductors.
        lcm_stored = lcm(stored_conductor(a), stored_conductor(b))
        ra, rb = reference_promote(ra, n, l), reference_promote(rb, m, l)
        if isinstance(a, CycScalar):
            _assert_matches(a.promote(l), ra, l, l)
        _assert_matches(a + b, tuple(x + y for x, y in zip(ra, rb)), l,
                        lcm_stored, engine)
        _assert_matches(a - b, tuple(x - y for x, y in zip(ra, rb)), l,
                        lcm_stored, engine)
        _assert_matches(a * b, reference_product(ra, rb, l), l, lcm_stored,
                        engine)
        if a:
            a_inv = inv(a)
            _assert_matches(a_inv, _coeffs_at(a_inv, l), l,
                            stored_conductor(a))
            unit = (Fraction(1),) + (Fraction(0),) * (len(ra) - 1)
            assert reference_product(ra, _coeffs_at(a_inv, l), l) == unit


def test_rational_fast_path_matches_fraction():
    # A rational result of the cyclotomic arithmetic, where irrational
    # parts cancel or an inverse is taken, is Fraction's result as an int
    # when whole, else as a Fraction; an irrational operand scaled by a
    # rational keeps its stored conductor.
    rng = random.Random(31)

    def value():
        kind = rng.randrange(4)
        if kind == 0:
            return Fraction(rng.choice((0, 1, -1)))
        if kind == 1:  # whole, small and large
            size = 10 ** rng.randrange(1, 6)
            return Fraction(rng.choice((1, -1)) * rng.randrange(size))
        return Fraction(rng.randint(-50, 50), rng.randint(2, 40))

    for _ in range(400):
        p, q = value(), value()
        z = root_of_unity(*rng.choice(((3, 1), (3, 2), (4, 1), (9, 1), (9, 2))))
        a = CycScalar(z.conductor, [p])
        _assert_plain_rational(a, p)
        _assert_plain_rational((z + p) - z, p)
        _assert_plain_rational((z + p) + (q - z), p + q)
        _assert_plain_rational(p - z + z, p)
        _assert_plain_rational((z * p) * (inv(z) * q), p * q)
        _assert_plain_rational(-((z - p) - z), p)
        if p:
            _assert_plain_rational(inv(p), 1 / p)
            _assert_plain_rational((z * p).inv() * z, 1 / p)
        assert ((z + p) == (z + q)) == (p == q)
        assert not z == p and not p == z and z != p
        for prod in (a * z, z * a, p * z, z * p):
            assert abs(complex_value(prod) - float(p) * complex_value(z)) < 1e-6
            if p:
                assert prod.conductor == z.conductor
            else:
                _assert_plain_rational(prod, 0)


def test_pickle_and_deepcopy_round_trip():
    z9 = root_of_unity(9, 5) * Fraction(3, 4) + Fraction(1, 2)
    for x in (z9, root_of_unity(4, 1) * Fraction(-7, 3)):
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
        0,
        1,
        Fraction(-7, 3),
        root_of_unity(8, 3),
        root_of_unity(8, 1) * 3 - root_of_unity(8, 2) + Fraction(1, 2),
        -root_of_unity(5, 2),
    ]
    for x in samples:
        assert parse_scalar(str(x)) == x
    # Rational literals read as the engine's rationals.
    _assert_plain_rational(parse_scalar("-7/3"), Fraction(-7, 3))
    _assert_plain_rational(parse_scalar("4/2 + 1"), 3)
    _assert_plain_rational(parse_scalar("zeta(3) + 1/2 - zeta(3)"),
                           Fraction(1, 2))
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
    z4 = root_of_unity(4, 1)
    mat = [[1, z4, 0], [z4, -1, 0]]
    reduced, pivots = rref(_cells(mat))
    assert pivots == [0]
    assert reduced == [{0: 1, 1: z4}]
    ns = nullspace(mat, 3)
    assert len(ns) == 2
    for vec in ns:
        for row in mat:
            assert sum(a * x for a, x in zip(row, vec)) == 0


def test_as_cyc_cells():
    # rref reads CycScalar cells; a rational cell is at conductor 1, zero
    # is one shared cell, and an irrational value is its own cell.
    assert as_cyc(0) is as_cyc(Fraction(0))
    assert as_cyc(0).is_zero() and not as_cyc(Fraction(1, 2)).is_zero()
    half = as_cyc(Fraction(-1, 2))
    assert (half.conductor, half.num, half.den) == (1, (-1,), 2)
    z = root_of_unity(9, 2)
    assert as_cyc(z) is z
    reduced, pivots = rref([[as_cyc(2), as_cyc(Fraction(1, 3)), half]])
    assert pivots == [0]
    assert reduced == [{0: 1, 1: Fraction(1, 6), 2: Fraction(-1, 4)}]
    assert [type(x) for x in reduced[0].values()] == [int, Fraction, Fraction]


def _random_literal(rng):
    """A parse_scalar literal: rationals and c*zeta(n)^k terms, some of
    them cancelling (zeta(4)^2 + 1, zeta(3) + zeta(3)^2 + 1)."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        n, k = rng.choice((1, 2, 3, 4, 5, 6, 8, 9, 12)), rng.randint(-3, 12)
        coef = rng.choice(("", "2*", "1/2*", "3/4*"))
        terms.append(rng.choice((f"{coef}zeta({n})^{k}", f"zeta({n})",
                                 str(rng.randint(0, 3)), "1/3")))
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice((" + ", " - ")) + term
    return text


def test_every_result_is_an_int_a_fraction_or_irrational():
    # The invariant CycScalar's methods rely on: no operation returns a
    # zero or rational CycScalar, so a CycScalar never needs a zero test.
    # as_cyc's cells, rref's input, are the one exception
    # (test_as_cyc_cells); rref unwraps them before any arithmetic.
    rng = random.Random(35)
    pool = [0, 1, -1, Fraction(1, 2), root_of_unity(4, 1),
            root_of_unity(9, 2), parse_scalar("zeta(8) + 1/2")]

    def fresh():
        if rng.random() < 0.5:
            n = rng.choice((1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15))
            return root_of_unity(n, rng.randrange(-n, 2 * n))
        return parse_scalar(_random_literal(rng))

    for _ in range(3000):
        x, y = rng.choice(pool), rng.choice(pool)
        op = rng.randrange(10)
        if op == 0:
            out = [x + y, y + x, x + 1, Fraction(1, 3) + x]
        elif op == 1:
            out = [x - y, x - x, (x + y) - y, 2 - x]
        elif op == 2:
            out = [x * y, x * 0, x * Fraction(-2, 3), -x]
        elif op == 3:
            out = [] if x == 0 else [inv(x), x * inv(x)]
            if isinstance(x, CycScalar):
                out.append(x ** -1)
        elif op == 4:
            k = rng.randint(-3 if x != 0 else 0, 4)
            out = [x ** k] if isinstance(x, CycScalar) else []
        elif op == 5 and isinstance(x, CycScalar):
            up = x.promote(x.conductor * rng.choice((1, 2, 3, 4)))
            out = [up - x, up, up * y]
        else:
            out = [fresh()]
        for z in out:
            _assert_normal_form(z)
        pool[rng.randrange(len(pool))] = out[0] if out else fresh()
        if rng.random() < 0.2:  # keep coefficients small
            pool[rng.randrange(len(pool))] = fresh()


def _random_entry(rng, conductors):
    n = rng.choice(conductors)
    x = (Fraction(rng.randint(-4, 4), rng.randint(1, 3))
         * root_of_unity(n, rng.randrange(n)))
    if rng.random() < 0.3:
        x = x + rng.randint(1, 3)
    return x


def _random_matrix(rng, nrows, ncols, density, conductors):
    return [[_random_entry(rng, conductors) if rng.random() < density
             else 0 for _ in range(ncols)]
            for _ in range(nrows)]


def _rref_cases():
    rng = random.Random(11)
    zero = 0
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
        reduced, pivots = rref(_cells(mat))
        oracle, oracle_pivots = dense_rref(mat)
        assert pivots == oracle_pivots
        # Sparse rows: nonzero scalars only, keys ascending; a rational is
        # an int or a Fraction, and only an irrational a CycScalar.
        for row in reduced:
            assert list(row) == sorted(row)
            for x in row.values():
                assert x
                if isinstance(x, CycScalar):
                    _assert_normal_form(x)
                else:
                    _assert_plain_rational(x, x)
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
            for x in vec:
                _assert_normal_form(x)
            for row in mat:
                assert sum(a * x for a, x in zip(row, vec)) == 0


def test_det_and_matmul():
    z4 = root_of_unity(4, 1)
    m = [[z4, 1], [1, z4]]
    _assert_plain_rational(det(m), -2)
    assert det(identity_matrix(3)) == 1
    prod = mat_mul(m, m)
    assert prod[0][0] == 0  # z4^2 + 1
