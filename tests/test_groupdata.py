import json
import os
import random
from itertools import permutations, product

import pytest

from oracles import (pentagon_holds, pentagon_on_values, preantipode_scalar,
                     stored_conductor)
from ydweyl import groupdata
from ydweyl.cli import Session
from ydweyl.cyclo import inv, root_of_unity
from ydweyl.errors import ResourceBoundError, ValidationError
from ydweyl.groupdata import (MAX_GROUP_ORDER, Cocycle3, check_3cocycle,
                              group_from_cayley, make_abelian_group,
                              sign_cocycle)

SESSIONS = os.path.join(os.path.dirname(__file__), "..", "sessions")


def test_make_abelian_group_orders():
    assert make_abelian_group([2, 2, 2]).order == 8
    assert make_abelian_group([1]).order == 1
    assert make_abelian_group([2, 2, 4]).order == 16


def test_make_abelian_group_rejects_empty():
    for orders in ([], [0], [2.5], [True, 2], ["2"]):
        with pytest.raises(ValueError):
            make_abelian_group(orders)


def test_group_order_limit():
    assert make_abelian_group([2, MAX_GROUP_ORDER // 2]).order == MAX_GROUP_ORDER
    with pytest.raises(ResourceBoundError):
        make_abelian_group([1000000, 1000000])
    # Checked before the table is read: these rows are not even valid.
    with pytest.raises(ResourceBoundError):
        group_from_cayley([None] * (MAX_GROUP_ORDER + 1))


def test_group_check_and_names():
    g = make_abelian_group([2, 3])
    assert g.check().ok
    assert g.element_name(0) == "1"
    idx = g.element_index((1, 2))
    assert g.element_name(idx) == "g1*g2^2"
    assert g.mul(idx, g.inv(idx)) == 0


def test_group_from_cayley_roundtrip():
    g = make_abelian_group([4])
    h = group_from_cayley([list(row) for row in g.cayley])
    assert h.order == 4 and h.check().ok


def test_group_from_cayley_rejects_nonassociative():
    # A magma with identity 0 that is not associative.
    table = [[0, 1, 2], [1, 2, 2], [2, 2, 1]]
    with pytest.raises(ValidationError):
        group_from_cayley(table)


def test_sign_cocycle_values(z2cubed):
    group, phi = z2cubed
    h1 = group.element_index((1, 0, 0))
    h2 = group.element_index((0, 1, 0))
    h3 = group.element_index((0, 0, 1))
    assert phi.value(h3, h2, h1) == -1
    assert phi.value(h1, h2, h3) == 1
    assert phi.value(0, h2, h3) == 1
    assert phi.value(h1, 0, h3) == 1
    assert phi.value(h1, h2, 0) == 1


def test_sign_cocycle_passes_pentagon(z2cubed):
    _, phi = z2cubed
    assert check_3cocycle(phi).ok


def test_trivial_cocycle_passes(z2cubed):
    group, _ = z2cubed
    assert check_3cocycle(Cocycle3.trivial(group)).ok


def test_corrupted_cocycle_fails_with_witness(z2cubed):
    group, phi = z2cubed
    flat = list(phi._table)
    n = group.order
    flat[(3 * n + 5) * n + 6] = flat[(3 * n + 5) * n + 6] * -1
    bad = Cocycle3(group, flat)
    report = check_3cocycle(bad)
    assert not report.ok
    assert "quadruple" in report.violations[0]


def test_sign_cocycle_needs_three_factors():
    with pytest.raises(ValidationError):
        sign_cocycle(make_abelian_group([2, 2]))


def test_non_normalized_table_rejected(z2cubed):
    group, phi = z2cubed
    flat = list(phi._table)
    flat[0] = -1  # Phi(1,1,1) must be 1
    with pytest.raises(ValidationError):
        Cocycle3(group, flat)


def test_zero_value_rejected(z2cubed):
    group, phi = z2cubed
    flat = list(phi._table)
    flat[-1] = 0
    with pytest.raises(ValidationError):
        Cocycle3(group, flat)


@pytest.mark.parametrize("first, shown", [(1.0, r"1\.0"), (True, "True")])
def test_inexact_or_bool_entry_rejected(first, shown):
    # A float or a bool equals 1 and would pass normalization and pentagon.
    group = make_abelian_group([2])
    with pytest.raises(ValidationError, match=f"^cocycle table entry 0 is "
                       f"{shown}, not an int, a Fraction or a CycScalar$"):
        Cocycle3(group, [first] + [1] * 7)


def test_preantipode_scalars(z2cubed):
    group, phi = z2cubed
    triv = Cocycle3.trivial(group)
    for g in group.elements():
        assert preantipode_scalar(triv, g) == 1
    g123 = group.element_index((1, 1, 1))
    g1 = group.element_index((1, 0, 0))
    assert preantipode_scalar(phi, g123) == -1
    assert preantipode_scalar(phi, g1) == 1


def _s3_trivial():
    perms = sorted(permutations(range(3)))  # identity first
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(3))] for q in perms]
             for p in perms]
    return Cocycle3.trivial(group_from_cayley(table))


def _z3_twisted():
    with open(os.path.join(SESSIONS, "z3twisted.json")) as fh:
        return Session(json.load(fh)).cocycle


@pytest.mark.parametrize("make", [
    lambda: sign_cocycle(make_abelian_group([2, 2, 2])), _z3_twisted,
    _s3_trivial], ids=["sign-z2cubed", "z3twisted", "trivial-s3"])
def test_derived_scalars_match_their_formulas(make):
    # Each memo holds the inline formula's scalar at the same stored
    # conductor (printed by `reflect`), and a repeated call returns it.
    phi = make()
    G = phi.group
    v = phi.value
    for a, b, c in product(G.elements(), repeat=3):
        bcb = G.conj(b, c)
        abcba = G.conj(a, bcb)
        ab, ac = G.conj(a, b), G.conj(a, c)
        cases = [
            (phi.inverse, inv(v(a, b, c))),
            (phi.omega, v(a, b, c) * v(abcba, a, b) * inv(v(a, bcb, b))),
            (phi.tensor_action, v(a, b, c) * v(ab, ac, a) * inv(v(ab, a, c))),
        ]
        for method, expect in cases:
            got = method(a, b, c)
            # str prints every stored coefficient at the stored conductor.
            assert ((stored_conductor(got), str(got))
                    == (stored_conductor(expect), str(expect)))
            assert method(a, b, c) is got
    assert preantipode_scalar(phi, 1) is phi.inverse(1, G.inv(1), 1)


def test_antipode_axiom_at_grouplikes(z2cubed):
    # Phi(g, g^-1, g) * beta(g) = 1 for all g, with beta the preantipode
    # scalar (alpha is 1 at group-likes).
    group, phi = z2cubed
    for g in group.elements():
        product = phi.value(g, group.inv(g), g) * preantipode_scalar(phi, g)
        assert product == 1


def test_sign_cocycle_on_224_passes():
    group = make_abelian_group([2, 2, 4])
    assert check_3cocycle(sign_cocycle(group)).ok


@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2]])
def test_check_3cocycle_agrees_with_full_pentagon_walk(orders):
    # check_3cocycle skips quadruples with an identity argument; the oracle
    # walks all of them.  Tables: coboundaries d(mu) of random normalized
    # 2-cochains (cocycles), some with random non-identity entries
    # multiplied by a fourth root of unity (mostly not cocycles).
    group = make_abelian_group(orders)
    n, mul = group.order, group.mul
    rng = random.Random(len(orders) * 100 + n)
    units = [root_of_unity(4, k) for k in range(4)]
    verdicts = set()
    for trial in range(24):
        mu = {(a, b): rng.choice(units) if a and b else 1
              for a, b in product(range(n), repeat=2)}
        table = [mu[b, c] * mu[a, mul(b, c)] * inv(mu[mul(a, b), c] * mu[a, b])
                 for a, b, c in product(range(n), repeat=3)]
        for _ in range(trial % 3):
            a, b, c = (rng.randrange(1, n) for _ in range(3))
            table[(a * n + b) * n + c] *= rng.choice(units)
        phi = Cocycle3(group, table)
        expected = pentagon_holds(phi)
        assert check_3cocycle(phi).ok == expected, (trial, expected)
        verdicts.add(expected)
    assert verdicts == {True, False}


@pytest.mark.parametrize("make", [
    lambda: sign_cocycle(make_abelian_group([2, 2, 2])),
    lambda: Cocycle3.trivial(make_abelian_group([2, 2, 2])),
    _z3_twisted], ids=["sign-z2cubed", "trivial-z2cubed", "z3twisted"])
def test_check_3cocycle_matches_the_scalar_walk_on_corrupted_tables(make):
    # check_3cocycle multiplies each combination of stored values once; on
    # any table its report (verdict and first-failure line) is the one the
    # walk that multiplies out every quadruple gives.  Factors: roots of
    # unity, 2 (not a root of unity) and zeta(999) (a root of unity of
    # order 1998, above MAX_CONDUCTOR).
    phi = make()
    G = phi.group
    n = G.order
    rng = random.Random(n)
    factors = [-1, root_of_unity(4, 1), root_of_unity(3, 1), 2,
               root_of_unity(999, 1)]
    tables = [list(phi._table)]
    for factor in factors:
        for _ in range(3):
            a, b, c = (rng.randrange(1, n) for _ in range(3))
            flat = list(phi._table)
            flat[(a * n + b) * n + c] = flat[(a * n + b) * n + c] * factor
            tables.append(flat)
    verdicts = set()
    for flat in tables:
        got = check_3cocycle(Cocycle3(G, flat))
        want = pentagon_on_values(Cocycle3(G, flat))
        assert (got.ok, got.violations) == (want.ok, want.violations)
        assert got.ok == pentagon_holds(Cocycle3(G, flat))
        verdicts.add(got.ok)
    assert verdicts == {True, False}


def test_check_3cocycle_report_is_memoized(z2cubed):
    _, phi = z2cubed
    assert check_3cocycle(phi) is check_3cocycle(phi) is phi.pentagon()


def _coboundary(group, psi) -> list:
    """The table of (d psi)(a, b, c) for a normalized 2-cochain psi."""
    n, mul = group.order, group.mul
    return [psi[b, c] * psi[a, mul(b, c)] * inv(psi[mul(a, b), c] * psi[a, b])
            for a, b, c in product(range(n), repeat=3)]


def _generated_tables(rng) -> list:
    """(group, table) for coboundaries of random normalized 2-cochains:
    root-of-unity values on abelian groups of order <= 8, and rational
    values in {2, 3, 5, 7, 11} on Z2^3 and Z2 x Z4."""
    cases = []
    for orders, m in (([2], 4), ([3], 3), ([4], 8), ([2, 2], 6), ([5], 5),
                      ([6], 6), ([7], 2), ([2, 4], 4), ([8], 8),
                      ([2, 2, 2], 3)):
        cases.append((orders, [root_of_unity(m, k) for k in range(m)]))
    primes = [2, 3, 5, 7, 11]
    cases += [([2, 2, 2], primes), ([2, 4], primes)]
    tables = []
    for orders, values in cases:
        group = make_abelian_group(orders)
        psi = {(a, b): rng.choice(values) if a and b else 1
               for a, b in product(group.elements(), repeat=2)}
        tables.append((group, _coboundary(group, psi)))
    return tables


def _outcome(walk, phi):
    """walk(phi)'s verdict and violations, or the bound its products hit."""
    try:
        report = walk(phi)
    except ResourceBoundError as exc:
        return str(exc)
    return report.ok, report.violations


def test_check_3cocycle_matches_the_reference_on_generated_cocycles(
        monkeypatch):
    # Generated coboundaries pass, and each one-entry corruption gets the
    # reference's report and the full walk's verdict, whatever the size at
    # which the walk forgets the value combinations it has seen hold.  With
    # zeta(999) among other conductors a product can exceed MAX_CONDUCTOR:
    # a corruption that does is skipped, and a walk that does must raise
    # where the reference raises.
    rng = random.Random(26)
    factors = [-1, root_of_unity(4, 1), root_of_unity(3, 1), 2,
               root_of_unity(999, 1), root_of_unity(9, 2)]
    cases = []
    for group, table in _generated_tables(rng):
        n = group.order
        tables = [table]
        for factor in rng.sample(factors, 3):
            a, b, c = (rng.randrange(1, n) for _ in range(3))
            flat = list(table)
            try:
                flat[(a * n + b) * n + c] = flat[(a * n + b) * n + c] * factor
            except ResourceBoundError:
                continue
            tables.append(flat)
        for flat in tables:
            want = _outcome(pentagon_on_values, Cocycle3(group, flat))
            if not isinstance(want, str):
                assert want[0] == pentagon_holds(Cocycle3(group, flat))
            cases.append((group, flat, want))
        assert cases[-len(tables)][2] == (True, [])
    outcomes = {want if isinstance(want, str) else want[0]
                for _, _, want in cases}
    assert {True, False} < outcomes
    for cap in (groupdata.MAX_HELD_CODES, 1, 7):
        monkeypatch.setattr(groupdata, "MAX_HELD_CODES", cap)
        for group, flat, want in cases:
            assert _outcome(check_3cocycle, Cocycle3(group, flat)) == want, cap
