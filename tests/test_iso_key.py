"""The complete iso key against the exact intertwiner oracle.

`module_canonical_key` is a module's character over the twisted Drinfeld
double; the graph layer trusts key equality as isomorphism.  These tests
check, on every same-dimension pair of a module family, that the keys agree
exactly when `iso_test` finds an isomorphism.  The families: simple YD
modules over the nonabelian S3, and conductor-9 lines over Z3 with a
nontrivial cocycle.
"""

import json
import os
from itertools import combinations, permutations

import pytest

from ydweyl.cli import Session
from ydweyl.cyclo import CycScalar, root_of_unity
from ydweyl.groupdata import Cocycle3, group_from_cayley, make_abelian_group
from ydweyl.reflect import ad_power_module
from ydweyl.ydcat import (ModuleTuple, YDModule, dual, iso_test,
                          module_canonical_key, module_from_generator_actions,
                          tensor, yd_axiom_check)

SESSIONS = os.path.join(os.path.dirname(__file__), "..", "sessions")


def _check_key_against_oracle(modules) -> tuple[int, int]:
    """Assert key agreement on every same-dimension pair; (pairs, isos)."""
    pairs = isos = 0
    for a, b in combinations(modules, 2):
        if a.dim != b.dim:
            continue
        iso = iso_test(a, b) is not None
        assert (module_canonical_key(a) == module_canonical_key(b)) == iso, \
            (a.name, b.name)
        pairs += 1
        isos += iso
    return pairs, isos


def _s3():
    perms = sorted(permutations(range(3)))

    def compose(p, q):
        return tuple(p[q[x]] for x in range(3))

    index = {p: i for i, p in enumerate(perms)}
    group = group_from_cayley([[index[compose(p, q)] for q in perms]
                               for p in perms])
    return group, Cocycle3.trivial(group), perms


def _sign(p) -> int:
    return -1 if sum(p[i] > p[j] for i in range(3)
                     for j in range(i + 1, 3)) % 2 else 1


def _induced(group, phi, rep, chi, name):
    """Simple YD module over a trivial cocycle: the class of rep, chi on C(rep).

    Basis v_k = s_k . v for k in the class, s_k the first element with
    s_k rep s_k^-1 = k; then g . v_k = chi(s_{gkg^-1}^-1 g s_k) v_{gkg^-1}.
    """
    coset = {}
    for s in group.elements():
        coset.setdefault(group.conj(s, rep), s)
    klass = sorted(coset)
    action = {}
    for g in group.elements():
        mat = [[CycScalar.zero()] * len(klass) for _ in klass]
        for col, k in enumerate(klass):
            target = group.conj(g, k)
            h = group.mul(group.inv(coset[target]), group.mul(g, coset[k]))
            mat[klass.index(target)][col] = chi(h)
        action[g] = mat
    return YDModule(group, phi, klass, action, name=name)


@pytest.fixture(scope="module")
def s3_family():
    """FK3, the untwisted transposition module, two 3-cycle modules, sign
    and trivial; the duals of all six, and the sign twists of the four
    modules of dimension > 1 and of their duals (20 modules)."""
    group, phi, perms = _s3()
    ident = 0
    transposition, cycle = perms.index((1, 0, 2)), perms.index((1, 2, 0))
    powers = {0: 0, cycle: 1, group.mul(cycle, cycle): 2}

    def sign(h):
        return CycScalar.from_rational(_sign(perms[h]))

    def one(h):
        return CycScalar.one()

    def omega(h):
        return root_of_unity(3, powers[h])

    sgn = _induced(group, phi, ident, sign, "sgn")
    base = [_induced(group, phi, transposition, sign, "FK3"),
            _induced(group, phi, transposition, one, "T"),
            _induced(group, phi, cycle, one, "C1"),
            _induced(group, phi, cycle, omega, "Cw")]
    family = (base + [dual(m) for m in base]
              + [tensor(m, sgn) for m in base + [dual(m) for m in base]]
              + [sgn, _induced(group, phi, ident, one, "triv")])
    family += [dual(family[-2]), dual(family[-1])]
    for m in family:
        assert yd_axiom_check(m).ok, m.name
    return family


def test_s3_key_agrees_with_iso_test(s3_family):
    pairs, isos = _check_key_against_oracle(s3_family)
    assert pairs == 62
    # FK3 and the sign twist of T are isomorphic, FK3 and T are not: the
    # family has both outcomes.
    assert 0 < isos < pairs


def test_conductor_nine_key_agrees_with_iso_test():
    with open(os.path.join(SESSIONS, "z3twisted.json")) as fh:
        session = Session(json.load(fh))
    line = session.modules["L"]
    line4 = module_from_generator_actions(
        session.group, session.cocycle, 1, {1: [[root_of_unity(9, 4)]]},
        name="L4")
    pair = ModuleTuple([line, line4])
    levels = [lv.module for i, j in ((0, 1), (1, 0))
              for lv in ad_power_module(pair, i, j).levels]
    family = [line, line4, dual(line), dual(line4)] + levels
    pairs, isos = _check_key_against_oracle(family)
    assert pairs == 55 and 0 < isos < pairs


def test_key_ignores_the_stored_conductor():
    # i written as zeta(8)^2 keeps conductor 8; root_of_unity(4, 1) has 4.
    group = make_abelian_group([4])
    phi = Cocycle3.trivial(group)
    lines = [YDModule(group, phi, [1],
                      {g: [[power(g)]] for g in group.elements()})
             for power in (lambda g: root_of_unity(8, 1) ** (2 * g),
                           lambda g: root_of_unity(4, g))]
    assert lines[0].act_matrix(1)[0][0].conductor == 8
    assert lines[1].act_matrix(1)[0][0].conductor == 4
    assert iso_test(lines[0], lines[1]) is not None
    assert module_canonical_key(lines[0]) == module_canonical_key(lines[1])
