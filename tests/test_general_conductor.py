"""General-conductor exercise: the nontrivial 3-cocycle on Z3.

The worked family only ever needs signs; this drives the same engine with
a cocycle valued in cube roots of unity.  The twisted composition law then
forces a 1-dimensional module of generator degree to act by a primitive
*ninth* root, and its Nichols algebra truncates at dimension 9 -- all of
which must come out of exact arithmetic in Q(zeta_9).
"""

import pytest

from ydweyl.cyclo import root_of_unity
from ydweyl.errors import ValidationError
from ydweyl.groupdata import Cocycle3, check_3cocycle, make_abelian_group
from ydweyl.nichols import nichols_truncate
from ydweyl.ydcat import (dual, module_from_generator_actions, yd_axiom_check)
from oracles import check_against_symmetrizer


@pytest.fixture(scope="module")
def z3_twisted():
    group = make_abelian_group([3])
    z3 = root_of_unity(3, 1)

    def phi_fn(a, b, c):
        ea = group.exponents[a][0]
        eb = group.exponents[b][0]
        ec = group.exponents[c][0]
        return z3 ** (ea * ((eb + ec) // 3))

    return group, Cocycle3.from_function(group, phi_fn)


def test_z3_cocycle_passes_pentagon(z3_twisted):
    _, phi = z3_twisted
    assert check_3cocycle(phi).ok


def test_projective_obstruction_selects_ninth_roots(z3_twisted):
    group, phi = z3_twisted
    valid = []
    for k in range(9):
        s = root_of_unity(9, k)
        try:
            module_from_generator_actions(group, phi, 1, {1: [[s]]})
            valid.append(k)
        except ValidationError:
            pass
    # chi(g)^3 is pinned to a primitive cube root by the twisted
    # composition law, so only k = 1 mod 3 survives.
    assert valid == [1, 4, 7]


def test_twisted_line_nichols_dimension_nine(z3_twisted):
    group, phi = z3_twisted
    for k in (1, 4, 7):
        module = module_from_generator_actions(
            group, phi, 1, {1: [[root_of_unity(9, k)]]}, name=f"L{k}")
        assert yd_axiom_check(module).ok
        dims = nichols_truncate(module, 10).graded_dims()
        assert dims == (1,) * 9 + (0, 0), k


def test_conductor_nine_oracle_agreement(z3_twisted):
    group, phi = z3_twisted
    line = {k: module_from_generator_actions(
                group, phi, 1, {1: [[root_of_unity(9, k)]]}, name=f"L{k}")
            for k in (1, 4)}
    for slots, max_n in ((line[4], 5), ([line[1], line[4]], 4)):
        trunc = nichols_truncate(slots, max_n)
        for n in range(1, max_n + 1):
            check_against_symmetrizer(trunc, n)


def test_conductor_nine_dual(z3_twisted):
    group, phi = z3_twisted
    module = module_from_generator_actions(
        group, phi, 1, {1: [[root_of_unity(9, 1)]]}, name="L1")
    d = dual(module)
    assert yd_axiom_check(d).ok
    assert (nichols_truncate(d, 9).graded_dims()
            == nichols_truncate(module, 9).graded_dims())
