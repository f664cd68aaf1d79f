import gc
import weakref
from itertools import combinations

import pytest

from ydweyl.cyclo import CycScalar, det, identity_matrix, mat_mul
from ydweyl.errors import ValidationError
from ydweyl.groupdata import make_abelian_group, sign_cocycle
from ydweyl.ydcat import (ModuleTuple, YDModule, dual, iso_test,
                          module_canonical_key, preset_module, yd_axiom_check)
from oracles import braiding_matrix, tensor, trivial_module, tuple_iso


def test_w1_action_table_matches_source(z2cubed, w_presets):
    group, _ = z2cubed
    w1 = w_presets[1]
    h1 = group.element_index((1, 0, 0))
    h2 = group.element_index((0, 1, 0))
    h3 = group.element_index((0, 0, 1))
    minus_one = CycScalar.from_rational(-1)
    assert w1.act_matrix(h1)[0][0] == minus_one
    assert w1.act_matrix(h1)[1][1] == minus_one
    assert w1.act_matrix(h2)[0][0] == 1 and w1.act_matrix(h2)[1][1] == minus_one
    assert w1.act_matrix(h3)[0][1] == 1 and w1.act_matrix(h3)[1][0] == 1


def test_presets_pass_axiom_check(w_presets):
    for k, mod in w_presets.items():
        assert yd_axiom_check(mod).ok, k


def test_trivial_module_passes(z2cubed):
    group, phi = z2cubed
    assert yd_axiom_check(trivial_module(group, phi)).ok


def test_broken_action_fails_axioms(z2cubed, w_presets):
    group, phi = z2cubed
    w1 = w_presets[1]
    h3 = group.element_index((0, 0, 1))
    action = dict(w1.action)
    action[h3] = identity_matrix(2)  # replace the swap by the identity
    broken = YDModule(group, phi, w1.degrees, action)
    report = yd_axiom_check(broken)
    assert not report.ok
    assert any("twisted composition" in v for v in report.violations)


def test_tensor_passes_axioms_and_multiplies_degrees(z2cubed, w_presets):
    group, _ = z2cubed
    for a, b in [(1, 2), (2, 3), (4, 5)]:
        t = tensor(w_presets[a], w_presets[b])
        assert yd_axiom_check(t).ok
        for i in range(w_presets[a].dim):
            for j in range(w_presets[b].dim):
                assert (t.degrees[i * 2 + j]
                        == group.mul(w_presets[a].degrees[i],
                                     w_presets[b].degrees[j]))


def test_tensor_with_unit_is_identity(z2cubed, w_presets):
    group, phi = z2cubed
    triv = trivial_module(group, phi)
    assert iso_test(tensor(w_presets[1], triv), w_presets[1]) is not None
    assert iso_test(tensor(triv, w_presets[1]), w_presets[1]) is not None


def test_braiding_on_w1_is_minus_flip(w_presets):
    c = braiding_matrix(w_presets[1], w_presets[1])
    minus_one = CycScalar.from_rational(-1)
    for i in range(2):
        for j in range(2):
            assert c[j * 2 + i][i * 2 + j] == minus_one


def test_braiding_of_trivial_data_is_flip(z2cubed):
    group, _ = z2cubed
    from ydweyl.cyclo import CycScalar as S
    from ydweyl.groupdata import Cocycle3
    phi0 = Cocycle3.trivial(group)
    triv = trivial_module(group, phi0)
    assert braiding_matrix(triv, triv) == identity_matrix(1)
    # 2-dimensional identity-degree module with trivial action: c = flip
    ident = {g: identity_matrix(2) for g in group.elements()}
    flat = YDModule(group, phi0, [group.identity, group.identity], ident)
    c = braiding_matrix(flat, flat)
    for i in range(2):
        for j in range(2):
            assert c[j * 2 + i][i * 2 + j] == S.one()


def test_braiding_invertible(w_presets):
    for a, b in [(1, 1), (1, 2), (3, 5)]:
        c = braiding_matrix(w_presets[a], w_presets[b])
        assert not det(c).is_zero()


def test_associator_scalar(z2cubed):
    group, phi = z2cubed
    h1 = group.element_index((1, 0, 0))
    h2 = group.element_index((0, 1, 0))
    h3 = group.element_index((0, 0, 1))
    assert phi.inverse(h3, h2, h1) == -1
    assert phi.inverse(h1, h2, h3) == 1


def test_duals_selfdual_and_validated(z2cubed, w_presets):
    group, phi = z2cubed
    for k, mod in w_presets.items():
        d = dual(mod)
        assert yd_axiom_check(d).ok
        assert iso_test(d, mod) is not None, k
        assert sorted(d.degrees) == sorted(group.inv(x) for x in mod.degrees)
    triv = trivial_module(group, phi)
    assert iso_test(dual(triv), triv) is not None


def test_double_dual(w_presets):
    for mod in w_presets.values():
        assert iso_test(dual(dual(mod)), mod) is not None


def test_memoized_module_is_freed(z2cubed):
    # module_canonical_key() memoizes per module; a dropped module must not
    # stay alive through it.
    group, phi = z2cubed
    mod = preset_module("W1", group, phi)
    assert module_canonical_key(mod) is module_canonical_key(mod)
    ref = weakref.ref(mod)
    del mod
    gc.collect()
    assert ref() is None


def test_iso_test_identity_and_classes(w_presets):
    t = iso_test(w_presets[1], w_presets[1])
    assert t is not None
    for a, b in combinations(range(1, 7), 2):
        assert iso_test(w_presets[a], w_presets[b]) is None


def test_iso_test_is_equivalence_on_presets(w_presets):
    # reflexive + symmetric + transitive on the six presets and their duals
    mods = list(w_presets.values()) + [dual(m) for m in w_presets.values()]
    for a in mods:
        assert iso_test(a, a) is not None
    for a in mods:
        for b in mods:
            ab = iso_test(a, b)
            ba = iso_test(b, a)
            assert (ab is None) == (ba is None)
    for a in mods:
        for b in mods:
            for c in mods:
                if iso_test(a, b) is not None and iso_test(b, c) is not None:
                    assert iso_test(a, c) is not None


def test_iso_test_intertwines(z2cubed, w_presets):
    group, _ = z2cubed
    w1 = w_presets[1]
    t = iso_test(w1, dual(w1))
    assert t is not None
    d = dual(w1)
    for g in group.elements():
        lhs = mat_mul(t, w1.act_matrix(g))
        rhs = mat_mul(d.act_matrix(g), t)
        assert all(lhs[i][j] == rhs[i][j] for i in range(2) for j in range(2))


def test_v_presets_on_224():
    group = make_abelian_group([2, 2, 4])
    phi = sign_cocycle(group)
    for name in ("V1", "V2", "V3"):
        mod = preset_module(name, group, phi)
        assert yd_axiom_check(mod).ok
        assert mod.dim == 2


def test_tuple_requires_shared_structure(z2cubed, w_presets):
    group2 = make_abelian_group([2, 2, 2])
    phi2 = sign_cocycle(group2)
    other = preset_module("W1", group2, phi2)
    with pytest.raises(ValidationError):
        ModuleTuple([w_presets[1], other])


def test_tuple_iso(w_presets):
    t1 = ModuleTuple([w_presets[1], w_presets[2]])
    t2 = ModuleTuple([w_presets[1], dual(w_presets[2])])
    t3 = ModuleTuple([w_presets[2], w_presets[1]])
    assert tuple_iso(t1, t2)
    assert not tuple_iso(t1, t3)
