import gc
import json
import os
import re
import weakref
from fractions import Fraction
from itertools import combinations, product

import pytest

from ydweyl import reflect, ydcat
from ydweyl.cli import Session
from ydweyl.cyclo import CycScalar, det, identity_matrix, mat_mul
from ydweyl.errors import ValidationError
from ydweyl.groupdata import Cocycle3, make_abelian_group, sign_cocycle
from ydweyl.weylgraph import build_cartan_graph
from ydweyl.ydcat import (ModuleTuple, YDModule, _generators, dual, iso_test,
                          module_canonical_key, module_from_generator_actions,
                          preset_module, yd_axiom_check)
from conftest import s3_transposition_module, tower_session
from oracles import (braiding_matrix, printed_action, reference_extension,
                     reference_yd_walk, stored_conductor, tensor,
                     trivial_module, tuple_iso)

SESSIONS = os.path.join(os.path.dirname(__file__), "..", "sessions")


def test_w1_action_table_matches_source(z2cubed, w_presets):
    group, _ = z2cubed
    w1 = w_presets[1]
    h1 = group.element_index((1, 0, 0))
    h2 = group.element_index((0, 1, 0))
    h3 = group.element_index((0, 0, 1))
    assert w1.act_matrix(h1)[0][0] == -1
    assert w1.act_matrix(h1)[1][1] == -1
    assert w1.act_matrix(h2)[0][0] == 1 and w1.act_matrix(h2)[1][1] == -1
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


def test_unit_law_failure_is_reported_once(z2cubed):
    # 1 acts by -1 on a 2-dimensional module: both rows break the unit law,
    # and the report names it once.
    group, phi = z2cubed
    minus = [[-x for x in row] for row in identity_matrix(2)]
    action = {g: minus for g in group.elements()}
    report = yd_axiom_check(YDModule(group, phi, [0, 0], action))
    unit = [v for v in report.violations if v.startswith("unit law")]
    assert unit == ["unit law fails: action of 1 is not the identity matrix"]


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
    for i in range(2):
        for j in range(2):
            assert c[j * 2 + i][i * 2 + j] == -1


def test_braiding_of_trivial_data_is_flip(z2cubed):
    group, _ = z2cubed
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
            assert c[j * 2 + i][i * 2 + j] == 1


def test_braiding_invertible(w_presets):
    for a, b in [(1, 1), (1, 2), (3, 5)]:
        c = braiding_matrix(w_presets[a], w_presets[b])
        assert det(c) != 0


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


def _session(name):
    with open(os.path.join(SESSIONS, name)) as fh:
        return Session(json.load(fh))


@pytest.mark.parametrize("name", ["z2cubed", "z2z2z4", "z3twisted", "tower",
                                  "z9pair"])
def test_omega_identity_behind_the_generator_shortcut(name, request):
    # yd_axiom_check checks the composition law on generators only; its
    # induction step needs this identity for all (s, e', f, g).
    if name == "tower":
        phi = Session(tower_session(4)).cocycle
    elif name == "z9pair":
        phi = request.getfixturevalue("z9_pair")[1].cocycle
    else:
        phi = _session(f"{name}.json").cocycle
    G = phi.group
    w = phi.omega
    for s, e, f, g in product(G.elements(), repeat=4):
        assert (w(s, G.mul(e, f), g) * w(e, f, g)
                == w(G.mul(s, e), f, g) * w(s, e, G.conj(f, g))), (s, e, f, g)


@pytest.fixture(scope="module")
def checked_modules():
    """Every module module_from_generator_actions returns while W's and V's
    sessions load and their graphs close (presets, duals and ad levels),
    and S3's transposition module built from its generators' matrices with
    its dual; each with the elements its matrices were given at."""
    built = []

    def recording(group, cocycle, degrees, generator_actions, name=None):
        V = build(group, cocycle, degrees, generator_actions, name=name)
        built.append((V, sorted(generator_actions)))
        return V

    build = ydcat.module_from_generator_actions
    with pytest.MonkeyPatch.context() as mp:
        for home in (ydcat, reflect):
            mp.setattr(home, "module_from_generator_actions", recording)
        for name, tuple_ in (("z2cubed.json", "W"), ("z2z2z4.json", "V")):
            session = _session(name)
            build_cartan_graph(session.tuples[tuple_], pairs=session.pairs(),
                               vertex_bound=session.cutoffs["vertex_bound"])
        group, phi, fk3 = s3_transposition_module()
        dual(ydcat.module_from_generator_actions(
            group, phi, fk3.degrees,
            {g: fk3.action[g] for g in _generators(group)}, name="FK3"))
    return built


_PAIR = re.compile(r"twisted composition fails at "
                   r"\(e=(\d+), f=(\d+), basis (\d+)\)")


def _law_fails(V, e, f, j):
    """Whether e |> (f |> v_j) != omega_{deg j}(e, f) (ef) |> v_j in V."""
    lhs = mat_mul(V.act_matrix(e), V.act_matrix(f))
    w = V.cocycle.omega(e, f, V.degrees[j])
    mef = V.act_matrix(V.group.mul(e, f))
    return any(not lhs[i][j] == w * mef[i][j] for i in range(V.dim))


def _agrees_with_reference(V):
    """yd_axiom_check(V) has the reference walk's verdict, unit line and
    degree lines, and the law fails at the composition pair it names."""
    got, want = yd_axiom_check(V), reference_yd_walk(V)
    pairs = [_PAIR.fullmatch(v) for v in got.violations
             if v.startswith("twisted composition")]
    laws = [[v for v in r.violations if not v.startswith("twisted composition")]
            for r in (got, want)]
    return (got.ok == want.ok and laws[0] == laws[1] and len(pairs) <= 1
            and all(m and _law_fails(V, *map(int, m.groups())) for m in pairs))


def test_axiom_check_matches_full_walk_on_w_and_v(checked_modules):
    names = [V.name for V, _ in checked_modules]
    presets = {f"W{k}" for k in range(1, 7)} | {"V1", "V2", "V3"}
    assert presets | {"FK3", "FK3*"} <= set(names)
    assert any(n.endswith("*") for n in names)
    assert any(n.startswith("ad^") for n in names)
    for V, _ in checked_modules:
        assert reference_yd_walk(V).ok, V.name
        assert _agrees_with_reference(V), V.name
        # One rational arithmetic: a rational entry is an int or a
        # Fraction, never a float, and only an irrational one a CycScalar.
        assert all(type(x) in (int, Fraction)
                   or type(x) is CycScalar and x.conductor > 1
                   for m in V.action.values() for row in m for x in row), \
            V.name


def _corrupt(action, g, i, j):
    """Copies of the matrices in action, entry (i, j) of A_g negated if
    nonzero, else set to 1."""
    action = {h: [list(row) for row in m] for h, m in action.items()}
    x = action[g][i][j]
    action[g][i][j] = -x if x else 1
    return action


def _corrupted(V, g, i, j):
    return YDModule(V.group, V.cocycle, V.degrees, _corrupt(V.action, g, i, j),
                    name=V.name)


def test_axiom_check_matches_full_walk_on_corrupted_modules(checked_modules):
    # One entry of one matrix changed, at a generator of the greedy set, at
    # an element outside it and at the identity: the walk on generators
    # fails exactly when the reference does, with its unit and degree lines
    # and at a pair where the law fails.
    modules = [V for V, _ in checked_modules]
    picked = [V for V in modules if V.name in ("W1", "V2", "FK3")]
    picked.append(next(V for V in modules
                       if V.name.startswith("ad^") and V.group.order == 16))
    for V in picked:
        G = V.group
        gens = _generators(G)
        others = [g for g in G.elements() if g and g not in gens]
        for g in (gens[0], gens[-1], others[0], others[-1], G.identity):
            for i, j in product(range(V.dim), repeat=2):
                bad = _corrupted(V, g, i, j)
                assert not reference_yd_walk(bad).ok, (V.name, g, i, j)
                assert _agrees_with_reference(bad), (V.name, g, i, j)


def _actions(V):
    """V's matrices by value, as printed, and by stored conductor."""
    return (V.action, printed_action(V),
            {g: [[stored_conductor(x) for x in row] for row in m]
             for g, m in V.action.items()})


def test_builder_reproduces_every_built_module(checked_modules):
    # Fed back its own matrices at a greedy generating set, or at the
    # elements they were first given at (W4-W6 are given at non-greedy
    # sets), the builder returns the module it built.
    for V, keys in checked_modules:
        for gens in (_generators(V.group), keys):
            again = module_from_generator_actions(
                V.group, V.cocycle, V.degrees,
                {g: V.action[g] for g in gens}, name=V.name)
            assert _actions(again) == _actions(V), (V.name, gens)


def test_builder_rejects_what_the_reference_rejects(checked_modules):
    # One entry of one given matrix changed per module: the builder raises
    # exactly when the unchecked extension of the same matrices fails the
    # reference walk.
    rejected = 0
    for n, (V, keys) in enumerate(checked_modules):
        g = keys[n % len(keys)]
        i, j = divmod(n % V.dim ** 2, V.dim)
        given = _corrupt({h: V.action[h] for h in keys}, g, i, j)
        rejected += _builder_rejects_as_reference(
            V.group, V.cocycle, V.degrees, given, (V.name, g, i, j))
    assert rejected > len(checked_modules) // 2


def _builder_rejects_as_reference(group, phi, degrees, given, case) -> bool:
    """Whether the builder raises on the given matrices, asserting that it
    does exactly when their unchecked extension fails the reference walk."""
    ok = reference_yd_walk(reference_extension(group, phi, degrees, given)).ok
    try:
        module_from_generator_actions(group, phi, degrees, given)
    except ValidationError as exc:
        assert not ok, case
        assert str(exc).startswith("generator actions are inconsistent"), case
        return True
    assert ok, case
    return False


def test_builder_checks_a_matrix_given_for_the_identity():
    group = make_abelian_group([2])
    phi = Cocycle3.trivial(group)
    one, minus = [[1]], [[-1]]
    with pytest.raises(ValidationError,
                       match="generator actions are inconsistent"):
        module_from_generator_actions(group, phi, 1, {0: minus, 1: minus})
    V = module_from_generator_actions(group, phi, 1, {0: one, 1: minus})
    assert V.action == {0: ((1,),), 1: ((-1,),)}


def test_builder_checks_every_pair_when_the_pentagon_fails(z2cubed,
                                                           w_presets):
    # Phi(g3, g2 g3, g2) negated breaks the pentagon, and with it the
    # induction from generators: W3's generator matrices pass the walk on
    # generators, yet the law fails at another pair.  The builder then
    # checks all of G, and raises exactly when the reference walk does.
    group, phi = z2cubed
    g2 = group.element_index((0, 1, 0))
    g3 = group.element_index((0, 0, 1))
    at = (g3 * 8 + group.mul(g2, g3)) * 8 + g2
    flat = list(phi._table)
    flat[at] = -flat[at]
    broken = Cocycle3(group, flat)
    assert not broken.pentagon().ok
    gens = _generators(group)
    w3 = {g: w_presets[3].action[g] for g in gens}
    assert ydcat._yd_walk(group, broken, w_presets[3].degrees, w3,
                          {group.identity: identity_matrix(2)}).ok
    rejected = [k for k, V in w_presets.items()
                if _builder_rejects_as_reference(
                    group, broken, V.degrees,
                    {g: V.action[g] for g in gens}, k)]
    assert 3 in rejected
