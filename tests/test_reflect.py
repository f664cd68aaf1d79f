import json
import os
import random

import pytest

from ydweyl import reflect as reflect_module
from ydweyl import ydcat
from ydweyl.cli import Session
from ydweyl.cyclo import inv, root_of_unity, rref
from ydweyl.errors import UndecidedAtCutoff, ValidationError
from ydweyl.freebraid import GradedVector
from ydweyl.nichols import nichols_truncate
from ydweyl.reflect import (PairCache, _ad_level, ad_group, ad_power_module,
                            ad_primitive, cartan_matrix, reflect)
from ydweyl.weylgraph import build_cartan_graph
from ydweyl.ydcat import ModuleTuple, _generators, iso_test, yd_axiom_check
from conftest import tower_session
from oracles import (SmashAlgebra, coinvariant_dims, level_dims,
                     printed_action, reference_ad_action, reference_dual,
                     trivial_module, tuple_iso)

X1, X2, Y1, Y2 = (0, 0), (0, 1), (1, 0), (1, 1)


@pytest.fixture(scope="module")
def trunc_pair(w_pair):
    return nichols_truncate(w_pair, 4)


def _rank(trunc, md, vectors):
    blk = trunc.block(md)
    reduced, _ = rref([blk.coords(v) for v in vectors])
    return len(reduced)


def test_ad_group_equals_action(z2cubed, w_presets):
    group, _ = z2cubed
    trunc = nichols_truncate(w_presets[2], 3)
    h1 = group.element_index((1, 0, 0))
    y1 = GradedVector.from_word(((0, 0),))
    assert ad_group(trunc, h1, y1) == GradedVector.from_word(((0, 1),))
    assert ad_group(trunc, group.identity, y1) == y1


def test_ad_primitive_relations(trunc_pair):
    # The four values ad(X_a)(Y_b) span a 2-dimensional space.
    vals = [ad_primitive(trunc_pair,
                         GradedVector.from_word(((0, a),)),
                         GradedVector.from_word(((1, b),)))
            for a in range(2) for b in range(2)]
    assert _rank(trunc_pair, (1, 1), vals) == 2


def test_ad_primitive_squares_vanish(trunc_pair):
    for a in range(2):
        for b in range(2):
            x = GradedVector.from_word(((0, a),))
            y = GradedVector.from_word(((1, b),))
            assert ad_primitive(trunc_pair, x, ad_primitive(trunc_pair, x, y)).is_zero()


def test_ad_primitive_unit_case(trunc_pair):
    # ad(X)(1) = X*1 - (x |> 1)*X = 0 by the adjoint formula.
    x = GradedVector.from_word(((0, 0),))
    assert ad_primitive(trunc_pair, x, GradedVector.from_word(())).is_zero()


def test_ad_primitive_input_guards(trunc_pair):
    with pytest.raises(ValidationError):
        ad_primitive(trunc_pair, GradedVector.from_word((X1, X2)),
                     GradedVector.from_word((Y1,)))
    mixed = (GradedVector.from_word((X1,))
             + GradedVector.from_word((Y1,)))
    with pytest.raises(ValidationError):
        ad_primitive(trunc_pair, mixed, GradedVector.from_word((Y1,)))


def test_ad_power_levels(w_presets, w_pair):
    levels = ad_power_module(w_pair, 0, 1)
    assert level_dims(levels) == (2, 2)
    assert levels.m == 1
    assert not levels.undecided
    # level 0 is M_j itself
    assert iso_test(levels.levels[0].module, w_presets[2]) is not None
    # top level is a valid module isomorphic to W4
    assert yd_axiom_check(levels.levels[1].module).ok
    assert iso_test(levels.top_module(), w_presets[4]) is not None


def test_tower_with_intermediate_levels(z9_pair):
    group, pair = z9_pair
    g = group.element_index((1,))
    levels = ad_power_module(pair, 0, 1)
    assert level_dims(levels) == (1, 1, 1, 1, 1)
    assert levels.m == 4
    assert [group.element_name(lv.module.degrees[0])
            for lv in levels.levels] == ["g1", "g1^2", "1", "g1", "g1^2"]
    zeta = root_of_unity(9, 1)
    assert [lv.module.act_matrix(g)[0][0] for lv in levels.levels] == [
        zeta ** 4, zeta ** 5, 1, zeta, zeta ** 2]
    back = ad_power_module(pair, 1, 0)
    assert level_dims(back) == (1, 1)
    assert back.m == 1


def test_level_zero_is_m_j(w_pair, z9_pair):
    # The letters of slot j are their own normal forms, so the level routine
    # applied to them rebuilds M_j's degrees and matrices entry for entry:
    # level 0 needs no rebuild.
    for pair in (w_pair, z9_pair[1]):
        trunc = nichols_truncate(pair, 2)
        for i, j in ((0, 1), (1, 0)):
            mj = pair[j]
            assert ad_power_module(pair, i, j).levels[0].module is mj
            letters = [GradedVector.from_word(((j, b),)) for b in range(mj.dim)]
            md = tuple(int(s == j) for s in range(2))
            rebuilt = _ad_level(trunc, md, 0, letters, "rebuilt").module
            assert rebuilt.degrees == mj.degrees
            for g in mj.group.elements():
                assert rebuilt.act_matrix(g) == mj.act_matrix(g)


def test_ad_level_refuses_a_span_that_is_not_action_stable(w_pair, z2cubed):
    # g1 swaps the basis of W2, so span{x0} of W2 is not G-stable: the image
    # of x0 is not a multiple of x0.
    group, _ = z2cubed
    g1 = group.element_index((1, 0, 0))
    trunc = nichols_truncate(w_pair, 2)
    x0, x1 = (GradedVector.from_word(((1, b),)) for b in range(2))
    assert ad_group(trunc, g1, x0) == x1
    with pytest.raises(ValidationError, match="not action-stable"):
        _ad_level(trunc, (0, 1), 0, [x0], "x0")


def _recorded_levels(run):
    """(trunc, md, level) of every ad level _ad_level builds during run()."""
    seen = []

    def recording(trunc, md, n, vectors, name):
        level = build(trunc, md, n, vectors, name)
        if level is not None:
            seen.append((trunc, md, level))
        return level

    build = reflect_module._ad_level
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reflect_module, "_ad_level", recording)
        run()
    return seen


def _graph_runs(z9_pair) -> list:
    """Calls that close the graphs of W and W12 (z2cubed), V (z2z2z4) and
    the conductor-9 pair P, in that order."""
    sessions = os.path.join(os.path.dirname(__file__), "..", "sessions")
    runs = []
    for name, tuples in (("z2cubed.json", ("W", "W12")), ("z2z2z4.json", ("V",))):
        with open(os.path.join(sessions, name)) as fh:
            session = Session(json.load(fh))
        for t in tuples:
            runs.append(lambda s=session, t=t: build_cartan_graph(
                s.tuples[t], pairs=s.pairs(),
                vertex_bound=s.cutoffs["vertex_bound"]))
    runs.append(lambda: build_cartan_graph(z9_pair[1]))
    return runs


def test_ad_action_matches_reference_on_every_level(z9_pair):
    # Each ad level stores the generators' matrices and the ones the twisted
    # composition law derives from them; the reference acts by every g of G
    # in B(M).  Levels: every one built while the graphs of W, W12, V and
    # the conductor-9 pair P close, and the tower ad(X)^n(Y) to degree 12.
    runs = _graph_runs(z9_pair)
    tower = Session(tower_session(12))
    runs.append(lambda: ad_power_module(tower.tuples["P"], 0, 1,
                                        cutoff=100000, max_degree=12))
    orders = set()
    for run in runs:
        levels = _recorded_levels(run)
        assert levels
        for trunc, md, level in levels:
            module = level.module
            expected = reference_ad_action(trunc, md, level.basis)
            G = module.group
            orders.add((G.order, len(_generators(G))))
            for g in G.elements():
                got = [list(row) for row in module.act_matrix(g)]
                assert got == expected[g], (module.name, g)
                assert ([[str(x) for x in row] for row in got]
                        == [[str(x) for x in row] for row in expected[g]])
    # Z2^3 and Z2 x Z2 x Z4 by 3 generators, Z3 by 1, Z2 x Z2 by 2.
    assert orders == {(8, 3), (16, 3), (3, 1), (4, 2)}


def _calls(monkeypatch, name):
    """The argument tuples of every call of reflect.<name> from now on."""
    calls = []
    fn = getattr(reflect_module, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(reflect_module, name, counting)
    return calls


def test_dual_matches_reference_on_every_dualised_module(z9_pair,
                                                        monkeypatch):
    # dual writes its action for generators and module_from_generator_actions
    # derives the rest; the reference writes it for every g of G.  Modules:
    # every one dualised while the graphs of W, W12, V and P close, checked
    # as it is made.
    counts = []

    def checked(V):
        got, expected = ydcat.dual(V), reference_dual(V)
        assert (got.name, got.degrees) == (expected.name, expected.degrees)
        assert got.action == expected.action, V.name
        assert printed_action(got) == printed_action(expected), V.name
        counts[-1] += 1
        return got

    monkeypatch.setattr(reflect_module, "dual", checked)
    for run in _graph_runs(z9_pair):
        counts.append(0)
        run()
    assert counts == [6, 3, 12, 4]


def test_cartan_matrix_shares_a_truncation_per_pair(w_triple, monkeypatch):
    # cartan_matrix computes both towers of a pair in one truncation;
    # reflect asks for its own towers only.
    built = _calls(monkeypatch, "nichols_truncate")
    towers = _calls(monkeypatch, "ad_power_module")
    reflect(w_triple, 0)
    assert len(built) == 2
    assert [a[1:3] for a in towers] == [(0, 1), (0, 2)]
    built.clear()
    towers.clear()
    assert cartan_matrix(w_triple) == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert len(built) == 3
    assert [a[1:3] for a in towers] == [(0, 1), (1, 0), (0, 2), (2, 0),
                                        (1, 2), (2, 1)]


def test_failed_reverse_tower_raises_at_its_own_turn(monkeypatch):
    # Z2 x Z2, trivial cocycle: X of degree g1 and Y of degree g2, both
    # negated by g1 and fixed by g2.  X squares to 0, so ad(X)(Y) is the
    # top level; ad(Y)^n(X) never vanishes.  The reverse tower, computed
    # alongside ad(X)(Y), fails and is not kept: row 1 computes it again
    # and raises.
    data = tower_session(6)
    data["modules"]["X"]["action"] = data["modules"]["Y"]["action"]
    session = Session(data)
    M = ModuleTuple([session.modules["X"], session.modules["Y"]])
    pairs = PairCache(cutoff=4, max_degree=6)
    with pytest.raises(UndecidedAtCutoff,
                       match=r"ad-power of \(Y,X\) undecided at cutoff 4"):
        cartan_matrix(M, pairs=pairs)
    towers = _calls(monkeypatch, "ad_power_module")
    assert pairs.top(M, 0, 1)[0] == 1
    with pytest.raises(UndecidedAtCutoff):
        pairs.top(M, 1, 0)
    assert [a[1:3] for a in towers] == [(1, 0)]


def test_ad_levels_strictly_graded_disjoint(w_pair):
    levels = ad_power_module(w_pair, 0, 1)
    mds = [tuple(lv.n if s == 0 else 1 if s == 1 else 0 for s in range(2))
           for lv in levels.levels]
    assert len(set(mds)) == len(mds)  # distinct multidegrees: trivially disjoint


def test_ad_cutoff_reports_undecided(w_pair):
    levels = ad_power_module(w_pair, 0, 1, cutoff=0)
    assert levels.undecided
    with pytest.raises(UndecidedAtCutoff):
        levels.top_module()
    with pytest.raises(UndecidedAtCutoff):
        cartan_matrix(w_pair, pairs=PairCache(0))


@pytest.mark.parametrize("which", ["w_pair", "z9_pair"])
def test_tower_stops_at_min_of_cutoff_and_degree(request, which):
    # Level n lives in degree n + 1: under cutoff C and truncation degree D
    # the tower is the unbounded one cut at level min(C, D - 1), undecided at
    # the cutoff if C <= D - 1 and at the truncation degree otherwise.
    pair = request.getfixturevalue(which)
    pair = pair[1] if which == "z9_pair" else pair
    for i, j in ((0, 1), (1, 0)):
        full = ad_power_module(pair, i, j)
        assert not full.undecided
        for D in (0, 1, 2, 3, 4, 5, 6, 8):
            for C in (0, 1, 2, 3, 4, 8):
                last = min(C, D - 1)
                levels = ad_power_module(pair, i, j, cutoff=C, max_degree=D)
                case = (which, i, j, C, D)
                if full.m < last:
                    assert (level_dims(levels), levels.m, levels.bound) == (
                        level_dims(full), full.m, None), case
                else:
                    bound = (f"cutoff {C}" if C <= D - 1
                             else f"truncation degree {D}")
                    assert (level_dims(levels), levels.m, levels.bound) == (
                        level_dims(full)[:max(last, 0) + 1], None, bound), case


def test_w4_w5_level(w_presets):
    pair = ModuleTuple([w_presets[4], w_presets[5]])
    levels = ad_power_module(pair, 0, 1)
    assert levels.m == 1
    assert iso_test(levels.top_module(), w_presets[6]) is not None


def test_cartan_entries(w_pair, w_triple):
    assert cartan_matrix(w_pair) == [[2, -1], [-1, 2]]
    assert cartan_matrix(w_triple) == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def test_cartan_zero_symmetry(z2cubed):
    # A pair with trivial mutual braiding: a12 = 0 forces a21 = 0.
    from ydweyl.groupdata import Cocycle3
    group, _ = z2cubed
    phi = Cocycle3.trivial(group)
    t1 = trivial_module(group, phi)
    t2 = trivial_module(group, phi)
    pair = ModuleTuple([t1, t2])
    assert cartan_matrix(pair) == [[2, 0], [0, 2]]


def test_reflections_of_w_triple(w_presets, w_triple):
    r1 = reflect(w_triple, 0)
    assert tuple_iso(r1, ModuleTuple([w_presets[1], w_presets[4], w_presets[5]]))
    r2 = reflect(w_triple, 1)
    assert tuple_iso(r2, ModuleTuple([w_presets[4], w_presets[2], w_presets[6]]))
    r3 = reflect(w_triple, 2)
    assert tuple_iso(r3, ModuleTuple([w_presets[5], w_presets[6], w_presets[3]]))


def test_reflection_involution(w_triple):
    r1 = reflect(w_triple, 0)
    assert tuple_iso(reflect(r1, 0), w_triple)


def test_row_preservation_under_reflection(w_triple):
    a_before = cartan_matrix(w_triple)
    for i in range(3):
        refl = reflect(w_triple, i)
        a_after = cartan_matrix(refl)
        assert a_after[i] == a_before[i]


def test_degree_bookkeeping_of_reflections(z2cubed, w_triple):
    # Component degrees stay outside {1, h1 h2 h3} and multiply to h1 h2 h3.
    group, _ = z2cubed
    sigma = group.element_index((1, 1, 1))
    seen = [w_triple]
    for _ in range(2):
        nxt = []
        for t in seen:
            for i in range(3):
                r = reflect(t, i)
                degs = [m.degrees[0] for m in r]
                prod = group.identity
                for d in degs:
                    assert d not in (group.identity, sigma)
                    prod = group.mul(prod, d)
                assert prod == sigma
                nxt.append(r)
        seen = nxt[:3]


def test_coinvariant_factorization(w_presets, w_pair, trunc_pair):
    bw2 = nichols_truncate(w_presets[2], 4).graded_dims()
    K = coinvariant_dims(trunc_pair, {1}, 4)
    # P(K) = L: bidegree (1, t) gives the ad-level dimension table.
    levels = ad_power_module(w_pair, 0, 1)
    for t in range(4):
        expect = len(levels.levels[t].basis) if t < len(levels.levels) else 0
        assert K.get((1, t), 0) == expect
    # Convolution identity with B(W2) dims.
    for n in range(5):
        for md in trunc_pair.multidegrees(n):
            p, q = md
            expect = sum(K.get((p, q - s), 0) * bw2[s]
                         for s in range(min(q, len(bw2) - 1) + 1))
            assert trunc_pair.dim_multidegree(md) == expect, md


def test_smash_unit_and_trivial_products(z2cubed, w_presets):
    group, _ = z2cubed
    trunc = nichols_truncate(w_presets[1], 3)
    sm = SmashAlgebra(trunc)
    h3 = group.element_index((0, 0, 1))
    x = sm.element(((0, 0),), h3)
    assert sm.mult(sm.unit(), x) == x
    assert sm.mult(x, sm.unit()) == x
    # (1 # h)(Y # 1) = (h |> Y) # h over W2
    trunc2 = nichols_truncate(w_presets[2], 3)
    sm2 = SmashAlgebra(trunc2)
    h1 = group.element_index((1, 0, 0))
    prod = sm2.mult(sm2.element((), h1), sm2.element(((0, 0),), group.identity))
    assert prod == {(((0, 1),), h1): 1}
    # (X1 # 1)(1 # h3) = X1 # h3
    prod2 = sm.mult(sm.element(((0, 0),), group.identity), sm.element((), h3))
    assert prod2 == {(((0, 0),), h3): 1}


def test_smash_preantipode_grouplike(z2cubed, w_presets):
    group, phi = z2cubed
    sm = SmashAlgebra(nichols_truncate(w_presets[1], 3))
    g = group.element_index((1, 1, 1))
    s = sm.preantipode_grouplike(g)
    assert s == {((), group.inv(g)): inv(phi.value(g, group.inv(g), g))}


def test_smash_ad_group_exhaustive(z2cubed, w_presets):
    group, _ = z2cubed
    for k in range(1, 7):
        trunc = nichols_truncate(w_presets[k], 3)
        sm = SmashAlgebra(trunc)
        for g in group.elements():
            for b in range(w_presets[k].dim):
                x = GradedVector.from_word(((0, b),))
                assert sm.ad_group_via_smash(g, x) == ad_group(trunc, g, x)


def test_smash_quasi_associativity_sampled(z2cubed, w_presets):
    group, phi = z2cubed
    trunc = nichols_truncate(w_presets[1], 6)
    sm = SmashAlgebra(trunc)
    rng = random.Random(1)

    def rand_elt():
        n = rng.randint(0, 2)
        w = rng.choice(trunc.block((n,)).quotient_words)
        return {(w, rng.randrange(group.order)): rng.randint(1, 3)}

    for _ in range(60):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        (wa, ha), = a
        (wb, hb), = b
        (wc, hc), = c
        xa = trunc.ctx.word_degree(wa)
        yb = trunc.ctx.word_degree(wb)
        zc = trunc.ctx.word_degree(wc)
        lhs = sm.mult(a, sm.mult(b, c))
        rhs = sm.mult(sm.mult(a, b), c)
        s_left = phi.value(ha, hb, hc)
        s_right = phi.value(group.mul(xa, ha), group.mul(yb, hb),
                            group.mul(zc, hc))
        left = {k: v * s_left for k, v in lhs.items()}
        right = {k: v * s_right for k, v in rhs.items()}
        assert set(left) == set(right)
        assert all(left[k] == right[k] for k in left)


def test_smash_coassociativity_and_counit(z2cubed, w_presets):
    group, _ = z2cubed
    trunc = nichols_truncate(w_presets[1], 4)
    sm = SmashAlgebra(trunc)
    h1 = group.element_index((1, 0, 0))
    deg2 = trunc.block((2,)).quotient_words[0]
    for elt in [sm.element(((0, 0),), h1), sm.element(deg2, h1),
                sm.element((), group.element_index((1, 1, 0)))]:
        cp = sm.coproduct(elt)
        left = {}
        right = {}
        for ((w1, g1), (w2, g2)), c in cp.items():
            inner_l = sm.coproduct({(w1, g1): 1})
            for (u, v), c2 in inner_l.items():
                key = (u, v, (w2, g2))
                left[key] = left.get(key, 0) + c * c2
            inner_r = sm.coproduct({(w2, g2): 1})
            for (u, v), c2 in inner_r.items():
                key = ((w1, g1), u, v)
                right[key] = right.get(key, 0) + c * c2
        left = {k: v for k, v in left.items() if v}
        right = {k: v for k, v in right.items() if v}
        assert left == right
        # counit law on the left leg
        eps_left = {}
        for ((w1, _g1), (w2, g2)), c in cp.items():
            if not w1:
                eps_left[(w2, g2)] = eps_left.get((w2, g2), 0) + c
        eps_left = {k: v for k, v in eps_left.items() if v}
        assert eps_left == elt
