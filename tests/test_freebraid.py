import random
from itertools import product

import pytest

from ydweyl.cyclo import inv
from ydweyl.errors import ValidationError
from ydweyl.freebraid import GradedVector, WordAlgebra
from oracles import (braid_at, delta_1n_left, delta_component, left_comb,
                     rebracket_scalar, right_comb, stored_conductor,
                     symmetrizer, trivial_module)


@pytest.fixture(scope="module")
def ctx12(w_presets):
    return WordAlgebra([w_presets[1], w_presets[2]])


X1, X2, Y1, Y2 = (0, 0), (0, 1), (1, 0), (1, 1)


def test_word_degree(z2cubed, ctx12):
    group, _ = z2cubed
    w = (X1, Y1, X2)
    d = group.identity
    for letter in w:
        d = group.mul(d, ctx12.letter_degree(letter))
    assert ctx12.word_degree(w) == d


def test_delta_11_cancellation(ctx12):
    assert delta_component(ctx12, (X1, X1), 1, 1).is_zero()


def test_delta_11_mixed(ctx12):
    d = delta_component(ctx12, (X1, Y1), 1, 1)
    assert dict(d.items()) == {((X1,), (Y1,)): 1, ((Y2,), (X1,)): 1}


def test_delta_counit_components(ctx12):
    for w in [(X1,), (X1, Y2), (Y1, X2, X1)]:
        n = len(w)
        top = delta_component(ctx12, w, n, 0)
        bottom = delta_component(ctx12, w, 0, n)
        assert dict(top.items()) == {(w, ()): 1}
        assert dict(bottom.items()) == {((), w): 1}


def test_delta_12_values(ctx12):
    d = delta_1n_left(ctx12, (X1, X2))
    assert dict(d.items()) == {(X1, X2): 1, (X2, X1): -1}
    assert delta_1n_left(ctx12, (X1, X1)).is_zero()


def test_delta_degree_additivity(z2cubed, ctx12):
    group, _ = z2cubed
    rng = random.Random(5)
    for n in range(2, 5):
        for _ in range(10):
            w = tuple(rng.choice(ctx12.letters) for _ in range(n))
            dw = ctx12.word_degree(w)
            for i in range(n + 1):
                for (a, b), _c in delta_component(ctx12, w, i, n - i).items():
                    assert group.mul(ctx12.word_degree(a),
                                     ctx12.word_degree(b)) == dw


def test_delta_splitting_order_independence(ctx12):
    rng = random.Random(0)
    for n in range(2, 6):
        for _ in range(10):
            w = tuple(rng.choice(ctx12.letters) for _ in range(n))
            assert delta_1n_left(ctx12, w) == ctx12.delta_1n(w)


@pytest.mark.parametrize("which, max_n", [("W", 3), ("z9", 4)])
def test_delta_1n_matches_symmetrizer(which, max_n, w_triple, z9_pair):
    # Phi is nontrivial on the full W and on the conductor-9 pair, so every
    # Phi factor of the one-letter products in delta_last shows here;
    # the order test above runs where Phi is 1 on every degree it meets.
    ctx = WordAlgebra(w_triple if which == "W" else z9_pair[1])
    for n in range(max_n + 1):
        for w in product(ctx.letters, repeat=n):
            expected = symmetrizer(ctx, w)
            assert delta_1n_left(ctx, w) == expected, ("left", w)
            assert ctx.delta_1n(w) == expected, ("right", w)


@pytest.mark.parametrize("which, max_n", [("W", 4), ("z9", 6)])
def test_delta_last_matches_general_component(which, max_n, w_triple,
                                              z9_pair):
    # delta_last computes only the (n-1, 1) component of Delta: the same
    # terms in the same order, each coefficient with the same normal form
    # and stored conductor as the general recursion's.
    ctx = WordAlgebra(w_triple if which == "W" else z9_pair[1])
    for n in range(1, max_n + 1):
        for w in product(ctx.letters, repeat=n):
            got = list(ctx.delta_last(w).items())
            expected = list(delta_component(ctx, w, n - 1, 1).items())
            assert [k for k, _ in got] == [k for k, _ in expected], w
            for (_, c), (_, d) in zip(got, expected):
                assert c == d and str(c) == str(d), w
                assert stored_conductor(c) == stored_conductor(d), w


def test_bad_split_rejected(ctx12):
    with pytest.raises(ValidationError):
        delta_component(ctx12, (X1, Y1), 1, 2)


def test_rebracket_examples(z2cubed, ctx12):
    group, _ = z2cubed
    h1 = group.element_index((1, 0, 0))
    h2 = group.element_index((0, 1, 0))
    h3 = group.element_index((0, 0, 1))
    s = rebracket_scalar(ctx12, [h3, h2, h1], ((0, 1), 2), (0, (1, 2)))
    assert s == -1
    assert rebracket_scalar(ctx12, [h3, h2, h1], ((0, 1), 2), ((0, 1), 2)) == 1
    assert rebracket_scalar(ctx12, [h1, h2, h3], left_comb(3),
                            right_comb(3)) == 1


def test_rebracket_trivial_cocycle(z2cubed):
    from ydweyl.groupdata import Cocycle3
    group, _ = z2cubed
    triv_phi = Cocycle3.trivial(group)
    ctx = WordAlgebra(trivial_module(group, triv_phi))
    degs = [group.identity] * 4
    for t_from in [left_comb(4), right_comb(4), ((0, 1), (2, 3))]:
        assert rebracket_scalar(ctx, degs, t_from, left_comb(4)) == 1


def test_rebracket_path_independence_all_quadruples(z2cubed, ctx12):
    # Compositions along different intermediate trees agree on every
    # degree quadruple of the group.
    group, _ = z2cubed
    t_a = (((0, 1), 2), 3)
    t_b = (0, (1, (2, 3)))
    t_c = ((0, (1, 2)), 3)
    for degs in product(group.elements(), repeat=4):
        s_ab = rebracket_scalar(ctx12, degs, t_a, t_b)
        s_bc = rebracket_scalar(ctx12, degs, t_b, t_c)
        s_ac = rebracket_scalar(ctx12, degs, t_a, t_c)
        assert s_ab * s_bc == s_ac


def test_mult_associative_on_samples(ctx12):
    rng = random.Random(2)

    def rand_vec():
        v = GradedVector()
        for _ in range(rng.randint(1, 2)):
            n = rng.randint(0, 3)
            w = tuple(rng.choice(ctx12.letters) for _ in range(n))
            v.add_term(w, rng.randint(1, 3))
        return v

    for _ in range(20):
        a, b, c = rand_vec(), rand_vec(), rand_vec()
        assert ctx12.mult(ctx12.mult(a, b), c) == ctx12.mult(a, ctx12.mult(b, c))


def test_hexagon_route_for_braiding(z2cubed, w_presets):
    # c_{U(x)V,W} agrees with the hexagon composite
    # a . (c_{U,W} (x) id) . a^-1 . (id (x) c_{V,W}) . a
    # on letter triples, for every ordered triple of the six presets.
    group, _ = z2cubed
    all_triples = list(product(range(1, 7), repeat=3))
    for names in all_triples:
        mods = [w_presets[k] for k in names]
        ctx = WordAlgebra(mods)
        letters = [(s, i) for s in range(3) for i in range(mods[s].dim)]
        triples = [(u, v, w) for u in letters for v in letters for w in letters
                   if u[0] == 0 and v[0] == 1 and w[0] == 2]
        for (u, v, w) in triples:
            direct = GradedVector()
            for ww, c in ctx.act(ctx.word_degree((u, v)), (w,)).items():
                direct.add_term(ww + (u, v), c)
            # hexagon route with explicit associators
            du, dv, dw = (ctx.letter_degree(u), ctx.letter_degree(v),
                          ctx.letter_degree(w))
            phi = ctx.cocycle
            route = GradedVector()
            s = inv(phi.value(du, dv, dw))  # a_{U,V,W}
            for wv, c1 in ctx.act(dv, (w,)).items():
                dwv = ctx.word_degree(wv)
                s2 = phi.value(du, dwv, dv)  # a^-1 after id (x) c_{V,W}
                for wu, c2 in ctx.act(du, wv).items():
                    dwu = ctx.word_degree(wu)
                    s3 = inv(phi.value(dwu, du, dv))  # final associator
                    route.add_term(wu + (u, v), s * c1 * s2 * c2 * s3)
            assert direct == route, (names, u, v, w)


def test_braid_operator_yang_baxter(ctx12):
    # c_1 c_2 c_1 = c_2 c_1 c_2 on all three-letter words.
    def op(vec, i):
        out = GradedVector()
        for w, c in vec.items():
            for w2, c2 in braid_at(ctx12, w, i).items():
                out.add_term(w2, c * c2)
        return out

    for w in product(ctx12.letters, repeat=3):
        v = GradedVector.from_word(w)
        lhs = op(op(op(v, 0), 1), 0)
        rhs = op(op(op(v, 1), 0), 1)
        assert lhs == rhs, w
