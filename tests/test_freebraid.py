import random
from itertools import product

import pytest

from ydweyl.cyclo import CycScalar
from ydweyl.errors import ValidationError
from ydweyl.freebraid import (GradedVector, WordAlgebra, left_comb,
                              right_comb)
from oracles import braid_at, symmetrizer


@pytest.fixture(scope="module")
def ctx12(w_presets):
    return WordAlgebra([w_presets[1], w_presets[2]])


X1, X2, Y1, Y2 = (0, 0), (0, 1), (1, 0), (1, 1)


def test_word_degree_and_printing(z2cubed, ctx12):
    group, _ = z2cubed
    w = (X1, Y1, X2)
    assert ctx12.word_str(w) == "X1*Y1*X2"
    d = group.identity
    for letter in w:
        d = group.mul(d, ctx12.letter_degree(letter))
    assert ctx12.word_degree(w) == d
    assert ctx12.word_str(()) == "1"


def test_delta_11_cancellation(ctx12):
    assert ctx12.delta_component((X1, X1), 1, 1).is_zero()


def test_delta_11_mixed(ctx12):
    d = ctx12.delta_component((X1, Y1), 1, 1)
    one = CycScalar.one()
    assert dict(d.items()) == {((X1,), (Y1,)): one, ((Y2,), (X1,)): one}


def test_delta_counit_components(ctx12):
    for w in [(X1,), (X1, Y2), (Y1, X2, X1)]:
        n = len(w)
        top = ctx12.delta_component(w, n, 0)
        bottom = ctx12.delta_component(w, 0, n)
        assert dict(top.items()) == {(w, ()): CycScalar.one()}
        assert dict(bottom.items()) == {((), w): CycScalar.one()}


def test_delta_12_values(ctx12):
    d = ctx12.delta_fully_split((X1, X2))
    assert dict(d.items()) == {(X1, X2): CycScalar.one(),
                               (X2, X1): CycScalar.from_rational(-1)}
    assert ctx12.delta_fully_split((X1, X1)).is_zero()


def test_delta_degree_additivity(z2cubed, ctx12):
    group, _ = z2cubed
    rng = random.Random(5)
    for n in range(2, 5):
        for _ in range(10):
            w = tuple(rng.choice(ctx12.letters) for _ in range(n))
            dw = ctx12.word_degree(w)
            for i in range(n + 1):
                for (a, b), _c in ctx12.delta_component(w, i, n - i).items():
                    assert group.mul(ctx12.word_degree(a),
                                     ctx12.word_degree(b)) == dw


def test_delta_splitting_order_independence(ctx12):
    rng = random.Random(0)
    for n in range(2, 6):
        for _ in range(10):
            w = tuple(rng.choice(ctx12.letters) for _ in range(n))
            assert (ctx12.delta_fully_split(w, "left")
                    == ctx12.delta_fully_split(w, "right"))


@pytest.mark.parametrize("which, max_n", [("W", 3), ("z9", 4)])
def test_delta_1n_matches_symmetrizer(which, max_n, w_triple, z9_pair):
    # Phi is nontrivial on the full W and on the conductor-9 pair, so every
    # Phi factor of the one-letter products in delta_component shows here;
    # the order test above runs where Phi is 1 on every degree it meets.
    ctx = WordAlgebra(w_triple if which == "W" else z9_pair[1])
    for n in range(max_n + 1):
        for w in product(ctx.letters, repeat=n):
            expected = symmetrizer(ctx, w)
            for order in ("left", "right"):
                assert ctx.delta_fully_split(w, order) == expected, (order, w)


def test_bad_split_rejected(ctx12):
    with pytest.raises(ValidationError):
        ctx12.delta_component((X1, Y1), 1, 2)


def test_rebracket_examples(z2cubed, ctx12):
    group, _ = z2cubed
    h1 = group.element_index((1, 0, 0))
    h2 = group.element_index((0, 1, 0))
    h3 = group.element_index((0, 0, 1))
    s = ctx12.rebracket_scalar([h3, h2, h1], ((0, 1), 2), (0, (1, 2)))
    assert s == -1
    assert ctx12.rebracket_scalar([h3, h2, h1], ((0, 1), 2), ((0, 1), 2)) == 1
    assert ctx12.rebracket_scalar([h1, h2, h3], left_comb(3), right_comb(3)) == 1


def test_rebracket_trivial_cocycle(z2cubed):
    from ydweyl.groupdata import Cocycle3
    from ydweyl.ydcat import trivial_module
    group, _ = z2cubed
    triv_phi = Cocycle3.trivial(group)
    ctx = WordAlgebra(trivial_module(group, triv_phi))
    degs = [group.identity] * 4
    for t_from in [left_comb(4), right_comb(4), ((0, 1), (2, 3))]:
        assert ctx.rebracket_scalar(degs, t_from, left_comb(4)) == 1


def test_rebracket_path_independence_all_quadruples(z2cubed, ctx12):
    # Compositions along different intermediate trees agree on every
    # degree quadruple of the group.
    group, _ = z2cubed
    t_a = (((0, 1), 2), 3)
    t_b = (0, (1, (2, 3)))
    t_c = ((0, (1, 2)), 3)
    for degs in product(group.elements(), repeat=4):
        s_ab = ctx12.rebracket_scalar(degs, t_a, t_b)
        s_bc = ctx12.rebracket_scalar(degs, t_b, t_c)
        s_ac = ctx12.rebracket_scalar(degs, t_a, t_c)
        assert s_ab * s_bc == s_ac


def test_mult_associative_on_samples(ctx12):
    rng = random.Random(2)

    def rand_vec():
        v = GradedVector()
        for _ in range(rng.randint(1, 2)):
            n = rng.randint(0, 3)
            w = tuple(rng.choice(ctx12.letters) for _ in range(n))
            v.add_term(w, CycScalar.from_rational(rng.randint(1, 3)))
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
            s = phi.value(du, dv, dw).inv()  # a_{U,V,W}
            for wv, c1 in ctx.act(dv, (w,)).items():
                dwv = ctx.word_degree(wv)
                s2 = phi.value(du, dwv, dv)  # a^-1 after id (x) c_{V,W}
                for wu, c2 in ctx.act(du, wv).items():
                    dwu = ctx.word_degree(wu)
                    s3 = phi.value(dwu, du, dv).inv()  # final associator
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
