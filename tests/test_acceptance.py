"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All equalities are exact (cyclotomic scalar equality); the only
tolerances are the stated wall-clock budgets, asserted where given.
"""

import random
import time
from itertools import product

from ydweyl.cyclo import inv, rref
from ydweyl.freebraid import GradedVector, WordAlgebra
from ydweyl.groupdata import (Cocycle3, check_3cocycle, make_abelian_group,
                              sign_cocycle)
from ydweyl.nichols import nichols_truncate
from ydweyl.reflect import (ad_group, ad_power_module, ad_primitive,
                            cartan_matrix, reflect)
from ydweyl.weylgraph import (build_cartan_graph, check_axioms,
                              finite_cartan_type, infinite_dim_certificate,
                              is_finite, is_standard, real_roots)
from ydweyl.ydcat import ModuleTuple, iso_test, preset_module, yd_axiom_check
from oracles import (SmashAlgebra, coinvariant_dims, delta_1n_left,
                     level_dims, oracle_graded_dims, rebracket_scalar,
                     tuple_iso)

AFFINE = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


class _report:
    def __init__(self, number, label):
        self.line = f"ACCEPTANCE {number:>2} {label}"

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{self.line}: {status} ({elapsed:.2f}s)")
        return False


def test_c01_cocycle_validity(z2cubed):
    with _report(1, "cocycle validity on Z2^3"):
        t0 = time.monotonic()
        group, phi = z2cubed
        assert check_3cocycle(phi).ok
        assert check_3cocycle(Cocycle3.trivial(group)).ok
        flat = list(phi._table)
        n = group.order
        flat[(2 * n + 3) * n + 5] = flat[(2 * n + 3) * n + 5] * -1
        report = check_3cocycle(Cocycle3(group, flat))
        assert not report.ok
        assert "quadruple (" in report.violations[0]
        assert time.monotonic() - t0 < 1.0


def test_c02_yd_axioms_presets(z2cubed, w_presets):
    with _report(2, "YD axioms for W1..W6 and V1..V3"):
        t0 = time.monotonic()
        for k, mod in w_presets.items():
            assert yd_axiom_check(mod).ok, k
        for orders in [(2, 2, 2), (2, 2, 4)]:
            group = make_abelian_group(orders)
            phi = sign_cocycle(group)
            for name in ("V1", "V2", "V3"):
                assert yd_axiom_check(preset_module(name, group, phi)).ok
        assert time.monotonic() - t0 < 1.0


def test_c03_nichols_dimensions(w_presets):
    with _report(3, "B(W_i) graded dims (1,2,1,0), oracle-derived"):
        for k, mod in w_presets.items():
            t0 = time.monotonic()
            engine = nichols_truncate(mod, 3).graded_dims()
            oracle = oracle_graded_dims(mod, 3)
            assert engine == oracle == (1, 2, 1, 0), k
            assert time.monotonic() - t0 < 1.0


def test_c04_ad_pair_suite(z2cubed, w_presets):
    with _report(4, "ad(W_i)(W_j) dims, squares, relation spaces (24 pairs)"):
        t0 = time.monotonic()
        group, _ = z2cubed
        sigma = group.element_index((1, 1, 1))
        pairs = [(i, j) for i in range(1, 7) for j in range(1, 7)
                 if i != j and group.mul(w_presets[i].degrees[0],
                                         w_presets[j].degrees[0])
                 not in (group.identity, sigma)]
        assert len(pairs) == 24
        sign_agreements = "not checked"
        for i, j in pairs:
            pair = ModuleTuple([w_presets[i], w_presets[j]])
            trunc = nichols_truncate(pair, 3)
            levels = ad_power_module(pair, 0, 1, max_degree=3)
            assert level_dims(levels) == (2, 2), (i, j)
            assert levels.m == 1, (i, j)          # ad(W_i)^2(W_j) = 0 in B
            vals = [ad_primitive(trunc,
                                 GradedVector.from_word(((0, a),)),
                                 GradedVector.from_word(((1, b),)))
                    for a in range(2) for b in range(2)]
            blk = trunc.block((1, 1))
            reduced, _ = rref([blk.coords(v) for v in vals])
            assert len(reduced) == 2, (i, j)      # relation space has dim 2
            if (i, j) == (1, 2):
                # Which linear relation holds among ad(X1)(Y1), ad(X1)(Y2)
                # depends on braiding/product conventions; report the sign,
                # require only that one of the two holds.
                if (vals[0] - vals[1]).is_zero():
                    sign_agreements = "ad(X1)(Y1) - ad(X1)(Y2) = 0"
                elif (vals[0] + vals[1]).is_zero():
                    sign_agreements = "ad(X1)(Y1) + ad(X1)(Y2) = 0"
                else:
                    sign_agreements = "neither"
        elapsed = time.monotonic() - t0
        print(f"  [literal sign pattern on (W1,W2): {sign_agreements}]")
        assert sign_agreements != "neither"
        assert elapsed < 10.0


def test_c05_iso_classes_of_ad_levels(z2cubed, w_presets):
    with _report(5, "twelve ad(W_i)(W_j) isomorphism classes"):
        table = {(1, 2): 4, (1, 3): 5, (1, 4): 2, (1, 5): 3,
                 (2, 3): 6, (2, 4): 1, (2, 6): 3, (3, 5): 1,
                 (3, 6): 2, (4, 5): 6, (4, 6): 5, (5, 6): 4}
        assert len(table) == 12
        for (i, j), k in table.items():
            pair = ModuleTuple([w_presets[i], w_presets[j]])
            levels = ad_power_module(pair, 0, 1)
            assert levels.m == 1
            assert iso_test(levels.top_module(), w_presets[k]) is not None, (i, j)


def test_c06_cartan_matrix(w_triple):
    with _report(6, "Cartan matrix of (W1,W2,W3)"):
        assert cartan_matrix(w_triple) == AFFINE


def test_c07_semi_cartan_graph(w_presets, w_triple):
    with _report(7, "semi-Cartan graph of W: axioms, standard, reflections"):
        graph = build_cartan_graph(w_triple)
        assert check_axioms(graph).ok
        assert is_standard(graph)
        assert tuple_iso(reflect(w_triple, 0),
                         ModuleTuple([w_presets[1], w_presets[4], w_presets[5]]))
        assert tuple_iso(reflect(w_triple, 1),
                         ModuleTuple([w_presets[4], w_presets[2], w_presets[6]]))
        assert tuple_iso(reflect(w_triple, 2),
                         ModuleTuple([w_presets[5], w_presets[6], w_presets[3]]))
        assert tuple_iso(reflect(reflect(w_triple, 0), 0), w_triple)


def test_c08_infinite_dim_certificates(w_triple):
    with _report(8, "infinite-dimensionality certificates (W and pullbacks)"):
        cert = infinite_dim_certificate(w_triple)
        assert cert.verdict == "infinite-dimensional"
        assert cert.cartan == AFFINE
        for orders in [(2, 2, 2), (2, 2, 4)]:
            group = make_abelian_group(orders)
            phi = sign_cocycle(group)
            v_tuple = ModuleTuple([preset_module(f"V{k}", group, phi)
                                   for k in (1, 2, 3)])
            v_cert = infinite_dim_certificate(v_tuple, vertex_bound=128)
            assert v_cert.verdict == "infinite-dimensional", orders


def test_c09_finite_type_contrast(w_pair):
    with _report(9, "finite-type contrast for (W1,W2): A2 with 6 roots"):
        assert cartan_matrix(w_pair) == [[2, -1], [-1, 2]]
        ctype = finite_cartan_type([[2, -1], [-1, 2]])
        assert ctype.is_finite_type and ctype.components == ["A2"]
        graph = build_cartan_graph(w_pair)
        roots, truncated = real_roots(graph, 50)
        assert not truncated
        assert set(roots[0]) == {(1, 0), (0, 1), (1, 1),
                                 (-1, 0), (0, -1), (-1, -1)}
        assert len(roots[0]) == 6
        assert is_finite(graph, 50).is_finite()


def test_c10_duality_property(w_presets):
    with _report(10, "graded dims of B(W_i) equal those of B(W_i*)"):
        from ydweyl.ydcat import dual
        for k, mod in w_presets.items():
            dims = nichols_truncate(mod, 4).graded_dims()
            dual_dims = nichols_truncate(dual(mod), 4).graded_dims()
            assert dims == dual_dims, k


def test_c11_bosonization_suite(z2cubed, w_presets):
    with _report(11, "bosonization: quasi-assoc, coassoc, ad via smash"):
        group, phi = z2cubed
        trunc = nichols_truncate(w_presets[1], 6)
        smash = SmashAlgebra(trunc)
        rng = random.Random(0)

        def rand_homogeneous():
            n = rng.randint(0, 2)
            w = rng.choice(trunc.block((n,)).quotient_words)
            return {(w, rng.randrange(group.order)): rng.randint(1, 3)}

        checked = 0
        for _ in range(110):
            a, b, c = (rand_homogeneous() for _ in range(3))
            (wa, ha), = a
            (wb, hb), = b
            (wc, hc), = c
            lhs = smash.mult(a, smash.mult(b, c))
            rhs = smash.mult(smash.mult(a, b), c)
            s_left = phi.value(ha, hb, hc)
            s_right = phi.value(group.mul(trunc.ctx.word_degree(wa), ha),
                                group.mul(trunc.ctx.word_degree(wb), hb),
                                group.mul(trunc.ctx.word_degree(wc), hc))
            left = {k: v * s_left for k, v in lhs.items()}
            right = {k: v * s_right for k, v in rhs.items()}
            assert set(left) == set(right)
            assert all(left[k] == right[k] for k in left)
            # coassociativity of the smash coproduct on a
            cp = smash.coproduct(a)
            one_sided = {}
            other_sided = {}
            for ((w1, g1), (w2, g2)), coeff in cp.items():
                for (u, v), c2 in smash.coproduct({(w1, g1): 1}).items():
                    key = (u, v, (w2, g2))
                    one_sided[key] = one_sided.get(key, 0) + coeff * c2
                for (u, v), c2 in smash.coproduct({(w2, g2): 1}).items():
                    key = ((w1, g1), u, v)
                    other_sided[key] = other_sided.get(key, 0) + coeff * c2
            one_sided = {k: v for k, v in one_sided.items() if v}
            other_sided = {k: v for k, v in other_sided.items() if v}
            assert one_sided == other_sided
            checked += 1
        assert checked >= 100
        for k in range(1, 7):
            trunc_k = nichols_truncate(w_presets[k], 3)
            smash_k = SmashAlgebra(trunc_k)
            for g in group.elements():
                for b in range(w_presets[k].dim):
                    x = GradedVector.from_word(((0, b),))
                    assert smash_k.ad_group_via_smash(g, x) == ad_group(trunc_k, g, x)


def test_c12_factorization_property(w_presets, w_pair):
    with _report(12, "bigraded factorization of B(W1+W2) through K and B(W2)"):
        t0 = time.monotonic()
        trunc = nichols_truncate(w_pair, 4)
        bw2 = nichols_truncate(w_presets[2], 4).graded_dims()
        K = coinvariant_dims(trunc, {1}, 4)
        levels = ad_power_module(w_pair, 0, 1)
        dims = level_dims(levels)
        for t in range(4):
            expect = dims[t] if t < len(dims) else 0
            assert K.get((1, t), 0) == expect
        for n in range(5):
            for md in trunc.multidegrees(n):
                p, q = md
                expect = sum(K.get((p, q - s), 0) * bw2[s]
                             for s in range(min(q, len(bw2) - 1) + 1))
                assert trunc.dim_multidegree(md) == expect, md
        assert time.monotonic() - t0 < 30.0


def test_c13_coherence_property(z2cubed, w_presets):
    with _report(13, "coherence: move-path independence and split order"):
        group, phi = z2cubed
        ctx = WordAlgebra([w_presets[1], w_presets[2]])
        # Two distinct elementary-move paths from ((0.1).(2.3)) to the left
        # comb; their scalar products must agree on every degree quadruple.
        for degs in product(group.elements(), repeat=4):
            d0, d1, d2, d3 = degs
            path_a = (inv(phi.value(d0, d1, group.mul(d2, d3)))
                      * phi.value(d1, d2, d3)
                      * phi.value(d0, group.mul(d1, d2), d3)
                      * phi.value(d0, d1, d2))
            path_b = phi.value(group.mul(d0, d1), d2, d3)
            assert path_a == path_b, degs
            assert rebracket_scalar(ctx, degs, ((0, 1), (2, 3)),
                                    (((0, 1), 2), 3)) == path_b
        for n in range(2, 6):
            for w in product(ctx.letters, repeat=n):
                assert delta_1n_left(ctx, w) == ctx.delta_1n(w), w
