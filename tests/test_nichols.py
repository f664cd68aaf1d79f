import random
from itertools import product

import pytest

from ydweyl import nichols
from ydweyl.cyclo import rref
from ydweyl.errors import ResourceBoundError
from ydweyl.freebraid import GradedVector
from ydweyl.nichols import MAX_TRUNCATION_DEGREE, nichols_truncate
from ydweyl.ydcat import dual
from oracles import (check_against_symmetrizer, check_coideal, dense_rref,
                     ideal_dim_multidegree, oracle_graded_dims, primitive_dim,
                     stored_conductor, support, trivial_module,
                     words_of_multidegree)

X1, X2, Y1, Y2 = (0, 0), (0, 1), (1, 0), (1, 1)


@pytest.fixture(scope="module")
def trunc_w1(w_presets):
    return nichols_truncate(w_presets[1], 4)


@pytest.fixture(scope="module")
def trunc_pair(w_pair):
    return nichols_truncate(w_pair, 4)


def test_graded_dims_each_w(w_presets):
    for k, mod in w_presets.items():
        assert nichols_truncate(mod, 3).graded_dims() == (1, 2, 1, 0), k


def test_polynomial_ring_on_trivial_module(z2cubed):
    group, phi = z2cubed
    dims = nichols_truncate(trivial_module(group, phi), 3).graded_dims()
    assert dims == (1, 1, 1, 1)


def test_degree_two_kernel_of_w1(trunc_w1):
    assert ideal_dim_multidegree(trunc_w1, (2,)) == 3
    assert trunc_w1.normal_form(GradedVector.from_word((X1, X1))).is_zero()
    assert trunc_w1.normal_form(GradedVector.from_word((X2, X2))).is_zero()
    v = GradedVector.from_word((X1, X2)) + GradedVector.from_word((X2, X1))
    assert trunc_w1.normal_form(v).is_zero()
    assert not trunc_w1.normal_form(GradedVector.from_word((X1, X2))).is_zero()


def test_degree_one_never_in_ideal(trunc_w1):
    x = GradedVector.from_word((X1,))
    assert trunc_w1.normal_form(x) == x


def test_pair_bidegree_11(trunc_pair):
    # 8 words X_a Y_b / Y_b X_a carry a rank-2 relation space.
    assert ideal_dim_multidegree(trunc_pair, (1, 1)) == 2
    assert trunc_pair.dim_multidegree((1, 1)) == 6


def test_supports(trunc_w1, trunc_pair):
    assert support(trunc_w1) == {(0,), (1,), (2,)}
    assert (1, 1) in support(trunc_pair)
    assert (0, 0) in support(trunc_pair)


def test_normal_form_degree_guard(trunc_w1):
    with pytest.raises(ResourceBoundError):
        trunc_w1.normal_form(GradedVector.from_word((X1,) * 5))


def _dense_normal_forms(trunc, md):
    """NF of each word of a block from a dense RREF of its Delta matrix.

    Column last - k holds Delta_{1^n}(words[k]); the pivot columns are the
    quotient words, and the RREF row of quotient word q holds the
    coefficient of q in NF(w) at the column of w.
    """
    words = words_of_multidegree(trunc.ctx, md)
    index = {w: k for k, w in enumerate(words)}
    last = len(words) - 1
    delta = [[0] * len(words) for _ in words]
    for k, w in enumerate(words):
        for tw, c in trunc.ctx.delta_1n(w).items():
            delta[index[tw]][last - k] = c
    reduced, pivots = dense_rref(delta)
    quotient = [words[last - p] for p in reversed(pivots)]
    forms = {}
    for k, w in enumerate(words):
        nf = GradedVector()
        for q, row in zip(quotient, reversed(reduced)):
            nf.add_term(q, row[last - k])
        forms[w] = nf
    return quotient, forms


@pytest.mark.parametrize("which, max_n",
                         [("W", 4), ("z9", 7), ("V", 3), ("tower", 7)])
def test_normal_forms_match_dense_rref(which, max_n, w_triple, z9_pair,
                                       v_triple, tower_pair):
    # Each block eliminates (NF (x) id) Delta_{n-1,1}, read off the
    # normal forms one degree down; the dense Delta_{1^n} matrix must give
    # the same quotient words and normal forms, key order and printed
    # coefficients included.  The tower has non-unit pivots and growing
    # integers; the conductor-9 pair's stored conductors depend on the
    # order in which products are summed.
    modules = {"W": w_triple, "z9": z9_pair[1], "V": v_triple,
               "tower": tower_pair}[which]
    trunc = nichols_truncate(modules, max_n)
    for n in range(max_n + 1):
        for md in trunc.multidegrees(n):
            _assert_block_matches_dense(trunc, md)


def _assert_block_matches_dense(trunc, md):
    blk = trunc.block(md)
    quotient, forms = _dense_normal_forms(trunc, md)
    assert blk.quotient_words == quotient, md
    for w in words_of_multidegree(trunc.ctx, md):
        nf = trunc.normal_form(GradedVector.from_word(w))
        assert set(nf.terms) <= set(quotient), w
        if w in quotient:
            assert nf == GradedVector.from_word(w), w
        assert list(nf.terms) == list(forms[w].terms), w
        assert all(str(c) == str(forms[w].terms[q])
                   for q, c in nf.items()), w


def _assert_delta_of_quotient_words(trunc):
    # Below the truncation degree: no block reads Delta of the top degree.
    for md, blk in trunc._blocks.items():
        top = sum(md) == trunc.max_degree
        assert list(blk.delta) == ([] if top else blk.quotient_words), md


def test_graded_dims_keeps_delta_of_quotient_words(w_triple):
    # A block below the truncation degree keeps Delta_{n-1,1} of its
    # quotient words only, the prefixes of the candidate columns one degree
    # up; a block of the truncation degree keeps none.  The word algebra
    # caches only word degrees and actions.
    trunc = nichols_truncate(w_triple, 4)
    trunc.graded_dims()
    _assert_delta_of_quotient_words(trunc)
    ctx = trunc.ctx
    caches = [v for v in vars(ctx).values() if isinstance(v, dict)]
    assert [id(v) for v in caches] == [id(ctx._deg_cache), id(ctx._act_cache)]


def test_graded_dims_enumerates_no_block(w_triple):
    # A block derives a word's normal form only when it is asked for, so
    # after graded_dims() the top block (2, 2, 2) of W@6 holds the forms of
    # its candidates but not of its 5,760 words.
    trunc = nichols_truncate(w_triple, 6)
    trunc.graded_dims()
    words = words_of_multidegree(trunc.ctx, (2, 2, 2))
    assert len(words) == 5760
    assert len(trunc.block((2, 2, 2)).nf) < len(words)


def test_block_eliminates_candidate_columns(w_triple, monkeypatch):
    # M has a column for each word q x with q a quotient word of block
    # md - e_s, x a letter of slot s: sum_s dim B(md - e_s) dim M_s columns.
    # A zero M reaches rref as no rows, and then the block has no quotient
    # words.
    columns = []

    def counting_rref(rows):
        columns.append(len(rows[0]) if rows else 0)
        return rref(rows)
    monkeypatch.setattr(nichols, "rref", counting_rref)
    trunc = nichols_truncate(w_triple, 4)
    total = 0
    for n in range(1, 5):
        for md in trunc.multidegrees(n):
            del columns[:]
            trunc.block(md)
            words = len(words_of_multidegree(trunc.ctx, md))
            expected = sum(
                trunc.dim_multidegree(md[:s] + (k - 1,) + md[s + 1:])
                * w_triple[s].dim for s, k in enumerate(md) if k)
            if columns == [0]:
                assert trunc.dim_multidegree(md) == 0, md
            else:
                assert columns == [expected], md
            total += words - expected
    # From degree 3 on, words with a prefix in the ideal get no column.
    assert total > 0


def test_capped_block_leaves_delta_of_quotient_words_only(w_triple,
                                                          monkeypatch):
    # graded_dims refuses a degree with a block over the candidate cap
    # before it builds any block of that degree; every stored block still
    # holds Delta of its quotient words only, as after a complete run.
    monkeypatch.setattr(nichols, "MAX_BLOCK_CANDIDATES", 50)
    trunc = nichols_truncate(w_triple, 4)
    with pytest.raises(ResourceBoundError,
                       match=r"multidegree \(1, 1, 2\) has 72 candidate"):
        trunc.graded_dims()
    assert all(md in trunc._blocks for md in trunc.multidegrees(3))
    assert not any(sum(md) == 4 for md in trunc._blocks)
    _assert_delta_of_quotient_words(trunc)


def test_blocks_built_out_of_order(w_triple):
    # A top-degree block built alone, then a lower block it did not read,
    # and a second top-degree block that reads both.
    trunc = nichols_truncate(w_triple, 4)
    order = [(2, 1, 1), (0, 2, 1), (1, 2, 1)]
    trunc.block(order[0])
    assert order[1] not in trunc._blocks
    for md in order[1:]:
        trunc.block(md)
    for md in order:
        _assert_block_matches_dense(trunc, md)


@pytest.mark.parametrize("which, degree", [("z9", 6), ("tower", 7)])
def test_block_delta_matches_delta_last(which, degree, z9_pair, tower_pair):
    # Each block computes Delta_{n-1,1} of a candidate q x from Delta(q)
    # held one degree down.  Stored conductors depend on the order of
    # summation, so each held Delta(q) must match the uncached delta_last
    # term by term: keys, key order, printed coefficients and conductors.
    trunc = nichols_truncate(z9_pair[1] if which == "z9" else tower_pair,
                             degree)

    def terms(vec):
        return [(k, str(c), stored_conductor(c)) for k, c in vec.items()]

    # Below the truncation degree only: its blocks hold no Delta.  The
    # empty word has no (n-1, 1) part.
    for n in range(1, degree):
        for md in trunc.multidegrees(n):
            blk = trunc.block(md)
            assert list(blk.delta) == blk.quotient_words, md
            for q, dq in blk.delta.items():
                assert terms(dq) == terms(trunc.ctx.delta_last(q)), q


def test_normal_form_sums_word_forms_in_term_order(w_triple):
    # Terms of two multidegrees, interleaved, whose word normal forms share
    # quotient words: NF(vec) is sum c NF(w) added in the vector's order.
    trunc = nichols_truncate(w_triple, 3)
    picked = []
    for md in [(1, 1, 1), (2, 1, 0)]:
        quotient = set(trunc.block(md).quotient_words)
        picked.append([w for w in words_of_multidegree(trunc.ctx, md)
                       if w not in quotient][:3])
    rng = random.Random(7)
    vec = GradedVector()
    for u, v in zip(*picked):
        vec.add_term(u, rng.randint(1, 3))
        vec.add_term(v, -rng.randint(1, 3))
    forms = [(trunc.normal_form(GradedVector.from_word(w)), c)
             for w, c in vec.items()]
    seen = [q for nf, _ in forms for q in nf.terms]
    assert len(seen) > len(set(seen))
    expected = GradedVector()
    for nf, c in forms:
        for q, r in nf.items():
            expected.add_term(q, r * c)
    got = trunc.normal_form(vec)
    assert got == expected
    assert {q: str(c) for q, c in got.items()} == {
        q: str(c) for q, c in expected.items()}
    # A word minus its normal form lies in the ideal.
    w = picked[0][0]
    rel = (GradedVector.from_word(w)
           - trunc.normal_form(GradedVector.from_word(w)))
    assert trunc.normal_form(vec + rel) == got


def test_deep_block_recursion(tower_pair):
    # Block (63, 1) reads (62, 1) and (63, 0), and so on down to degree 0:
    # the recursion is as deep as the largest truncation degree allows.
    # No relation of B(P) has multidegree (63, 1): all 64 words stay in the
    # quotient.
    trunc = nichols_truncate(tower_pair, MAX_TRUNCATION_DEGREE)
    assert trunc.dim_multidegree((63, 1)) == 64


def test_block_candidate_cap_is_checked_before_delta(w_triple, monkeypatch):
    # (1, 2, 2) on W has 2 (dim B(0, 2, 2) + dim B(1, 1, 2) + dim B(1, 2, 1))
    # = 164 candidates.  The cap is checked once the lower blocks are built,
    # before Delta_{n-1,1} of any word of the block is computed.
    md = (1, 2, 2)
    monkeypatch.setattr(nichols, "MAX_BLOCK_CANDIDATES", 163)
    trunc = nichols_truncate(w_triple, 5)
    ctx = trunc.ctx
    delta_last = ctx.delta_last

    def guarded(w, *args):
        if ctx.multidegree(w) == md:
            raise AssertionError(f"Delta of {w} computed")
        return delta_last(w, *args)
    monkeypatch.setattr(ctx, "delta_last", guarded)
    with pytest.raises(ResourceBoundError,
                       match=r"multidegree \(1, 2, 2\) has 164 candidate"):
        trunc.block(md)
    assert md not in trunc._blocks


def test_oracle_equivalence_kernels(w_presets, w_pair):
    # ker Delta_{1^n} from the recursive engine equals the kernel from the
    # independent shuffle-expansion (braided symmetrizer) oracle, and the
    # blocks' quotient words and normal forms agree with that kernel, for
    # every simple preset up to degree 4 and for the pair sum up to degree 3.
    cases = [(w_presets[k], 4) for k in range(1, 7)]
    cases.append((w_pair, 3))
    for module, max_n in cases:
        trunc = nichols_truncate(module, max_n)
        for n in range(1, max_n + 1):
            check_against_symmetrizer(trunc, n)


def test_oracle_graded_dims(w_presets):
    assert oracle_graded_dims(w_presets[1], 3) == (1, 2, 1, 0)


def test_graded_dual_symmetry(w_presets):
    for k in (1, 2, 5):
        mod = w_presets[k]
        assert (nichols_truncate(mod, 4).graded_dims()
                == nichols_truncate(dual(mod), 4).graded_dims())


def test_coideal_compatibility(trunc_w1, trunc_pair):
    assert check_coideal(trunc_w1, 2)
    assert check_coideal(trunc_w1, 3)
    assert check_coideal(trunc_pair, 2)
    assert check_coideal(trunc_pair, 3)


def test_no_primitives_above_degree_one(trunc_w1, trunc_pair):
    for n in (2, 3, 4):
        assert primitive_dim(trunc_w1, n) == 0
        assert primitive_dim(trunc_pair, n) == 0


def test_quotient_multiplicativity(trunc_pair):
    ctx = trunc_pair.ctx
    rng = random.Random(4)
    for _ in range(15):
        na, nb = rng.randint(1, 2), rng.randint(1, 2)
        a = GradedVector.from_word(tuple(rng.choice(ctx.letters)
                                         for _ in range(na)))
        b = GradedVector.from_word(tuple(rng.choice(ctx.letters)
                                         for _ in range(nb)))
        direct = trunc_pair.normal_form(ctx.mult(a, b))
        stepwise = trunc_pair.normal_form(
            ctx.mult(trunc_pair.normal_form(a), trunc_pair.normal_form(b)))
        assert direct == stepwise


def test_words_of_multidegree_match_filtered_product(w_presets, w_pair,
                                                      w_triple):
    for V in (w_presets[1], w_pair, w_triple):
        trunc = nichols_truncate(V, 5)
        ctx = trunc.ctx
        for n in range(6):
            words = list(product(ctx.letters, repeat=n))
            for md in trunc.multidegrees(n):
                assert words_of_multidegree(ctx, md) == [
                    w for w in words if ctx.multidegree(w) == md], md


def test_trivial_braiding_gives_exterior_like_counts(z2cubed, w_presets):
    # Sanity against overcounting: quotient + ideal dims add to word count.
    trunc = nichols_truncate(w_presets[3], 3)
    for n in range(1, 4):
        for md in trunc.multidegrees(n):
            blk_words = len(words_of_multidegree(trunc.ctx, md))
            assert (trunc.dim_multidegree(md)
                    + ideal_dim_multidegree(trunc, md)) == blk_words

