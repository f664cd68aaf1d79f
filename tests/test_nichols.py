import random
from itertools import product

import pytest

from ydweyl.errors import ResourceBoundError
from ydweyl.freebraid import GradedVector
from ydweyl.nichols import nichols_truncate
from ydweyl.ydcat import dual
from oracles import (check_against_symmetrizer, check_coideal,
                     ideal_dim_multidegree, oracle_graded_dims, primitive_dim,
                     support, trivial_module)

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


def test_block_word_cap_is_checked_before_enumeration(w_triple, monkeypatch):
    # (3, 3, 2) on W has 8!/(3! 3! 2!) * 2^8 = 143,360 words, and its dense
    # Delta matrix would have 143,360^2 entries.
    trunc = nichols_truncate(w_triple, 8)

    def enumerate_words(md):
        raise AssertionError(f"words of {md} enumerated")
    monkeypatch.setattr(trunc, "words_of_multidegree", enumerate_words)
    with pytest.raises(ResourceBoundError,
                       match=r"multidegree \(3, 3, 2\) has 143360 words"):
        trunc.block((3, 3, 2))


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
                assert trunc.words_of_multidegree(md) == [
                    w for w in words if ctx.multidegree(w) == md], md


def test_trivial_braiding_gives_exterior_like_counts(z2cubed, w_presets):
    # Sanity against overcounting: quotient + ideal dims add to word count.
    trunc = nichols_truncate(w_presets[3], 3)
    for n in range(1, 4):
        for md in trunc.multidegrees(n):
            blk_words = len(trunc.words_of_multidegree(md))
            assert (trunc.dim_multidegree(md)
                    + ideal_dim_multidegree(trunc, md)) == blk_words

