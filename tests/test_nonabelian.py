"""Nonabelian benchmark: the transposition module over S3.

With the trivial cocycle the category is the classical Yetter-Drinfeld
category of kS3.  The 3-dimensional module spanned by the transpositions
with the sign-twisted conjugation action generates the well-known
12-dimensional Nichols algebra with Hilbert series (1, 3, 4, 3, 1); hitting
these numbers exercises every degree-conjugation code path (actions,
braidings, duals, coproduct kernels) that the abelian worked family cannot.
"""

from itertools import permutations, product

import pytest

from ydweyl.cyclo import CycScalar
from ydweyl.freebraid import WordAlgebra
from ydweyl.groupdata import Cocycle3, check_3cocycle, group_from_cayley
from ydweyl.nichols import nichols_truncate
from ydweyl.ydcat import YDModule, dual, iso_test, yd_axiom_check
from oracles import (check_coideal, kernel_rref, primitive_dim, root_counts,
                     symmetrizer)


def _sgn(p):
    s = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                s = -s
    return s


@pytest.fixture(scope="module")
def s3_module():
    perms = sorted(permutations(range(3)))
    perms.remove((0, 1, 2))
    perms.insert(0, (0, 1, 2))

    def compose(p, q):
        return tuple(p[q[x]] for x in range(3))

    index = {p: i for i, p in enumerate(perms)}
    cayley = [[index[compose(p, q)] for q in perms] for p in perms]
    group = group_from_cayley(cayley)
    phi = Cocycle3.trivial(group)
    transpositions = [p for p in perms
                      if sum(p[i] != i for i in range(3)) == 2]
    degrees = [index[t] for t in transpositions]
    action = {}
    for gi, g in enumerate(perms):
        ginv = tuple(g.index(x) for x in range(3))
        mat = [[CycScalar.zero()] * 3 for _ in range(3)]
        for col, t in enumerate(transpositions):
            conj = compose(compose(g, t), ginv)
            mat[transpositions.index(conj)][col] = \
                CycScalar.from_rational(_sgn(g))
        action[gi] = mat
    module = YDModule(group, phi, degrees, action, name="FK3")
    return group, phi, module


def test_s3_module_is_yetter_drinfeld(s3_module):
    group, phi, module = s3_module
    assert group.order == 6 and group.abelian_orders is None
    assert check_3cocycle(phi).ok
    assert yd_axiom_check(module).ok


def test_s3_nichols_hilbert_series(s3_module):
    _, _, module = s3_module
    assert nichols_truncate(module, 5).graded_dims() == (1, 3, 4, 3, 1, 0)


def test_s3_dual_and_graded_dual_symmetry(s3_module):
    _, _, module = s3_module
    d = dual(module)
    assert yd_axiom_check(d).ok
    assert iso_test(d, module) is not None
    assert (nichols_truncate(d, 4).graded_dims()
            == nichols_truncate(module, 4).graded_dims())


def test_s3_oracle_kernel_agreement(s3_module):
    # The shuffle-expansion oracle must track the engine with nonabelian
    # degree conjugation in the braidings.
    _, _, module = s3_module
    ctx = WordAlgebra(module)
    for n in (2, 3):
        words = list(product(ctx.letters, repeat=n))
        oracle = kernel_rref(ctx, words, lambda w: symmetrizer(ctx, w))
        engine = kernel_rref(ctx, words, lambda w: ctx.delta_1n(w))
        assert oracle == engine, n


def test_s3_coideal_and_primitives(s3_module):
    _, _, module = s3_module
    trunc = nichols_truncate(module, 4)
    assert check_coideal(trunc, 2)
    assert check_coideal(trunc, 3)
    assert primitive_dim(trunc, 2) == 0
    assert primitive_dim(trunc, 3) == 0


def test_synthetic_rank3_root_system():
    # A hand-built standard single-vertex graph with the A3 matrix: the
    # root enumerator must close on the 12 roots of A3.
    from ydweyl.weylgraph import (SemiCartanGraph, Vertex, check_axioms,
                                  is_finite, real_roots)
    a3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    graph = SemiCartanGraph(theta=3,
                            vertices=[Vertex(0, None, ("synthetic",), a3)],
                            reflections={(i, 0): 0 for i in range(3)})
    assert check_axioms(graph).ok
    roots, truncated = real_roots(graph, 50)
    assert not truncated
    assert len(roots[0]) == 12
    assert (1, 1, 1) in roots[0] and (-1, -1, -1) in roots[0]
    result = is_finite(graph, 50)
    assert result.is_finite() and root_counts(result)[0] == 12
