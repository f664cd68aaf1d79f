"""Independent test oracles.

These deliberately avoid the code paths they check: scalars are evaluated
with complex floats, the defining ideal is recomputed through the braided
symmetrizer (a sum over permutation lifts, not the coproduct recursion),
row reduction is checked against a dense Gauss-Jordan sweep, the pentagon
identity is walked over every quadruple, identities included,
reflection orbits of degree tuples are enumerated with plain group
arithmetic, and root sets are the images of the simple roots under every
composite of generator morphisms.
"""

from __future__ import annotations

import cmath
from itertools import permutations, product

from ydweyl.cyclo import CycScalar, nullspace, rref
from ydweyl.freebraid import GradedVector, WordAlgebra, left_comb
from ydweyl.weylgraph import GroupoidMorphism, generator_morphism


def complex_value(x: CycScalar) -> complex:
    z = cmath.exp(2j * cmath.pi / x.conductor)
    return sum(float(c) * z ** k for k, c in enumerate(x.coeffs))


def dense_rref(rows):
    """Reduced row echelon form and pivots by a dense Gauss-Jordan sweep."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if not mat[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c].inv()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def pentagon_holds(phi) -> bool:
    """The pentagon identity of phi on all |G|^4 quadruples."""
    g, v = phi.group, phi.value
    return all(v(b, c, d) * v(a, g.mul(b, c), d) * v(a, b, c)
               == v(a, b, g.mul(c, d)) * v(g.mul(a, b), c, d)
               for a, b, c, d in product(g.elements(), repeat=4))


# ---------------------------------------------------------------------------
# Braided symmetrizer: Delta_{1^n} recomputed as sum over S_n of braid lifts.
# ---------------------------------------------------------------------------

def isolate_tree(n: int, i: int):
    """Tree on n ordered leaves with (i, i+1) grouped as a node."""
    if i == 0:
        base = (0, 1)
    else:
        t = 0
        for k in range(1, i):
            t = (t, k)
        base = (t, (i, i + 1))
    for k in range(i + 2, n):
        base = (base, k)
    return base


def braid_at(ctx: WordAlgebra, word, i: int) -> GradedVector:
    """c_i on a left-nested word: rebracket, braid the pair, rebracket back."""
    n = len(word)
    degs = [ctx.letter_degree(l) for l in word]
    lc = left_comb(n)
    iso = isolate_tree(n, i)
    s1 = ctx.rebracket_scalar(degs, lc, iso)
    out = GradedVector()
    for lw, c in ctx.act(degs[i], (word[i + 1],)).items():
        new_word = word[:i] + (lw[0], word[i]) + word[i + 2:]
        new_degs = [ctx.letter_degree(l) for l in new_word]
        s2 = ctx.rebracket_scalar(new_degs, iso, lc)
        out.add_term(new_word, s1 * c * s2)
    return out


def _braid_op(ctx, vec: GradedVector, i: int) -> GradedVector:
    out = GradedVector()
    for w, c in vec.items():
        for w2, c2 in braid_at(ctx, w, i).items():
            out.add_term(w2, c * c2)
    return out


def reduced_word(p) -> list:
    """A reduced expression for the permutation, by bubble sort."""
    p = list(p)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                word.append(i)
                changed = True
    return word


def symmetrizer(ctx: WordAlgebra, word) -> GradedVector:
    """Braided symmetrizer applied to a word: the shuffle-expansion oracle."""
    total = GradedVector()
    for p in permutations(range(len(word))):
        vec = GradedVector.from_word(word)
        for i in reduced_word(p):
            vec = _braid_op(ctx, vec, i)
        total = total + vec
    return total


def kernel_rref(ctx: WordAlgebra, words, image_fn):
    """Canonical RREF (as strings) of ker of a word-indexed linear map."""
    index = {w: k for k, w in enumerate(words)}
    rows = [[CycScalar.zero()] * len(words) for _ in words]
    for col, w in enumerate(words):
        for tw, c in image_fn(w).items():
            rows[index[tw]][col] = c
    kernel = nullspace(rows, len(words))
    reduced, _ = rref(kernel)
    return [[str(x) for x in row] for row in reduced]


def check_against_symmetrizer(trunc, n: int):
    """Assert a truncation's degree-n data against the symmetrizer oracle.

    ker Delta_{1^n} equals the symmetrizer kernel; the quotient words of the
    blocks are the words at the non-pivot columns of that kernel's RREF; and
    the symmetrizer kills w - NF(w) for every word w.
    """
    ctx = trunc.ctx
    words = list(product(ctx.letters, repeat=n))
    sym = {w: symmetrizer(ctx, w) for w in words}
    oracle = kernel_rref(ctx, words, sym.__getitem__)
    assert kernel_rref(ctx, words, ctx.delta_1n) == oracle, n
    pivots = {next(k for k, x in enumerate(row) if x != "0") for row in oracle}
    quotient = {w for md in trunc.multidegrees(n)
                for w in trunc.block(md).quotient_words}
    assert quotient == {w for k, w in enumerate(words) if k not in pivots}, n
    for w in words:
        rel = (GradedVector.from_word(w)
               - trunc.normal_form(GradedVector.from_word(w)))
        image = GradedVector()
        for u, c in rel.items():
            for v, d in sym[u].items():
                image.add_term(v, c * d)
        assert image.is_zero(), (n, w)


def oracle_ideal_rref(ctx: WordAlgebra, n: int):
    words = list(product(ctx.letters, repeat=n))
    return words, kernel_rref(ctx, words, lambda w: symmetrizer(ctx, w))


def oracle_graded_dims(module, max_degree: int) -> tuple:
    """Graded dimensions of B(V) from the symmetrizer kernels alone."""
    ctx = WordAlgebra(module)
    dims = [1]
    for n in range(1, max_degree + 1):
        words, ideal = oracle_ideal_rref(ctx, n)
        dims.append(len(words) - len(ideal))
    return tuple(dims)


# ---------------------------------------------------------------------------
# Degree bookkeeping oracle for the reflection BFS.
# ---------------------------------------------------------------------------

def degree_orbit(group, start_degrees) -> set:
    """Reachable degree tuples under d_j -> d_i d_j (j != i), d_i fixed."""
    start = tuple(start_degrees)
    theta = len(start)
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for t in frontier:
            for i in range(theta):
                r = tuple(t[j] if j == i else group.mul(t[i], t[j])
                          for j in range(theta))
                if r not in seen:
                    seen.add(r)
                    new.append(r)
        frontier = new
    return seen


# ---------------------------------------------------------------------------
# Root-set oracle: morphisms of the Weyl groupoid, not (vertex, root) pairs.
# ---------------------------------------------------------------------------

def morphism_root_sets(graph, max_morphisms: int = 100_000) -> dict:
    """vid -> R^X as a set: f(alpha_j) over every morphism f into X.

    Enumerates Hom(-, X) by composing generator morphisms onto the identity
    at X.  Only for finite Weyl groupoids: it raises after max_morphisms.
    """
    theta = graph.theta
    ident = tuple(tuple(int(r == c) for c in range(theta)) for r in range(theta))
    simple = ident  # the rows of the identity are the simple roots
    out = {}
    for v in graph.vertices:
        start = GroupoidMorphism(v.vid, ident, v.vid)
        seen = {(start.source, start.matrix): start}
        frontier = [start]
        while frontier:
            new = []
            for mor in frontier:
                for i in range(theta):
                    ext = mor.compose(
                        generator_morphism(graph, i, graph.r(i, mor.source)))
                    if (ext.source, ext.matrix) not in seen:
                        seen[(ext.source, ext.matrix)] = ext
                        new.append(ext)
            if len(seen) > max_morphisms:
                raise AssertionError(f"more than {max_morphisms} morphisms "
                                     f"into vertex {v.vid}")
            frontier = new
        out[v.vid] = {mor.apply(a) for mor in seen.values() for a in simple}
    return out
