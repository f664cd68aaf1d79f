"""Independent test oracles and the references the tests compare against.

The oracles deliberately avoid the code paths they check: scalars are
evaluated with complex floats and multiplied by schoolbook long division on
Fraction coefficients, the defining ideal is recomputed through the braided
symmetrizer (a sum over permutation lifts, not the coproduct recursion),
row reduction is checked against a dense Gauss-Jordan sweep, the pentagon
identity is walked over every quadruple, identities included,
reflection orbits of degree tuples are enumerated with plain group
arithmetic, root sets are the images of the simple roots under every
composite of generator morphisms, and the Cartan type is decided by
principal minors and named by matching a generated catalog of Dynkin
matrices under simultaneous permutation.

The references are structure the program itself never needs, kept here
so the tests can state the paper's identities against it:
  * T(V): the general (i, j) component of Delta (the engine computes
    only the (n-1, 1) one), Delta_{1^n} peeling Delta_{1,n-1} (the engine
    peels Delta_{n-1,1}), coherence scalars between arbitrary bracketings,
    and the left and right combs;
  * B(V): the words of each multidegree (the engine builds a block from
    its candidate words only), Delta on normal forms, the coideal check,
    primitives, supports and ideal dimensions per multidegree;
  * bosonization: the smash product B(V) # kG, the preantipode scalar of
    (kG, Phi), and the coinvariant dimensions of B(M) -> B(N);
  * reflections: the dimension of each ad level, and the action of every
    group element on it read in B(M) (the engine acts by generators and
    derives the rest);
  * cocycles: the pentagon's report with both sides multiplied out on
    every quadruple (the engine multiplies each combination of values
    once);
  * YD modules: the trivial module, the axiom walk over every e in G
    (the engine checks e in a generating set), generator matrices
    extended over G without a check (the engine extends and checks in one
    walk), duals with the action written on every group element (the
    engine writes it on generators and derives the rest), tensor
    products, braiding matrices and componentwise isomorphism of tuples;
  * the Weyl groupoid's morphisms and root counts per vertex, the root
    closure per vertex (reference_real_roots; the engine closes it once
    per class of vertices), and those classes (root_classes) with the
    graph they quotient to.

Only the standard library and ydweyl are imported: perfbench/selfcheck.py
imports oracle_graded_dims without pytest.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import gcd
from weakref import WeakKeyDictionary

from ydweyl.cyclo import (CycScalar, det, identity_matrix, mat_mul,
                         nullspace, rref)
from ydweyl import weylgraph
from ydweyl.errors import ResourceBoundError, ValidationError
from ydweyl.freebraid import GradedVector, WordAlgebra
from ydweyl.groupdata import Report
from ydweyl.weylgraph import CartanTypeResult, _components
from ydweyl.ydcat import YDModule, iso_test

_ONE = CycScalar.one()
_ZERO = CycScalar.zero()


def complex_value(x: CycScalar) -> complex:
    z = cmath.exp(2j * cmath.pi / x.conductor)
    return sum(float(c) * z ** k for k, c in enumerate(x.coeffs))


# ---------------------------------------------------------------------------
# Schoolbook arithmetic in Q(zeta_n) on Fraction coefficient tuples.
# ---------------------------------------------------------------------------

def reference_cyclotomic(n: int) -> list:
    """Phi_n multiplied out from its primitive roots in complex floats."""
    poly = [1]
    for k in range(n):
        if gcd(k, n) == 1:
            root = cmath.exp(2j * cmath.pi * k / n)
            poly = ([-root * poly[0]]
                    + [poly[i - 1] - root * poly[i] for i in range(1, len(poly))]
                    + [poly[-1]])
    return [round(c.real) for c in poly]


def reference_reduce(coeffs, n: int) -> tuple:
    """sum_k coeffs[k] x^k mod Phi_n by long division, as phi(n) Fractions."""
    phi = reference_cyclotomic(n)
    deg = len(phi) - 1
    c = [Fraction(x) for x in coeffs] + [Fraction(0)] * deg
    for k in range(len(c) - 1, deg - 1, -1):
        top = c[k]
        for j in range(deg + 1):
            c[k - deg + j] -= top * phi[j]
    return tuple(c[:deg])


def reference_product(a, b, n: int) -> tuple:
    prod = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return reference_reduce(prod, n)


def reference_promote(coeffs, n: int, m: int) -> tuple:
    """Coefficients in Q(zeta_n) re-expressed in Q(zeta_m), m a multiple of n."""
    step = m // n
    spread = [Fraction(0)] * (len(coeffs) * step)
    for j, c in enumerate(coeffs):
        spread[j * step] = c
    return reference_reduce(spread, m)


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


def dense_rows(reduced, ncols: int) -> list:
    """rref's sparse rows written out as dense rows of ncols CycScalars."""
    return [[row.get(j, CycScalar.zero()) for j in range(ncols)]
            for row in reduced]


def pentagon_holds(phi) -> bool:
    """The pentagon identity of phi on all |G|^4 quadruples."""
    g, v = phi.group, phi.value
    return all(v(b, c, d) * v(a, g.mul(b, c), d) * v(a, b, c)
               == v(a, b, g.mul(c, d)) * v(g.mul(a, b), c, d)
               for a, b, c, d in product(g.elements(), repeat=4))


def pentagon_on_values(phi) -> Report:
    """The pentagon on exact scalars, reporting the first failing quadruple.

    The report reference for check_3cocycle: every non-identity quadruple
    in check_3cocycle's order, both sides multiplied out every time.
    """
    g = phi.group
    rest = range(1, g.order)
    for a in rest:
        for b in rest:
            ab = g.mul(a, b)
            for c in rest:
                bc = g.mul(b, c)
                left_ab = phi.value(a, b, c)
                for d in rest:
                    lhs = phi.value(b, c, d) * phi.value(a, bc, d) * left_ab
                    rhs = phi.value(a, b, g.mul(c, d)) * phi.value(ab, c, d)
                    if not lhs == rhs:
                        return Report(False, [
                            f"pentagon fails at quadruple ({a},{b},{c},{d}): "
                            f"{lhs} != {rhs}"])
    return Report(True, [])


# ---------------------------------------------------------------------------
# T(V) references: the general Delta component, the other Delta_{1^n} order
# and arbitrary bracketings.
# ---------------------------------------------------------------------------

# Components already computed, per WordAlgebra: (word, i) -> Delta_{i,j}.
# A component depends only on the algebra's immutable modules, so an entry
# never goes stale, and it is dropped with its algebra.
_component_memo: WeakKeyDictionary = WeakKeyDictionary()


def delta_component(ctx: WordAlgebra, word, i: int, j: int) -> GradedVector:
    """The (i, j) component of Delta(word); requires i + j = len(word).

    The general recursion Delta(w x) = Delta(w) (x (x) 1 + 1 (x) x): the
    engine computes only the (n-1, 1) component (ctx.delta_last).
    """
    n = len(word)
    if i < 0 or j < 0 or i + j != n:
        raise ValidationError(f"bad split ({i},{j}) for a word of length {n}")
    g, phi = ctx.group, ctx.cocycle
    memo = _component_memo.setdefault(ctx, {})

    def component(word, i, j):
        key = (word, i)
        if key in memo:
            return memo[key]
        if not word:
            out = GradedVector({((), ()): _ONE})
        else:
            # Phi is normalized, so each product by a one-letter factor
            # takes at most two Phi values, and a one-letter word needs no
            # rebracketing.
            prefix, last = word[:-1], word[-1:]
            dx = ctx.word_degree(last)
            out = GradedVector()
            if i > 0:
                # (a (x) b)(x (x) 1)
                #   = Phi(a, b|>x, b) Phi(a, b, x)^-1 (a (b|>x)) (x) b
                for (a, b), c in component(prefix, i - 1, j).items():
                    da, db = ctx.word_degree(a), ctx.word_degree(b)
                    s = phi.inverse(da, db, dx) * phi.value(
                        da, g.conj(db, dx), db)
                    for bx, cc in ctx.act(db, last).items():
                        out.add_term((a + bx, b), c * (s * cc))
            if j > 0:
                # (a (x) b)(1 (x) x) = Phi(a, b, x)^-1 a (x) (b x)
                for (a, b), c in component(prefix, i, j - 1).items():
                    s = phi.inverse(ctx.word_degree(a), ctx.word_degree(b), dx)
                    out.add_term((a, b + last), c * s)
        memo[key] = out
        return out

    return component(tuple(word), i, j)


def delta_1n_left(ctx: WordAlgebra, word) -> GradedVector:
    """Delta_{1^n}(word) peeling Delta_{1,n-1}, recursing on the right leg.

    The peeled letter is rebracketed onto the left comb.  Coassociativity
    makes this agree with ctx.delta_1n, which peels Delta_{n-1,1}.
    """
    n = len(word)
    if n <= 1:
        return GradedVector.from_word(word)
    out = GradedVector()
    for (a, b), c in delta_component(ctx, word, 1, n - 1).items():
        for rest, c2 in delta_1n_left(ctx, b).items():
            out.add_term(a + rest, c * c2 * ctx.flatten_scalar(a, rest))
    return out


def _prod_degree(group, degrees, start, count) -> int:
    d = group.identity
    for k in range(start, start + count):
        d = group.mul(d, degrees[k])
    return d


def tree_to_left_scalar(ctx: WordAlgebra, tree, leaf_degrees) -> tuple:
    """Coherence scalar from `tree` to the left comb, with subtree degree.

    Trees are nested pairs over leaf positions 0..n-1 in order; a leaf is
    an int.  Returns (scalar, first_leaf, leaf_count).
    """
    if isinstance(tree, int):
        return _ONE, tree, 1
    left, right = tree
    sl, l0, ln = tree_to_left_scalar(ctx, left, leaf_degrees)
    sr, r0, rn = tree_to_left_scalar(ctx, right, leaf_degrees)
    if r0 != l0 + ln:
        raise ValidationError("tree leaves must appear in left-to-right order")
    g = ctx.group
    s = sl * sr
    du = _prod_degree(g, leaf_degrees, l0, ln)
    for j in range(1, rn):
        prefix = _prod_degree(g, leaf_degrees, r0, j)
        s = s * ctx.cocycle.value(du, prefix, leaf_degrees[r0 + j])
    return s, l0, ln + rn


def rebracket_scalar(ctx: WordAlgebra, degrees, tree_from, tree_to) -> CycScalar:
    """Scalar of the unique coherence map tree_from -> tree_to.

    `degrees` lists the leaf degrees in order; both trees must cover
    leaves 0..len(degrees)-1.  Mac Lane coherence makes the value
    independent of the move path; this routes through the left comb.
    """
    degrees = list(degrees)
    sf, _, nf = tree_to_left_scalar(ctx, tree_from, degrees)
    st, _, nt = tree_to_left_scalar(ctx, tree_to, degrees)
    if nf != len(degrees) or nt != len(degrees):
        raise ValidationError("trees do not match the degree sequence")
    return sf / st


def left_comb(n: int):
    """The canonical left-nested tree on n leaves (n >= 1)."""
    if n < 1:
        raise ValidationError("left_comb needs at least one leaf")
    tree = 0
    for k in range(1, n):
        tree = (tree, k)
    return tree


def right_comb(n: int):
    if n < 1:
        raise ValidationError("right_comb needs at least one leaf")
    tree = n - 1
    for k in range(n - 2, -1, -1):
        tree = (k, tree)
    return tree


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
    s1 = rebracket_scalar(ctx, degs, lc, iso)
    out = GradedVector()
    for lw, c in ctx.act(degs[i], (word[i + 1],)).items():
        new_word = word[:i] + (lw[0], word[i]) + word[i + 2:]
        new_degs = [ctx.letter_degree(l) for l in new_word]
        s2 = rebracket_scalar(ctx, new_degs, iso, lc)
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
    return [[str(x) for x in row] for row in dense_rows(reduced, len(words))]


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
# B(V) references: the coproduct on normal forms and what it decides.
# ---------------------------------------------------------------------------

def words_of_multidegree(ctx: WordAlgebra, md: tuple) -> list:
    """Words of multidegree md, length-lexicographic, letter by letter."""
    level = [((), tuple(md))]  # (prefix, letters left per slot)
    for _ in range(sum(md)):
        level = [(w + ((s, b),), left[:s] + (left[s] - 1,) + left[s + 1:])
                 for w, left in level
                 for s, b in ctx.letters if left[s]]
    return [w for w, _ in level]


def ideal_dim_multidegree(trunc, md) -> int:
    blk = trunc.block(md)
    return len(words_of_multidegree(trunc.ctx, md)) - len(blk.quotient_words)


def support(trunc) -> set:
    """All Z^theta points with nonzero quotient dimension, up to the bound."""
    pts = {tuple([0] * trunc.theta)}
    for n in range(1, trunc.max_degree + 1):
        for md in trunc.multidegrees(n):
            if trunc.dim_multidegree(md) > 0:
                pts.add(md)
    return pts


def delta_on_quotient(trunc, vec: GradedVector, i: int, j: int) -> dict:
    """(i, j) component of Delta_B on a normal form, both legs reduced.

    Returns a dict {(word_left, word_right): scalar} with both legs
    canonical coset representatives.
    """
    out = GradedVector()
    for w, c in vec.items():
        if len(w) != i + j:
            raise ValidationError("delta_on_quotient needs length-homogeneous input")
        for (a, b), s in delta_component(trunc.ctx, w, i, j).items():
            na = trunc.normal_form(GradedVector.from_word(a))
            nb = trunc.normal_form(GradedVector.from_word(b))
            for wa, ca in na.items():
                for wb, cb in nb.items():
                    out.add_term((wa, wb), c * s * ca * cb)
    return out.terms


def check_coideal(trunc, n: int) -> bool:
    """Delta_{i,n-i} maps the degree-n ideal into ideal(x)T + T(x)ideal."""
    for md in trunc.multidegrees(n):
        quotient = set(trunc.block(md).quotient_words)
        for w in words_of_multidegree(trunc.ctx, md):
            if w in quotient:
                continue
            vec = GradedVector.from_word(w) - trunc.normal_form(
                GradedVector.from_word(w))
            for i in range(1, n):
                if delta_on_quotient(trunc, vec, i, n - i):
                    return False
    return True


def primitive_dim(trunc, n: int) -> int:
    """Dimension of the primitives of B(V) in degree n (n >= 2)."""
    if n < 2:
        raise ValidationError("primitive_dim is meaningful for degree >= 2")
    total = 0
    for md in trunc.multidegrees(n):
        basis = trunc.block(md).quotient_words
        if not basis:
            continue
        rows = []
        for w in basis:
            vec = GradedVector.from_word(w)
            col_entries: dict = {}
            for i in range(1, n):
                for pair, c in delta_on_quotient(trunc, vec, i, n - i).items():
                    col_entries[(i, pair)] = c
            rows.append(col_entries)
        keys = sorted({k for r in rows for k in r},
                      key=lambda k: (k[0], k[1]))
        eqs = [[rows[col].get(k, _ZERO) for col in range(len(basis))]
               for k in keys]
        total += len(nullspace(eqs, len(basis)))
    return total


# ---------------------------------------------------------------------------
# Bosonization references: the smash product B # kG and coinvariants.
# ---------------------------------------------------------------------------

def preantipode_scalar(phi, g: int) -> CycScalar:
    """Coefficient of g^-1 in the preantipode of (kG, Phi): Phi(g, g^-1, g)^-1."""
    return phi.inverse(g, phi.group.inv(g), g)


def level_dims(levels) -> tuple:
    """Dimension of each nonzero ad level, from a reflect.AdLevels."""
    return tuple(len(level.basis) for level in levels.levels)


def reference_ad_action(trunc, md: tuple, basis: list) -> dict:
    """Every g of G acting on the ad level with this basis in block md of
    trunc, read directly in B(M): g |> v for each basis vector v, checked
    to lie in the span, has as coordinates its coefficients at the pivot
    words (basis vector k is 1 at pivot word k and 0 at the others)."""
    blk = trunc.block(md)
    words = blk.quotient_words
    _, pivots = rref([blk.coords(v) for v in basis])
    action = {}
    for g in trunc.ctx.group.elements():
        images = [trunc.normal_form(trunc.ctx.act_vector(g, v)) for v in basis]
        cols = [[im.terms.get(words[p], _ZERO) for p in pivots]
                for im in images]
        spans = [GradedVector((w, c * y) for c, b in zip(col, basis) if c
                              for w, y in b.items()) for col in cols]
        if images != spans:
            raise ValidationError("ad level is not action-stable")
        action[g] = [list(row) for row in zip(*cols)]
    return action


def coinvariant_dims(trunc, coinv_slots, max_total: int) -> dict:
    """Multigraded dimensions of the right coinvariants of B -> B(N).

    N is the direct sum of the slots in coinv_slots; an element x of the
    quotient is coinvariant iff every coproduct component whose right leg is
    a nonempty pure-N word vanishes.  Returns {multidegree: dim}.
    """
    coinv_slots = set(coinv_slots)
    theta = trunc.theta
    out = {}
    for total in range(max_total + 1):
        for md in trunc.multidegrees(total):
            basis = trunc.block(md).quotient_words
            if not basis:
                out[md] = 0
                continue
            n = total
            col_maps = []
            for w in basis:
                entries = GradedVector()
                vec = GradedVector.from_word(w)
                for s in range(1, n + 1):
                    for (a, b), c in delta_on_quotient(trunc, vec, n - s, s).items():
                        bmd = trunc.ctx.multidegree(b)
                        if all(bmd[t] == 0 or t in coinv_slots
                               for t in range(theta)):
                            entries.add_term((s, a, b), c)
                col_maps.append(entries.terms)
            keys = sorted({k for m in col_maps for k in m})
            rows = [[m.get(k, _ZERO) for m in col_maps] for k in keys]
            out[md] = len(nullspace(rows, len(basis)))
    return out


class SmashAlgebra:
    """B(V) # kG on normal forms; elements are {(word, g): scalar} dicts."""

    def __init__(self, trunc):
        self.trunc = trunc
        self.ctx = trunc.ctx
        self.group = trunc.ctx.group
        self.phi = trunc.ctx.cocycle

    def unit(self):
        return {((), self.group.identity): _ONE}

    def element(self, word, g, coeff=_ONE):
        return {(tuple(word), g): coeff}

    def mult(self, x: dict, y: dict) -> dict:
        """(X # h)(Y # g) by the bosonization product formula."""
        G, phi = self.group, self.phi
        out = GradedVector()
        for (w1, h), c1 in x.items():
            dx = self.ctx.word_degree(w1)
            for (w2, g), c2 in y.items():
                dy = self.ctx.word_degree(w2)
                hyh = G.conj(h, dy)
                scalar = (phi.value(h, dy, g) * phi.value(dx, hyh, G.mul(h, g))
                          / (phi.value(dx, h, G.mul(dy, g))
                             * phi.value(hyh, h, g)))
                core = self.trunc.normal_form(
                    self.ctx.mult(GradedVector.from_word(w1),
                                  self.ctx.act_vector(h, GradedVector.from_word(w2))))
                hg = G.mul(h, g)
                for w, c in core.items():
                    out.add_term((w, hg), c1 * c2 * scalar * c)
        return out.terms

    def coproduct(self, x: dict) -> dict:
        """Delta(X # h) = Phi^-1(x1, x2, h) (X1 # x2 h) (x) (X2 # h)."""
        G, phi = self.group, self.phi
        out = GradedVector()
        for (w, h), coeff in x.items():
            n = len(w)
            vec = GradedVector.from_word(w)
            for i in range(n + 1):
                for (a, b), c in delta_on_quotient(self.trunc, vec, i, n - i).items():
                    da = self.ctx.word_degree(a)
                    db = self.ctx.word_degree(b)
                    s = phi.inverse(da, db, h)
                    out.add_term(((a, G.mul(db, h)), (b, h)), coeff * c * s)
        return out.terms

    def preantipode_grouplike(self, g: int) -> dict:
        return {((), self.group.inv(g)): preantipode_scalar(self.phi, g)}

    def ad_group_via_smash(self, g: int, x: GradedVector) -> GradedVector:
        """ad(g)(X) = [Phi(g x, g^-1, g)/Phi(g, g^-1, g)] (g X) g^-1."""
        G, phi = self.group, self.phi
        out = GradedVector()
        for w, c in self.trunc.normal_form(x).items():
            dx = self.ctx.word_degree(w)
            pre = phi.value(G.mul(g, dx), G.inv(g), g) / phi.value(g, G.inv(g), g)
            prod = self.mult(self.mult(self.element((), g),
                                       self.element(w, G.identity)),
                             self.element((), G.inv(g)))
            for (w2, h), c2 in prod.items():
                if h != G.identity:
                    raise ValidationError("ad(g) left the coinvariant part")
                out.add_term(w2, c * pre * c2)
        return out


# ---------------------------------------------------------------------------
# YD-module references: unit, duals, tensor products, braidings, tuple isos.
# ---------------------------------------------------------------------------

def trivial_module(group, cocycle) -> YDModule:
    action = {g: [[_ONE]] for g in group.elements()}
    return YDModule(group, cocycle, [group.identity], action, name="triv")


def reference_dual(V: YDModule) -> YDModule:
    """The left dual with its action written on every group element.

    (h |> f)_k = s_k(h) * A_{h^-1}[j][k] f_j, s_k(h) the inverse of
    tensor_action(h, w^-1, w) * omega_{deg v_k}(h, h^-1), w = h^-1 |> deg v_k:
    the formula ydcat.dual applies to generators only.  Not validated.
    """
    G, phi = V.group, V.cocycle
    action = {}
    for h in G.elements():
        ah_inv = V.act_matrix(G.inv(h))
        mat = [[_ZERO] * V.dim for _ in range(V.dim)]
        for k in range(V.dim):
            gk = V.degrees[k]
            w_deg = G.conj(G.inv(h), gk)
            s = (phi.tensor_action(h, G.inv(w_deg), w_deg)
                 * phi.omega(h, G.inv(h), gk)).inv()
            for j in range(V.dim):
                if not ah_inv[j][k].is_zero():
                    mat[k][j] = s * ah_inv[j][k]
        action[h] = mat
    return YDModule(G, phi, [G.inv(d) for d in V.degrees], action,
                    name=f"{V.name or '?'}*")


def reference_yd_walk(V: YDModule) -> Report:
    """The unit and degree laws, and the composition law for every e in G.

    The walk ydcat checked every module with before its composition law
    was checked on a generating set: the report lists the unit line, every
    degree line, and the first composition failure with e outermost.
    """
    G, phi = V.group, V.cocycle
    bad = []
    ident = V.act_matrix(G.identity)
    if any(not ident[i][j] == (_ONE if i == j else _ZERO)
           for i in range(V.dim) for j in range(V.dim)):
        bad.append("unit law fails: action of 1 is not the identity matrix")
    for g in G.elements():
        m = V.act_matrix(g)
        for j in range(V.dim):
            target = G.conj(g, V.degrees[j])
            for i in range(V.dim):
                if not m[i][j].is_zero() and V.degrees[i] != target:
                    bad.append(
                        f"degree compatibility fails: {g}|>v{j} hits degree "
                        f"{V.degrees[i]} != {target}")
    for e in G.elements():
        me = V.act_matrix(e)
        for f in G.elements():
            lhs = mat_mul(me, V.act_matrix(f))
            mef = V.act_matrix(G.mul(e, f))
            for j in range(V.dim):
                w = phi.omega(e, f, V.degrees[j])
                for i in range(V.dim):
                    if not lhs[i][j] == w * mef[i][j]:
                        bad.append(
                            f"twisted composition fails at (e={e}, f={f}, "
                            f"basis {j})")
                        return Report(False, bad)
    return Report(not bad, bad)


def reference_extension(group, cocycle, degrees,
                        generator_actions: dict) -> YDModule:
    """Generator matrices extended over G by the twisted composition law,
    unchecked: A_1 = I (a matrix given for 1 is ignored) and, breadth-first
    from 1, A_se[:, k] = omega_{deg k}(s, e)^-1 (A_s A_e)[:, k] at each se
    not yet reached."""
    known = {group.identity: identity_matrix(len(degrees))}
    gens = {int(g): [list(row) for row in m]
            for g, m in generator_actions.items()}
    frontier = [group.identity]
    while frontier:
        new = []
        for e in frontier:
            for s in sorted(gens):
                se = group.mul(s, e)
                if se in known:
                    continue
                winv = [cocycle.omega(s, e, d).inv() for d in degrees]
                mat = mat_mul(gens[s], known[e])
                known[se] = [[x * w for x, w in zip(row, winv)]
                             for row in mat]
                new.append(se)
        frontier = new
    return YDModule(group, cocycle, degrees, known)


def printed_action(V: YDModule) -> dict:
    """Each action matrix of V with its entries as printed: str shows the
    stored conductor, which == does not compare."""
    return {g: [[str(x) for x in row] for row in m] for g, m in V.action.items()}


def tensor(V: YDModule, W: YDModule) -> YDModule:
    """Tensor product module on basis v_i (x) w_j, flat index i*dim(W)+j."""
    if V.group is not W.group or V.cocycle is not W.cocycle:
        raise ValidationError("tensor operands live over different (G, Phi)")
    G, phi = V.group, V.cocycle
    dims = V.dim * W.dim
    degrees = [G.mul(V.degrees[i], W.degrees[j])
               for i in range(V.dim) for j in range(W.dim)]
    action = {}
    for x in G.elements():
        mv, mw = V.act_matrix(x), W.act_matrix(x)
        mat = [[_ZERO] * dims for _ in range(dims)]
        for i in range(V.dim):
            for j in range(W.dim):
                s = phi.tensor_action(x, V.degrees[i], W.degrees[j])
                col = i * W.dim + j
                for a in range(V.dim):
                    if mv[a][i].is_zero():
                        continue
                    for b in range(W.dim):
                        if mw[b][j].is_zero():
                            continue
                        mat[a * W.dim + b][col] = s * mv[a][i] * mw[b][j]
        action[x] = mat
    return YDModule(G, phi, degrees, action,
                    name=f"({V.name or '?'}(x){W.name or '?'})")


def braiding_matrix(V: YDModule, W: YDModule):
    """Matrix of c: V (x) W -> W (x) V, c(v (x) w) = (deg v |> w) (x) v."""
    if V.group is not W.group or V.cocycle is not W.cocycle:
        raise ValidationError("braiding operands live over different (G, Phi)")
    dims = V.dim * W.dim
    mat = [[_ZERO] * dims for _ in range(dims)]
    for i in range(V.dim):
        mw = W.act_matrix(V.degrees[i])
        for j in range(W.dim):
            col = i * W.dim + j
            for k in range(W.dim):
                if not mw[k][j].is_zero():
                    mat[k * V.dim + i][col] = mw[k][j]
    return mat


def tuple_iso(M, N) -> bool:
    """Componentwise isomorphism of tuples (ordered)."""
    if M.theta != N.theta:
        return False
    return all(iso_test(a, b) is not None for a, b in zip(M, N))


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

def _s_matrix(A: list, i: int) -> tuple:
    """s_i^X as a matrix: alpha_j -> alpha_j - a_ij alpha_i (columns = images)."""
    n = len(A)
    return tuple(tuple((1 if r == c else 0) - (A[i][c] if r == i else 0)
                       for c in range(n)) for r in range(n))


def _mat_apply(mat, vec):
    return tuple(sum(mat[r][c] * vec[c] for c in range(len(vec)))
                 for r in range(len(vec)))


def _mat_compose(a, b):
    n = len(a)
    return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(n))
                       for c in range(n)) for r in range(n))


@dataclass(frozen=True)
class GroupoidMorphism:
    """A morphism (target, f, source) of the Weyl groupoid."""
    target: int
    matrix: tuple  # theta x theta integer matrix, rows of tuples
    source: int

    def compose(self, other: "GroupoidMorphism") -> "GroupoidMorphism":
        """(Z, g, Y) o (Y, f, X) = (Z, gf, X)."""
        if self.source != other.target:
            raise ValidationError("morphism endpoints do not match")
        return GroupoidMorphism(self.target,
                                _mat_compose(self.matrix, other.matrix),
                                other.source)

    def apply(self, vec):
        return _mat_apply(self.matrix, vec)


def generator_morphism(graph, i: int, vid: int) -> GroupoidMorphism:
    """The generator (r_i(X), s_i^X, X) out of vertex X = vid."""
    return GroupoidMorphism(graph.r(i, vid), _s_matrix(graph.cartan(vid), i), vid)


def root_counts(result) -> dict:
    """vid -> number of real roots, from a weylgraph.FinitenessResult."""
    return {vid: len(rs) for vid, rs in result.roots.items()}


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


def reference_real_roots(graph, bound: int) -> tuple[dict, bool]:
    """The per-vertex root closure: each state a (vid, beta) pair, each step
    re-reading the Cartan row of its vertex.  weylgraph.real_roots walks
    classes of vertices instead; run on quotient_graph(graph,
    root_classes(graph)), this walks the same states in the same BFS order,
    with the same truncation test, weylgraph.MAX_ROOT_STATES check and
    result."""
    theta = graph.theta
    simple = [tuple(int(k == j) for k in range(theta)) for j in range(theta)]
    frontier = [(v.vid, a) for v in graph.vertices for a in simple]
    seen = set(frontier)
    while frontier:
        new = []
        for vid, beta in frontier:
            A = graph.cartan(vid)
            for i in range(theta):
                # s_i^X beta = beta - (sum_j a_ij beta_j) alpha_i
                coord = beta[i] - sum(a * b for a, b in zip(A[i], beta))
                if abs(coord) > bound:
                    return {}, True
                state = (graph.r(i, vid), beta[:i] + (coord,) + beta[i + 1:])
                if state not in seen:
                    if len(seen) >= weylgraph.MAX_ROOT_STATES:
                        raise ResourceBoundError(
                            f"root closure exceeds {weylgraph.MAX_ROOT_STATES} "
                            f"states below coordinate bound {bound}")
                    seen.add(state)
                    new.append(state)
        frontier = new
    roots = {v.vid: [] for v in graph.vertices}
    for vid, beta in sorted(seen):
        roots[vid].append(beta)
    return roots, False


def root_classes(graph) -> list:
    """X ~ Y iff the Cartan matrices at r_w(X) and r_w(Y) agree for every
    reflection word w.  Table filling: round k marks the pairs that a word
    of length k tells apart, until a round marks none.  The classes are
    sorted vid lists, ordered by first vertex."""
    n, theta = graph.vertex_count(), graph.theta
    apart = {(x, y) for x in range(n) for y in range(n)
             if graph.cartan(x) != graph.cartan(y)}
    while True:
        marked = apart | {(x, y) for x in range(n) for y in range(n)
                          if any((graph.r(i, x), graph.r(i, y)) in apart
                                 for i in range(theta))}
        if marked == apart:
            break
        apart = marked
    classes = []
    for x in range(n):
        if not any(x in c for c in classes):
            classes.append([y for y in range(n) if (x, y) not in apart])
    return classes


def quotient_graph(graph, classes: list) -> weylgraph.SemiCartanGraph:
    """One vertex per class, with the Cartan matrix of its first vertex and
    r_i(C) the class of r_i(first vertex of C)."""
    class_of = {vid: c for c, vids in enumerate(classes) for vid in vids}
    return weylgraph.SemiCartanGraph(
        theta=graph.theta,
        vertices=[weylgraph.Vertex(c, None, graph.cartan(vids[0]))
                  for c, vids in enumerate(classes)],
        reflections={(i, c): class_of[graph.r(i, vids[0])]
                     for c, vids in enumerate(classes)
                     for i in range(graph.theta)})


# ---------------------------------------------------------------------------
# Cartan-type oracle: principal minors and a catalog, not the Dynkin diagram.
# ---------------------------------------------------------------------------

def _connected_subsets(A: list) -> set:
    """Every index set whose Dynkin subdiagram is connected."""
    found = {frozenset([k]) for k in range(len(A))}
    frontier = list(found)
    while frontier:
        new = []
        for s in frontier:
            for x in s:
                for y in range(len(A)):
                    t = s | {y}
                    if A[x][y] != 0 and t not in found:
                        found.add(t)
                        new.append(t)
        frontier = new
    return found


def _principal_minors_positive(A: list) -> bool:
    """All principal minors of A are positive.

    A principal submatrix is block diagonal over the connected pieces of
    its index set, so its determinant is the product of theirs: checking
    the connected index sets decides all of them, and a chain of rank n has
    n(n + 1)/2 of them instead of 2^n - 1 subsets.
    """
    for subset in _connected_subsets(A):
        subset = sorted(subset)
        sub = [[CycScalar.from_rational(A[r][c]) for c in subset]
               for r in subset]
        if det(sub).rational_value() <= 0:
            return False
    return True


def cartan_catalog(n: int) -> list:
    """Finite-type Cartan matrices of rank n, with their names."""
    def chain(n):
        return [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
                 for j in range(n)] for i in range(n)]
    out = []
    out.append((f"A{n}", chain(n)))
    if n >= 2:
        b = chain(n)
        b[n - 2][n - 1] = -2
        out.append((f"B{n}", b))
    if n >= 3:
        c = chain(n)
        c[n - 1][n - 2] = -2
        out.append((f"C{n}", c))
    if n >= 4:
        d = chain(n - 1)
        for row in d:
            row.append(0)
        d.append([0] * n)
        d[n - 1][n - 1] = 2
        # nodes n-2 and n-1 both attach to node n-3
        d[n - 3][n - 1] = d[n - 1][n - 3] = -1
        out.append((f"D{n}", d))
    if n == 2:
        out.append(("G2", [[2, -1], [-3, 2]]))
    if n == 4:
        f = chain(4)
        f[1][2] = -2
        out.append(("F4", f))
    if n in (6, 7, 8):
        e = chain(n - 1)
        for row in e:
            row.append(0)
        e.append([0] * n)
        e[n - 1][n - 1] = 2
        # branch node: attach the last simple root to node 2 (0-indexed)
        e[2][n - 1] = e[n - 1][2] = -1
        out.append((f"E{n}", e))
    return out


def _permutation_match(A: list, B: list) -> bool:
    """Simultaneous row/column permutation equivalence of integer matrices."""
    n = len(A)
    if len(B) != n:
        return False

    def signature(M, k):
        offdiag = sorted((M[k][j], M[j][k]) for j in range(n) if j != k)
        return tuple(offdiag)

    siga = [signature(A, k) for k in range(n)]
    sigb = [signature(B, k) for k in range(n)]
    if sorted(siga) != sorted(sigb):
        return False

    assignment = [-1] * n
    used = [False] * n

    def backtrack(i):
        if i == n:
            return True
        for j in range(n):
            if used[j] or siga[i] != sigb[j]:
                continue
            ok = True
            for k in range(i):
                if A[i][k] != B[j][assignment[k]] or A[k][i] != B[assignment[k]][j]:
                    ok = False
                    break
            if ok:
                assignment[i] = j
                used[j] = True
                if backtrack(i + 1):
                    return True
                used[j] = False
        return False

    return backtrack(0)


def oracle_cartan_type(A: list) -> CartanTypeResult:
    """Finite type iff all principal minors are positive; each component is
    then named by the catalog matrix it matches under permutation."""
    if not _principal_minors_positive(A):
        return CartanTypeResult(False, None)
    names = []
    for comp in _components(A):
        sub = [[A[r][c] for c in comp] for r in comp]
        name = next((nm for nm, cat in cartan_catalog(len(comp))
                     if _permutation_match(sub, cat)), None)
        if name is None:
            raise AssertionError(f"positive-definite GCM {sub} matches no "
                                 "catalog Dynkin matrix")
        names.append(name)
    return CartanTypeResult(True, sorted(names))
