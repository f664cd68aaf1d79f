"""Nichols algebra truncations: B(V) = T(V)/I(V) degree by degree.

The degree-n piece of the defining ideal is ker(Delta_{1^n}), computed per
Z^theta multidegree md (the fully split coproduct keeps the letter count per
slot) from the blocks one degree down.  On the left comb Delta_{1^n} =
(Delta_{1^{n-1}} (x) id) Delta_{n-1,1}, and Delta_{1^{n-1}} is injective on
the span of the quotient words, so Delta_{1^n} has the kernel and RREF of
M = (NF (x) id) Delta_{n-1,1}, with rows (q, b), q a quotient word of
md - e_s and b a letter of slot s.  WordAlgebra.delta_1n, the dense
Delta_{1^n}, is the tests' reference.

M's word columns are eliminated in reverse order.  A word lies in the ideal
plus the span of the words after it exactly when its column depends on the
columns after it, so the pivot columns are the quotient words, and the RREF
rows express every column in them.  As I is an ideal and NF(w) uses only
quotient words after w, NF(w x) = sum r NF(p x) over the terms r p of NF(w):
M needs only the columns of the candidates p x, p a quotient word of
md - e_s, which give the same pivots and RREF entries.  So each block keeps
Delta_{n-1,1} of its quotient words only.  Words are enumerated in
length-lexicographic order over (slot, index) letters, so all outputs are
reproducible bit-for-bit.

The coproduct on normal forms, and the coideal, primitive, support and
coinvariant checks built on it, are test references in tests/oracles.py.
"""

from __future__ import annotations

from math import factorial, prod

from .cyclo import CycScalar, rref
from .errors import ResourceBoundError, ValidationError
from .freebraid import GradedVector, WordAlgebra

_ZERO = CycScalar.zero()

# Most words in one multidegree block, counted before any is enumerated.  On
# W over Z2^3 (2-core VM, one block per process with the lower blocks it
# reads, medians of 3): 3,840 words (206 x 216 M) take 0.11 s and 20 MB peak,
# 5,760 (461 x 468) 0.49 s and 28 MB, 13,440 (139 x 170) 0.31 s and 28 MB.
MAX_BLOCK_WORDS = 16384

# Most cells, rows x words, in one block, with rows counted as sum_s
# dim B(md - e_s) dim M_s from the lower blocks before any Delta of the block
# (M may use fewer).  M has that many columns, but the cap counts all words:
# W's largest block at degree 6 has 468 x 5,760.
MAX_BLOCK_CELLS = 2048 * 2048

# Largest truncation degree.  Level n of an ad tower over two 1-dimensional
# slots reads an (n + 1) x (n + 1) block, under both block caps, so this bounds
# a tower that never vanishes: `ad P 1 2` on one over Z2 x Z2 with the trivial
# cocycle runs to degree 64 in about 1.6 s (CLI, 2-core VM).
MAX_TRUNCATION_DEGREE = 64


def _compositions(total: int, parts: int):
    """All multidegrees of a given total, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class _Block:
    __slots__ = ("words", "index", "quotient_words", "nf", "delta")

    def __init__(self, words, quotient_words, nf, delta):
        self.words = words
        self.index = {w: k for k, w in enumerate(words)}
        self.quotient_words = quotient_words
        # nf[index[w]]: NF(w) as (quotient word, nonzero coefficient) pairs
        self.nf = nf
        # delta[q]: Delta_{n-1,1}(q) for each quotient word q, kept for the
        # truncation's life: the blocks md + e_t read it for candidates q x
        self.delta = delta

    def coords(self, vec: GradedVector) -> list:
        """Dense row of a vector supported on this block's words."""
        row = [_ZERO] * len(self.words)
        for w, c in vec.items():
            row[self.index[w]] = c
        return row


class NicholsTruncation:
    """Exact per-degree data of B(V) up to max_degree.

    Blocks are materialized lazily per multidegree, so tuple computations
    that only touch a few slots (adjoint powers inside the full direct sum)
    never pay for the rest.
    """

    def __init__(self, modules, max_degree: int):
        if max_degree < 0:
            raise ValidationError("max_degree must be >= 0")
        if max_degree > MAX_TRUNCATION_DEGREE:
            raise ResourceBoundError(
                f"truncation degree {max_degree} exceeds the largest "
                f"supported degree {MAX_TRUNCATION_DEGREE}")
        self.ctx = WordAlgebra(modules)
        self.max_degree = max_degree
        self.theta = self.ctx.theta
        # Degree 0 is the empty word, its own normal form; Delta_{-1,1} is 0.
        self._blocks = {(0,) * self.theta: _Block(
            [()], [()], [[((), CycScalar.one())]], {(): GradedVector()})}

    # ---- block construction ---------------------------------------------

    def words_of_multidegree(self, md: tuple) -> list:
        """Words of multidegree md, length-lexicographic, letter by letter."""
        level = [((), tuple(md))]  # (prefix, letters left per slot)
        for _ in range(sum(md)):
            level = [(w + ((s, b),), left[:s] + (left[s] - 1,) + left[s + 1:])
                     for w, left in level
                     for s, b in self.ctx.letters if left[s]]
        return [w for w, _ in level]

    def block(self, md: tuple) -> _Block:
        md = tuple(md)
        if len(md) != self.theta or any(x < 0 for x in md):
            raise ValidationError(f"bad multidegree {md}")
        if sum(md) > self.max_degree:
            raise ResourceBoundError(
                f"multidegree {md} exceeds the truncation degree {self.max_degree}")
        if md in self._blocks:
            return self._blocks[md]
        # multinomial(md) * prod(dim_s ** md_s) words
        count = factorial(sum(md)) // prod(factorial(k) for k in md) * prod(
            m.dim ** k for m, k in zip(self.ctx.modules, md))
        if count > MAX_BLOCK_WORDS:
            raise ResourceBoundError(
                f"multidegree {md} has {count} words, exceeding the largest "
                f"supported block of {MAX_BLOCK_WORDS} words")
        # lower[s]: block md - e_s, with NF(a) for c a (x) b, b in slot s
        lower = {s: self.block(md[:s] + (k - 1,) + md[s + 1:])
                 for s, k in enumerate(md) if k}
        rows = sum(len(blk.quotient_words) * self.ctx.modules[s].dim
                   for s, blk in lower.items())
        if rows * count > MAX_BLOCK_CELLS:
            raise ResourceBoundError(
                f"multidegree {md} needs a {rows} x {count} elimination, "
                f"exceeding the largest supported {MAX_BLOCK_CELLS} cells")
        words = self.words_of_multidegree(md)
        # Column last - k of M holds (NF (x) id) Delta_{n-1,1}(cands[k]); its
        # rows (q, b) are numbered in order of first appearance.
        cands = [w for w in words if w[:-1] in lower[w[-1][0]].delta]
        last = len(cands) - 1
        deltas = {}
        m_rows: dict = {}
        for k, w in enumerate(cands):
            low = lower[w[-1][0]]
            dw = deltas[w] = self.ctx.delta_last(w, low.delta[w[:-1]])
            col = GradedVector()
            for (a, b), c in dw.items():
                low = lower[b[0][0]]
                for q, r in low.nf[low.index[a]]:
                    col.add_term((q, b), c * r)
            for key, c in col.items():
                if key not in m_rows:
                    m_rows[key] = [_ZERO] * len(cands)
                m_rows[key][last - k] = c
        reduced, pivots = rref(list(m_rows.values()))
        quotient = [cands[last - p] for p in reversed(pivots)]
        # forms[p x]: NF(p x) as (position of quotient word, coefficient)
        forms = {w: [] for w in cands}
        for i, row in enumerate(reversed(reduced)):
            for k, c in enumerate(row):
                if c is not _ZERO and not c.is_zero():
                    forms[cands[last - k]].append((i, c))
        nf = []
        for w in words:
            low = lower[w[-1][0]]
            form = GradedVector()
            for p, r in low.nf[low.index[w[:-1]]]:
                for i, c in forms[p + w[-1:]]:
                    form.add_term(i, r * c)
            nf.append([(quotient[i], c) for i, c in sorted(form.items())])
        delta = {q: deltas[q] for q in quotient}
        blk = self._blocks[md] = _Block(words, quotient, nf, delta)
        return blk

    def multidegrees(self, n: int):
        return list(_compositions(n, self.theta))

    # ---- dimensions -------------------------------------------------------

    def dim_multidegree(self, md) -> int:
        return len(self.block(md).quotient_words)

    def graded_dims(self) -> tuple:
        return tuple(sum(map(self.dim_multidegree, self.multidegrees(n)))
                     for n in range(self.max_degree + 1))

    # ---- normal forms ------------------------------------------------------

    def normal_form(self, vec: GradedVector) -> GradedVector:
        """Canonical coset representative modulo the ideal; 0 iff vec in I(V)."""
        out = GradedVector()
        for w, c in vec.items():
            blk = self.block(self.ctx.multidegree(w))
            for q, r in blk.nf[blk.index[w]]:
                out.add_term(q, r * c)
        return out


def nichols_truncate(V, max_degree: int) -> NicholsTruncation:
    """Truncation of the Nichols algebra of a module, tuple, or slot list."""
    return NicholsTruncation(V, max_degree)
