"""Nichols algebra truncations: B(V) = T(V)/I(V) degree by degree.

The degree-n piece of the defining ideal is ker(Delta_{1^n}), computed per
Z^theta multidegree md (the fully split coproduct keeps the letter count per
slot) from the blocks one degree down.  On the left comb Delta_{1^n} =
(Delta_{1^{n-1}} (x) id) Delta_{n-1,1}, and Delta_{1^{n-1}} is injective on
the span of the quotient words, so Delta_{1^n} has the kernel and RREF of
M = (NF (x) id) Delta_{n-1,1}, with rows (q, b), q a quotient word of
md - e_s and b a letter of slot s.  WordAlgebra.delta_1n, the dense
Delta_{1^n}, is the tests' reference.

M's columns are eliminated in reverse word order.  A word lies in the ideal
plus the span of the words after it exactly when its column depends on the
columns after it, so the pivot columns are the quotient words, and the RREF
rows express every column in them.  As I is an ideal and NF(w) uses only
quotient words after w, NF(w x) = sum r NF(p x) over the terms r p of NF(w):
M needs only the columns of the candidates p x, p a quotient word of
md - e_s, which give the same pivots and RREF entries.  So no word of a block
is enumerated: it keeps its candidates' normal forms, derives any other
word's from them when asked, and keeps Delta_{n-1,1} of its quotient words
only.  Candidates and quotient words are in lexicographic order over
(slot, index) letters, so all outputs are reproducible bit-for-bit.

The coproduct on normal forms, and the coideal, primitive, support and
coinvariant checks built on it, are test references in tests/oracles.py.
"""

from __future__ import annotations

from .cyclo import as_cyc, rref
from .errors import ResourceBoundError, ValidationError
from .freebraid import GradedVector, WordAlgebra

# Most candidate words q x in one block, counted from the lower blocks before
# any Delta of the block; M has one column per candidate and at most as many
# rows.  On W over Z2^3 (2-core VM, one block per process after the lower
# blocks it reads): 468 candidates take 0.2 s and 21 MB peak, 760 0.7-0.9 s
# and 30 MB, 1,472 10-12 s and 68 MB, 1,780 9-41 s and 85-113 MB, almost all
# of it in rref.
MAX_BLOCK_CANDIDATES = 2048

# Largest truncation degree.  Level n of an ad tower over two 1-dimensional
# slots reads a block of n + 1 candidates, under the block cap, so this bounds
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
    __slots__ = ("words", "quotient_words", "lower", "nf", "delta")

    def __init__(self, count, quotient_words, lower, nf, delta):
        # Read only by perfbench/tracer.py (nichols.block.words_max) for the
        # word count; it goes when the tracer reads engine counters (ROADMAP
        # item 4).
        self.words = range(count)
        self.quotient_words = quotient_words
        # lower[s]: block md - e_s
        self.lower = lower
        # nf[w]: NF(w) as (position of quotient word, nonzero coefficient)
        # pairs; the candidates' from the RREF, other words' on demand
        self.nf = nf
        # delta[q]: Delta_{n-1,1}(q) for each quotient word q below the
        # truncation degree: the blocks md + e_t read it for candidates q x
        self.delta = delta

    def form(self, w: tuple) -> list:
        """NF(w) as (position, coefficient) pairs, memoized: NF(u x) is
        sum r NF(p x) over the terms r p of NF(u), p x a candidate."""
        nf = self.nf.get(w)
        if nf is None:
            low, x = self.lower[w[-1][0]], w[-1:]
            form = GradedVector()
            for p, r in low.form(w[:-1]):
                for i, c in self.nf[low.quotient_words[p] + x]:
                    form.add_term(i, r * c)
            nf = self.nf[w] = sorted(form.items())
        return nf

    def coords(self, vec: GradedVector) -> list:
        """Dense row of a normal form over the quotient words: rref's input,
        in CycScalar cells (as_cyc) for perfbench/tracer.py (ROADMAP item 4)."""
        return [as_cyc(vec.terms.get(q, 0)) for q in self.quotient_words]


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
            1, [()], {}, {(): [(0, 1)]}, {(): GradedVector()})}

    # ---- block construction ---------------------------------------------

    def block(self, md: tuple) -> _Block:
        md = tuple(md)
        if len(md) != self.theta or any(x < 0 for x in md):
            raise ValidationError(f"bad multidegree {md}")
        if sum(md) > self.max_degree:
            raise ResourceBoundError(
                f"multidegree {md} exceeds the truncation degree {self.max_degree}")
        if md in self._blocks:
            return self._blocks[md]
        lower = self._lower(md)
        dims = [m.dim for m in self.ctx.modules]
        cands = sorted(p + ((s, b),) for s, blk in lower.items()
                       for p in blk.quotient_words for b in range(dims[s]))
        # Column last - k of M holds (NF (x) id) Delta_{n-1,1}(cands[k]); its
        # rows (q, b), q by its position, are numbered in order of first
        # appearance.  Its cells are CycScalar (as_cyc) only because
        # perfbench/tracer.py reads rref's dense input (ROADMAP item 4).
        last = len(cands) - 1
        # No block reads Delta of the truncation degree.
        keep = sum(md) < self.max_degree
        deltas = {}
        m_rows: dict = {}
        for k, w in enumerate(cands):
            dw = self.ctx.delta_last(w, lower[w[-1][0]].delta[w[:-1]])
            if keep:
                deltas[w] = dw
            col = GradedVector()
            for (a, b), c in dw.items():
                for i, r in lower[b[0][0]].form(a):
                    col.add_term((i, b), c * r)
            for key, c in col.items():
                if key not in m_rows:
                    m_rows[key] = [as_cyc(0)] * len(cands)
                m_rows[key][last - k] = as_cyc(c)
        reduced, pivots = rref(list(m_rows.values()))
        quotient = [cands[last - p] for p in reversed(pivots)]
        nf = {w: [] for w in cands}
        for i, row in enumerate(reversed(reduced)):
            for k, c in row.items():
                nf[cands[last - k]].append((i, c))
        delta = {q: deltas[q] for q in quotient if keep}
        # Each word of md is a word of some md - e_s times a letter of slot s.
        words = sum(len(blk.words) * dims[s] for s, blk in lower.items())
        blk = self._blocks[md] = _Block(words, quotient, lower, nf, delta)
        return blk

    def _lower(self, md: tuple) -> dict:
        """Blocks md - e_s by slot s; raises if md has too many candidates."""
        lower = {s: self.block(md[:s] + (k - 1,) + md[s + 1:])
                 for s, k in enumerate(md) if k}
        count = sum(len(blk.quotient_words) * self.ctx.modules[s].dim
                    for s, blk in lower.items())
        if count > MAX_BLOCK_CANDIDATES:
            raise ResourceBoundError(
                f"multidegree {md} has {count} candidate words, exceeding "
                f"the largest supported block of {MAX_BLOCK_CANDIDATES} "
                f"candidates")
        return lower

    def multidegrees(self, n: int):
        return list(_compositions(n, self.theta))

    # ---- dimensions -------------------------------------------------------

    def dim_multidegree(self, md) -> int:
        return len(self.block(md).quotient_words)

    def graded_dims(self) -> tuple:
        dims = []
        for n in range(self.max_degree + 1):
            mds = self.multidegrees(n)
            for md in mds:  # refuse degree n before eliminating any of it
                self._lower(md)
            dims.append(sum(map(self.dim_multidegree, mds)))
        return tuple(dims)

    # ---- normal forms ------------------------------------------------------

    def normal_form(self, vec: GradedVector) -> GradedVector:
        """Canonical coset representative modulo the ideal; 0 iff vec in I(V)."""
        out = GradedVector()
        for w, c in vec.items():
            blk = self.block(self.ctx.multidegree(w))
            for i, r in blk.form(w):
                out.add_term(blk.quotient_words[i], r * c)
        return out


def nichols_truncate(V, max_degree: int) -> NicholsTruncation:
    """Truncation of the Nichols algebra of a module, tuple, or slot list."""
    return NicholsTruncation(V, max_degree)
