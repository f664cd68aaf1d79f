"""Nichols algebra truncations: B(V) = T(V)/I(V) degree by degree.

The degree-n piece of the defining ideal is ker(Delta_{1^n}).  Everything is
computed blockwise per Z^theta multidegree (the fully split coproduct
preserves the count of letters per slot) from one exact elimination: the RREF
of the Delta_{1^n} matrix of the block, with its word columns in reverse
order.  A word lies in the ideal plus the span of the words after it exactly
when its Delta column depends on the columns after it, so the pivot columns
of that RREF are the quotient words: the words left over once each
relation's leading word is eliminated.  The RREF rows R express every Delta
column in the pivot columns, so the normal form (the unique coset
representative supported on quotient words) is NF(x) = sum_q (R x)_q q.
Words are enumerated in length-lexicographic order over (slot, index)
letters, so all outputs are reproducible bit-for-bit.

The coproduct on normal forms, and the coideal, primitive, support and
coinvariant checks built on it, are test references in tests/oracles.py.
"""

from __future__ import annotations

from math import factorial, prod

from .cyclo import CycScalar, rref
from .errors import ResourceBoundError, ValidationError
from .freebraid import GradedVector, WordAlgebra

# Most words in one multidegree block; the block's Delta matrix is dense,
# words x words.  On W over Z2^3 (2-core VM, one block per process): 960
# words take 0.56 s and 45 MB peak, 1,920 take 0.5 s and 60 MB, 3,840 take
# 6.8 s and 306 MB, 5,760 take 32 s and 761 MB.
MAX_BLOCK_WORDS = 2048


def _compositions(total: int, parts: int):
    """All multidegrees of a given total, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class _Block:
    __slots__ = ("words", "index", "quotient_words", "rows")

    def __init__(self, words, index, quotient_words, rows):
        self.words = words
        self.index = index
        self.quotient_words = quotient_words
        # rows[k][index[w]]: coefficient of quotient_words[k] in NF(w)
        self.rows = rows

    def coords(self, vec: GradedVector) -> list:
        """Dense row of a vector supported on this block's words."""
        row = [CycScalar.zero()] * len(self.words)
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
        self.ctx = WordAlgebra(modules)
        self.max_degree = max_degree
        self.theta = self.ctx.theta
        self._blocks: dict[tuple, _Block] = {}

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
        blk = self._blocks.get(md)
        if blk is not None:
            return blk
        # multinomial(md) * prod(dim_s ** md_s) words
        count = factorial(sum(md)) // prod(factorial(k) for k in md) * prod(
            m.dim ** k for m, k in zip(self.ctx.modules, md))
        if count > MAX_BLOCK_WORDS:
            raise ResourceBoundError(
                f"multidegree {md} has {count} words, exceeding the largest "
                f"supported block of {MAX_BLOCK_WORDS} words")
        words = self.words_of_multidegree(md)
        index = {w: k for k, w in enumerate(words)}
        last = len(words) - 1
        # Column last - k holds Delta_{1^n}(words[k]).
        delta = [[CycScalar.zero()] * len(words) for _ in words]
        for k, w in enumerate(words):
            for tw, c in self.ctx.delta_1n(w).items():
                delta[index[tw]][last - k] = c
        reduced, pivots = rref(delta)
        blk = _Block(words, index,
                     [words[last - p] for p in reversed(pivots)],
                     [row[::-1] for row in reversed(reduced)])
        self._blocks[md] = blk
        return blk

    def multidegrees(self, n: int):
        return list(_compositions(n, self.theta))

    # ---- dimensions -------------------------------------------------------

    def dim_multidegree(self, md) -> int:
        return len(self.block(md).quotient_words)

    def graded_dim(self, n: int) -> int:
        if n == 0:
            return 1
        return sum(self.dim_multidegree(md) for md in self.multidegrees(n))

    def graded_dims(self) -> tuple:
        return tuple(self.graded_dim(n) for n in range(self.max_degree + 1))

    # ---- normal forms ------------------------------------------------------

    def normal_form(self, vec: GradedVector) -> GradedVector:
        """Canonical coset representative modulo the ideal; 0 iff vec in I(V)."""
        by_md: dict[tuple, dict] = {}
        for w, c in vec.items():
            by_md.setdefault(self.ctx.multidegree(w), {})[w] = c
        out = GradedVector()
        for md, terms in by_md.items():
            blk = self.block(md)
            cols = [(blk.index[w], c) for w, c in terms.items()]
            for q, row in zip(blk.quotient_words, blk.rows):
                total = CycScalar.zero()
                for k, c in cols:
                    if not row[k].is_zero():
                        total = total + row[k] * c
                out.add_term(q, total)
        return out


def nichols_truncate(V, max_degree: int) -> NicholsTruncation:
    """Truncation of the Nichols algebra of a module, tuple, or slot list."""
    return NicholsTruncation(V, max_degree)
