"""Adjoint actions, ad-power levels and reflections.

The adjoint action of a degree-1 element X on a homogeneous Y is

    ad(X)(Y) = X Y - (deg X |> Y) X,

reduced in the ambient Nichols truncation of the full tuple direct sum, so
vanishing means vanishing in B(M).  The smash product B(N) # kG and the
coinvariant dimensions, which the tests check these against, live in
tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclo import coords_in_rref, rref
from .errors import UndecidedAtCutoff, ValidationError
from .freebraid import GradedVector
from .nichols import NicholsTruncation, nichols_truncate
from .ydcat import (ModuleTuple, YDModule, dual, module_canonical_key,
                    yd_axiom_check)


DEFAULT_AD_CUTOFF = 8
DEFAULT_TRUNCATION_DEGREE = 8


def ad_group(trunc: NicholsTruncation, g: int, x: GradedVector) -> GradedVector:
    """ad(g) on normal forms equals the module action g |> x."""
    return trunc.normal_form(trunc.ctx.act_vector(g, x))


def ad_primitive(trunc: NicholsTruncation, x: GradedVector,
                 y: GradedVector) -> GradedVector:
    """ad(X)(Y) = XY - (deg X |> Y) X for degree-1 homogeneous X."""
    words = list(x.terms)
    if not words or any(len(w) != 1 for w in words):
        raise ValidationError("ad_primitive needs a degree-1 first argument")
    degs = {trunc.ctx.word_degree(w) for w in words}
    if len(degs) != 1:
        raise ValidationError("ad_primitive needs a G-homogeneous first argument")
    gx = next(iter(degs))
    ctx = trunc.ctx
    left = ctx.mult(x, y)
    right = ctx.mult(ctx.act_vector(gx, y), x)
    return trunc.normal_form(left - right)


@dataclass
class AdLevel:
    """One homogeneous layer ad(M_i)^n(M_j), with its YD-module structure."""
    n: int
    basis: list                      # normal-form GradedVectors
    module: YDModule


@dataclass
class AdLevels:
    """All levels of ad(M_i)^n(M_j) up to vanishing or the tower's bound."""
    tuple_: ModuleTuple
    i: int
    j: int
    levels: list = field(default_factory=list)  # nonzero levels, index = n
    m: int | None = None                        # top nonvanishing power
    # The bound that stopped the tower before it vanished, as
    # "cutoff C" or "truncation degree D"; None once it vanished.
    bound: str | None = None

    @property
    def undecided(self) -> bool:
        return self.bound is not None

    def dims(self) -> tuple:
        return tuple(len(l.basis) for l in self.levels)

    def top_module(self) -> YDModule:
        if self.undecided:
            raise UndecidedAtCutoff(
                f"ad-power of ({self.tuple_[self.i].name},"
                f"{self.tuple_[self.j].name}) undecided at {self.bound}")
        return self.levels[self.m].module


def _ad_level(trunc, md, n, vectors, name) -> AdLevel | None:
    """Level n spanned by normal forms in block md, or None if they span 0.

    One RREF over the block's words gives the basis.  The vectors are
    G-homogeneous, rows of different degrees have disjoint word supports and
    elimination never mixes them, so each row's degree is its pivot word's.
    """
    if all(v.is_zero() for v in vectors):
        return None
    ctx = trunc.ctx
    blk = trunc.block(md)
    reduced, pivots = rref([blk.coords(v) for v in vectors])
    basis = [GradedVector(zip(blk.words, row)) for row in reduced]
    action = {}
    for g in ctx.group.elements():
        cols = [coords_in_rref(reduced, pivots,
                               blk.coords(ad_group(trunc, g, v)))
                for v in basis]
        if None in cols:
            raise ValidationError("ad level is not action-stable")
        action[g] = [list(row) for row in zip(*cols)]
    module = YDModule(ctx.group, ctx.cocycle,
                      [ctx.word_degree(blk.words[p]) for p in pivots], action,
                      name=name)
    report = yd_axiom_check(module)
    if not report:
        raise ValidationError(f"ad level failed YD validation: {report.summary()}")
    return AdLevel(n, basis, module)


def ad_power_module(M: ModuleTuple, i: int, j: int,
                    cutoff: int = DEFAULT_AD_CUTOFF,
                    trunc: NicholsTruncation | None = None) -> AdLevels:
    """Levels ad(M_i)^n(M_j) inside B(M), up to first vanishing or a bound.

    Level n lives in degree n + 1, so levels n <= min(cutoff, D - 1) are
    computed for the truncation degree D of trunc (default
    DEFAULT_TRUNCATION_DEGREE); a tower still nonzero there is undecided at
    whichever of the two is smaller, the cutoff on a tie.  Level 0 is M_j
    itself: its letters are their own normal forms, so their span carries
    exactly M_j's matrices.
    """
    if i == j:
        raise ValidationError("ad_power_module needs distinct slots")
    if trunc is None:
        trunc = nichols_truncate(M, DEFAULT_TRUNCATION_DEGREE)
    result = AdLevels(tuple_=M, i=i, j=j)
    letters_i = [GradedVector.from_word(((i, b),)) for b in range(M[i].dim)]
    letters_j = [GradedVector.from_word(((j, b),)) for b in range(M[j].dim)]
    result.levels.append(AdLevel(0, letters_j, M[j]))
    last = min(cutoff, trunc.max_degree - 1)
    for n in range(1, last + 1):
        md = tuple(n if s == i else (1 if s == j else 0) for s in range(M.theta))
        vectors = [ad_primitive(trunc, x, y)
                   for y in result.levels[-1].basis for x in letters_i]
        level = _ad_level(trunc, md, n, vectors,
                          name=f"ad^{n}({M[i].name},{M[j].name})")
        if level is None:
            result.m = n - 1
            return result
        result.levels.append(level)
    result.bound = (f"cutoff {cutoff}" if cutoff < trunc.max_degree
                    else f"truncation degree {trunc.max_degree}")
    return result


class PairCache:
    """Top ad level per ordered pair of module iso classes, dual per class.

    It holds the two bounds of every ad tower, cutoff and max_degree.
    top(M, i, j) returns (m, module) for ad(M_i)^n(M_j): the top
    nonvanishing power m and the module at that level.  Entries are keyed
    by the complete iso keys of M_i and M_j, so each pair of classes is
    computed once, in the truncation of B(M_lo (+) M_hi) with the lower of
    slots i, j first.  That truncation holds the same blocks, in the same
    word order, as B(M) does in the multidegrees of the two slots.
    dual(V) builds (and validates) one dual per iso class of V.
    """

    def __init__(self, cutoff: int = DEFAULT_AD_CUTOFF,
                 max_degree: int = DEFAULT_TRUNCATION_DEGREE):
        self.cutoff = cutoff
        self.max_degree = max_degree
        self._entries: dict = {}

    def top(self, M: ModuleTuple, i: int, j: int) -> tuple:
        key = (module_canonical_key(M[i]), module_canonical_key(M[j]))
        entry = self._entries.get(key)
        if entry is None:
            lo, hi = sorted((i, j))
            pair = ModuleTuple([M[lo], M[hi]])
            levels = ad_power_module(pair, int(i > j), int(j > i),
                                     cutoff=self.cutoff,
                                     trunc=nichols_truncate(pair, self.max_degree))
            entry = self._entries[key] = (levels.m, levels.top_module())
        return entry

    def dual(self, V: YDModule) -> YDModule:
        key = (module_canonical_key(V),)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = dual(V)
        return entry


def cartan_entry(M: ModuleTuple, i: int, j: int,
                 pairs: PairCache | None = None) -> int:
    if i == j:
        return 2
    return -(pairs or PairCache()).top(M, i, j)[0]


def cartan_matrix(M: ModuleTuple, pairs: PairCache | None = None) -> list:
    pairs = pairs or PairCache()
    return [[cartan_entry(M, i, j, pairs=pairs) for j in range(M.theta)]
            for i in range(M.theta)]


def reflect(M: ModuleTuple, i: int, pairs: PairCache | None = None) -> ModuleTuple:
    """R_i(M): dual at slot i, top nonvanishing ad level elsewhere."""
    pairs = pairs or PairCache()
    return ModuleTuple([pairs.dual(M[i]) if j == i else pairs.top(M, i, j)[1]
                        for j in range(M.theta)])
