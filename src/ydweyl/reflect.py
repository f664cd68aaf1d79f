"""Adjoint actions, ad-power levels and reflections.

The adjoint action of a degree-1 element X on a homogeneous Y is

    ad(X)(Y) = X Y - (deg X |> Y) X,

reduced in the ambient Nichols truncation of the full tuple direct sum, so
vanishing means vanishing in B(M).  The smash product B(N) # kG and the
coinvariant dimensions, which the tests check these against, live in
tests/oracles.py.
"""

from __future__ import annotations

from .cyclo import rref
from .errors import UndecidedAtCutoff, ValidationError, YDWeylError
from .freebraid import GradedVector
from .nichols import NicholsTruncation, nichols_truncate
from .ydcat import (ModuleTuple, YDModule, _generators, dual,
                    module_canonical_key, module_from_generator_actions)


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


class AdLevel:
    """One homogeneous layer ad(M_i)^n(M_j), with its YD-module structure."""

    def __init__(self, n: int, basis: list, module: YDModule):
        # basis: normal-form GradedVectors
        self.n, self.basis, self.module = n, basis, module


class AdLevels:
    """All levels of ad(M_i)^n(M_j) up to vanishing or the tower's bound."""

    def __init__(self, tuple_: ModuleTuple, i: int, j: int):
        self.tuple_, self.i, self.j = tuple_, i, j
        self.levels: list = []          # nonzero levels, index = n
        self.m: int | None = None       # top nonvanishing power
        # The bound that stopped the tower before it vanished, as
        # "cutoff C" or "truncation degree D"; None once it vanished.
        self.bound: str | None = None

    @property
    def undecided(self) -> bool:
        return self.bound is not None

    def top_module(self) -> YDModule:
        if self.undecided:
            raise UndecidedAtCutoff(
                f"ad-power of ({self.tuple_[self.i].name},"
                f"{self.tuple_[self.j].name}) undecided at {self.bound}")
        return self.levels[self.m].module


def _ad_level(trunc, md, n, vectors, name) -> AdLevel | None:
    """Level n spanned by normal forms in block md, or None if they span 0.

    One RREF over the block's quotient words, which support every normal
    form, gives the basis.  The vectors are G-homogeneous, rows of different
    degrees have disjoint word supports and elimination never mixes them, so
    each row's degree is its pivot word's.  Basis vector k is 1 at pivot
    word k and 0 at the others, so an image's coordinates are its
    coefficients at the pivot words.  Only the generators of G act: a span
    stable under them is stable under G, and module_from_generator_actions
    derives and validates the other matrices.
    """
    if all(v.is_zero() for v in vectors):
        return None
    ctx = trunc.ctx
    blk = trunc.block(md)
    reduced, pivots = rref([blk.coords(v) for v in vectors])
    words = blk.quotient_words
    basis = [GradedVector((words[j], c) for j, c in row.items())
             for row in reduced]
    action = {}
    for s in _generators(ctx.group):
        images = [ad_group(trunc, s, v) for v in basis]
        cols = [[im.terms.get(words[p], 0) for p in pivots]
                for im in images]
        spans = [GradedVector((w, c * y) for c, b in zip(col, basis) if c
                              for w, y in b.items()) for col in cols]
        if images != spans:
            raise ValidationError("ad level is not action-stable")
        action[s] = [list(row) for row in zip(*cols)]
    degrees = [ctx.word_degree(words[p]) for p in pivots]
    module = module_from_generator_actions(ctx.group, ctx.cocycle, degrees,
                                           action, name=name)
    return AdLevel(n, basis, module)


def ad_power_module(M: ModuleTuple, i: int, j: int,
                    cutoff: int = DEFAULT_AD_CUTOFF,
                    max_degree: int = DEFAULT_TRUNCATION_DEGREE,
                    trunc: NicholsTruncation | None = None) -> AdLevels:
    """Levels ad(M_i)^n(M_j) inside B(M), up to first vanishing or a bound.

    Level n lives in degree n + 1, so levels n <= min(cutoff, max_degree - 1)
    are computed; a tower still nonzero there is undecided at whichever of
    the two is smaller, the cutoff on a tie.  Level 0 is M_j itself: its
    letters are their own normal forms, so their span carries exactly M_j's
    matrices.  The tower is computed in the truncation of B(M_lo (+) M_hi)
    with the lower of slots i, j first.  That truncation holds the same
    blocks, in the same word order, as B(M) does in the multidegrees of the
    two slots, and the towers (i, j) and (j, i) may share it: trunc, if
    given, is that truncation, built to max_degree.
    """
    if i == j:
        raise ValidationError("ad_power_module needs distinct slots")
    if trunc is None:
        trunc = _pair_truncation(M, i, j, max_degree)
    si, sj = int(i > j), int(j > i)
    result = AdLevels(tuple_=M, i=i, j=j)
    letters_i = [GradedVector.from_word(((si, b),)) for b in range(M[i].dim)]
    letters_j = [GradedVector.from_word(((sj, b),)) for b in range(M[j].dim)]
    result.levels.append(AdLevel(0, letters_j, M[j]))
    last = min(cutoff, trunc.max_degree - 1)
    for n in range(1, last + 1):
        md = (n, 1) if si == 0 else (1, n)
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


def _pair_truncation(M: ModuleTuple, i: int, j: int,
                     max_degree: int) -> NicholsTruncation:
    lo, hi = sorted((i, j))
    return nichols_truncate(ModuleTuple([M[lo], M[hi]]), max_degree)


class PairCache:
    """Top ad level per ordered pair of module iso classes, dual per class.

    It holds the two bounds of every ad tower, cutoff and max_degree.
    top(M, i, j) returns (m, module) for ad(M_i)^n(M_j): the top
    nonvanishing power m and the module at that level.  Entries are keyed
    by the complete iso keys of M_i and M_j, so each pair of classes is
    computed once.  With reverse, as cartan_matrix asks, a missing tower
    (j, i) is computed in the same truncation, which is then dropped; its
    entry is kept only if it succeeds, so a failure is raised at its own
    turn.  dual(V) builds (and validates) one dual per iso class of V.
    """

    def __init__(self, cutoff: int = DEFAULT_AD_CUTOFF,
                 max_degree: int = DEFAULT_TRUNCATION_DEGREE):
        self.cutoff = cutoff
        self.max_degree = max_degree
        self._entries: dict = {}

    def top(self, M: ModuleTuple, i: int, j: int,
            reverse: bool = False) -> tuple:
        key = (module_canonical_key(M[i]), module_canonical_key(M[j]))
        entry = self._entries.get(key)
        if entry is None:
            trunc = _pair_truncation(M, i, j, self.max_degree)
            entry = self._entries[key] = self._tower(M, i, j, trunc)
            if reverse and key[::-1] not in self._entries:
                try:
                    self._entries[key[::-1]] = self._tower(M, j, i, trunc)
                except YDWeylError:
                    pass  # not kept: its own turn computes it and raises
        return entry

    def _tower(self, M: ModuleTuple, i: int, j: int, trunc) -> tuple:
        levels = ad_power_module(M, i, j, self.cutoff, self.max_degree, trunc)
        return levels.m, levels.top_module()

    def dual(self, V: YDModule) -> YDModule:
        key = (module_canonical_key(V),)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = dual(V)
        return entry


def cartan_matrix(M: ModuleTuple, pairs: PairCache | None = None) -> list:
    """Entries in row order; each pair's two towers share one truncation."""
    pairs = pairs or PairCache()
    return [[2 if i == j else -pairs.top(M, i, j, reverse=i < j)[0]
             for j in range(M.theta)] for i in range(M.theta)]


def reflect(M: ModuleTuple, i: int, pairs: PairCache | None = None) -> ModuleTuple:
    """R_i(M): dual at slot i, top nonvanishing ad level elsewhere."""
    pairs = pairs or PairCache()
    return ModuleTuple([pairs.dual(M[i]) if j == i else pairs.top(M, i, j)[1]
                        for j in range(M.theta)])
