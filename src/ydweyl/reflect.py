"""Bosonization arithmetic, adjoint actions, ad-power levels and reflections.

The adjoint action of a degree-1 element X on a homogeneous Y is

    ad(X)(Y) = X Y - (deg X |> Y) X,

reduced in the ambient Nichols truncation of the full tuple direct sum, so
vanishing means vanishing in B(M).  The smash product B(N) # kG is carried
alongside for verification: its product and coproduct follow the
bosonization formulas, and ad by group-likes through the smash product must
agree with the module action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from .cyclo import CycScalar, coords_in_rref, nullspace, rref
from .errors import UndecidedAtCutoff, ValidationError
from .freebraid import GradedVector
from .nichols import NicholsTruncation, nichols_truncate
from .ydcat import (ModuleTuple, YDModule, dual, module_canonical_key,
                    yd_axiom_check)

_ONE = CycScalar.one()
_ZERO = CycScalar.zero()

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
    """All levels of ad(M_i)^n(M_j) up to vanishing or cutoff."""
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
                f"ad-power of slots ({self.i},{self.j}) undecided at {self.bound}")
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
    """Levels ad(M_i)^n(M_j) inside B(M), up to first vanishing or cutoff.

    Level 0 is M_j itself: its letters are their own normal forms, so their
    span carries exactly M_j's matrices.
    """
    if i == j:
        raise ValidationError("ad_power_module needs distinct slots")
    if trunc is None:
        trunc = nichols_truncate(M, min(DEFAULT_TRUNCATION_DEGREE, cutoff + 1))
    result = AdLevels(tuple_=M, i=i, j=j)
    letters_i = [GradedVector.from_word(((i, b),)) for b in range(M[i].dim)]
    letters_j = [GradedVector.from_word(((j, b),)) for b in range(M[j].dim)]
    result.levels.append(AdLevel(0, letters_j, M[j]))
    for n in count(1):
        if n + 1 > trunc.max_degree:
            result.bound = f"truncation degree {trunc.max_degree}"
            return result
        md = tuple(n if s == i else (1 if s == j else 0) for s in range(M.theta))
        vectors = [ad_primitive(trunc, x, y)
                   for y in result.levels[-1].basis for x in letters_i]
        level = _ad_level(trunc, md, n, vectors,
                          name=f"ad^{n}({M[i].name},{M[j].name})")
        if level is None:
            result.m = n - 1
            return result
        result.levels.append(level)
        if n >= cutoff:
            result.bound = f"cutoff {cutoff}"
            return result


class PairCache:
    """Top ad level per ordered pair of module iso classes, dual per class.

    top(M, i, j) returns (m, module) for ad(M_i)^n(M_j): the top
    nonvanishing power m and the module at that level.  Entries are keyed
    by the complete iso keys of M_i and M_j, so each pair of classes is
    computed once, in the truncation of B(M_lo (+) M_hi) with the lower of
    slots i, j first.  That truncation holds the same blocks, in the same
    word order, as B(M) does in the multidegrees of the two slots.
    dual(V) builds (and validates) one dual per iso class of V.
    """

    def __init__(self, cutoff: int = DEFAULT_AD_CUTOFF,
                 max_degree: int | None = None):
        self.cutoff = cutoff
        self.max_degree = (min(DEFAULT_TRUNCATION_DEGREE, cutoff + 1)
                           if max_degree is None else max_degree)
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
            if levels.undecided:
                raise UndecidedAtCutoff(
                    f"ad-power of ({M[i].name},{M[j].name}) undecided at "
                    f"{levels.bound}")
            entry = self._entries[key] = (levels.m, levels.top_module())
        return entry

    def dual(self, V: YDModule) -> YDModule:
        key = (module_canonical_key(V),)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = dual(V)
        return entry


def cartan_entry(M: ModuleTuple, i: int, j: int,
                 cutoff: int = DEFAULT_AD_CUTOFF,
                 pairs: PairCache | None = None) -> int:
    if i == j:
        return 2
    return -(pairs or PairCache(cutoff)).top(M, i, j)[0]


def cartan_matrix(M: ModuleTuple, cutoff: int = DEFAULT_AD_CUTOFF,
                  pairs: PairCache | None = None) -> list:
    pairs = pairs or PairCache(cutoff)
    return [[cartan_entry(M, i, j, pairs=pairs) for j in range(M.theta)]
            for i in range(M.theta)]


def reflect(M: ModuleTuple, i: int, cutoff: int = DEFAULT_AD_CUTOFF,
            pairs: PairCache | None = None) -> ModuleTuple:
    """R_i(M): dual at slot i, top nonvanishing ad level elsewhere."""
    pairs = pairs or PairCache(cutoff)
    return ModuleTuple([pairs.dual(M[i]) if j == i else pairs.top(M, i, j)[1]
                        for j in range(M.theta)])


def coinvariant_dims(trunc: NicholsTruncation, coinv_slots, max_total: int) -> dict:
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
                    for (a, b), c in trunc.delta_on_quotient(vec, n - s, s).items():
                        bmd = trunc.ctx.multidegree(b)
                        if all(bmd[t] == 0 or t in coinv_slots
                               for t in range(theta)):
                            entries.add_term((s, a, b), c)
                col_maps.append(entries.terms)
            keys = sorted({k for m in col_maps for k in m})
            rows = [[m.get(k, _ZERO) for m in col_maps] for k in keys]
            out[md] = len(nullspace(rows, len(basis)))
    return out


# ---------------------------------------------------------------------------
# Smash product B # kG (bosonization), used for verification.
# ---------------------------------------------------------------------------

class SmashAlgebra:
    """B(V) # kG on normal forms; elements are {(word, g): scalar} dicts."""

    def __init__(self, trunc: NicholsTruncation):
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
                for (a, b), c in self.trunc.delta_on_quotient(vec, i, n - i).items():
                    da = self.ctx.word_degree(a)
                    db = self.ctx.word_degree(b)
                    s = phi.value(da, db, h).inv()
                    out.add_term(((a, G.mul(db, h)), (b, h)), coeff * c * s)
        return out.terms

    def counit(self, x: dict) -> CycScalar:
        total = _ZERO
        for (w, _), c in x.items():
            if not w:
                total = total + c
        return total

    def preantipode_grouplike(self, g: int) -> dict:
        return {((), self.group.inv(g)):
                self.phi.value(g, self.group.inv(g), g).inv()}

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
