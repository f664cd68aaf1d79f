"""The braided tensor algebra T(V) in the non-strict category.

Words are stored in the canonical left-nested bracketing
(((v1 (x) v2) (x) v3) ...); every other bracketing exists only transiently,
with its coherence scalar made explicit.  A word is a tuple of letters
(slot, basis_index) over an ordered list of modules (the slots); all letters
are homogeneous, so every associator move acts by a single Phi value.

Conventions:
  * assoc move (u (x) v) (x) w -> u (x) (v (x) w) multiplies by
    Phi(deg u, deg v, deg w)^-1, the inverse direction by Phi(...).
  * braiding c(u (x) v) = (deg u |> v) (x) u.
  * the coproduct is the unique algebra map T(V) -> T(V) (x) T(V) with
    Delta(v) = v (x) 1 + 1 (x) v.  Only its (n-1, 1) component is computed
    (delta_last), by peeling the last letter x of w x.  The Nichols blocks
    build on it; delta_1n, which peels it again and again, is a reference.
  * the references these are checked against live in tests/oracles.py:
    the shuffle expansion, the general (i, j) component of Delta,
    Delta_{1^n} peeling Delta_{1,n-1} instead, and coherence scalars
    between arbitrary bracketings.
"""

from __future__ import annotations

from .cyclo import CycScalar
from .errors import ValidationError
from .ydcat import ModuleTuple, YDModule

_ONE = CycScalar.one()

Word = tuple  # tuple[(slot, basis_index), ...]


class GradedVector:
    """Finitely supported map key -> CycScalar; no zero coefficients stored.

    Keys are any hashable: words, (word, word) pairs for the components of
    Delta, or whatever labels a caller accumulates over (read `.terms`).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict = {}
        if terms:
            for w, c in (terms.items() if isinstance(terms, dict) else terms):
                self.add_term(w, c)

    @classmethod
    def from_word(cls, word: Word):
        v = cls()
        v.add_term(tuple(word), _ONE)
        return v

    def add_term(self, key, coeff):
        if coeff.is_zero():
            return
        cur = self.terms.get(key)
        if cur is None:
            self.terms[key] = coeff
        else:
            s = cur + coeff
            if s.is_zero():
                del self.terms[key]
            else:
                self.terms[key] = s

    def items(self):
        return self.terms.items()

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return GradedVector([*self.items(), *other.items()])

    def __sub__(self, other):
        return self + GradedVector((w, -c) for w, c in other.items())

    def __eq__(self, other):
        if not isinstance(other, GradedVector):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(c == other.terms[w] for w, c in self.terms.items())

    def __repr__(self):
        return f"GradedVector({self.terms!r})"


class WordAlgebra:
    """Tensor-algebra arithmetic over an ordered list of module slots.

    Caches are per-instance; all methods are pure with respect to the
    immutable modules, so instances may be shared read-only.
    """

    def __init__(self, modules):
        if isinstance(modules, ModuleTuple):
            modules = list(modules.entries)
        elif isinstance(modules, YDModule):
            modules = [modules]
        if not modules:
            raise ValidationError("need at least one module slot")
        self.modules = list(modules)
        self.group = modules[0].group
        self.cocycle = modules[0].cocycle
        for m in modules:
            if m.group is not self.group or m.cocycle is not self.cocycle:
                raise ValidationError("slots share group and cocycle")
        self.theta = len(self.modules)
        self.letters = [(s, i) for s, m in enumerate(self.modules)
                        for i in range(m.dim)]
        self._deg_cache: dict = {}
        self._act_cache: dict = {}

    # ---- degrees -------------------------------------------------------

    def letter_degree(self, letter) -> int:
        slot, idx = letter
        return self.modules[slot].degrees[idx]

    def word_degree(self, word: Word) -> int:
        d = self._deg_cache.get(word)
        if d is None:
            d = self.group.identity
            for letter in word:
                d = self.group.mul(d, self.letter_degree(letter))
            self._deg_cache[word] = d
        return d

    def multidegree(self, word: Word) -> tuple:
        counts = [0] * self.theta
        for slot, _ in word:
            counts[slot] += 1
        return tuple(counts)

    # ---- coherence -----------------------------------------------------

    def flatten_scalar(self, u: Word, v: Word) -> CycScalar:
        """Scalar for rebracketing (leftcomb(u) (x) leftcomb(v)) to leftcomb(u+v)."""
        if not u or len(v) <= 1:
            return _ONE
        s = _ONE
        du = self.word_degree(u)
        degs = [self.letter_degree(l) for l in v]
        # Moves peel the last letter of the right factor; the accumulated
        # product is Phi(deg u, deg v[:j], deg v[j]) over j = 1..len(v)-1.
        for j in range(1, len(v)):
            s = s * self.cocycle.value(du, self.word_degree(v[:j]), degs[j])
        return s

    # ---- action and braiding -------------------------------------------

    def act(self, g: int, word: Word) -> GradedVector:
        """g |> word via the iterated tensor-product action."""
        key = (g, word)
        cached = self._act_cache.get(key)
        if cached is not None:
            return cached
        if not word:
            out = GradedVector.from_word(())
        elif len(word) == 1:
            slot, idx = word[0]
            out = GradedVector()
            for i, c in self.modules[slot].act_column(g, idx):
                out.add_term(((slot, i),), c)
        else:
            prefix, last = word[:-1], word[-1:]
            s = self.cocycle.tensor_action(g, self.word_degree(prefix),
                                           self.word_degree(last))
            left = self.act(g, prefix)
            right = self.act(g, last)
            out = GradedVector()
            for wl, cl in left.items():
                for wr, cr in right.items():
                    out.add_term(wl + wr, s * cl * cr)
        self._act_cache[key] = out
        return out

    def act_vector(self, g: int, vec: GradedVector) -> GradedVector:
        out = GradedVector()
        for w, c in vec.items():
            for w2, c2 in self.act(g, w).items():
                out.add_term(w2, c * c2)
        return out

    # ---- multiplication --------------------------------------------------

    def mult(self, a: GradedVector, b: GradedVector) -> GradedVector:
        out = GradedVector()
        for u, cu in a.items():
            for v, cv in b.items():
                out.add_term(u + v, cu * cv * self.flatten_scalar(u, v))
        return out

    # ---- coproduct -------------------------------------------------------

    def delta_last(self, word: Word, prefix_delta=None) -> GradedVector:
        """The (n-1, 1) component of Delta(word), n = len(word) >= 1, from
        prefix_delta = Delta_{n-2,1}(word[:-1]), recomputed if not given."""
        # Delta(w x) = Delta(w) (x (x) 1 + 1 (x) x).  Only the (n-2, 1) part
        # of Delta(w) times x (x) 1 and its (n-1, 0) part w (x) 1 times
        # 1 (x) x land here.  Phi is normalized and 1 acts trivially, so the
        # latter is w (x) x with coefficient 1, and the former is
        #   (a (x) b)(x (x) 1)
        #     = Phi(a, b|>x, b) Phi(a, b, x)^-1 (a (b|>x)) (x) b.
        prefix, last = word[:-1], word[-1:]
        out = GradedVector()
        if prefix:
            if prefix_delta is None:
                prefix_delta = self.delta_last(prefix)
            g, phi = self.group, self.cocycle
            dx = self.word_degree(last)
            for (a, b), c in prefix_delta.items():
                da, db = self.word_degree(a), self.word_degree(b)
                s = phi.inverse(da, db, dx) * phi.value(da, g.conj(db, dx), db)
                for bx, cc in self.act(db, last).items():
                    out.add_term((a + bx, b), c * (s * cc))
        out.add_term((prefix, last), _ONE)
        return out

    def delta_1n(self, word: Word) -> GradedVector:
        """Delta_{1^n}(word), an uncached reference no engine code calls:
        tests check the Nichols blocks against it, perfbench/tracer.py wraps
        it by name.  Peels Delta_{n-1,1}, recursing on the left leg."""
        if len(word) <= 1:
            return GradedVector.from_word(word)
        out = GradedVector()
        for (a, b), c in self.delta_last(word).items():
            for rest, c2 in self.delta_1n(a).items():
                out.add_term(rest + b, c * c2)
        return out
