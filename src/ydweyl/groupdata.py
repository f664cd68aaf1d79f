"""Finite groups, normalized 3-cocycles, and the (kG, Phi) scalar data.

Groups are carried by explicit Cayley tables on a canonical index set
0..order-1 with identity 0, so non-abelian groups are representable; abelian
groups built from cyclic factor orders additionally carry exponent vectors.

Cocycles are materialized as dense |G|^3 tables of exact scalars.  Only
normalized cocycles (value 1 whenever an argument is the identity) with
nonzero entries are accepted; the pentagon identity is checked exhaustively
by check_3cocycle.  The scalars derived from Phi (its inverse, the
twisted-composition scalar omega and the tensor-action scalar) are
Cocycle3 methods, memoized on the instance.  The preantipode scalar
Phi(g, g^-1, g)^-1 of (kG, Phi) is Cocycle3.inverse at (g, g^-1, g); only
the bosonization references in tests/oracles.py use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import prod

from .cyclo import CycScalar
from .errors import ResourceBoundError, ValidationError

_ONE = CycScalar.one()

# Largest group order accepted.  The pentagon check walks (|G|-1)^4
# quadruples: on a 2-core VM it takes 0.5 s at order 16 and 8.9 s at 32.
MAX_GROUP_ORDER = 32


def _check_order(n: int) -> None:
    if n > MAX_GROUP_ORDER:
        raise ResourceBoundError(f"group order {n} exceeds the largest "
                                 f"supported order {MAX_GROUP_ORDER}")


@dataclass(frozen=True)
class Group:
    order: int
    cayley: tuple  # tuple of tuples of element indices
    inverse: tuple
    abelian_orders: tuple | None = None
    exponents: tuple | None = None  # per-element exponent vectors when abelian

    identity = 0

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def elements(self):
        return range(self.order)

    def element_index(self, exps) -> int:
        if self.exponents is None:
            raise ValueError("group has no abelian presentation")
        exps = tuple(e % m for e, m in zip(exps, self.abelian_orders))
        return self.exponents.index(exps)

    def element_name(self, a: int) -> str:
        if self.exponents is None:
            return f"e{a}" if a else "1"
        exps = self.exponents[a]
        parts = []
        for i, e in enumerate(exps):
            if e == 1:
                parts.append(f"g{i + 1}")
            elif e > 1:
                parts.append(f"g{i + 1}^{e}")
        return "*".join(parts) if parts else "1"

    def check(self) -> "Report":
        """Exhaustive associativity / identity / inverse validation."""
        n = self.order
        bad = []
        for a in range(n):
            if self.mul(0, a) != a or self.mul(a, 0) != a:
                bad.append(f"identity law fails at element {a}")
            if self.mul(a, self.inv(a)) != 0 or self.mul(self.inv(a), a) != 0:
                bad.append(f"inverse table wrong at element {a}")
        for a in range(n):
            for b in range(n):
                ab = self.mul(a, b)
                for c in range(n):
                    if self.mul(ab, c) != self.mul(a, self.mul(b, c)):
                        bad.append(f"associativity fails at ({a},{b},{c})")
                        return Report(False, bad)
        if self.exponents is not None:
            for a in range(n):
                for b in range(n):
                    s = tuple((x + y) % m for x, y, m in
                              zip(self.exponents[a], self.exponents[b], self.abelian_orders))
                    if self.exponents[self.mul(a, b)] != s:
                        bad.append(f"exponent addition mismatch at ({a},{b})")
        return Report(not bad, bad)


@dataclass
class Report:
    ok: bool
    violations: list = field(default_factory=list)

    def __bool__(self):
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return "pass"
        head = self.violations[:5]
        more = len(self.violations) - len(head)
        lines = "; ".join(head)
        return f"FAIL: {lines}" + (f" (+{more} more)" if more > 0 else "")


def make_abelian_group(orders) -> Group:
    """Direct product of cyclic groups Z_m1 x ... x Z_mn, exponent-vector elements."""
    orders = tuple(orders)
    if not orders or any(isinstance(m, bool) or not isinstance(m, int) or m < 1
                         for m in orders):
        raise ValueError("factor orders must be a nonempty list of positive integers")
    _check_order(prod(orders))
    exps = tuple(product(*[range(m) for m in orders]))
    index = {e: i for i, e in enumerate(exps)}
    n = len(exps)
    cayley = tuple(
        tuple(index[tuple((x + y) % m for x, y, m in zip(ea, eb, orders))]
              for eb in exps)
        for ea in exps
    )
    inverse = tuple(index[tuple((-x) % m for x, m in zip(ea, orders))] for ea in exps)
    return Group(order=n, cayley=cayley, inverse=inverse,
                 abelian_orders=orders, exponents=exps)


def group_from_cayley(table) -> Group:
    """Group from an explicit Cayley table; identity must be index 0."""
    _check_order(len(table))
    cayley = tuple(tuple(row) for row in table)
    entries = [x for row in cayley for x in row]
    for x in entries:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"Cayley entries must be integers, got {x!r}")
    n = len(cayley)
    if n == 0:
        raise ValidationError("Cayley table must be nonempty")
    if any(len(row) != n for row in cayley):
        raise ValidationError("Cayley table must be square")
    for x in entries:
        if not 0 <= x < n:
            raise ValidationError(f"Cayley entry {x} is not an element index "
                                  f"0..{n - 1}")
    inverse = []
    for a in range(n):
        inv = next((b for b in range(n) if cayley[a][b] == 0 and cayley[b][a] == 0), None)
        if inv is None:
            raise ValidationError(f"element {a} has no inverse")
        inverse.append(inv)
    g = Group(order=n, cayley=cayley, inverse=tuple(inverse))
    report = g.check()
    if not report:
        raise ValidationError("invalid Cayley table: " + report.summary())
    return g


class Cocycle3:
    """Normalized 3-cochain on G with nonzero exact values, as a dense table.

    Construction validates normalization and nonvanishing only; the pentagon
    identity is the job of check_3cocycle (kept separate so that a corrupted
    table can be built for negative tests).
    """

    def __init__(self, group: Group, table):
        n = group.order
        flat = list(table)
        if len(flat) != n ** 3:
            raise ValidationError("cocycle table must have |G|^3 entries")
        self.group = group
        self._table = flat
        for a in range(n):
            for b in range(n):
                for (x, y, z) in ((0, a, b), (a, 0, b), (a, b, 0)):
                    if not self.value(x, y, z) == _ONE:
                        raise ValidationError(
                            f"cocycle not normalized at ({x},{y},{z})")
        if any(v.is_zero() for v in flat):
            raise ValidationError("cocycle has a zero value")
        self._inverse: dict = {}
        self._omega: dict = {}
        self._tensor: dict = {}

    def value(self, a: int, b: int, c: int) -> CycScalar:
        n = self.group.order
        return self._table[(a * n + b) * n + c]

    def inverse(self, a: int, b: int, c: int) -> CycScalar:
        """Phi(a, b, c)^-1: (u_a (x) v_b) (x) w_c -> u_a (x) (v_b (x) w_c)."""
        key = (a, b, c)
        s = self._inverse.get(key)
        if s is None:
            s = self._inverse[key] = self.value(a, b, c).inv()
        return s

    def omega(self, e: int, f: int, g: int) -> CycScalar:
        """omega_g(e, f): e |> (f |> v) = omega (ef) |> v for v of degree g."""
        key = (e, f, g)
        s = self._omega.get(key)
        if s is None:
            G = self.group
            fgf = G.conj(f, g)
            efgfe = G.conj(e, fgf)
            s = self._omega[key] = (self.value(e, f, g) * self.value(efgfe, e, f)
                                    / self.value(e, fgf, f))
        return s

    def tensor_action(self, x: int, g: int, h: int) -> CycScalar:
        """Scalar in x |> (m_g (x) n_h) = s (x |> m_g) (x) (x |> n_h)."""
        key = (x, g, h)
        s = self._tensor.get(key)
        if s is None:
            G = self.group
            xg = G.conj(x, g)
            xh = G.conj(x, h)
            s = self._tensor[key] = (self.value(x, g, h) * self.value(xg, xh, x)
                                     / self.value(xg, x, h))
        return s

    @classmethod
    def from_function(cls, group: Group, fn) -> "Cocycle3":
        n = group.order
        flat = [fn(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
        return cls(group, flat)

    @classmethod
    def trivial(cls, group: Group) -> "Cocycle3":
        return cls(group, [_ONE] * group.order ** 3)


def sign_cocycle(group: Group) -> Cocycle3:
    """The sign cocycle on a 3-factor abelian group.

    Phi(a, b, c) = (-1)^(a3 * b2 * c1) with a3 the third exponent of the
    first argument, b2 the second exponent of the second, c1 the first
    exponent of the third.  A cocycle exactly when all factor orders are even.
    """
    if group.abelian_orders is None or len(group.abelian_orders) != 3:
        raise ValidationError("sign cocycle needs a 3-factor abelian presentation")
    exps = group.exponents
    minus_one = CycScalar.from_rational(-1)

    def fn(a, b, c):
        e = exps[a][2] * exps[b][1] * exps[c][0]
        return minus_one if e % 2 else _ONE

    return Cocycle3.from_function(group, fn)


def check_3cocycle(phi: Cocycle3) -> Report:
    """Exhaustive pentagon check: the identity holds on all |G|^4 quadruples.

    Identity checked (group-like specialization):
    Phi(b,c,d) * Phi(a,bc,d) * Phi(a,b,c) = Phi(a,b,cd) * Phi(ab,c,d).

    Only non-identity quadruples are evaluated.  Cocycle3 accepts only
    normalized tables, and with Phi = 1 wherever an argument is 1 the
    identity at a = 1, b = 1, c = 1 or d = 1 reads Phi(b,c,d), Phi(a,c,d),
    Phi(a,b,d) or Phi(a,b,c) on both sides.
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
