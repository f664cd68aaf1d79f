"""Finite groups, normalized 3-cocycles, and the (kG, Phi) scalar data.

Groups are carried by explicit Cayley tables on a canonical index set
0..order-1 with identity 0, so non-abelian groups are representable; abelian
groups built from cyclic factor orders additionally carry exponent vectors.

Cocycles are materialized as dense |G|^3 tables of exact scalars.  Only
normalized cocycles (value 1 whenever an argument is the identity) with
nonzero entries are accepted; check_3cocycle decides the pentagon identity
on every quadruple in one walk, multiplying exact scalars only for values
not yet seen to hold.  Its report and the scalars derived from Phi (its
inverse, the twisted-composition scalar omega and the tensor-action
scalar) are Cocycle3 methods, memoized on the instance.  The preantipode
scalar Phi(g, g^-1, g)^-1 of (kG, Phi) is Cocycle3.inverse at
(g, g^-1, g); only the bosonization references in tests/oracles.py use it.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .cyclo import CycScalar, check_scalars, inv
from .errors import ResourceBoundError, ValidationError

# Largest group order accepted.  The pentagon walk visits (|G|-1)^4
# quadruples: on a 2-core VM 0.01 s at order 16 and 0.16-0.25 s at 32 on
# sign and trivial tables, 4.7-5.0 s at 32 on a rational coboundary with
# 239 distinct values, where few value combinations repeat.
MAX_GROUP_ORDER = 32

# The pentagon walk forgets the value combinations seen to hold at this
# many: a few MB, where hundreds of distinct values would keep tens of MB.
MAX_HELD_CODES = 1 << 16


def _check_order(n: int) -> None:
    if n > MAX_GROUP_ORDER:
        raise ResourceBoundError(f"group order {n} exceeds the largest "
                                 f"supported order {MAX_GROUP_ORDER}")


class Group:
    """A finite group by its Cayley table, with per-element exponent vectors
    when abelian.  Fields are never reassigned; compared by identity."""

    identity = 0

    def __init__(self, order: int, cayley: tuple, inverse: tuple,
                 abelian_orders: tuple | None = None,
                 exponents: tuple | None = None):
        self.order, self.cayley, self.inverse = order, cayley, inverse
        self.abelian_orders, self.exponents = abelian_orders, exponents

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


class Report:
    def __init__(self, ok: bool, violations: list | None = None):
        self.ok, self.violations = ok, [] if violations is None else violations

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
    table can be built for negative tests), and every YD module needs it.
    """

    def __init__(self, group: Group, table):
        n = group.order
        flat = list(table)
        if len(flat) != n ** 3:
            raise ValidationError("cocycle table must have |G|^3 entries")
        check_scalars(flat, "cocycle table entry")
        self.group = group
        self._table = flat
        for a in range(n):
            for b in range(n):
                for (x, y, z) in ((0, a, b), (a, 0, b), (a, b, 0)):
                    if not self.value(x, y, z) == 1:
                        raise ValidationError(
                            f"cocycle not normalized at ({x},{y},{z})")
        if not all(flat):
            raise ValidationError("cocycle has a zero value")
        self._inverse: dict = {}
        self._omega: dict = {}
        self._tensor: dict = {}
        self._pentagon: Report | None = None

    def value(self, a: int, b: int, c: int):
        n = self.group.order
        return self._table[(a * n + b) * n + c]

    def inverse(self, a: int, b: int, c: int):
        """Phi(a, b, c)^-1: (u_a (x) v_b) (x) w_c -> u_a (x) (v_b (x) w_c)."""
        key = (a, b, c)
        s = self._inverse.get(key)
        if s is None:
            s = self._inverse[key] = inv(self.value(a, b, c))
        return s

    def omega(self, e: int, f: int, g: int):
        """omega_g(e, f): e |> (f |> v) = omega (ef) |> v for v of degree g."""
        key = (e, f, g)
        s = self._omega.get(key)
        if s is None:
            G = self.group
            fgf = G.conj(f, g)
            efgfe = G.conj(e, fgf)
            s = self._omega[key] = (self.value(e, f, g) * self.value(efgfe, e, f)
                                    * inv(self.value(e, fgf, f)))
        return s

    def tensor_action(self, x: int, g: int, h: int):
        """Scalar in x |> (m_g (x) n_h) = s (x |> m_g) (x) (x |> n_h)."""
        key = (x, g, h)
        s = self._tensor.get(key)
        if s is None:
            G = self.group
            xg = G.conj(x, g)
            xh = G.conj(x, h)
            s = self._tensor[key] = (self.value(x, g, h) * self.value(xg, xh, x)
                                     * inv(self.value(xg, x, h)))
        return s

    def pentagon(self) -> Report:
        """check_3cocycle's report, memoized: the table never changes."""
        if self._pentagon is None:
            self._pentagon = _pentagon_walk(self)
        return self._pentagon

    @classmethod
    def from_function(cls, group: Group, fn) -> "Cocycle3":
        n = group.order
        flat = [fn(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
        return cls(group, flat)

    @classmethod
    def trivial(cls, group: Group) -> "Cocycle3":
        return cls(group, [1] * group.order ** 3)


def sign_cocycle(group: Group) -> Cocycle3:
    """The sign cocycle on a 3-factor abelian group.

    Phi(a, b, c) = (-1)^(a3 * b2 * c1) with a3 the third exponent of the
    first argument, b2 the second exponent of the second, c1 the first
    exponent of the third.  A cocycle exactly when all factor orders are even.
    """
    if group.abelian_orders is None or len(group.abelian_orders) != 3:
        raise ValidationError("sign cocycle needs a 3-factor abelian presentation")
    exps = group.exponents

    def fn(a, b, c):
        return -1 if exps[a][2] * exps[b][1] * exps[c][0] % 2 else 1

    return Cocycle3.from_function(group, fn)


def check_3cocycle(phi: Cocycle3) -> Report:
    """Pentagon check: whether the identity holds on all |G|^4 quadruples.

    Identity checked (group-like specialization):
    Phi(b,c,d) * Phi(a,bc,d) * Phi(a,b,c) = Phi(a,b,cd) * Phi(ab,c,d).

    Only non-identity quadruples are evaluated.  Cocycle3 accepts only
    normalized tables, and with Phi = 1 wherever an argument is 1 the
    identity at a = 1, b = 1, c = 1 or d = 1 reads Phi(b,c,d), Phi(a,c,d),
    Phi(a,b,d) or Phi(a,b,c) on both sides.  Each of the k distinct stored
    values gets an index, and a quadruple's five values, in the order above,
    are the digits of one base-k code: the exact products run only for a
    code not yet seen to hold.  The report names the first failure, a
    outermost and d innermost, and is Cocycle3.pentagon's, computed once
    per table.
    """
    return phi.pentagon()


def _pentagon_walk(phi: Cocycle3) -> Report:
    """check_3cocycle's walk; it forgets the codes seen to hold at
    MAX_HELD_CODES of them."""
    table = phi._table
    index: dict = {}
    digits = [index.setdefault((v.conductor, v.num, v.den)
                               if isinstance(v, CycScalar) else v, len(index))
              for v in table]
    k = len(index)
    # pj[x]: entry x's digit times k^j, one int object per distinct value.
    p0, p1, p2, p3, p4 = ([w[i] for i in digits]
                          for w in ([i * k ** j for i in range(k)]
                                    for j in range(5)))
    g, n = phi.group, phi.group.order
    held: set = set()
    rest = range(1, n)
    for a in rest:
        for b in rest:
            ab, row_ab = g.mul(a, b), (a * n + b) * n
            for c in rest:
                cd = g.cayley[c]
                left = p2[row_ab + c]
                row_bc = (b * n + c) * n
                row_a_bc = (a * n + g.mul(b, c)) * n
                row_ab_c = (ab * n + c) * n
                for d in rest:
                    code = (p4[row_bc + d] + p3[row_a_bc + d] + left
                            + p1[row_ab + cd[d]] + p0[row_ab_c + d])
                    if code in held:
                        continue
                    lhs = (table[row_bc + d] * table[row_a_bc + d]
                           * table[row_ab + c])
                    rhs = table[row_ab + cd[d]] * table[row_ab_c + d]
                    if not lhs == rhs:
                        return Report(False, [
                            f"pentagon fails at quadruple ({a},{b},{c},{d}): "
                            f"{lhs} != {rhs}"])
                    held.add(code)
                    if len(held) >= MAX_HELD_CODES:
                        held.clear()
    return Report(True, [])
