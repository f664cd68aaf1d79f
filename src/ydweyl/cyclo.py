"""Exact arithmetic in cyclotomic fields Q(zeta_N), plus linear algebra over it.

A scalar is stored in the power basis 1, z, ..., z^(phi(N)-1) of Q(zeta_N)
modulo the N-th cyclotomic polynomial, with Fraction coefficients.  This is a
normal form: equality is coefficient equality after promoting both operands to
the lcm conductor.  Values that turn out to be rational are automatically
stored at conductor 1, so 0 and 1 have a single canonical encoding.

No floating point anywhere; float evaluation lives only in the test oracles.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import ResourceBoundError

# Largest conductor N of Q(zeta_N) a scalar may have.  On a 2-core VM a
# multiply at conductor 1000 takes 0.8 ms and an inverse 23 ms (0.07 and
# 0.3 ms at conductor 9); squaring zeta(10000) alone takes 0.2 s.
MAX_CONDUCTOR = 1000


def _check_conductor(n: int) -> None:
    if n > MAX_CONDUCTOR:
        raise ResourceBoundError(f"conductor {n} exceeds the largest "
                                 f"supported conductor {MAX_CONDUCTOR}")


class CycloDivisionError(ZeroDivisionError):
    """Division by the zero scalar."""


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("conductor must be positive")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder; a monic den keeps integer inputs integral."""
    num = list(num)
    lead = den[-1]
    q = [0] * max(0, len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        coeff = num[k + len(den) - 1]
        if lead != 1:
            coeff /= lead
        if coeff == 0:
            continue
        q[k] = coeff
        for j, d in enumerate(den):
            num[k + j] -= coeff * d
    return q, _poly_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree, monic."""
    if n < 1:
        raise ValueError("conductor must be positive")
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(num)


def _reduce_mod_cyclotomic(coeffs: list[Fraction], n: int) -> list[Fraction]:
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    c = list(coeffs)
    for k in range(len(c) - 1, deg - 1, -1):
        top = c[k]
        if top == 0:
            continue
        c[k] = Fraction(0)
        for j in range(deg):
            c[k - deg + j] -= top * phi[j]
    return c[:deg] + [Fraction(0)] * max(0, deg - len(c))


def _coerce_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


class CycScalar:
    """An element of Q(zeta_N) in reduced power-basis form.

    Instances are immutable; all operations return new scalars.  Mixed
    conductors are promoted to the lcm.  Not hashable: equality crosses
    conductors, so use ``x.canonical_key()`` as a dict key when one is
    needed.  ``str(x)`` is not canonical: it prints the stored conductor.
    """

    __slots__ = ("conductor", "coeffs")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, conductor: int, coeffs):
        coeffs = [_coerce_fraction(c) for c in coeffs]
        deg = euler_phi(conductor)
        if len(coeffs) > deg:
            coeffs = _reduce_mod_cyclotomic(coeffs, conductor)
        coeffs += [Fraction(0)] * (deg - len(coeffs))
        if conductor > 1 and all(c == 0 for c in coeffs[1:]):
            conductor, coeffs = 1, [coeffs[0]]
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def _rat(cls, f: Fraction) -> "CycScalar":
        # Internal fast path: trusted Fraction, conductor 1.
        self = object.__new__(cls)
        object.__setattr__(self, "conductor", 1)
        object.__setattr__(self, "coeffs", (f,))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("CycScalar is immutable")

    def __getstate__(self):
        return (self.conductor, self.coeffs)

    def __setstate__(self, state):
        object.__setattr__(self, "conductor", state[0])
        object.__setattr__(self, "coeffs", state[1])

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, x) -> "CycScalar":
        return cls(1, [_coerce_fraction(x)])

    @classmethod
    def zero(cls) -> "CycScalar":
        return _ZERO

    @classmethod
    def one(cls) -> "CycScalar":
        return _ONE

    # ---- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        if self.conductor == 1:
            return not self.coeffs[0]
        return all(c == 0 for c in self.coeffs)

    def rational_value(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def promote(self, m: int) -> "CycScalar":
        """Re-express in Q(zeta_m); m must be a multiple of the conductor."""
        n = self.conductor
        if m == n:
            return self
        if m % n != 0:
            raise ValueError(f"cannot promote conductor {n} to {m}")
        _check_conductor(m)
        step = m // n
        coeffs = [Fraction(0)] * (euler_phi(n) * step)
        for j, c in enumerate(self.coeffs):
            coeffs[j * step] = c
        return CycScalar(m, coeffs)

    def coeffs_at(self, m: int) -> tuple:
        """Power-basis coefficients in Q(zeta_m), padded to length phi(m)."""
        promoted = self.promote(m)
        if promoted.conductor == m:
            return promoted.coeffs
        # Auto-demoted to a rational: pad.
        return (promoted.coeffs[0],) + (Fraction(0),) * (euler_phi(m) - 1)

    def try_demote(self, d: int) -> "CycScalar | None":
        """Express in Q(zeta_d), if possible.

        d must divide or be divisible by the conductor; values are stored at
        the minimal conductor, so a value already inside Q(zeta_d) is
        returned as is.
        """
        n = self.conductor
        if d % n == 0:
            return self
        if n % d != 0:
            raise ValueError(f"{d} neither divides nor is divided by "
                             f"the conductor {n}")
        # Solve sum_j b_j * promote(zeta_d^j) = self for rational b_j.
        cols = []
        for j in range(euler_phi(d)):
            cols.append(CycScalar(d, [0] * j + [1]).coeffs_at(n))
        rows = []
        for i in range(euler_phi(n)):
            rows.append([CycScalar.from_rational(col[i]) for col in cols]
                        + [CycScalar.from_rational(self.coeffs[i])])
        reduced, pivots = rref(rows)
        ncols = len(cols)
        if ncols in pivots:
            return None  # inconsistent: not in the subfield
        sol = [Fraction(0)] * ncols
        for r, p in zip(reduced, pivots):
            sol[p] = r[ncols].rational_value()
        return CycScalar(d, sol)

    def canonical_key(self) -> tuple:
        """Hashable encoding that equal values share: (d, coeffs) in Q(zeta_d).

        Only rational values are stored at their minimal conductor, so
        zeta(8)^2 keeps conductor 8 while the equal zeta(4) has 4.  The key
        uses the smallest divisor d of the conductor with the value in
        Q(zeta_d); that d is unique because Q(zeta_a) and Q(zeta_b) meet in
        Q(zeta_gcd(a, b)).
        """
        n = self.conductor
        for d in range(1, n):
            if n % d == 0:
                low = self.try_demote(d)
                if low is not None:
                    return low.conductor, low.coeffs
        return n, self.coeffs

    # ---- arithmetic ---------------------------------------------------

    def _aligned(self, other) -> tuple[int, tuple, tuple]:
        if not isinstance(other, CycScalar):
            other = CycScalar.from_rational(other)
        n, m = self.conductor, other.conductor
        if n == m:
            return n, self.coeffs, other.coeffs
        l = n * m // gcd(n, m)
        return l, self.coeffs_at(l), other.coeffs_at(l)

    def __add__(self, other):
        if (isinstance(other, CycScalar) and self.conductor == 1
                and other.conductor == 1):
            return CycScalar._rat(self.coeffs[0] + other.coeffs[0])
        n, a, b = self._aligned(other)
        return CycScalar(n, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        if self.conductor == 1:
            return CycScalar._rat(-self.coeffs[0])
        return CycScalar(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        if (isinstance(other, CycScalar) and self.conductor == 1
                and other.conductor == 1):
            return CycScalar._rat(self.coeffs[0] - other.coeffs[0])
        n, a, b = self._aligned(other)
        return CycScalar(n, [x - y for x, y in zip(a, b)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, CycScalar) and self.conductor == 1 \
                and other.conductor == 1:
            return CycScalar._rat(self.coeffs[0] * other.coeffs[0])
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return _ZERO
            return CycScalar(self.conductor, [c * other for c in self.coeffs])
        n, a, b = self._aligned(other)
        if n == 1:
            return CycScalar._rat(a[0] * b[0])
        prod = [Fraction(0)] * (2 * len(a))
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb != 0:
                    prod[i + j] += ca * cb
        return CycScalar(n, prod)

    __rmul__ = __mul__

    def inv(self) -> "CycScalar":
        if self.is_zero():
            raise CycloDivisionError("inverse of zero in a cyclotomic field")
        if self.conductor == 1:
            return CycScalar._rat(1 / self.coeffs[0])
        # Extended Euclid in Q[x]: s*self + t*Phi_N = gcd = nonzero constant,
        # since Phi_N is irreducible over Q.
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        r0, r1 = phi, _poly_trim(list(self.coeffs))
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if not r1 or r1[0] == 0:
            raise ArithmeticError("gcd with the cyclotomic polynomial is not constant")
        c = r1[0]
        return CycScalar(self.conductor, [x / c for x in s1])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycScalar.from_rational(other)
        return self * other.inv()

    def __rtruediv__(self, other):
        return CycScalar.from_rational(other) * self.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycScalar.from_rational(other)
        elif not isinstance(other, CycScalar):
            return NotImplemented
        _, a, b = self._aligned(other)
        return a == b

    def __bool__(self):
        return not self.is_zero()

    # ---- text ----------------------------------------------------------

    def __str__(self):
        return scalar_to_str(self)

    def __repr__(self):
        return f"CycScalar({self.conductor}, {list(self.coeffs)!r})"


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _poly_trim(out)


_ZERO = CycScalar(1, [0])
_ONE = CycScalar(1, [1])


def root_of_unity(n: int, k: int) -> CycScalar:
    """zeta_n^k, stored at the minimal conductor n/gcd(n, k)."""
    if n < 1:
        raise ValueError("order of the root must be positive")
    k %= n
    d = n // gcd(n, k) if k else 1
    if d == 1:
        return _ONE
    if d == 2:
        return CycScalar.from_rational(-1)
    _check_conductor(d)
    e = k // (n // d)
    return CycScalar(d, [0] * e + [1])


# ---------------------------------------------------------------------------
# Textual encoding: rationals and sums of c*zeta(N)^k terms, exact round-trip.
# ---------------------------------------------------------------------------

def scalar_to_str(x: CycScalar) -> str:
    if x.conductor == 1:
        return str(x.coeffs[0])
    n = x.conductor
    parts = []
    for j, c in enumerate(x.coeffs):
        if c == 0:
            continue
        if j == 0:
            body = str(abs(c))
        else:
            z = f"zeta({n})" if j == 1 else f"zeta({n})^{j}"
            body = z if abs(c) == 1 else f"{abs(c)}*{z}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


_RAT = r"-?\d+(?:/0*[1-9]\d*)?"  # a zero denominator is malformed
_TERM_RE = re.compile(
    rf"^(?:(?P<coef>{_RAT})\s*\*\s*)?"
    r"(?:zeta\((?P<n>\d+)\)(?:\^(?P<k>-?\d+))?)$"
)
_RAT_RE = re.compile(rf"^{_RAT}$")


def parse_scalar(text: str) -> CycScalar:
    """Inverse of scalar_to_str; also accepts bare 'zeta(N)^k' and rationals."""
    s = text.strip()
    if not s:
        raise ValueError("empty scalar literal")
    # Split into signed terms at top level (no parens beyond zeta(N)).
    terms: list[tuple[int, str]] = []
    i, sign = 0, 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    start = i
    depth = 0
    while i <= len(s):
        if i == len(s) or (s[i] in "+-" and depth == 0 and i > start):
            terms.append((sign, s[start:i].strip()))
            if i < len(s):
                sign = -1 if s[i] == "-" else 1
                start = i + 1
            i += 1
            continue
        if i < len(s):
            if s[i] == "(":
                depth += 1
            elif s[i] == ")":
                depth -= 1
        i += 1
    total = _ZERO
    for sgn, term in terms:
        if not term:
            raise ValueError(f"malformed scalar literal: {text!r}")
        if _RAT_RE.match(term):
            val = CycScalar.from_rational(Fraction(term))
        else:
            m = _TERM_RE.match(term)
            if not m:
                raise ValueError(f"malformed scalar term: {term!r}")
            n = int(m.group("n"))
            k = int(m.group("k")) if m.group("k") is not None else 1
            val = root_of_unity(n, k)
            if m.group("coef") is not None:
                val = val * Fraction(m.group("coef"))
        total = total + (val if sgn > 0 else -val)
    return total


# ---------------------------------------------------------------------------
# Exact linear algebra over CycScalar.  Matrices are lists of row lists.
# ---------------------------------------------------------------------------

Matrix = list  # list[list[CycScalar]]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (copy) and the pivot column indices.

    Elimination runs on sparse rows, dicts from column to nonzero scalar: a
    step updates only the rows holding the pivot column, over the pivot row's
    support.  Rows stay in the dense order of a Gauss-Jordan sweep, so every
    entry is computed by the same operations (and carries the same stored
    conductor) as the dense elimination would give it.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    mat = [{c: x for c, x in enumerate(r) if not x.is_zero()} for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if c in mat[i]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c].inv()
        prow = mat[r] = {j: x * inv for j, x in mat[r].items()}
        for i, row in enumerate(mat):
            f = row.get(c)
            if f is None or i == r:
                continue
            for j, y in prow.items():
                x = row.get(j)
                x = -(f * y) if x is None else x - f * y
                if x.is_zero():
                    del row[j]
                else:
                    row[j] = x
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [[row.get(j, _ZERO) for j in range(ncols)] for row in mat[:r]], pivots


def nullspace(rows: Matrix, ncols: int) -> Matrix:
    """Basis of {x : M x = 0} for M given by equation rows of length ncols."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [_ZERO] * ncols
        vec[free] = _ONE
        for row, p in zip(reduced, pivots):
            vec[p] = -row[free]
        basis.append(vec)
    return basis


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    nb = len(b[0]) if b else 0
    out = []
    for row in a:
        new = [_ZERO] * nb
        for k, x in enumerate(row):
            if x.is_zero():
                continue
            brow = b[k]
            for j in range(nb):
                if not brow[j].is_zero():
                    new[j] = new[j] + x * brow[j]
        out.append(new)
    return out


def identity_matrix(n: int) -> Matrix:
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def det(mat: Matrix) -> CycScalar:
    """Determinant by fraction-free-ish elimination over the field."""
    n = len(mat)
    m = [list(r) for r in mat]
    result = _ONE
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if not m[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            return _ZERO
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result = result * m[c][c]
        inv = m[c][c].inv()
        for i in range(c + 1, n):
            if not m[i][c].is_zero():
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result


def coords_in_rref(reduced: Matrix, pivots: list[int], vec) -> list | None:
    """Coordinates of vec in the row space of an RREF basis, or None."""
    residual = list(vec)
    coeffs = []
    for row, p in zip(reduced, pivots):
        c = residual[p]
        coeffs.append(c)
        if not c.is_zero():
            for j, y in enumerate(row):
                if not y.is_zero():
                    residual[j] = residual[j] - c * y
    if any(not x.is_zero() for x in residual):
        return None
    return coeffs
