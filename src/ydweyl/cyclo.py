"""Exact arithmetic in cyclotomic fields Q(zeta_N), plus linear algebra over it.

A scalar is stored in the power basis 1, z, ..., z^(phi(N)-1) of Q(zeta_N)
modulo the N-th cyclotomic polynomial, as integer numerators over one
positive denominator in lowest terms.  This is a normal form: equality is
coefficient equality after promoting both operands to the lcm conductor.
Products are reduced through a per-conductor table of z^k for
phi(N) <= k < N.

A rational value is a plain int, or a Fraction when it is not whole, and
only an irrational value is a CycScalar: every operation returns a value
that turns out rational as an int or a Fraction, so a rational has one
encoding and Python's numbers are the one rational arithmetic.  inv,
scalar_key and as_cyc are the helpers that tell the kinds apart.

No floating point anywhere; float evaluation lives only in the test oracles.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import ResourceBoundError, ValidationError

# Largest conductor N of Q(zeta_N) a scalar may have.  On a 2-core VM a
# product of two dense scalars takes 4.4 ms at conductor 1000 (0.002 ms at
# conductor 9), and the inverse of a dense scalar 1.5 s (0.02 ms).
MAX_CONDUCTOR = 1000


def _check_conductor(n: int) -> None:
    if n > MAX_CONDUCTOR:
        raise ResourceBoundError(f"conductor {n} exceeds the largest "
                                 f"supported conductor {MAX_CONDUCTOR}")


class CycloDivisionError(ZeroDivisionError):
    """Division by the zero scalar."""


def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _sub_shifted(p: int, a: list, q: int, shift: int, b: list) -> None:
    """a <- p*a - q*x^shift*b in place on integer coefficient lists, trimmed."""
    if p != 1:
        a[:] = [p * x for x in a]
    a.extend([0] * (len(b) + shift - len(a)))
    for j, y in enumerate(b):
        a[j + shift] -= q * y
    _poly_trim(a)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree, monic."""
    if n < 1:
        raise ValueError("conductor must be positive")
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:  # exact division by the monic Phi_d
            den = cyclotomic_polynomial(d)
            q = [0] * (len(num) - len(den) + 1)
            while num:
                k = len(num) - len(den)
                q[k] = num[-1]
                _sub_shifted(1, num, q[k], k, den)
            num = q
    return tuple(num)


def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple:
    """z^k mod Phi_n for phi(n) <= k < n, each as its (j, c) pairs, c != 0."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    table = []
    power = [-c for c in phi[:d]]  # z^d
    for _ in range(d, n):
        table.append(tuple((j, c) for j, c in enumerate(power) if c))
        top = power[-1]
        power = [0] + power[:-1]
        for j in range(d):
            power[j] -= top * phi[j]
    return tuple(table)


def _reduce(c: list, n: int) -> list:
    """sum_k c[k] z^k as the phi(n) power-basis coefficients of Q(zeta_n)."""
    d = euler_phi(n)
    out = c[:d] + [0] * (d - len(c))
    table = _power_table(n) if len(c) > d else ()
    for k in range(d, len(c)):
        x = c[k]
        if x:
            k %= n  # z^n = 1
            if k < d:
                out[k] += x
            else:
                for j, t in table[k - d]:
                    out[j] += x * t
    return out


def _coerce_fraction(x) -> Fraction:
    if isinstance(x, (Fraction, int, str)):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


class CycScalar:
    """An irrational element of Q(zeta_N) in reduced power-basis form.

    ``num`` holds phi(N) integer numerators and ``den`` their one positive
    denominator, with gcd(den, *num) = 1; ``coeffs`` reads them as
    Fractions.  A rational value is never a CycScalar: it is an int, or a
    Fraction when not whole, and ``CycScalar(N, coeffs)`` returns one when
    the coefficients give a rational.  The operators take an int or
    Fraction operand directly.  Instances are immutable; all operations
    return new values.  Mixed conductors are promoted to the lcm.  Not
    hashable: equality crosses conductors, so use ``scalar_key(x)`` as a
    dict key when one is needed.  ``str(x)`` is not canonical: it prints
    the stored conductor.
    """

    __slots__ = ("conductor", "num", "den")
    __hash__ = None  # type: ignore[assignment]

    def __new__(cls, conductor: int, coeffs):
        _check_conductor(conductor)
        fracs = [_coerce_fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fracs))
        num = [f.numerator * (den // f.denominator) for f in fracs]
        return _make(conductor, _reduce(num, conductor), den)

    @property
    def coeffs(self) -> tuple:
        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    def __setattr__(self, name, value):
        raise AttributeError("CycScalar is immutable")

    def __reduce__(self):
        return _make, (self.conductor, self.num, self.den)

    # ---- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        """Whether a cell of rref's input is 0: perfbench/tracer.py asks
        every cell (ROADMAP item 4).  An irrational value never is."""
        return self.num == (0,)

    def promote(self, m: int) -> "CycScalar":
        """Re-express in Q(zeta_m); m must be a multiple of the conductor."""
        n = self.conductor
        if m == n:
            return self
        if m % n != 0:
            raise ValueError(f"cannot promote conductor {n} to {m}")
        _check_conductor(m)
        if n == 1:
            return self  # as_cyc's rational cells stay at conductor 1
        step = m // n
        c = [0] * (len(self.num) * step)
        c[::step] = self.num
        return _make(m, _reduce(c, m), self.den)

    def _num_at(self, m: int) -> tuple:
        """Numerators in Q(zeta_m), padded to length phi(m)."""
        num = self.promote(m).num
        return num + (0,) * (euler_phi(m) - len(num))

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
        # Solve sum_j b_j * zeta_d^j = self for rational b_j: column j holds
        # zeta_d^j = zeta_n^(j n/d) in Q(zeta_n).  rref reads CycScalar cells
        # (as_cyc), for perfbench/tracer.py (ROADMAP item 4).
        cols = [_reduce([0] * (j * (n // d)) + [1], n)
                for j in range(euler_phi(d))]
        rows = [[as_cyc(col[i]) for col in cols] + [as_cyc(c)]
                for i, c in enumerate(self.coeffs)]
        reduced, pivots = rref(rows)
        ncols = len(cols)
        if ncols in pivots:
            return None  # inconsistent: not in the subfield
        sol = [0] * ncols
        for r, p in zip(reduced, pivots):
            sol[p] = r.get(ncols, 0)
        return CycScalar(d, sol)

    # ---- arithmetic ---------------------------------------------------

    def _aligned(self, other: "CycScalar") -> tuple[int, tuple, tuple]:
        n, m = self.conductor, other.conductor
        if n == m:
            return n, self.num, other.num
        l = n * m // gcd(n, m)
        return l, self._num_at(l), other._num_at(l)

    def _shifted(self, sign: int, r):
        """sign * self + r for a rational r: the numerators scaled and the
        constant one shifted, at self's conductor."""
        if not isinstance(r, (int, Fraction)):
            return NotImplemented
        q = r.denominator
        num = [sign * q * x for x in self.num]
        num[0] += r.numerator * self.den
        return _make(self.conductor, num, self.den * q)

    def __add__(self, other):
        if not isinstance(other, CycScalar):
            return self._shifted(1, other)
        da, db = self.den, other.den
        n, a, b = self._aligned(other)
        return _make(n, [x * db + y * da for x, y in zip(a, b)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.conductor, [-x for x in self.num], self.den)

    def __sub__(self, other):
        if not isinstance(other, CycScalar):
            return self._shifted(1, -other)
        da, db = self.den, other.den
        n, a, b = self._aligned(other)
        return _make(n, [x * db - y * da for x, y in zip(a, b)], da * db)

    def __rsub__(self, other):
        return self._shifted(-1, other)

    def __mul__(self, other):
        if not isinstance(other, CycScalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if other == 1:  # self is already in normal form
                return self
            return _make(self.conductor,
                         [other.numerator * x for x in self.num],
                         self.den * other.denominator)
        den = self.den * other.den
        n, a, b = self._aligned(other)
        terms = [(j, y) for j, y in enumerate(b) if y]
        prod = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in terms:
                    prod[i + j] += x * y
        return _make(n, _reduce(prod, n), den)

    __rmul__ = __mul__

    def inv(self) -> "CycScalar":
        if self.is_zero():
            raise CycloDivisionError("inverse of zero in a cyclotomic field")
        # Extended Euclid on integer polynomials.  Each pair (r, s) keeps
        # r = s*A mod Phi_N for the numerator polynomial A; after each
        # division it is divided by its content, signed so that r's leading
        # coefficient is positive.  Phi_N is irreducible, so the last r is a
        # nonzero constant c, and 1/self = den*s/c.
        n = self.conductor
        r0, s0 = list(cyclotomic_polynomial(n)), []
        r1, s1 = _poly_trim(list(self.num)), [1]
        while True:
            g = gcd(*r1, *s1) if r1[-1] > 0 else -gcd(*r1, *s1)
            r1, s1 = [x // g for x in r1], [x // g for x in s1]
            if len(r1) == 1:
                return _make(n, _reduce([self.den * x for x in s1], n), r1[0])
            lead = r1[-1]
            while len(r0) >= len(r1):
                g = gcd(lead, r0[-1])
                p, q, shift = lead // g, r0[-1] // g, len(r0) - len(r1)
                _sub_shifted(p, r0, q, shift, r1)
                _sub_shifted(p, s0, q, shift, s1)
            r0, s0, r1, s1 = r1, s1, r0, s0

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        result = 1
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, CycScalar):
            _, a, b = self._aligned(other)
            return a == b and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.num == (other.numerator,) and self.den == other.denominator
        return NotImplemented

    def __bool__(self):
        return self.num != (0,)

    # ---- text ----------------------------------------------------------

    def __str__(self):
        return scalar_to_str(self)

    def __repr__(self):
        return f"CycScalar({self.conductor}, {list(self.coeffs)!r})"


_new = object.__new__
_set_conductor = CycScalar.conductor.__set__
_set_num = CycScalar.num.__set__
_set_den = CycScalar.den.__set__


def _make(n: int, num, den: int):
    """The value sum_j num[j] z^j / den (len(num) = phi(n), den > 0) in
    normal form: a rational as an int, or a Fraction when not whole, and
    an irrational as a CycScalar with the gcd divided out."""
    if not any(num[1:]):
        p, r = divmod(num[0], den)
        return p if not r else Fraction(num[0], den)
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    self = _new(CycScalar)
    _set_conductor(self, n)
    _set_num(self, tuple(num))
    _set_den(self, den)
    return self


def _cell(p: int, q: int) -> CycScalar:
    cell = _new(CycScalar)
    _set_conductor(cell, 1)
    _set_num(cell, (p,))
    _set_den(cell, q)
    return cell


_ZERO_CELL = _cell(0, 1)


def as_cyc(x) -> CycScalar:
    """x as a CycScalar cell of rref's dense input: a rational at conductor
    1 (one shared zero), an irrational as itself.

    rref's input is CycScalar because perfbench/tracer.py calls is_zero on
    every cell.  Only rref's callers wrap, and these cells are the only
    conductor-1 CycScalars made; they go with the tracer (ROADMAP item 4).
    """
    if isinstance(x, CycScalar):
        return x
    return _cell(x.numerator, x.denominator) if x else _ZERO_CELL


def inv(x):
    """1/x: an int or Fraction for a rational x, a CycScalar otherwise."""
    if isinstance(x, CycScalar):
        return x.inv()
    if not x:
        raise CycloDivisionError("inverse of zero")
    p, q = x.numerator, x.denominator
    return p * q if p in (1, -1) else Fraction(q, p)


def check_scalars(values, where: str) -> None:
    """Raise ValidationError, naming `where`, the index and the value, at
    the first value not an int (a bool is not one), Fraction or CycScalar."""
    for k, x in enumerate(values):
        if type(x) not in (int, Fraction, CycScalar):
            raise ValidationError(f"{where} {k} is {x!r}, not an int, a "
                                  f"Fraction or a CycScalar")


def scalar_key(x) -> tuple:
    """Hashable encoding that equal values share: (d, num, den) in Q(zeta_d).

    A rational p/q has (1, (p,), q).  An irrational value is stored at the
    conductor its operations give, so zeta(8)^2 keeps conductor 8 while the
    equal zeta(4) has 4.  The key uses the smallest divisor d of the
    conductor with the value in Q(zeta_d); that d is unique because
    Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b)), and it is above 2
    because Q(zeta_1) = Q(zeta_2) = Q holds no irrational value.
    """
    if not isinstance(x, CycScalar):
        return 1, (x.numerator,), x.denominator
    n = x.conductor
    for d in range(3, n):
        if n % d == 0:
            low = x.try_demote(d)
            if low is not None:
                return low.conductor, low.num, low.den
    return n, x.num, x.den


def root_of_unity(n: int, k: int):
    """zeta_n^k, stored at the minimal conductor n/gcd(n, k); the int 1 or
    -1 when that conductor is 1 or 2."""
    if n < 1:
        raise ValueError("order of the root must be positive")
    k %= n
    d = n // gcd(n, k)
    _check_conductor(d)
    return _make(d, _reduce([0] * (k // (n // d)) + [1], d), 1)


# ---------------------------------------------------------------------------
# Textual encoding: rationals and sums of c*zeta(N)^k terms, exact round-trip.
# ---------------------------------------------------------------------------

def scalar_to_str(x) -> str:
    if not isinstance(x, CycScalar):
        return str(x)
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


_RAT = r"\d+(?:/0*[1-9]\d*)?"  # a zero denominator is malformed
_TERM_RE = re.compile(
    rf"^(?:(?P<coef>{_RAT})\s*\*\s*)?"
    r"(?:zeta\((?P<n>\d+)\)(?:\^(?P<k>-?\d+))?)$"
)
_RAT_RE = re.compile(rf"^{_RAT}$")


def parse_scalar(text: str):
    """Inverse of scalar_to_str; also accepts bare 'zeta(N)^k' and rationals."""
    s = text.strip()
    if not s:
        raise ValueError("empty scalar literal")
    # Signed terms: split at every sign except an exponent's.
    if s[0] not in "+-":
        s = "+" + s
    parts = re.split(r"(?<!\^)([+-])", s)[1:]
    total = 0
    for sgn, term in zip(parts[::2], parts[1::2]):
        term = term.strip()
        if not term:
            raise ValueError(f"malformed scalar literal: {text!r}")
        if _RAT_RE.match(term):
            val = Fraction(term)
        else:
            m = _TERM_RE.match(term)
            if not m:
                raise ValueError(f"malformed scalar term: {term!r}")
            n = int(m.group("n"))
            k = int(m.group("k")) if m.group("k") is not None else 1
            val = root_of_unity(n, k)
            if m.group("coef") is not None:
                val = val * Fraction(m.group("coef"))
        total = total + (val if sgn == "+" else -val)
    return _int_if_whole(total)


# ---------------------------------------------------------------------------
# Exact linear algebra over Q(zeta_N).  Matrices are lists of row lists.
# ---------------------------------------------------------------------------

Matrix = list  # list[list[scalar]]


def rref(rows: Matrix) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form, as sparse rows, and the pivot columns.

    The input is dense rows of CycScalar cells, rationals wrapped by
    as_cyc, which perfbench/tracer.py counts (ROADMAP item 4).  Each reduced
    row is a dict from column to nonzero scalar, keys ascending, and
    elimination runs on such rows: a step updates only the rows holding the
    pivot column, over the pivot row's support.  Rows stay in the dense
    order of a Gauss-Jordan sweep, so every entry is computed by the same
    operations as the dense elimination would give it.  A rational entry is
    unwrapped and eliminated as an int (a Fraction if not an integer), an
    irrational one as a CycScalar, and the output holds them so.  That
    cannot change a result or its stored conductor: a rational value has
    one encoding, and arithmetic between a CycScalar at conductor n and an
    int promotes to lcm(1, n) = n.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    # Testing identity first skips a dense row's shared zero without a call.
    mat = [{c: _plain(x) for c, x in enumerate(r) if x is not _ZERO_CELL and x}
           for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if c in mat[i]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        p = mat[r][c]
        if p != 1:
            pinv = inv(p)
            mat[r] = {j: _int_if_whole(x * pinv) for j, x in mat[r].items()}
        prow = mat[r]
        for i, row in enumerate(mat):
            f = row.get(c)
            if f is None or i == r:
                continue
            for j, y in prow.items():
                x = row.get(j)
                x = -(f * y) if x is None else x - f * y
                if not x:
                    del row[j]
                else:
                    row[j] = _int_if_whole(x)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [{j: row[j] for j in sorted(row)} for row in mat[:r]], pivots


def _plain(x: CycScalar):
    """A cell of rref's input as an int or Fraction if it is an as_cyc
    rational, else the CycScalar itself."""
    if x.conductor != 1:
        return x
    return x.num[0] if x.den == 1 else Fraction(x.num[0], x.den)


def _int_if_whole(x):
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def nullspace(rows: Matrix, ncols: int) -> Matrix:
    """Basis of {x : M x = 0} for M given by equation rows of length ncols."""
    reduced, pivots = rref([[as_cyc(x) for x in r] for r in rows])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for row, p in zip(reduced, pivots):
            vec[p] = -row.get(free, 0)
        basis.append(vec)
    return basis


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    nb = len(b[0]) if b else 0
    out = []
    for row in a:
        new = [0] * nb
        for k, x in enumerate(row):
            if not x:
                continue
            brow = b[k]
            for j in range(nb):
                if brow[j]:
                    new[j] = new[j] + x * brow[j]
        out.append(new)
    return out


def identity_matrix(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def det(mat: Matrix):
    """Determinant by Gaussian elimination over the field."""
    n = len(mat)
    m = [list(r) for r in mat]
    result = 1
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result = result * m[c][c]
        pinv = inv(m[c][c])
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * pinv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result
