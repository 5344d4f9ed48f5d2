"""Exact scalar arithmetic: arbitrary-precision rationals and cyclotomic numbers.

An element of Q(zeta_N) is stored as its canonical representative in
Q[x]/Phi_N(x), written as phi(N) integer numerators over one positive common
denominator (the layout of FLINT/Antic `nf_elem`).  Numerators and
denominator share no factor and zero is (0, ..., 0)/1, so equality is a
comparison of integer tuples.  Phi_N is monic over Z, so products reduce with
integer rows only; an inverse is the product of the other Galois conjugates
divided by the norm, which is rational, so no step leaves the integers or
uses a modular or randomized method.

Mixed-conductor arithmetic lifts both operands to the lcm of the conductors,
and results stay at that conductor: arithmetic never descends to a smaller
field.  Printing does: `Cyclo.least` writes a value at its least conductor,
the field GAP keeps each cyclotomic in, so one value prints the same however
it was computed.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Optional, Union

from .errors import ScalarError, ZeroElementError

ScalarLike = Union[int, Fraction, "Cyclo"]


def lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def conductor(values) -> int:
    """lcm of the conductors the values are stored at."""
    n = 1
    for x in values:
        if n % x.n:
            n = lcm(n, x.n)
    return n


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, ascending."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return tuple(out + [n] if n > 1 else out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    for p in prime_factors(n):
        n -= n // p
    return n


def zpoly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of integer polynomials, ascending coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def zpoly_quotient(num: list[int], den: list[int]) -> Optional[list[int]]:
    """num / den over Z when den (leading coefficient +-1) divides num, else None."""
    rem = list(num)
    while rem and not rem[-1]:
        rem.pop()
    top = len(den) - 1
    if len(rem) <= top:
        return None
    q = [0] * (len(rem) - top)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + top] * den[-1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                rem[i + j] -= c * d
    return None if any(rem) else q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n over Z, ascending, monic of degree phi(n)."""
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1  # x^n - 1
    for d in divisors(n):
        if d < n:
            poly = zpoly_quotient(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


_REDUCTION_ROWS: dict[int, list[tuple[int, ...]]] = {}


def _reduction_table(n: int, upto: int) -> list[tuple[int, ...]]:
    """Rows j = 0.. with x^(deg+j) mod Phi_n as integer phi(n)-vectors, grown on demand."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = _REDUCTION_ROWS.setdefault(n, [])
    if not rows:
        # x^deg = -(phi_0 + ... + phi_{deg-1} x^{deg-1})
        rows.append(tuple(-phi[k] for k in range(deg)))
    while len(rows) <= upto:
        current = list(rows[-1])
        top = current[deg - 1]
        current = [0] + current[: deg - 1]
        if top:
            current = [current[k] - top * phi[k] for k in range(deg)]
        rows.append(tuple(current))
    return rows


@lru_cache(maxsize=None)
def _product_reduction(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Nonzero (k, v) of the rows x^(deg+j) mod Phi_n, j < deg - 1: enough to
    reduce the product of two reduced vectors."""
    deg = euler_phi(n)
    return tuple(tuple((k, v) for k, v in enumerate(row) if v)
                 for row in _reduction_table(n, deg - 2)[: deg - 1])


def _mul_mod(a: tuple[int, ...], b: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Product of two reduced integer vectors at conductor n > 1, reduced."""
    deg = len(a)
    conv = [0] * (2 * deg - 1)
    nonzero_b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero_b:
                conv[i + j] += x * y
    for j, row in enumerate(_product_reduction(n), deg):
        c = conv[j]
        if c:
            for k, v in row:
                conv[k] += c * v
    return tuple(conv[:deg])


@lru_cache(maxsize=None)
def _power_vector(n: int, e: int) -> tuple[int, ...]:
    """Canonical vector of zeta_n^e (integral: Phi_n is monic over Z)."""
    e %= n
    deg = euler_phi(n)
    if e < deg:
        return tuple(1 if k == e else 0 for k in range(deg))
    return _reduction_table(n, e - deg)[e - deg]


@lru_cache(maxsize=None)
def _root_of_unity_logs(n: int) -> dict[tuple[int, ...], int]:
    """Canonical vector of zeta_n^a -> a, for 0 <= a < n."""
    return {_power_vector(n, a): a for a in range(n)}


@lru_cache(maxsize=None)
def _lift_matrix(n: int, m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row k: nonzero (j, v) of the canonical vector (conductor m) of zeta_n^k,
    for k < phi(n).  Requires n | m."""
    step = m // n
    return tuple(tuple((j, v) for j, v in enumerate(_power_vector(m, k * step)) if v)
                 for k in range(euler_phi(n)))


def _descended(n: int, num: tuple[int, ...], p: int) -> Optional[tuple[int, ...]]:
    """The numerators at m = n / p of the integer vector num at conductor n,
    or None when its value does not lie in Q(zeta_m).  When p | m,
    Phi_n(x) = Phi_m(x^p), so Q(zeta_m) holds exactly the vectors that vanish
    off the multiples of p.  Otherwise 1, zeta_p, ..., zeta_p^(p-2) is a
    basis of Q(zeta_n) over Q(zeta_m), and zeta_n = zeta_m^a zeta_p^b with
    a p + b m = 1 (mod n): the value lies in Q(zeta_m) iff its coordinates
    on every zeta_p^i but 1 vanish (zeta_p^(p-1) is minus the sum of the
    others)."""
    m = n // p
    if m % p == 0:
        return None if any(x for j, x in enumerate(num) if j % p) else num[::p]
    a, b = pow(p, -1, m), pow(m, -1, p)
    parts = [[0] * euler_phi(m) for _ in range(p - 1)]
    for j, x in enumerate(num):
        if x:
            i = b * j % p
            if i == p - 1:
                x, targets = -x, parts
            else:
                targets = (parts[i],)
            for k, v in enumerate(_power_vector(m, a * j)):
                if v:
                    for part in targets:
                        part[k] += x * v
    return None if any(any(part) for part in parts[1:]) else tuple(parts[0])


@lru_cache(maxsize=None)
def _galois_maps(n: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """For each k in (Z/n)^*, k != 1: row j holds the nonzero (t, v) of the
    canonical vector of zeta_n^(jk), the image of zeta_n^j under sigma_k."""
    return tuple(tuple(tuple((t, v) for t, v in enumerate(_power_vector(n, j * k)) if v)
                       for j in range(euler_phi(n)))
                 for k in range(2, n) if gcd(k, n) == 1)


def _apply_rows(a: tuple[int, ...], rows, size: int) -> tuple[int, ...]:
    """sum_k a[k] * rows[k], for sparse rows of (index, value) pairs."""
    out = [0] * size
    for x, row in zip(a, rows):
        if x:
            for t, v in row:
                out[t] += x * v
    return tuple(out)


def conjugate_product(num: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The product of the conjugates sigma_k(a), k in (Z/n)^* other than 1, of
    the integer vector a at conductor n > 1: a times it is a rational integer,
    the norm of a.  The product starts from 1 at conductor n, so it stays there."""
    rest = _power_vector(n, 0)
    for rows in _galois_maps(n):
        rest = _mul_mod(rest, _apply_rows(num, rows, len(num)), n)
    return rest


def scaled_term(cs: str, mono: str) -> str:
    """The term c*mono from c printed as cs: 1 and -1 print as a sign, and a
    coefficient printed as a sum is parenthesised."""
    if cs == "1":
        return mono
    if cs == "-1":
        return "-" + mono
    if "+" in cs or "-" in cs[1:]:
        return f"({cs})*{mono}"
    return f"{cs}*{mono}"


def signed_sum(terms: list[str]) -> str:
    """Printed terms joined as a sum; a term printed with a leading '-' is subtracted."""
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


class Cyclo:
    """Immutable element of Q(zeta_N), reduced mod Phi_N: integer numerators
    `num` over the positive denominator `den`, in lowest terms."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs):
        if n < 1:
            raise ScalarError("conductor must be >= 1")
        coeffs = [Fraction(x) for x in coeffs]
        if len(coeffs) != euler_phi(n):
            raise ScalarError(f"expected {euler_phi(n)} coefficients for conductor {n}")
        den = 1
        for x in coeffs:
            den = lcm(den, x.denominator)
        # the lcm of reduced denominators leaves no common factor
        _set_n(self, n)
        _set_num(self, tuple(x.numerator * (den // x.denominator) for x in coeffs))
        _set_den(self, den)

    def __setattr__(self, *a):
        raise AttributeError("Cyclo is immutable")

    @property
    def c(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions (for printing)."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(value: ScalarLike) -> "Cyclo":
        if type(value) is Cyclo:
            return value
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return _new(1, (value.numerator,), value.denominator)

    @staticmethod
    def zero() -> "Cyclo":
        return _C_ZERO

    @staticmethod
    def one() -> "Cyclo":
        return _C_ONE

    # -- structure ----------------------------------------------------

    def lift_to(self, m: int) -> "Cyclo":
        n = self.n
        if m == n:
            return self
        if m % n:
            raise ScalarError(f"cannot lift conductor {n} into {m}")
        if n == 1:
            return _new(m, self.num + (0,) * (euler_phi(m) - 1), self.den)
        return _new(m, _apply_rows(self.num, _lift_matrix(n, m), euler_phi(m)), self.den)

    def least(self) -> "Cyclo":
        """This value stored at its least conductor, which it prints at.  The
        conductors whose field holds it are closed under gcd, so descending
        one prime at a time, while some prime descends, ends at the least.
        Rationals and prime conductors take no search."""
        n, num = self.n, self.num
        if not any(num[1:]):
            return self if n == 1 else _new(1, num[:1], self.den)
        while True:
            for p in prime_factors(n):
                found = _descended(n, num, p) if p < n else None
                if found is not None:
                    n, num = n // p, found
                    break
            else:
                return self if n == self.n else _new(n, num, self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic ---------------------------------------------------

    def _aligned(self, other: "Cyclo") -> tuple["Cyclo", "Cyclo"]:
        """Both values lifted to the lcm of their (different) conductors."""
        m = lcm(self.n, other.n)
        return self.lift_to(m), other.lift_to(m)

    def __add__(self, other):
        return _add(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.n, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        return _add(self, other, -1)

    def __rsub__(self, other):
        return Cyclo.of(other) - self

    def __mul__(self, other):
        if type(other) is not Cyclo:
            if isinstance(other, (int, Fraction)):
                p, q = other.numerator, other.denominator
                return _new(self.n, tuple(x * p for x in self.num), self.den * q)
            return NotImplemented
        n, m = self.n, other.n
        # a rational factor stored at conductor 1 scales within the other's field
        if m == 1:
            p = other.num[0]
            return _new(n, tuple(x * p for x in self.num), self.den * other.den)
        if n == 1:
            p = self.num[0]
            return _new(m, tuple(p * y for y in other.num), self.den * other.den)
        if n != m:
            self, other = self._aligned(other)
            n = self.n
        return _new(n, _mul_mod(self.num, other.num, n), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """rest / N(a), where rest is the product of the conjugates sigma_k(a),
        k in (Z/N)^* other than 1, and the norm N(a) = a * rest is rational."""
        n, num = self.n, self.num
        if not any(num[1:]):  # rational, conductor 1 included
            p = num[0]
            if not p:
                raise ZeroElementError("cannot invert zero")
            return _new(n, (self.den if p > 0 else -self.den,) + num[1:], abs(p))
        rest = conjugate_product(num, n)
        norm = _mul_mod(num, rest, n)[0]
        d = self.den if norm > 0 else -self.den
        return _new(n, tuple(x * d for x in rest), abs(norm))

    def __truediv__(self, other):
        if type(other) is Cyclo:
            if other.n != 1:
                return self * other.inverse()
            p, q = other.num[0], other.den
            if not p:
                raise ZeroElementError("cannot invert zero")
        elif isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if not p:
                raise ZeroElementError("division by zero")
        else:
            return NotImplemented
        if p < 0:
            p, q = -p, -q
        return _new(self.n, tuple(x * q for x in self.num), self.den * p)

    def __rtruediv__(self, other):
        return Cyclo.of(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclo.of(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if type(other) is not Cyclo:
            if isinstance(other, (int, Fraction)):
                other = Cyclo.of(other)
            else:
                return NotImplemented
        if self.n != other.n:
            self, other = self._aligned(other)
        return self.num == other.num and self.den == other.den

    __hash__ = None  # equal values may live at different conductors

    def __bool__(self):
        return any(self.num)

    # -- multiplicative order ------------------------------------------

    def root_of_unity_log(self) -> Optional[tuple[int, int]]:
        """(a, M) with self = zeta_M^a, 0 <= a < M = lcm(2, N), or None.
        Exact: every root of unity in Q(zeta_N) is a power of zeta_M, and
        is an algebraic integer, so has integral coordinates."""
        if self.is_zero():
            raise ZeroElementError("zero is not a root of unity")
        if self.den != 1:
            return None
        m = lcm(2, self.n)
        a = _root_of_unity_logs(m).get(self.lift_to(m).num)
        return None if a is None else (a, m)

    def root_of_unity_order(self) -> Optional[int]:
        """Least m with self^m = 1, or None."""
        log = self.root_of_unity_log()
        if log is None:
            return None
        a, m = log
        return m // gcd(a, m)

    # -- printing -------------------------------------------------------

    def __str__(self):
        if self.is_rational():
            return str(Fraction(self.num[0], self.den))
        least = self.least()
        parts = [str(ck) if k == 0 else
                 scaled_term(str(ck), f"zeta({least.n})" + (f"^{k}" if k > 1 else ""))
                 for k, ck in enumerate(least.c) if ck]
        return signed_sum(parts)

    def __repr__(self):
        return f"Cyclo({self})"


_set_n = Cyclo.n.__set__
_set_num = Cyclo.num.__set__
_set_den = Cyclo.den.__set__
_alloc = object.__new__


def _new(n: int, num: tuple[int, ...], den: int) -> Cyclo:
    """The Cyclo num/den at conductor n (den > 0), in lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(x // g for x in num)
            den //= g
    obj = _alloc(Cyclo)
    _set_n(obj, n)
    _set_num(obj, num)
    _set_den(obj, den)
    return obj


def _add(a: Cyclo, b, sign: int):
    """a + b for sign 1, a - b for sign -1."""
    if type(b) is not Cyclo:
        if isinstance(b, (int, Fraction)):
            b = Cyclo.of(b)
        else:
            return NotImplemented
    if a.n != b.n:
        a, b = a._aligned(b)
    da, db = a.den, b.den
    if a.n == 1:
        x, y = a.num[0], b.num[0] * sign
        if da == db:
            return _new(1, (x + y,), da)
        return _new(1, (x * db + y * da,), da * db)
    if da == db:
        return _new(a.n, tuple(x + sign * y for x, y in zip(a.num, b.num)), da)
    g = gcd(da, db)
    fa, fb = db // g, sign * da // g
    return _new(a.n, tuple(x * fa + y * fb for x, y in zip(a.num, b.num)), da * fa)


_C_ZERO = _new(1, (0,), 1)
_C_ONE = _new(1, (1,), 1)


def zeta(n: int, power: int = 1) -> Cyclo:
    """Canonical representative of zeta_n^power in Q[x]/Phi_n."""
    if n < 1:
        raise ScalarError("conductor must be >= 1")
    return _new(n, _power_vector(n, power), 1)


def rational(p, q: int = 1) -> Cyclo:
    return Cyclo.of(Fraction(p, q))
