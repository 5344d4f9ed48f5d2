"""Exact scalar arithmetic: arbitrary-precision rationals and cyclotomic numbers.

An element of Q(zeta_N) is stored as its canonical representative in
Q[x]/Phi_N(x): a coefficient vector of length phi(N) over `fractions.Fraction`.
Canonical forms make equality a coefficient comparison.  Mixed-conductor
arithmetic lifts both operands to the lcm of the conductors, and results stay
at that conductor: they are never descended to a smaller field, so the
conductor a value is stored at (which its printed form shows) records the
arithmetic that produced it.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Optional, Union

from .errors import ScalarError, ZeroElementError

ScalarLike = Union[int, Fraction, "Cyclo"]

ZERO = Fraction(0)
ONE = Fraction(1)


def lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def conductor(values) -> int:
    """lcm of the conductors the values are stored at."""
    n = 1
    for x in values:
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
def euler_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


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


_REDUCTION_ROWS: dict[int, list[tuple[Fraction, ...]]] = {}


def _reduction_table(n: int, upto: int) -> list[tuple[Fraction, ...]]:
    """Rows j = 0.. with x^(deg+j) mod Phi_n as phi(n)-vectors, grown on demand."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = _REDUCTION_ROWS.setdefault(n, [])
    if not rows:
        # x^deg = -(phi_0 + ... + phi_{deg-1} x^{deg-1})
        rows.append(tuple(Fraction(-phi[k]) for k in range(deg)))
    while len(rows) <= upto:
        current = list(rows[-1])
        top = current[deg - 1]
        current = [ZERO] + current[: deg - 1]
        if top:
            current = [current[k] - top * phi[k] for k in range(deg)]
        rows.append(tuple(current))
    return rows


def _reduce_mod_cyclotomic(coeffs: list[Fraction], n: int) -> tuple[Fraction, ...]:
    deg = euler_phi(n)
    if len(coeffs) <= deg:
        return tuple(coeffs) + (ZERO,) * (deg - len(coeffs))
    table = _reduction_table(n, len(coeffs) - deg - 1)
    out = list(coeffs[:deg])
    for j in range(deg, len(coeffs)):
        c = coeffs[j]
        if c:
            row = table[j - deg]
            for k in range(deg):
                if row[k]:
                    out[k] += c * row[k]
    return tuple(out)


@lru_cache(maxsize=None)
def _power_vector(n: int, e: int) -> tuple[Fraction, ...]:
    """Canonical vector of zeta_n^e."""
    e %= n
    deg = euler_phi(n)
    if e < deg:
        return tuple(ONE if k == e else ZERO for k in range(deg))
    return _reduce_mod_cyclotomic([ZERO] * e + [ONE], n)


@lru_cache(maxsize=None)
def _root_of_unity_logs(n: int) -> dict[tuple[Fraction, ...], int]:
    """Canonical vector of zeta_n^a -> a, for 0 <= a < n."""
    return {_power_vector(n, a): a for a in range(n)}


@lru_cache(maxsize=None)
def _lift_matrix(n: int, m: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rows: canonical vectors (conductor m) of zeta_n^k for k < phi(n). Requires n | m."""
    step = m // n
    return tuple(_power_vector(m, k * step) for k in range(euler_phi(n)))


class Cyclo:
    """Immutable element of Q(zeta_N), reduced mod Phi_N."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, coeffs):
        if n < 1:
            raise ScalarError("conductor must be >= 1")
        coeffs = tuple(Fraction(x) for x in coeffs)
        if len(coeffs) != euler_phi(n):
            raise ScalarError(f"expected {euler_phi(n)} coefficients for conductor {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Cyclo is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(value: ScalarLike) -> "Cyclo":
        if isinstance(value, Cyclo):
            return value
        return Cyclo(1, (Fraction(value),))

    @staticmethod
    def zero() -> "Cyclo":
        return _C_ZERO

    @staticmethod
    def one() -> "Cyclo":
        return _C_ONE

    # -- structure ----------------------------------------------------

    def lift_to(self, m: int) -> "Cyclo":
        if m == self.n:
            return self
        if m % self.n:
            raise ScalarError(f"cannot lift conductor {self.n} into {m}")
        deg_m = euler_phi(m)
        out = [ZERO] * deg_m
        rows = _lift_matrix(self.n, m)
        for k, ck in enumerate(self.c):
            if ck:
                row = rows[k]
                for j in range(deg_m):
                    if row[j]:
                        out[j] += ck * row[j]
        return Cyclo(m, out)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.c)

    def is_one(self) -> bool:
        return self.c[0] == 1 and all(x == 0 for x in self.c[1:])

    def is_rational(self) -> bool:
        return all(x == 0 for x in self.c[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"{self} is not rational")
        return self.c[0]

    # -- arithmetic ---------------------------------------------------

    def _aligned(self, other: "Cyclo") -> tuple["Cyclo", "Cyclo"]:
        if self.n == other.n:
            return self, other
        m = lcm(self.n, other.n)
        return self.lift_to(m), other.lift_to(m)

    def __add__(self, other):
        if not isinstance(other, Cyclo):
            if isinstance(other, (int, Fraction)):
                other = Cyclo.of(other)
            else:
                return NotImplemented
        a, b = self._aligned(other)
        return Cyclo(a.n, tuple(x + y for x, y in zip(a.c, b.c)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.n, tuple(-x for x in self.c))

    def __sub__(self, other):
        if not isinstance(other, Cyclo):
            if isinstance(other, (int, Fraction)):
                other = Cyclo.of(other)
            else:
                return NotImplemented
        a, b = self._aligned(other)
        return Cyclo(a.n, tuple(x - y for x, y in zip(a.c, b.c)))

    def __rsub__(self, other):
        return Cyclo.of(other) - self

    def __mul__(self, other):
        if not isinstance(other, Cyclo):
            if isinstance(other, (int, Fraction)):
                f = Fraction(other)
                return Cyclo(self.n, tuple(x * f for x in self.c))
            return NotImplemented
        a, b = self._aligned(other)
        if a.n == 1:
            return Cyclo(1, (a.c[0] * b.c[0],))
        la, lb = len(a.c), len(b.c)
        conv = [ZERO] * (la + lb - 1)
        for i, x in enumerate(a.c):
            if x:
                for j, y in enumerate(b.c):
                    if y:
                        conv[i + j] += x * y
        return Cyclo(a.n, _reduce_mod_cyclotomic(conv, a.n))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise ZeroElementError("cannot invert zero")
        if self.n == 1:
            return Cyclo(1, (1 / self.c[0],))
        phi = [Fraction(k) for k in cyclotomic_polynomial(self.n)]
        inv = _poly_modular_inverse(list(self.c), phi)
        return Cyclo(self.n, _reduce_mod_cyclotomic(inv, self.n))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if f == 0:
                raise ZeroElementError("division by zero")
            return Cyclo(self.n, tuple(x / f for x in self.c))
        if isinstance(other, Cyclo):
            return self * other.inverse()
        return NotImplemented

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
        if isinstance(other, (int, Fraction)):
            other = Cyclo.of(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = self._aligned(other)
        return a.c == b.c

    __hash__ = None  # equal values may live at different conductors

    def __bool__(self):
        return not self.is_zero()

    # -- multiplicative order ------------------------------------------

    def root_of_unity_log(self) -> Optional[tuple[int, int]]:
        """(a, M) with self = zeta_M^a, 0 <= a < M = lcm(2, N), or None.
        Exact: every root of unity in Q(zeta_N) is a power of zeta_M."""
        if self.is_zero():
            raise ZeroElementError("zero is not a root of unity")
        m = lcm(2, self.n)
        a = _root_of_unity_logs(m).get(self.lift_to(m).c)
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
            return str(self.c[0])
        parts = []
        for k, ck in enumerate(self.c):
            if ck == 0:
                continue
            if k == 0:
                parts.append(str(ck))
                continue
            z = f"zeta({self.n})" + (f"^{k}" if k > 1 else "")
            if ck == 1:
                term = z
            elif ck == -1:
                term = f"-{z}"
            else:
                term = f"{ck}*{z}"
            parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"Cyclo({self})"


_C_ZERO = Cyclo(1, (ZERO,))
_C_ONE = Cyclo(1, (ONE,))


def zeta(n: int, power: int = 1) -> Cyclo:
    """Canonical representative of zeta_n^power in Q[x]/Phi_n."""
    if n < 1:
        raise ScalarError("conductor must be >= 1")
    return Cyclo(n, _power_vector(n, power))


def rational(p, q: int = 1) -> Cyclo:
    return Cyclo.of(Fraction(p, q))


# -- Fraction-coefficient univariate helpers (internal) -----------------


def _fpoly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _fpoly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        q[i] = c
        if c:
            for j, d in enumerate(b):
                a[i + j] -= c * d
    return q, _fpoly_trim(a)


def _poly_modular_inverse(a: list[Fraction], mod: list[Fraction]) -> list[Fraction]:
    """Inverse of a mod the monic polynomial `mod`, over Q (extended Euclid)."""
    r0, r1 = list(mod), _fpoly_trim(list(a))
    s0, s1 = [ZERO], [ONE]
    while r1:
        q, r = _fpoly_divmod(r0, r1)
        r0, r1 = r1, r
        # s0 - q*s1
        prod = [ZERO] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    if sc:
                        prod[i + j] += qc * sc
        new_s = [ZERO] * max(len(s0), len(prod))
        for i, c in enumerate(s0):
            new_s[i] += c
        for i, c in enumerate(prod):
            new_s[i] -= c
        s0, s1 = s1, _fpoly_trim(new_s)
    if len(r0) != 1:
        raise ZeroElementError("element is a zero divisor (not invertible)")
    inv_gcd = 1 / r0[0]
    return [c * inv_gcd for c in s0]
