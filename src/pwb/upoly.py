"""Univariate polynomials over Q(zeta_N): arithmetic, gcd, root extraction.

Root extraction is deliberately limited to what is exactly decidable here:
rational roots (when all coefficients are rational) and roots of unity found
by trial evaluation at zeta_d^j, for every d with [Q(zeta_N, zeta_d) : Q(zeta_N)]
at most the degree; a remainder of degree one splits at its root.  Anything
else is reported as an unsplit remainder.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable

from .errors import DivisorZeroError
from .scalars import (Cyclo, conductor, divisors, euler_phi, lcm, scaled_term, signed_sum,
                      zeta)

_ZERO = Cyclo.of(0)
_ONE = Cyclo.of(1)


class UPoly:
    """Dense univariate polynomial over Cyclo, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, Cyclo) else Cyclo.of(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def zero() -> "UPoly":
        return UPoly(())

    @staticmethod
    def one() -> "UPoly":
        return UPoly((_ONE,))

    @staticmethod
    def x() -> "UPoly":
        return UPoly((_ZERO, _ONE))

    @staticmethod
    def linear_root(r: Cyclo) -> "UPoly":
        """t - r."""
        return UPoly((-r, _ONE))

    @staticmethod
    def one_minus(r) -> "UPoly":
        """1 - r*t."""
        return UPoly((_ONE, -Cyclo.of(r)))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial: -1

    def __getitem__(self, k: int) -> Cyclo:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _ZERO

    def leading(self) -> Cyclo:
        if not self.coeffs:
            raise DivisorZeroError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "UPoly") -> "UPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly([self[k] + other[k] for k in range(n)])

    def __sub__(self, other: "UPoly") -> "UPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly([self[k] - other[k] for k in range(n)])

    def __neg__(self) -> "UPoly":
        return UPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            c = Cyclo.of(other)
            return UPoly([a * c for a in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UPoly(())
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UPoly":
        result, base = UPoly.one(), self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def divmod(self, other: "UPoly") -> tuple["UPoly", "UPoly"]:
        if other.is_zero():
            raise DivisorZeroError("division by zero polynomial")
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree()
        if dn < dd:
            return UPoly(()), self
        inv_lead = other.leading().inverse()
        q = [_ZERO] * (dn - dd + 1)
        for i in range(dn - dd, -1, -1):
            c = rem[i + dd] * inv_lead
            q[i] = c
            if not c.is_zero():
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - c * b
        return UPoly(q), UPoly(rem[:dd])

    def __floordiv__(self, other: "UPoly") -> "UPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UPoly") -> "UPoly":
        return self.divmod(other)[1]

    def monic(self) -> "UPoly":
        if self.is_zero():
            return self
        inv = self.leading().inverse()
        return UPoly([c * inv for c in self.coeffs])

    def derivative(self) -> "UPoly":
        return UPoly([self.coeffs[k] * k for k in range(1, len(self.coeffs))])

    def evaluate(self, value: Cyclo) -> Cyclo:
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def is_squarefree(self) -> bool:
        return gcd_upoly(self, self.derivative()).degree() == 0

    def conductor(self) -> int:
        return conductor(self.coeffs)

    def all_rational(self) -> bool:
        return all(c.is_rational() for c in self.coeffs)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = [str(c) if k == 0 else scaled_term(str(c), "t" if k == 1 else f"t^{k}")
                 for k, c in reversed(list(enumerate(self.coeffs))) if not c.is_zero()]
        return signed_sum(parts)

    def __repr__(self):
        return f"UPoly({self})"


def gcd_upoly(a: UPoly, b: UPoly) -> UPoly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def _root_of_unity_candidates(max_phi: int, base_conductor: int) -> list[Cyclo]:
    """All zeta_d^j whose degree over Q(zeta_N) can be at most max_phi."""
    out = []
    cap = euler_phi(base_conductor) * max_phi
    d = 1
    # phi(d) >= sqrt(d/2), so phi(lcm(N,d)) <= cap bounds d
    while d <= 2 * cap * cap + 4:
        if euler_phi(lcm(base_conductor, d)) <= cap:
            for j in range(d):
                if gcd(j, d) == 1 or (j == 0 and d == 1):
                    out.append(zeta(d, j))
        d += 1
    return out


def extract_roots(p: UPoly) -> tuple[list[Cyclo], UPoly]:
    """Find roots of p that are rational or roots of unity, with multiplicity,
    and the root of a degree-one remainder.

    Returns (roots, remainder); remainder has no such roots left and
    degree(remainder) == 0 means p split completely.  A root zeta_d of p
    over Q(zeta_N) has [Q(zeta_N, zeta_d) : Q(zeta_N)] <= deg p, so it is
    among the candidates of the first pass, which divides out each
    candidate's multiplicity.  Later passes find the rational roots of a
    quotient that only became rational then, as of (t - zeta_3)(t - 2)(t - 3).
    """
    roots: list[Cyclo] = []
    if p.is_zero():
        return roots, p
    # factor out t^k
    k = 0
    while k < len(p.coeffs) and p.coeffs[k].is_zero():
        k += 1
    if k:
        roots.extend([_ZERO] * k)
        p = UPoly(p.coeffs[k:])
    changed = True
    while changed and p.degree() >= 1:
        changed = False
        candidates: list[Cyclo] = []
        if p.all_rational():
            candidates.extend(_rational_root_candidates(p))
        candidates.extend(_root_of_unity_candidates(p.degree(), p.conductor()))
        for r in candidates:
            while p.degree() >= 1 and p.evaluate(r).is_zero():
                p = p // UPoly.linear_root(r)
                roots.append(r)
                changed = True
    if p.degree() == 1:  # c1*t + c0 splits at -c0/c1 whatever its root
        roots.append(-p[0] / p[1])
        p = UPoly(p.coeffs[1:])
    return roots, p


def _rational_root_candidates(p: UPoly) -> list[Cyclo]:
    # clear denominators, then p | a0 and q | an
    denom = 1
    for c in p.coeffs:
        denom = lcm(denom, c.den)
    ints = [c.num[0] * (denom // c.den) for c in p.coeffs]
    a0, an = ints[0], ints[-1]
    if a0 == 0:
        return []
    out = []
    for pp in divisors(abs(a0)):
        for qq in divisors(abs(an)):
            out.append(Cyclo.of(Fraction(pp, qq)))
            out.append(Cyclo.of(Fraction(-pp, qq)))
    return out
