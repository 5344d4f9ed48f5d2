"""Rational generating series num(t)/den(t) over Q(zeta_N).

Normal form: gcd(num, den) = 1 and den(0) = 1, so Taylor coefficients at
t = 0 are always defined.  The normal form is unique, and the constructor
and every `RationalSeries.reduced` caller produce it, so two series are
equal exactly when their numerators and denominators are.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import ScalarError
from .scalars import Cyclo, zpoly_mul
from .upoly import UPoly, gcd_upoly

_ONE = Cyclo.of(1)


class RationalSeries:
    __slots__ = ("num", "den")

    def __init__(self, num: UPoly, den: UPoly):
        if den.is_zero():
            raise ScalarError("series denominator is zero")
        g = gcd_upoly(num, den)
        if g.degree() > 0:
            num = num // g
            den = den // g
        c0 = den[0]
        if c0.is_zero():
            raise ScalarError("series denominator vanishes at t = 0")
        inv = c0.inverse()
        object.__setattr__(self, "num", num * inv)
        object.__setattr__(self, "den", den * inv)

    def __setattr__(self, *a):
        raise AttributeError("RationalSeries is immutable")

    @staticmethod
    def reduced(num: UPoly, den: UPoly) -> "RationalSeries":
        """num/den already in normal form (coprime, den(0) = 1), taken as is."""
        s = object.__new__(RationalSeries)
        object.__setattr__(s, "num", num)
        object.__setattr__(s, "den", den)
        return s

    @staticmethod
    def one_over(factors: Iterable[Cyclo]) -> "RationalSeries":
        """1 / prod (1 - xi*t) for xi in factors: 1 over a den with den(0) = 1
        is already in normal form."""
        den = UPoly.one()
        for xi in factors:
            den = den * UPoly.one_minus(xi)
        return RationalSeries.reduced(UPoly.one(), den)

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        return RationalSeries(self.num * other.den + other.num * self.den,
                              self.den * other.den)

    def __sub__(self, other: "RationalSeries") -> "RationalSeries":
        return RationalSeries(self.num * other.den - other.num * self.den,
                              self.den * other.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            return RationalSeries(self.num * Cyclo.of(other), self.den)
        return RationalSeries(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            return RationalSeries(self.num, self.den * Cyclo.of(other))
        return RationalSeries(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def taylor(self, order: int) -> list[Cyclo]:
        """First order+1 Taylor coefficients at t = 0, exact."""
        out: list[Cyclo] = []
        for k in range(order + 1):
            # c_k = num_k - sum_{j=1..k} den_j * c_{k-j}     (den_0 = 1)
            acc = self.num[k]
            for j in range(1, k + 1):
                dj = self.den[j]
                if not dj.is_zero():
                    acc = acc - dj * out[k - j]
            out.append(acc)
        return out

    def __str__(self):
        ns, ds = str(self.num), str(self.den)
        if ds == "1":
            return ns
        if len(self.num.coeffs) > 1:
            ns = f"({ns})"
        if len(self.den.coeffs) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RationalSeries({self})"


def hilbert_free(n: int) -> RationalSeries:
    """1/(1-t)^n, the Hilbert series of a polynomial ring on n degree-1 generators."""
    return RationalSeries.one_over([_ONE] * n)


def hilbert_weighted(degrees: Iterable[int]) -> RationalSeries:
    """prod 1/(1-t^d) over generator degrees d, the denominator multiplied
    out on ints."""
    den = [1]
    for d in degrees:
        den = zpoly_mul(den, [1] + [0] * (d - 1) + [-1])
    return RationalSeries.reduced(UPoly.one(), UPoly(den))
