"""Sparse multivariate polynomials over Q(zeta_N), with a text parser.

Monomials are exponent tuples; the global monomial order is graded
lexicographic in the ring's variable order and is used everywhere
(printing, division, Groebner bases).  Exponents are machine ints with an
overflow guard at 2^31.
"""
from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Callable, Optional, Sequence

from .errors import DivisorZeroError, ParseError, PwbError, UnknownVariableError
from .linalg import Matrix
from .scalars import Cyclo, scaled_term, signed_sum, zeta

_ZERO = Cyclo.of(0)
_ONE = Cyclo.of(1)

MAX_EXPONENT = 2 ** 31
# zeta(N) in parsed text: a value is phi(N) integers and a product costs
# phi(N)^2, so a larger N in a one-line input would stall the parse
MAX_CONDUCTOR = 1000


def grlex_key(e: tuple[int, ...]):
    return (sum(e), e)


class PolyRing:
    """A polynomial ring: an ordered tuple of distinct variable names."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise PwbError(f"duplicate variable names in {names}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(names)})

    def __setattr__(self, *a):
        raise AttributeError("PolyRing is immutable")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariableError(f"unknown variable '{name}'", 0) from None

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.scalar(1)

    def scalar(self, c) -> "Poly":
        c = Cyclo.of(c)
        if c.is_zero():
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, i: int) -> "Poly":
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): _ONE})

    def gens(self) -> list["Poly"]:
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, exponents: Sequence[int], coeff=1) -> "Poly":
        c = Cyclo.of(coeff)
        if c.is_zero():
            return self.zero()
        e = tuple(int(x) for x in exponents)
        if len(e) != self.nvars or any(x < 0 for x in e):
            raise PwbError(f"bad exponent vector {e}")
        if any(x >= MAX_EXPONENT for x in e):
            raise PwbError("exponent exceeds 2^31")
        return Poly(self, {e: c})

    def linear_form(self, coeffs: Sequence) -> "Poly":
        terms = {}
        for i, c in enumerate(coeffs):
            c = Cyclo.of(c)
            if not c.is_zero():
                e = [0] * self.nvars
                e[i] = 1
                terms[tuple(e)] = c
        return Poly(self, terms)

    def parse(self, src: str) -> "Poly":
        return _Parser(src, self).parse()

    def monomials_of_degree(self, degree: int, weights: Optional[Sequence[int]] = None
                            ) -> list[tuple[int, ...]]:
        """Exponent tuples of (weighted) total degree exactly `degree`, grlex-descending."""
        w = list(weights) if weights is not None else [1] * self.nvars
        out: list[tuple[int, ...]] = []

        def rec(i: int, remaining: int, prefix: list[int]):
            if i == self.nvars - 1:
                if remaining % w[i] == 0:
                    out.append(tuple(prefix + [remaining // w[i]]))
                return
            for e in range(remaining // w[i], -1, -1):
                rec(i + 1, remaining - e * w[i], prefix + [e])

        if self.nvars == 0:
            return [()] if degree == 0 else []
        rec(0, degree, [])
        out.sort(key=grlex_key, reverse=True)
        return out

    def __repr__(self):
        return f"PolyRing({', '.join(self.names)})"


class Poly:
    """Immutable sparse polynomial; `terms` maps exponent tuples to nonzero Cyclo."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def as_scalar(self) -> Cyclo:
        if self.is_zero():
            return _ZERO
        if not self.is_scalar():
            raise PwbError(f"{self} is not a scalar")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def weighted_degree(self, weights: Sequence[int]) -> int:
        return max((sum(x * w for x, w in zip(e, weights)) for e in self.terms), default=-1)

    def homogeneous_degree(self, weights: Optional[Sequence[int]] = None) -> Optional[int]:
        """Common (weighted) degree of all terms, or None if inhomogeneous/zero."""
        if self.is_zero():
            return None
        w = list(weights) if weights is not None else [1] * self.ring.nvars
        degs = {sum(x * wi for x, wi in zip(e, w)) for e in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def coefficient(self, exponents: Sequence[int]) -> Cyclo:
        return self.terms.get(tuple(exponents), _ZERO)

    def linear_coefficients(self) -> list[Cyclo]:
        """The coefficients of x_1..x_n of a polynomial of degree at most one,
        the inverse of `PolyRing.linear_form`; the constant term is left out."""
        out = [_ZERO] * self.ring.nvars
        for e, c in self.terms.items():
            if any(e):
                if sum(e) > 1:
                    raise PwbError(f"{self} has degree above one")
                out[e.index(1)] = c
        return out

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.terms, key=grlex_key, reverse=True)

    def leading(self, key: Callable = grlex_key) -> tuple[tuple[int, ...], Cyclo]:
        if self.is_zero():
            raise DivisorZeroError("zero polynomial has no leading term")
        e = max(self.terms, key=key)
        return e, self.terms[e]

    # -- arithmetic ----------------------------------------------------

    def _require_same_ring(self, other: "Poly"):
        if self.ring != other.ring:
            raise PwbError("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = self.ring.scalar(other)
        self._require_same_ring(other)
        out = dict(self.terms)
        _add_terms(out, other.terms.items())
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = self.ring.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            c = Cyclo.of(other)
            if c.is_zero():
                return self.ring.zero()
            return Poly(self.ring, {e: v * c for e, v in self.terms.items()})
        self._require_same_ring(other)
        return Poly(self.ring, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise PwbError("negative power of a polynomial")
        return self.ring.one() if k == 0 else Poly(self.ring, _power_terms(self.terms, k))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            c = Cyclo.of(other)
            return self * c.inverse()
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = self.ring.scalar(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.ring != other.ring or len(self.terms) != len(other.terms):
            return False
        for e, c in self.terms.items():
            oc = other.terms.get(e)
            if oc is None or oc != c:
                return False
        return True

    __hash__ = None

    def __bool__(self):
        return not self.is_zero()

    # -- calculus and substitution --------------------------------------

    def partial(self, i: int) -> "Poly":
        return Poly(self.ring, _partial_terms(self.terms, i))

    def substitute(self, images: Sequence["Poly"], target: Optional[PolyRing] = None) -> "Poly":
        """Evaluate at x_i -> images[i]; images live in `target` (default: own ring)."""
        tgt = target or self.ring
        if any(images[i].ring != tgt for i in {i for e in self.terms for i, k in enumerate(e) if k}):
            raise PwbError("polynomials from different rings")
        return Poly(tgt, _substitution([p.terms for p in images], tgt.nvars)(self.terms))

    def apply_linear(self, g: Matrix) -> "Poly":
        """Substitute x_i -> sum_j g[j][i] x_j (column convention) and expand."""
        n = self.ring.nvars
        if g.nrows != n or g.ncols != n:
            raise PwbError("matrix size does not match ring")
        return Poly(self.ring, linear_substitution(column_supports(g.rows))(self.terms))

    def monomial_content(self) -> tuple[tuple[int, ...], "Poly"]:
        """Largest monomial dividing every term, and the cofactor."""
        if self.is_zero():
            raise DivisorZeroError("zero polynomial has no content")
        content = None
        for e in self.terms:
            content = e if content is None else tuple(min(a, b) for a, b in zip(content, e))
        cofactor = Poly(self.ring, {
            tuple(a - b for a, b in zip(e, content)): c for e, c in self.terms.items()})
        return content, cofactor

    # -- printing --------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e in self.support():
            mono = "*".join(
                f"{self.ring.names[i]}^{k}" if k > 1 else self.ring.names[i]
                for i, k in enumerate(e) if k)
            cs = str(self.terms[e])
            if mono:
                parts.append(scaled_term(cs, mono))
            else:
                parts.append(f"({cs})" if "+" in cs or "-" in cs[1:] else cs)
        return signed_sum(parts)

    def __repr__(self):
        return f"Poly({self})"


def _add_terms(out: dict, terms) -> None:
    """Add the (exponent, coefficient) pairs `terms` into the term dict `out`,
    in order; a sum that cancels is dropped."""
    for e, c in terms:
        acc = out.get(e)
        s = c if acc is None else acc + c
        if s.is_zero():
            out.pop(e, None)
        else:
            out[e] = s


def _partial_terms(terms: dict, i: int) -> dict:
    """The term dict of the partial derivative in x_i."""
    out: dict = {}
    for e, c in terms.items():
        k = e[i]
        if k:
            out[e[:i] + (k - 1,) + e[i + 1:]] = c * k
    return out


def _mul_terms(a: dict, b: dict) -> dict:
    """The product of two term dicts, the longer one in the inner loop.  The
    result's term order and the conductor each sum is stored at follow this
    loop order, so every product in pwb goes through here."""
    big, small = (a, b) if len(a) > len(b) else (b, a)
    out: dict = {}
    _add_terms(out, ((tuple(map(add, e1, e2)), c1 * c2)
                     for e2, c2 in small.items() for e1, c1 in big.items()))
    return out


def _power_terms(terms: dict, k: int) -> dict:
    """The term dict of the k-th power, k >= 1, by repeated squaring;
    `PwbError` when an exponent would reach `MAX_EXPONENT`."""
    if k * max((sum(e) for e in terms), default=0) >= MAX_EXPONENT:
        raise PwbError("power would exceed the exponent bound")
    result, base = None, terms
    while k:
        if k & 1:
            result = base if result is None else _mul_terms(result, base)
        base = _mul_terms(base, base) if k > 1 else base
        k >>= 1
    return result


def _substitution(images: Sequence[dict], nvars: int) -> Callable[[dict], dict]:
    """The map of term dicts under x_i -> images[i], term dicts in `nvars`
    variables: a monomial's image is the product of its variables' powers in
    ascending order, each power and monomial image formed once per map."""
    one = (0,) * nvars
    powers: dict = {}
    products: dict = {}

    def image(e: tuple) -> dict:
        terms = products.get(e)
        if terms is None:
            for i, k in enumerate(e):
                if k:
                    p = powers.get((i, k))
                    if p is None:
                        p = powers[(i, k)] = _power_terms(images[i], k)
                    terms = p if terms is None else _mul_terms(terms, p)
            terms = products[e] = {one: _ONE} if terms is None else terms
        return terms

    def apply(terms: dict) -> dict:
        out: dict = {}
        for e, c in terms.items():
            _add_terms(out, ((f, c * d) for f, d in image(e).items()))
        return out

    return apply


def column_supports(rows: Sequence[Sequence[Cyclo]]) -> list[list[tuple[int, Cyclo]]]:
    """Per column j, its nonzero entries (a, rows[a][j]) by ascending row."""
    return [[(a, row[j]) for a, row in enumerate(rows) if row[j]] for j in range(len(rows[0]))]


def linear_substitution(columns: Sequence[Sequence[tuple]]) -> Callable[[dict], dict]:
    """`_substitution` for x_j -> sum_a g_aj x_a, g given by its `column_supports`."""
    unit = [tuple(int(t == a) for t in range(len(columns))) for a in range(len(columns))]
    return _substitution([{unit[a]: c for a, c in col} for col in columns], len(columns))


def embed(poly: Poly, target: PolyRing, var_map: Optional[Sequence[int]] = None) -> Poly:
    """Re-home a polynomial into `target`; var_map[i] is the target index of source var i."""
    if var_map is None:
        var_map = [target.index(v) for v in poly.ring.names]
    out: dict = {}
    for e, c in poly.terms.items():
        ne = [0] * target.nvars
        for i, k in enumerate(e):
            ne[var_map[i]] += k
        out[tuple(ne)] = c
    return Poly(target, out)


# -- parser -------------------------------------------------------------

_TOKEN_CHARS = {"+", "-", "*", "/", "^", "(", ")", ","}


class _Parser:
    def __init__(self, src: str, ring: PolyRing):
        self.src = src
        self.ring = ring
        self.tokens: list[tuple[str, str, int]] = []
        self.pos = 0
        self._lex()

    def _lex(self):
        i, src = 0, self.src
        while i < len(src):
            ch = src[i]
            if ch.isspace():
                i += 1
                continue
            if ch in _TOKEN_CHARS:
                self.tokens.append(("op", ch, i))
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(src) and src[j].isdigit():
                    j += 1
                self.tokens.append(("int", src[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                    j += 1
                self.tokens.append(("ident", src[i:j], i))
                i = j
                continue
            raise ParseError(f"unexpected character '{ch}'", i)
        self.tokens.append(("end", "", len(src)))

    def _peek(self):
        return self.tokens[self.pos]

    def _next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind: str, value: Optional[str] = None):
        tok = self._next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(f"expected {value or kind}, found '{tok[1] or 'end of input'}'", tok[2])
        return tok

    def parse(self) -> Poly:
        value = self._expr()
        tok = self._peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing '{tok[1]}'", tok[2])
        return value

    def _expr(self) -> Poly:
        negate = False
        if self._peek()[:2] == ("op", "-"):
            self._next()
            negate = True
        value = self._term()
        if negate:
            value = -value
        while self._peek()[:2] in (("op", "+"), ("op", "-")):
            op = self._next()[1]
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> Poly:
        value = self._factor()
        while self._peek()[:2] in (("op", "*"), ("op", "/")):
            _, opname, at = self._next()
            rhs = self._factor()
            if opname == "*":
                value = value * rhs
            else:
                if not rhs.is_scalar():
                    raise ParseError("division only allowed by scalars", at)
                c = rhs.as_scalar()
                if c.is_zero():
                    raise ParseError("division by zero", at)
                value = value * c.inverse()
        return value

    def _factor(self) -> Poly:
        base = self._base()
        if self._peek()[:2] == ("op", "^"):
            self._next()
            tok = self._expect("int")
            e = int(tok[1])
            if e >= MAX_EXPONENT:
                raise ParseError("exponent exceeds 2^31", tok[2])
            base = base ** e
        return base

    def _base(self) -> Poly:
        tok = self._next()
        kind, text, at = tok
        if kind == "int":
            return self.ring.scalar(int(text))
        if kind == "op" and text == "(":
            value = self._expr()
            self._expect("op", ")")
            return value
        if kind == "ident":
            if text == "zeta" and self._peek()[:2] == ("op", "("):
                self._next()
                ntok = self._expect("int")
                n = int(ntok[1])
                if n > MAX_CONDUCTOR:
                    raise ParseError(f"conductor {n} exceeds {MAX_CONDUCTOR}", ntok[2])
                self._expect("op", ")")
                return self.ring.scalar(zeta(n))
            if text in self.ring._index:
                return self.ring.var(self.ring.index(text))
            raise UnknownVariableError(f"unknown variable '{text}'", at)
        raise ParseError(f"expected a value, found '{text or 'end of input'}'", at)
