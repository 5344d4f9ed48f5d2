"""Enveloping presentations of quadratic Poisson algebras.

For A on n generators, the associated quadratic associative algebra has 2n
degree-one generators (multiplication symbols m_i and Hamiltonian symbols
h_i) subject to
    [m_i, m_j] = 0,
    [h_i, m_j] = mu({x_i, x_j})     (all i, j),
    [h_i, h_j] = eta({x_i, x_j})    (i < j),
where mu(x_k x_l) = m_k m_l and eta(x_k x_l) = m_l h_k + m_k h_l.  The
relations are built once per algebra and kept on it.  In deg-lex order with
h above m, each relation's leading word is its commutator's descending word,
so the leading words are the C(2n, 2) descending letter pairs whatever the
table.  The relations are a Groebner basis exactly when A satisfies Jacobi
(Bergman's diamond lemma; Oh's PBW theorem), and then every degree counts
the weakly increasing words: the series is (1-t)^(-2n).  A table loaded with
`check_jacobi=False` that fails Jacobi is eliminated from degree 3 on.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .brackets import PoissonAlgebra
from .errors import (CapExceededError, InvalidDegreeError, NotAutomorphismError,
                     NotQuadraticError, NotReflectionError)
from .linalg import Echelon, Matrix, realify
from .rings import Poly, _add_terms
from .scalars import Cyclo, conductor, euler_phi, scaled_term, signed_sum
from .series import RationalSeries
from .symmetry import REFLECTION, GradedMap, classify, is_poisson_automorphism
from .upoly import UPoly

_ZERO = Cyclo.of(0)
_ONE = Cyclo.of(1)

DEFAULT_DIM_CAP = 4

WordSum = dict  # word (a tuple of letters) -> Cyclo


@dataclass
class NCPresentation:
    """2n degree-one generators with homogeneous quadratic relations."""

    algebra: PoissonAlgebra
    names: tuple[str, ...]
    relations: tuple[WordSum, ...]

    @property
    def ngens(self) -> int:
        return len(self.names)

    def relation_strings(self) -> list[str]:
        return [f"{self.render(r)} = 0" for r in self.relations]

    def render(self, ws: WordSum) -> str:
        if not ws:
            return "0"
        return signed_sum([scaled_term(str(ws[word]), "*".join(self.names[i] for i in word))
                           for word in sorted(ws, key=lambda w: tuple(w))])


def _quadratic_pairs(p: Poly) -> list[tuple[int, int, Cyclo]]:
    """Decompose a homogeneous quadratic as sum c * x_k x_l with k <= l."""
    out = []
    for e, c in p.terms.items():
        on = [i for i, k in enumerate(e) for _ in range(k)]
        if len(on) != 2:
            raise NotQuadraticError("bracket entry is not homogeneous quadratic")
        out.append((on[0], on[1], c))
    return out


def envelope_presentation(A: PoissonAlgebra, aliases: bool = False) -> NCPresentation:
    """The finite presentation on m- and h-symbols; aliases renames them x1, x2.

    The relations are built once per algebra and kept on it."""
    if not A.quadratic:
        raise NotQuadraticError("enveloping presentation needs a quadratic bracket")
    if aliases:
        names = tuple(f"{v}1" for v in A.ring.names) + tuple(f"{v}2" for v in A.ring.names)
    else:
        names = tuple(f"m_{v}" for v in A.ring.names) + tuple(f"h_{v}" for v in A.ring.names)
    if "envelope_relations" not in A._cache:
        A._cache["envelope_relations"] = _relations(A)
    return NCPresentation(A, names, A._cache["envelope_relations"])


def _relations(A: PoissonAlgebra) -> tuple[WordSum, ...]:
    n = A.nvars

    def m(i: int) -> int:
        return i

    def h(i: int) -> int:
        return n + i

    def commutator(a: int, b: int, terms=()) -> WordSum:
        """a*b - b*a plus the word terms, added in order."""
        r: WordSum = {}
        _add_terms(r, [((a, b), _ONE), ((b, a), -_ONE), *terms])
        return r

    relations: list[WordSum] = []
    for i in range(n):
        for j in range(i + 1, n):
            relations.append(commutator(m(i), m(j)))
    for i in range(n):
        for j in range(n):
            r = commutator(h(i), m(j),
                           [((m(k), m(l)), -c) for k, l, c in _quadratic_pairs(A.pair(i, j))])
            if r:
                relations.append(r)
    for i in range(n):
        for j in range(i + 1, n):
            relations.append(commutator(h(i), h(j), [
                t for k, l, c in _quadratic_pairs(A.pair(i, j))
                for t in (((m(l), h(k)), -c), ((m(k), h(l)), -c))]))
    return tuple(relations)


def envelope_dims(A: PoissonAlgebra, d: int, cap: int = DEFAULT_DIM_CAP) -> list[int]:
    """dim of the degree-k component of the presented algebra, k = 0..d.

    The leading word of each relation is its commutator's descending word
    b*a (a < b in the letter order m_1 < .. < m_n < h_1 < .. < h_n): its
    other words are a*b and, when b is an h, words that begin with an m.
    The C(g, 2) leads, g = 2n, are distinct, so the relations are independent
    and degree 2 has g^2 - C(g, 2) = C(g + 1, 2) dimensions.  The words free
    of leading words are the weakly increasing ones, C(g + k - 1, k) of
    length k, and every degree counts them iff the relations are a Groebner
    basis, iff each overlap c*b*a (a < b < c) resolves, iff A
    satisfies Jacobi (`PoissonAlgebra.jacobi_holds`).  The overlaps:

    - m m m: the commutative polynomial ring's; they resolve.
    - h m m: both reductions of h_i m_k m_j reach m_j m_k h_i + mu({x_i,
      x_j x_k}) by Leibniz; they resolve.
    - h h m: h_j h_i m_k leaves mu(Jac(x_i, x_j, x_k)), the m-image of the
      Jacobiator, as [[h_j, h_i], m_k] = [h_j, [h_i, m_k]] - [h_i, [h_j,
      m_k]] with [eta(p), m_k] = mu({p, x_k}); for k = i or k = j that
      Jacobiator vanishes by antisymmetry.
    - h h h: h_k h_j h_i leaves H(Jac(x_i, x_j, x_k)), from the associative
      Jacobi identity of the commutator, with H(f) = sum_a mu(df/dx_a) h_a
      (so eta = H on quadratics) and [h_k, H(f)] = H({x_k, f}).

    mu(f) and H(f) are sums of normal words, zero only when f is.  So with
    Jacobi every overlap resolves (Bergman's diamond lemma).  Without it the
    normal words of degree 3 are dependent: H(Jac) = 0 holds in the algebra
    for every triple.  Then each degree k >= 3 eliminates the words u*r*v
    (|u| + |v| = k - 2) exactly, realified over Q(zeta_N), N the conductor
    of the relations: rank over Q(zeta_N) is the rank over Q divided by
    phi(N).
    """
    if d < 0:
        raise InvalidDegreeError(f"degree {d} is negative")
    if cap < 0:
        raise InvalidDegreeError(f"cap {cap} is negative")
    if d > cap:
        raise CapExceededError(f"degree {d} exceeds the cap {cap}")
    pres = envelope_presentation(A)
    g = pres.ngens
    if d < 3 or A.jacobi_holds():
        return [comb(g + k - 1, k) for k in range(d + 1)]
    dims = [comb(g + k - 1, k) for k in range(3)]
    n = conductor(c for r in pres.relations for c in r.values())
    phi = euler_phi(n)
    top = g - 1  # letters indexed in reverse: a row's least column is its leading word's
    rels = [[(*divmod(col, phi), c) for col, c in row.items()]
            for r in pres.relations
            for row in realify({(top - a) * g + top - b: c for (a, b), c in r.items()}, n)]
    g2 = g * g
    for k in range(3, d + 1):
        span = Echelon()
        for a in range(k - 1):
            gb = g ** (k - 2 - a)
            for rel in rels:
                for u in range(0, g ** a * g2, g2):
                    for v in range(gb):
                        span.insert({((u + w) * gb + v) * phi + t: c for w, t, c in rel})
        dims.append(g ** k - span.rank // phi)
    return dims


@dataclass
class EnvelopeExtension:
    map: GradedMap
    relations_preserved: bool


def envelope_extend(A: PoissonAlgebra, g: GradedMap) -> EnvelopeExtension:
    """Extend a Poisson automorphism g to the 2n generators as G = diag(g, g).

    G preserves the relations iff g is a Poisson automorphism, so the one
    check is `is_poisson_automorphism`.  Modulo the relations, G maps
    [h_i, m_j] - mu({x_i, x_j}) to mu({g x_i, g x_j} - g{x_i, x_j}), and
    [h_i, h_j] - eta({x_i, x_j}) to eta({g x_i, g x_j} - g{x_i, x_j}), since
    G eta(p) = eta(g p) for quadratic p.  The only combinations of relations
    made of m-words alone are those of the [m_k, m_l].  A map that is no
    automorphism raises NotAutomorphismError with the failing pair, before
    the NotQuadraticError of a non-quadratic algebra.
    """
    ok, pair = is_poisson_automorphism(A, g)
    if not ok:
        raise NotAutomorphismError(f"map does not preserve the bracket on {pair}")
    envelope_presentation(A)  # NotQuadraticError for a non-quadratic algebra
    rows, zeros = g.matrix.rows, [_ZERO] * A.nvars
    # block-diagonal copies of an invertible map: invertible, so no rank check
    extended = GradedMap._invertible(Matrix([r + zeros for r in rows] + [zeros + r for r in rows]))
    return EnvelopeExtension(extended, True)


@dataclass
class EnvelopeTrace:
    series: RationalSeries
    factored: RationalSeries
    quasi_reflection: bool


def envelope_trace(A: PoissonAlgebra, g: GradedMap) -> EnvelopeTrace:
    """Trace series of the extension G = diag(g, g) of a reflection g, written
    from g's eigenvalue xi != 1.

    The series.  A reflection is a rank-one update g = I + u k^T with
    k^T u = xi - 1, so by the matrix determinant lemma
        det(I - t g) = (1 - t)^n (1 - t k^T u / (1 - t)) = (1 - t)^(n-1) (1 - xi t).
    G's determinant is the square, and its series is
    1/((1 - xi t)^2 (1 - t)^(2n-2)): the square of g's trace series, already
    in normalizing-sequence form.  Numerator 1 over a denominator with constant
    term 1 is the unique normal form, so `series` and `factored` are one value.

    The flag.  G is never a quasi-reflection: its series is not
    1/((1 - xi' t)(1 - t)^(2n-1)) for any xi'.  Both denominators have constant
    term 1, so they would be equal in Q(zeta_N)[t], a unique factorisation
    domain.  Since xi != 1, the prime 1 - xi t is no associate of 1 - t; it
    divides the first denominator twice and the second at most once.
    """
    cls = classify(A, g)
    if cls.kind != REFLECTION:
        raise NotReflectionError(f"map classifies as {cls.kind}")
    xi = cls.xi
    den = UPoly((_ONE, -2 * xi, xi * xi)) * _one_minus_t_power(2 * A.nvars - 2)
    series = RationalSeries.reduced(UPoly.one(), den)
    return EnvelopeTrace(series, series, False)


def _one_minus_t_power(k: int) -> UPoly:
    """(1 - t)^k by the binomial theorem."""
    return UPoly(Cyclo.of((-1) ** j * comb(k, j)) for j in range(k + 1))
