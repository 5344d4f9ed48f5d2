"""Enveloping presentations of quadratic Poisson algebras.

For A on n generators, the associated quadratic associative algebra has 2n
degree-one generators (multiplication symbols m_i and Hamiltonian symbols
h_i) subject to
    [m_i, m_j] = 0,
    [h_i, m_j] = mu({x_i, x_j})     (all i, j),
    [h_i, h_j] = eta({x_i, x_j})    (i < j),
where mu(x_k x_l) = m_k m_l and eta(x_k x_l) = m_l h_k + m_k h_l.  The
relations and their reduced degree-2 echelon, realified over Q(zeta_N) at
the relations' conductor N, are built once per algebra and kept on it;
graded dimensions read that echelon.  It gives the leading words of the
relations in deg-lex order with h above m.  When every overlap x*y*z of
two leading words x*y and y*z resolves (Bergman's diamond lemma), the
relations are a Groebner basis and each degree from 3 on counts the words
with no leading word as a factor.  Otherwise elimination goes on in every
degree.  A Poisson algebra satisfies Jacobi, so its envelope has a PBW basis
(Oh) and takes the counting path; the expected series is (1-t)^(-2n).
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
from .symmetry import (REFLECTION, GradedMap, classify, is_poisson_automorphism,
                       trace_series)
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


def _realified_relations(pres: NCPresentation, n: int) -> list[dict[int, int]]:
    """The relations realified over Q(zeta_n), the two-letter word a*b as column
    (g-1-a)*g + g-1-b: letters indexed in reverse, so the least column of a
    row lies in the block of its deg-lex greatest word."""
    g = pres.ngens
    top = g - 1
    return [row for r in pres.relations
            for row in realify({(top - a) * g + top - b: c for (a, b), c in r.items()}, n)]


def _relation_echelon(pres: NCPresentation, n: int) -> Echelon:
    """The reduced echelon of the realified relations over Q(zeta_n), n their
    conductor, built once per algebra and kept on it.  Only `reduce` reads it
    after that."""
    kept = pres.algebra._cache
    if "envelope_echelon" not in kept:
        span = Echelon()
        for row in _realified_relations(pres, n):
            span.insert(row)
        for lead in sorted(span.pivots, reverse=True):  # each row cleared by cleared rows
            span.clear(lead)
        kept["envelope_echelon"] = span
    return kept["envelope_echelon"]


def envelope_dims(A: PoissonAlgebra, d: int, cap: int = DEFAULT_DIM_CAP) -> list[int]:
    """dim of the degree-k component of the presented algebra, k = 0..d.

    Degree 2 reads the kept relation echelon, realified over Q(zeta_N), N the
    conductor of the relations: rank over Q(zeta_N) is the rank over Q
    divided by phi(N), and each pivot block is a leading word.  Degree 3 is
    decided by the overlaps x*y*z of two leading words (`_overlaps_resolve`):
    when all resolve, the relations are a Groebner basis and every degree
    from 3 on is the count of words free of leading words.  Otherwise each
    degree k >= 3 eliminates the words u*r*v (|u| + |v| = k - 2) exactly.
    """
    if d < 0:
        raise InvalidDegreeError(f"degree {d} is negative")
    if cap < 0:
        raise InvalidDegreeError(f"cap {cap} is negative")
    if d > cap:
        raise CapExceededError(f"degree {d} exceeds the cap {cap}")
    pres = envelope_presentation(A)
    g = pres.ngens
    dims = [1, g][: d + 1]
    if d < 2:
        return dims
    n = conductor(c for r in pres.relations for c in r.values())
    phi = euler_phi(n)
    span = _relation_echelon(pres, n)
    dims.append(g * g - span.rank // phi)
    if d == 2:
        return dims
    leading = {col // phi for col in span.pivots}
    if _overlaps_resolve(span.pivots, leading, g, phi):
        return dims + _normal_word_counts(leading, g, d)[3:]
    rels = [[(*divmod(col, phi), c) for col, c in row.items()]
            for row in _realified_relations(pres, n)]
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


class _ShiftedPivots(dict):
    """Pivot rows of degree 3 built on first lookup from the reduced degree-2
    rows: for a word x*y*z with a leading factor and t < phi, (pivot of x*y)*z
    if x*y leads, else x*(pivot of y*z).  Their leads are distinct and cover
    every column of a word with a leading factor."""

    def __init__(self, pivots: dict, leading: set[int], g: int, phi: int):
        super().__init__()
        self.pivots, self.leading, self.g, self.phi = pivots, leading, g, phi

    def __contains__(self, col: int) -> bool:
        word, g = col // self.phi, self.g
        return word // g in self.leading or word % (g * g) in self.leading

    def __missing__(self, col: int) -> dict[int, int]:
        g, phi, pivots = self.g, self.phi, self.pivots
        word, t = divmod(col, phi)
        left, z = divmod(word, g)
        if left in self.leading:
            row = {(c // phi * g + z) * phi + c % phi: v for c, v in pivots[left * phi + t].items()}
        else:
            x, right = divmod(word, g * g)
            row = _left_shifted(pivots[right * phi + t], x * g * g * phi)
        self[col] = row
        return row


def _left_shifted(row: dict[int, int], offset: int) -> dict[int, int]:
    return {c + offset: v for c, v in row.items()}


def _overlaps_resolve(pivots: dict, leading: set[int], g: int, phi: int) -> bool:
    """Does x*(pivot of y*z) at t = 0 reduce to zero against the `_ShiftedPivots`
    rows for every overlap x*y*z of leading words x*y and y*z?

    Those rows together with the overlaps span the degree-3 relations, and
    the rows alone span #(words with a leading factor) * phi dimensions.  So
    all overlaps resolve iff degree 3 has exactly as many dimensions as
    words free of leading words, iff the relations are a Groebner basis.
    One t decides each overlap: the relation span is Q(zeta_N)-closed, so its
    reduced echelon has pivot (v, t) = zeta^t * pivot (v, 0), and the shifted
    rows, letter shifts of those, span a Q(zeta_N)-closed space.
    """
    shifted = Echelon(_ShiftedPivots(pivots, leading, g, phi))
    block = g * g * phi  # the degree-3 columns of one first letter
    for xy in leading:
        x, y = divmod(xy, g)
        for yz in range(y * g, y * g + g):
            if yz in leading and shifted.reduce(_left_shifted(pivots[yz * phi], x * block)):
                return False
    return True


def _normal_word_counts(leading: set[int], g: int, d: int) -> list[int]:
    """Words of each length 0..d on g letters with no factor a*b, a*g + b in leading,
    counted by the transfer matrix of the allowed two-letter words."""
    follow = [[b for b in range(g) if a * g + b not in leading] for a in range(g)]
    ending = [1] * g  # words of the current length by last letter
    counts = [1, g]
    for _ in range(2, d + 1):
        nxt = [0] * g
        for a, c in enumerate(ending):
            for b in follow[a]:
                nxt[b] += c
        ending = nxt
        counts.append(sum(ending))
    return counts


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
    """Trace series of the extended action: the square of the base trace,
    reduced because the base trace is."""
    cls = classify(A, g)
    if cls.kind != REFLECTION:
        raise NotReflectionError(f"map classifies as {cls.kind}")
    base = trace_series(g)
    squared = RationalSeries.reduced(base.num * base.num, base.den * base.den)
    n = A.nvars
    # normalizing-sequence form: 1/((1-xi t)^2 (1-t)^(2n-2))
    xi = cls.xi
    den = UPoly((_ONE, -2 * xi, xi * xi)) * _one_minus_t_power(2 * n - 2)
    factored = RationalSeries.reduced(UPoly.one(), den)
    quasi = _has_quasi_reflection_shape(squared, 2 * n)
    return EnvelopeTrace(squared, factored, quasi)


def _one_minus_t_power(k: int) -> UPoly:
    """(1 - t)^k by the binomial theorem."""
    return UPoly(Cyclo.of((-1) ** j * comb(k, j)) for j in range(k + 1))


def _has_quasi_reflection_shape(series: RationalSeries, total: int) -> bool:
    """Is the series 1/((1 - xi t)(1 - t)^(total-1)) for some root of unity xi != 1?"""
    if series.num.degree() != 0:
        return False
    den, rem = series.den.divmod(_one_minus_t_power(total - 1))
    if not rem.is_zero() or den.degree() != 1:
        return False
    xi = -den[1]  # den = 1 - xi t: both denominators have constant term 1
    order = xi.root_of_unity_order() if not xi.is_zero() else None
    return order is not None and order > 1
