"""Enveloping presentations of quadratic Poisson algebras.

For A on n generators, the associated quadratic associative algebra has 2n
degree-one generators (multiplication symbols m_i and Hamiltonian symbols
h_i) subject to
    [m_i, m_j] = 0,
    [h_i, m_j] = mu({x_i, x_j})     (all i, j),
    [h_i, h_j] = eta({x_i, x_j})    (i < j),
where mu(x_k x_l) = m_k m_l and eta(x_k x_l) = m_l h_k + m_k h_l.  No normal
form is assumed: graded dimensions come from exact linear algebra on word
truncations, checked against the expected series (1-t)^(-2n).
"""
from __future__ import annotations

from dataclasses import dataclass

from .brackets import PoissonAlgebra
from .errors import (CapExceededError, InvalidDegreeError, NotAutomorphismError,
                     NotQuadraticError, NotReflectionError)
from .linalg import Echelon, Matrix, realify
from .rings import Poly
from .scalars import Cyclo, conductor, euler_phi, scaled_term, signed_sum
from .series import RationalSeries
from .symmetry import (REFLECTION, GradedMap, classify, is_poisson_automorphism,
                       trace_series)
from .upoly import UPoly

_ZERO = Cyclo.of(0)
_ONE = Cyclo.of(1)

DEFAULT_DIM_CAP = 4

Word = tuple[int, ...]
WordSum = dict  # Word -> Cyclo


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
    """The finite presentation on m- and h-symbols."""
    if not A.quadratic:
        raise NotQuadraticError("enveloping presentation needs a quadratic bracket")
    n = A.nvars
    if aliases:
        names = tuple(f"{v}1" for v in A.ring.names) + tuple(f"{v}2" for v in A.ring.names)
    else:
        names = tuple(f"m_{v}" for v in A.ring.names) + tuple(f"h_{v}" for v in A.ring.names)

    def m(i: int) -> int:
        return i

    def h(i: int) -> int:
        return n + i

    def add(ws: WordSum, word: Word, c: Cyclo):
        acc = ws.get(word, _ZERO) + c
        if acc.is_zero():
            ws.pop(word, None)
        else:
            ws[word] = acc

    relations: list[WordSum] = []
    for i in range(n):
        for j in range(i + 1, n):
            r: WordSum = {}
            add(r, (m(i), m(j)), _ONE)
            add(r, (m(j), m(i)), -_ONE)
            relations.append(r)
    for i in range(n):
        for j in range(n):
            r = {}
            add(r, (h(i), m(j)), _ONE)
            add(r, (m(j), h(i)), -_ONE)
            for (k, l, c) in _quadratic_pairs(A.pair(i, j)):
                add(r, (m(k), m(l)), -c)
            if r:
                relations.append(r)
    for i in range(n):
        for j in range(i + 1, n):
            r = {}
            add(r, (h(i), h(j)), _ONE)
            add(r, (h(j), h(i)), -_ONE)
            for (k, l, c) in _quadratic_pairs(A.pair(i, j)):
                add(r, (m(l), h(k)), -c)
                add(r, (m(k), h(l)), -c)
            relations.append(r)
    return NCPresentation(A, names, tuple(relations))


def _indexed(ws: WordSum, g: int) -> dict[int, Cyclo]:
    """A quadratic relation with each two-letter word a*b as column a*g + b."""
    return {a * g + b: c for (a, b), c in ws.items()}


def envelope_dims(A: PoissonAlgebra, d: int, cap: int = DEFAULT_DIM_CAP) -> list[int]:
    """dim of the degree-k component of the presented algebra, k = 0..d.

    The degree-k relations u*r*v (words u, v with |u| + |v| = k - 2) are
    realified once over Q(zeta_N), N the conductor of the relations, and
    eliminated exactly over the integers: rank over Q(zeta_N) is the rank
    over Q divided by phi(N).
    """
    if d < 0:
        raise InvalidDegreeError(f"degree {d} is negative")
    if d > cap:
        raise CapExceededError(f"degree {d} exceeds the cap {cap}")
    pres = envelope_presentation(A)
    g = pres.ngens
    n = conductor(c for r in pres.relations for c in r.values())
    phi = euler_phi(n)
    # realified relations as (two-letter word index, coordinate, coefficient)
    rels = [[(*divmod(col, phi), c) for col, c in row.items()]
            for r in pres.relations for row in realify(_indexed(r, g), n)]
    dims = [1, g][: d + 1]
    g2 = g * g
    for k in range(2, d + 1):
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
    """Extend a Poisson automorphism to the 2n generators and verify relations."""
    ok, pair = is_poisson_automorphism(A, g)
    if not ok:
        raise NotAutomorphismError(f"map does not preserve the bracket on {pair}")
    rows, zeros = g.matrix.rows, [_ZERO] * A.nvars
    # block-diagonal copies of an invertible map: invertible, so no rank check
    extended = GradedMap._invertible(Matrix([r + zeros for r in rows] + [zeros + r for r in rows]))
    pres = envelope_presentation(A)
    gsz = pres.ngens
    # nonzero entries of each column: generator a maps to sum ca * generator a2
    cols = [[(a2, ca) for a2, ca in enumerate(col) if not ca.is_zero()]
            for col in extended.matrix.transpose().rows]
    # each relation's image must lie in the span of the relations over
    # Q(zeta_N); realified, that is membership in a Q-span
    N = conductor([c for r in pres.relations for c in r.values()]
                  + [c for col in cols for _, c in col])
    span = Echelon()
    for r in pres.relations:
        for row in realify(_indexed(r, gsz), N):
            span.insert(row)
    preserved = True
    for r in pres.relations:
        image: dict = {}
        for (a, b), c in r.items():
            for a2, ca in cols[a]:
                for b2, cb in cols[b]:
                    idx = a2 * gsz + b2
                    image[idx] = image.get(idx, _ZERO) + c * ca * cb
        if span.reduce(realify(image, N)[0]):
            preserved = False
            break
    return EnvelopeExtension(extended, preserved)


@dataclass
class EnvelopeTrace:
    series: RationalSeries
    factored: RationalSeries
    quasi_reflection: bool


def envelope_trace(A: PoissonAlgebra, g: GradedMap) -> EnvelopeTrace:
    """Trace series of the extended action: the square of the base trace."""
    cls = classify(A, g)
    if cls.kind != REFLECTION:
        raise NotReflectionError(f"map classifies as {cls.kind}")
    base = trace_series(g)
    squared = base * base
    n = A.nvars
    # normalizing-sequence form: 1/((1-xi t)^2 (1-t)^(2n-2))
    factored = RationalSeries.one_over([cls.xi, cls.xi] + [_ONE] * (2 * n - 2))
    quasi = _has_quasi_reflection_shape(squared, 2 * n)
    return EnvelopeTrace(squared, factored, quasi)


def _has_quasi_reflection_shape(series: RationalSeries, total: int) -> bool:
    """Is the series 1/((1 - xi t)(1 - t)^(total-1)) for some root of unity xi != 1?"""
    if series.num.degree() != 0:
        return False
    den = series.den
    one_minus_t = UPoly.one_minus(_ONE)
    for _ in range(total - 1):
        q, rem = den.divmod(one_minus_t)
        if not rem.is_zero():
            return False
        den = q
    if den.degree() != 1:
        return False
    xi = -den[1]  # den = 1 - xi t after normalization
    if den[0] != _ONE:
        return False
    order = xi.root_of_unity_order() if not xi.is_zero() else None
    return order is not None and order > 1
