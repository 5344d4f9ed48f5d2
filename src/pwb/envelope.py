"""Enveloping presentations of quadratic Poisson algebras.

For A on n generators, the associated quadratic associative algebra has 2n
degree-one generators (multiplication symbols m_i and Hamiltonian symbols
h_i) subject to
    [m_i, m_j] = 0,
    [h_i, m_j] = mu({x_i, x_j})     (all i, j),
    [h_i, h_j] = eta({x_i, x_j})    (i < j),
where mu(x_k x_l) = m_k m_l and eta(x_k x_l) = m_l h_k + m_k h_l.  Graded
dimensions come from exact linear algebra on word truncations through degree
3.  The degree-2 echelon gives the leading words of the relations in deg-lex
order with h above m; when the degree-3 dimension equals the number of words
with no leading word as a factor, every overlap ambiguity resolves, the
relations are a Groebner basis (Bergman's diamond lemma), and higher degrees
count those normal words.  Otherwise elimination goes on in every degree.  A
Poisson algebra satisfies Jacobi, so its envelope has a PBW basis (Oh) and
takes the counting path; the expected series is (1-t)^(-2n).
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
    return tuple(relations)


def _indexed(ws: WordSum, g: int) -> dict[int, Cyclo]:
    """A quadratic relation with each two-letter word a*b as column a*g + b."""
    return {a * g + b: c for (a, b), c in ws.items()}


def envelope_dims(A: PoissonAlgebra, d: int, cap: int = DEFAULT_DIM_CAP) -> list[int]:
    """dim of the degree-k component of the presented algebra, k = 0..d.

    The degree-k relations u*r*v (words u, v with |u| + |v| = k - 2) are
    realified once over Q(zeta_N), N the conductor of the relations, and
    eliminated exactly over the integers: rank over Q(zeta_N) is the rank
    over Q divided by phi(N).  Letters are indexed in reverse, so a pivot
    column of degree 2 lies in the block of a leading word: the deg-lex
    greatest word of some relation.  Once degree 3 holds exactly as many
    dimensions as words free of leading words, the relations are a Groebner
    basis and every higher degree is that count.
    """
    if d < 0:
        raise InvalidDegreeError(f"degree {d} is negative")
    if d > cap:
        raise CapExceededError(f"degree {d} exceeds the cap {cap}")
    pres = envelope_presentation(A)
    g = pres.ngens
    n = conductor(c for r in pres.relations for c in r.values())
    phi = euler_phi(n)
    top = g - 1
    # realified relations as (two-letter word index, coordinate, coefficient),
    # letter a indexed as g - 1 - a
    rels = [[(*divmod(col, phi), c) for col, c in row.items()]
            for r in pres.relations
            for row in realify({(top - a) * g + top - b: c for (a, b), c in r.items()}, n)]
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
        if k == 2:
            normal = _normal_word_counts({col // phi for col in span.pivots}, g, d)
        elif k == 3 and dims[3] == normal[3]:
            return dims + normal[4:]
    return dims


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
