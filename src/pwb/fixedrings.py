"""Fixed subrings A^G for finite graded Poisson groups.

Generators are found up to a degree bound d: for an abelian form the
eigenbasis monomials of the invariant monoid's generators, each expanded
once, and otherwise the nonzero Reynolds averages of the monomials.  They
are selected canonically (reduced against products of lower-degree
generators in the ambient monomial order), the induced bracket table is
expressed in the generators, and polynomiality is certified by comparing
the Molien series with the free product over generator degrees.  Every
report carries the truncation caveat: completeness of the generator list
is certified only up to d.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .brackets import PoissonAlgebra, transport
from .errors import (DegreeBoundTooSmallError, InducedBracketNotClosedError,
                     InvalidDegreeError, NotReflectionError, PwbError)
from .linalg import Echelon, Matrix, realify, unrealify
from .rings import (Poly, PolyRing, _add_terms, _substitution, column_supports, grlex_key,
                    linear_substitution)
from .scalars import Cyclo, conductor, euler_phi
from .series import RationalSeries, hilbert_weighted
from .solver import DEFAULT_BUDGET, Subalgebra
from .symmetry import (REFLECTION, GradedMap, PoissonGroup, _character_orders,
                       _require_character_table, classify, group_closure, molien_series)

_ONE = Cyclo.of(1)

TRUNCATION_CAVEAT = ("generator completeness certified only up to the degree bound; "
                     "higher-degree invariants are not excluded")


@dataclass
class PresentedPoisson:
    """A fixed subring: generators with degrees, relations, induced brackets."""

    ambient: PoissonAlgebra
    names: tuple[str, ...]
    degrees: tuple[int, ...]
    expressions: tuple[Poly, ...]
    table: dict
    polynomial: bool
    relations: Optional[tuple[Poly, ...]]
    molien: Optional[RationalSeries]
    bound: int
    diagnostics: list[str] = field(default_factory=list)

    @property
    def generator_ring(self) -> PolyRing:
        return PolyRing(self.names)

    def as_algebra(self, check_jacobi: bool = True) -> PoissonAlgebra:
        if not self.polynomial:
            raise PwbError("presentation has relations; not a polynomial Poisson algebra")
        return PoissonAlgebra(self.generator_ring, dict(self.table), check_jacobi=check_jacobi)

    def entry(self, i: int, j: int) -> Poly:
        ring = self.generator_ring
        if i == j:
            return ring.zero()
        if i < j:
            return self.table.get((i, j), ring.zero())
        p = self.table.get((j, i))
        return -p if p is not None else ring.zero()


def is_skew_presentation(p: PresentedPoisson) -> Optional[Matrix]:
    """The matrix (q_ij) when every table entry is q_ij * g_i * g_j, else None."""
    if p.relations is None or p.relations:
        return None
    return PoissonAlgebra(p.generator_ring, dict(p.table), check_jacobi=False).skew_matrix()


# -- generator selection ------------------------------------------------------


def _canonical_generators(bases_per_degree: dict) -> list[tuple[Poly, int]]:
    """Pick new generators per degree as canonical complements of products.

    The degrees are those of the given bases, ascending.  At each, the
    degree-k products of chosen generators, then the basis, are realified at
    their lcm conductor N into one echelon whose columns are the monomials
    grlex-descending (the least column is the leading monomial).  The
    products are the monomials of weighted degree k in the chosen
    generators, each mapped through one `_substitution` of the generators
    (their powers formed once per call).  A basis vector that raises the
    rank gives its remainder, the fully reduced echelon row at its leading
    monomial, made monic and stored at N: it depends on the span of what
    went in before it, not on the products' order.
    """
    chosen: list[tuple[Poly, int]] = []
    images: list[dict] = []  # the chosen generators' terms; `product` keeps their powers by index
    product = None
    for k in sorted(bases_per_degree):
        basis = bases_per_degree[k]
        if not basis:
            continue
        ring = basis[0].ring
        product = product or _substitution(images, ring.nvars)
        gens = PolyRing([f"g{i}" for i in range(len(chosen))])
        weights = [deg for _, deg in chosen]
        products = [product({x: _ONE}) for x in gens.monomials_of_degree(k, weights)]
        polys = products + [p.terms for p in basis]
        columns = sorted({e for terms in polys for e in terms}, key=grlex_key, reverse=True)
        index = {e: i for i, e in enumerate(columns)}
        n = conductor(c for terms in polys for c in terms.values())
        phi = euler_phi(n)
        span = Echelon()
        for i, terms in enumerate(polys):
            rows = realify({index[e]: c for e, c in terms.items()}, n)
            lead_row = span.reduce(rows[0])
            if not lead_row:
                continue
            for row in [lead_row] + rows[1:]:
                span.insert(row)
            if i >= len(products):
                lead = min(lead_row) // phi * phi
                terms = unrealify(span.clear(lead), n)
                chosen.append((Poly(ring, {columns[c]: v for c, v in terms.items()}), k))
                images.append(chosen[-1][0].terms)
    return chosen


# -- fixed rings ---------------------------------------------------------------


def fixed_group(A: PoissonAlgebra, group: PoissonGroup, bound: Optional[int] = None,
                canonical: bool = True, with_relations: bool = True,
                budget: int = DEFAULT_BUDGET) -> PresentedPoisson:
    """Invariant generators up to the degree bound with the induced bracket.

    The invariants of each degree come from one of two sources.  For an
    abelian form (`group.diagonal`: a common eigenbasis and the integer
    logs a_ij of the characters modulo the exponent e, zeta_e^a_ij being
    the eigenvalue of generator i on y_j), they are the eigenbasis
    monomials y^x with sum_j a_ij x_j = 0 mod e for every i, and no
    cyclotomic arithmetic is left in choosing them.  One integer rule picks
    a diagonal group's generators: the non-decomposable invariant exponents
    x (`_monoid_generators`), each y^x expanded in x once, and `canonical`
    changes only the last step.  By default those expansions alone are
    reduced by `_canonical_generators`: every other invariant monomial is a
    product of generators of lower degree, so it lies in the span of the
    products and never raises the rank.  With `canonical=False` the
    generators are the y^x themselves, with a monomially factored bracket
    table.  Otherwise the invariants are the nonzero Reynolds averages of
    the monomials over the enumerated elements, reduced by
    `_canonical_generators` at every degree.  The induced bracket is
    written in the generators by their `Subalgebra`, and every route ends
    in the same certification: the group's `molien_series` against the
    free product over the generator degrees,
    relations from the same `Subalgebra`, and `DegreeBoundTooSmallError`
    naming the first degree where the Molien series exceeds the generated
    subalgebra.  A negative bound raises `InvalidDegreeError`, and an
    abelian form of order above `CHARACTER_LIMIT` `BoundExceededError`,
    before any of this.
    """
    if bound is not None and bound < 0:
        raise InvalidDegreeError(f"degree bound {bound} is negative")
    _require_character_table(group)
    d = bound if bound is not None else max(4, 2 * group.exponent)
    return _fixed(A, group, d, canonical, with_relations, budget)


def fixed_cyclic_reflection(A: PoissonAlgebra, g: GradedMap,
                            budget: int = DEFAULT_BUDGET) -> PresentedPoisson:
    """Fixed ring of a single reflection: the fixed hyperplane plus y1^m."""
    cls = classify(A, g)
    if cls.kind != REFLECTION:
        raise NotReflectionError(f"map classifies as {cls.kind}")
    m = cls.order
    p = fixed_group(A, group_closure([g], bound=m), bound=m, canonical=False, budget=budget)
    if sorted(p.degrees) != [1] * (A.nvars - 1) + [m]:
        raise InducedBracketNotClosedError(
            "cyclic reflection fixed ring has unexpected generator degrees")
    return p


def _fixed(A: PoissonAlgebra, group: PoissonGroup, d: int, canonical: bool,
           with_relations: bool, budget: int) -> PresentedPoisson:
    """The fixed-ring pipeline.  A diagonal group's generators are chosen
    once, by `_monoid_generators`, and expanded once through the eigenbasis
    T; `canonical` picks only how they are written.  A route returns its
    generators as one `Subalgebra`, which both the bracket table and the
    relations read."""
    if group.diagonal is None:
        route = _canonical_route(A, _reynolds_bases(A.ring, group, d), budget)
    else:
        T, logs = group.diagonal
        gen_exps = _monoid_generators(A.ring, logs, group.exponent, d)
        expand = linear_substitution(column_supports(T.rows))
        expressions = [Poly(A.ring, expand({x: 1})) for x in gen_exps]
        if canonical:
            # per degree by y-exponent grlex-descending, then (stably) by
            # leading x-monomial descending: of two generators with one
            # leading x-monomial, the later is reduced against the earlier
            bases: dict[int, list[Poly]] = {}
            for x, p in zip(reversed(gen_exps), reversed(expressions)):
                bases.setdefault(sum(x), []).append(p)
            for basis in bases.values():
                basis.sort(key=lambda p: grlex_key(p.leading()[0]), reverse=True)
            route = _canonical_route(A, bases, budget)
        else:
            route = _monomial_route(A, T, gen_exps, expressions, budget)
    sub, degrees, table = route
    molien = molien_series(group)
    product = hilbert_weighted(degrees)
    polynomial = molien == product
    diagnostics = [TRUNCATION_CAVEAT]
    relations: Optional[tuple[Poly, ...]]
    if polynomial:
        relations = ()
    elif with_relations:
        relations = sub.relations()
        if not relations:
            k = _first_series_gap(molien, product)
            raise DegreeBoundTooSmallError(k, "generators incomplete: Molien series exceeds "
                                              f"the generated subalgebra (first gap at degree {k})")
        diagnostics.append(f"{len(relations)} relation(s) among generators")
    else:
        relations = None
        diagnostics.append("relations not computed (non-polynomial presentation)")
    return PresentedPoisson(A, sub.tag_ring.names, tuple(degrees), sub.gens, table,
                            polynomial, relations, molien, d, diagnostics)


def _reynolds_bases(ring: PolyRing, group: PoissonGroup, d: int) -> dict[int, list[Poly]]:
    """Per degree, the nonzero Reynolds averages of the monomials.  Each
    element's `linear_substitution` is built once and maps every monomial;
    a monomial's images are summed in the order of the elements."""
    monomials = [e for k in range(1, d + 1) for e in ring.monomials_of_degree(k)]
    sums: list[dict] = [{} for _ in monomials]
    for g in group.elements:
        act = linear_substitution(column_supports(g.matrix.rows))
        for e, acc in zip(monomials, sums):
            _add_terms(acc, act({e: _ONE}).items())
    order_inv = Cyclo.of(group.order).inverse()
    bases: dict[int, list[Poly]] = {k: [] for k in range(1, d + 1)}
    for e, acc in zip(monomials, sums):
        if acc:
            bases[sum(e)].append(Poly(ring, {f: c * order_inv for f, c in acc.items()}))
    return bases


# -- character arithmetic for diagonal groups ---------------------------------


def _monoid_generators(ring: PolyRing, logs, e: int, d: int) -> list[tuple[int, ...]]:
    """The non-decomposable invariant exponents up to degree d, by (degree,
    grlex): the invariant monoid's generators.  Characters add, so for
    invariant g <= x the rest x - g is invariant too; x is decomposable
    exactly when it lies above a generator of lower degree.

    With o_j the order of y_j's characters, y_j^o_j is invariant, so every
    generator but y_j^o_j itself has x_j < o_j (Sturmfels, *Algorithms in
    Invariant Theory*, 1.4).  Only that box, at degree <= d, and the pure
    powers o_j e_j with o_j <= d are searched."""
    n = ring.nvars
    cols = [[row[j] for row in logs] for j in range(n)]
    orders = _character_orders(logs, e)
    zero = (0,) * len(logs)
    found = [tuple(o if i == j else 0 for i in range(n))
             for j, o in enumerate(orders) if o <= d]

    def search(j: int, left: int, residue: tuple[int, ...], prefix: tuple[int, ...]):
        if j == n:
            if residue == zero and left < d:  # an invariant x other than 0
                found.append(prefix)
            return
        for k in range(min(orders[j] - 1, left) + 1):
            search(j + 1, left - k, tuple((r + a * k) % e for r, a in zip(residue, cols[j])),
                   prefix + (k,))

    search(0, d, zero, ())
    gen_exps: list[tuple[int, ...]] = []
    for x in sorted(found, key=grlex_key):
        if not any(all(a >= b for a, b in zip(x, g)) for g in gen_exps):
            gen_exps.append(x)
    return gen_exps


def _canonical_route(A: PoissonAlgebra, bases: dict, budget: int):
    """The `Subalgebra` of the canonical generators of the per-degree
    invariant bases, their degrees and bracket table."""
    chosen = _canonical_generators(bases)
    expressions = [p for p, _ in chosen]
    degrees = [deg for _, deg in chosen]
    sub = Subalgebra(expressions, _generator_names(A.ring, expressions), budget)
    table = {}
    for i in range(len(expressions)):
        for j in range(i + 1, len(expressions)):
            br = A.bracket(expressions[i], expressions[j])
            if br.is_zero():
                continue
            expr = sub.express(br)
            if expr is None:
                raise InducedBracketNotClosedError(
                    f"bracket of {sub.tag_ring.names[i]} and {sub.tag_ring.names[j]} "
                    "leaves the subalgebra")
            table[(i, j)] = expr
    return sub, degrees, table


def _monomial_route(A: PoissonAlgebra, T: Matrix, gen_exps: list[tuple[int, ...]],
                    expressions: list[Poly], budget: int):
    """The `Subalgebra` of the eigenbasis monomials of the monoid generators
    `gen_exps`, expanded in x as `expressions`, their degrees and monomially
    factored bracket table.  Each generator's y-monomial is built once, and
    one factorization memo serves every bracket."""
    degrees = [sum(e) for e in gen_exps]
    sub = Subalgebra(expressions, _generator_names(A.ring, expressions), budget)
    Ay = transport(A, T, tuple(f"_y{i+1}" for i in range(A.nvars)))
    monomials = [Ay.ring.monomial(x) for x in gen_exps]
    memo: dict = {}
    table = {}
    for i in range(len(gen_exps)):
        for j in range(i + 1, len(gen_exps)):
            br = Ay.bracket(monomials[i], monomials[j])
            if br.is_zero():
                continue
            table[(i, j)] = _factor_into_generators(br, gen_exps, sub.tag_ring, memo)
    return sub, degrees, table


def _generator_names(ring: PolyRing, expressions: Sequence[Poly]) -> list[str]:
    """Variable names where the expression is literally a variable, else g1,
    g2, ...; a name met again gets the suffix _1, _2, ..."""
    out: list[str] = []
    counter = 0
    seen: dict = {}
    for p in expressions:
        e, c = next(iter(p.terms.items()))
        if len(p.terms) == 1 and sum(e) == 1 and c.is_one():
            name = ring.names[e.index(1)]
        else:
            counter += 1
            name = f"g{counter}"
        seen[name] = seen.get(name, -1) + 1
        out.append(f"{name}_{seen[name]}" if seen[name] else name)
    return out


def _factor_into_generators(p: Poly, gen_exps: list, gen_ring: PolyRing, memo: dict) -> Poly:
    """Express a polynomial with monoid-monomial terms in the generators;
    `memo` keeps each exponent's factorization (or None) across calls."""

    def factor(e: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        if sum(e) == 0:
            return (0,) * gen_ring.nvars
        if e not in memo:
            memo[e] = None  # the recursion reaches only exponents below e
            for gi, g in enumerate(gen_exps):
                if all(a >= b for a, b in zip(e, g)):
                    rest = factor(tuple(a - b for a, b in zip(e, g)))
                    if rest is not None:
                        memo[e] = rest[:gi] + (rest[gi] + 1,) + rest[gi + 1:]
                        break
        return memo[e]

    out = {}
    for e, c in p.terms.items():
        f = factor(e)
        if f is None:
            raise InducedBracketNotClosedError(f"monomial {e} is not a generator product")
        out[f] = c
    return Poly(gen_ring, out)


def _first_series_gap(molien: RationalSeries, product: RationalSeries) -> int:
    """The least degree where two different series differ: the lowest term of
    the numerator of their difference, whose denominator is 1 at t = 0."""
    num = (molien - product).num
    return next(k for k in range(num.degree() + 1) if not num[k].is_zero())


def presented_from_linear_basis(A: PoissonAlgebra, vectors: Sequence[Sequence],
                                names: Sequence[str]) -> PresentedPoisson:
    """Present A on a new degree-one generating basis (a plain change of basis)."""
    T = Matrix([[Cyclo.of(c) for c in v] for v in vectors]).transpose()
    By = transport(A, T, names)
    expressions = tuple(A.ring.linear_form(T.column(j)) for j in range(A.nvars))
    return PresentedPoisson(A, tuple(names), (1,) * A.nvars, expressions,
                            dict(By.table), True, (), None, 1,
                            ["degree-one basis change, not a fixed ring"])


# -- rigidity reports -----------------------------------------------------------


@dataclass
class AlgebraProfile:
    label: str
    polynomial: bool
    skew: Optional[bool] = None
    unimodular: Optional[bool] = None
    center_dims: Optional[list[int]] = None
    center_generator: Optional[str] = None
    center_gen_in_derived: Optional[bool] = None
    derived_dims: Optional[list[int]] = None
    derived_monomial: Optional[bool] = None
    derived_components: Optional[int] = None
    component_summary: Optional[list] = None
    notes: list[str] = field(default_factory=list)


DISTINGUISHED = "distinguished"
NOT_DISTINGUISHED = "not_distinguished"

# the (weighted) degrees up to which a profile computes the center and the
# derived ideal
CENTER_BOUND = 3
DERIVED_BOUND = 4

# invariants that do not depend on a choice of grading; compared in this order
_ROBUST_INVARIANTS = ("polynomial", "unimodular", "center_gen_in_derived",
                      "derived_components")


@dataclass
class RigidityReport:
    ambient: AlgebraProfile
    fixed: AlgebraProfile
    presented: PresentedPoisson
    verdict: str
    witness: Optional[str]
    notes: list[str] = field(default_factory=list)


def profile_algebra(B: PoissonAlgebra, label: str,
                    weights: Optional[Sequence[int]] = None) -> AlgebraProfile:
    w = list(weights) if weights is not None else [1] * B.nvars
    derived = B.derived_ideal(DERIVED_BOUND, w)
    center = B.center_truncated(CENTER_BOUND, w)
    center_gen = next((basis[0] for k, basis in enumerate(center) if k and basis), None)
    monomial = derived.is_monomial()
    components = derived.components() if monomial else None
    prof = AlgebraProfile(
        label=label,
        polynomial=True,
        skew=B.skew_matrix() is not None,
        unimodular=B.is_unimodular(),
        center_dims=[len(b) for b in center],
        center_generator=str(center_gen) if center_gen is not None else None,
        center_gen_in_derived=(derived.contains(center_gen) if center_gen is not None else None),
        derived_dims=derived.dims(),
        derived_monomial=monomial,
        derived_components=len(components) if monomial else None,
        component_summary=[list(c) for c in components] if monomial else None,
    )
    return prof


def profile_presented(P: PresentedPoisson, label: str) -> AlgebraProfile:
    if not P.polynomial:
        return AlgebraProfile(
            label=label, polynomial=False,
            skew=is_skew_presentation(P) is not None if P.relations == () else None,
            notes=["non-polynomial presentation: only presentation-level data computed"]
                  + list(P.diagnostics))
    B = P.as_algebra(check_jacobi=False)
    prof = profile_algebra(B, label, weights=P.degrees)
    prof.notes.extend(P.diagnostics)
    return prof


def rigidity_report(A: PoissonAlgebra, group: PoissonGroup, bound: Optional[int] = None,
                    budget: int = DEFAULT_BUDGET) -> RigidityReport:
    """Profiles of A and A^G compared on grading-independent invariants; the
    fixed ring comes first, so a negative bound is rejected before any work."""
    presented = fixed_group(A, group, bound=bound, budget=budget)
    prof_a = profile_algebra(A, "A")
    prof_g = profile_presented(presented, "A^G")
    verdict, witness = NOT_DISTINGUISHED, None
    for name in _ROBUST_INVARIANTS:
        va, vg = getattr(prof_a, name), getattr(prof_g, name)
        if va is not None and vg is not None and va != vg:
            verdict, witness = DISTINGUISHED, name
            break
    notes = [TRUNCATION_CAVEAT,
             "verdict uses grading-independent invariants only; "
             "NotDistinguished is not a proof of isomorphism"]
    return RigidityReport(prof_a, prof_g, presented, verdict, witness, notes)
