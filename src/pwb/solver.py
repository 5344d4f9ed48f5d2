"""Groebner machinery and small polynomial-system solving.

Buchberger with the coprime and chain criteria only; instance sizes here are
a handful of variables with low-degree generators.  A degree budget converts
nontermination risk into a typed error.

`split` is the one routine that branches on a system.  It splits the zero set
by three rules: on a univariate generator whose roots split over cyclotomic
numbers, on monomial content, and, when a zero-dimensional grlex basis holds
no univariate generator, on the univariate in the last variable that its lex
basis always holds.  Affine and projective solving classify the zero set
honestly: linear subspace, finitely many points (the leaves of `split`), or
the raw elimination ideal.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

from .errors import DegreeBudgetExceededError, PwbError, UnsplittableConditionError
from .linalg import Matrix, kernel, rref, solve_linear
from .rings import Poly, PolyRing, embed, grlex_key
from .scalars import Cyclo
from .upoly import UPoly, extract_roots

DEFAULT_BUDGET = 24
# deepest chain of branches `split` takes before it gives up
BRANCH_DEPTH = 40

_ZERO = Cyclo.of(0)
_ONE = Cyclo.of(1)


# -- monomial orders -----------------------------------------------------


def lex_order(e: tuple[int, ...]):
    return e


def elim_order(k: int) -> Callable:
    """Eliminate the first k variables: block grlex on them, then grlex on the rest."""

    def key(e: tuple[int, ...]):
        head, tail = e[:k], e[k:]
        return (sum(head), head, sum(tail), tail)

    return key


# -- division ------------------------------------------------------------


def normal_form(f: Poly, basis: Sequence[Poly], order: Callable = grlex_key) -> Poly:
    """Remainder of f under multivariate division by basis."""
    if not basis:
        return f
    ring = f.ring
    leads = [g.leading(order) for g in basis]
    rem = ring.zero()
    work = f
    while not work.is_zero():
        we, wc = work.leading(order)
        divided = False
        for g, (ge, gc) in zip(basis, leads):
            if all(a >= b for a, b in zip(we, ge)):
                q = ring.monomial(tuple(a - b for a, b in zip(we, ge)), wc * gc.inverse())
                work = work - q * g
                divided = True
                break
        if not divided:
            t = ring.monomial(we, wc)
            rem = rem + t
            work = work - t
    return rem


def _spoly(f: Poly, g: Poly, order: Callable) -> Poly:
    fe, fc = f.leading(order)
    ge, gc = g.leading(order)
    lcm_e = tuple(max(a, b) for a, b in zip(fe, ge))
    mf = f.ring.monomial(tuple(l - a for l, a in zip(lcm_e, fe)), fc.inverse())
    mg = f.ring.monomial(tuple(l - b for l, b in zip(lcm_e, ge)), gc.inverse())
    return mf * f - mg * g


def groebner_basis(gens: Sequence[Poly], order: Callable = grlex_key,
                   budget: int = DEFAULT_BUDGET) -> list[Poly]:
    """Reduced Groebner basis, deterministic output."""
    ring = None
    basis: list[Poly] = []
    for g in gens:
        if not g.is_zero():
            ring = g.ring
            basis.append(g.monic(order))
    if not basis:
        return []
    basis = _interreduce(basis, order)
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}
    while pairs:
        # normal selection: smallest lcm degree first, deterministic tiebreak
        def pair_key(ij):
            i, j = ij
            le = basis[i].leading(order)[0]
            ge = basis[j].leading(order)[0]
            lcm_e = tuple(max(a, b) for a, b in zip(le, ge))
            return (sum(lcm_e), lcm_e, i, j)

        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        fe = basis[i].leading(order)[0]
        ge = basis[j].leading(order)[0]
        lcm_e = tuple(max(a, b) for a, b in zip(fe, ge))
        if sum(lcm_e) > budget:
            raise DegreeBudgetExceededError(sum(lcm_e), budget)
        # coprime criterion
        if all(a == 0 or b == 0 for a, b in zip(fe, ge)):
            continue
        # chain criterion: some k with LT(k) | lcm and both pairs done
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            ke = basis[k].leading(order)[0]
            if all(a <= l for a, l in zip(ke, lcm_e)):
                if (max(i, k), min(i, k)) not in pairs and (max(j, k), min(j, k)) not in pairs:
                    skip = True
                    break
        if skip:
            continue
        s = normal_form(_spoly(basis[i], basis[j], order), basis, order)
        if not s.is_zero():
            if s.total_degree() > budget:
                raise DegreeBudgetExceededError(s.total_degree(), budget)
            s = s.monic(order)
            basis.append(s)
            new = len(basis) - 1
            pairs.update((new, t) for t in range(new))
    return _interreduce(basis, order)


def _interreduce(basis: list[Poly], order: Callable) -> list[Poly]:
    basis = [g for g in basis if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1:]
            if not others:
                continue
            r = normal_form(basis[i], others, order)
            if r != basis[i]:
                changed = True
                if r.is_zero():
                    basis = others
                else:
                    basis = others + [r.monic(order)]
                break
    basis = [g.monic(order) for g in basis]
    basis.sort(key=lambda g: order(g.leading(order)[0]))
    return basis


class Subalgebra:
    """k[g_1..g_r] in the ring of the g_i, by tag variables (Shannon-Sweedler):
    one basis of the ideal (g_i - t_i) with the ambient variables eliminated,
    computed on first use, writes f in the g_i and gives their relations."""

    def __init__(self, gens: Sequence[Poly], tag_names: Optional[Sequence[str]] = None,
                 budget: int = DEFAULT_BUDGET):
        self.gens = tuple(gens)
        if tag_names is None:
            tag_names = [f"t{i+1}" for i in range(len(self.gens))]
        self.tag_ring = PolyRing(tuple(tag_names))
        self.budget = budget

    @cached_property
    def _elimination(self) -> tuple[PolyRing, Callable, list[Poly]]:
        ring = self.gens[0].ring
        n = ring.nvars
        # internal tag names avoid collisions with ambient variable names
        combined = PolyRing(ring.names + tuple(f"_tag{i+1}" for i in range(len(self.gens))))
        order = elim_order(n)
        ideal = [embed(g, combined) - combined.var(n + i) for i, g in enumerate(self.gens)]
        return combined, order, groebner_basis(ideal, order, self.budget)

    def _in_tags(self, p: Poly) -> Optional[Poly]:
        """p in the tag ring, or None when an ambient variable occurs."""
        n = self.gens[0].ring.nvars
        if any(any(e[:n]) for e in p.terms):
            return None
        return Poly(self.tag_ring, {e[n:]: c for e, c in p.terms.items()})

    def express(self, f: Poly) -> Optional[Poly]:
        """f as a polynomial in the generators, or None."""
        if not self.gens:
            return f.ring.zero() if f.is_zero() else (
                None if not f.is_scalar() else self.tag_ring.scalar(f.as_scalar()))
        combined, order, gb = self._elimination
        return self._in_tags(normal_form(embed(f, combined), gb, order))

    def relations(self) -> tuple[Poly, ...]:
        """The kernel of t_i -> g_i: the basis elements in the tags alone."""
        if not self.gens:
            return ()
        return tuple(r for r in map(self._in_tags, self._elimination[2]) if r is not None)


def subalgebra_member(f: Poly, gens: Sequence[Poly], tag_names: Optional[Sequence[str]] = None,
                      budget: int = DEFAULT_BUDGET) -> Optional[Poly]:
    """Express f as a polynomial in gens (tag-variable elimination), or None."""
    return Subalgebra(gens, tag_names, budget).express(f)


# -- solution sets ---------------------------------------------------------

EMPTY = "empty"
SUBSPACE = "subspace"
POINTS = "points"
IDEAL_ONLY = "ideal"


@dataclass(frozen=True)
class SolutionSet:
    """Classified zero set of a projective system in n unknowns."""

    kind: str
    nvars: int
    basis: tuple[tuple[Cyclo, ...], ...] = ()    # SUBSPACE: RREF basis rows
    points: tuple[tuple[Cyclo, ...], ...] = ()   # POINTS: first nonzero coord = 1
    generators: tuple[Poly, ...] = ()            # IDEAL_ONLY

    @property
    def dimension(self) -> Optional[int]:
        if self.kind == SUBSPACE:
            return len(self.basis)
        if self.kind == POINTS:
            return 0
        if self.kind == EMPTY:
            return -1
        return None

    def describe(self) -> str:
        if self.kind == EMPTY:
            return "empty"
        if self.kind == SUBSPACE:
            return f"linear subspace of dimension {len(self.basis)}"
        if self.kind == POINTS:
            return f"{len(self.points)} points"
        return "unresolved ideal"


def _poly_to_upoly(f: Poly, var: int) -> Optional[UPoly]:
    """View f as univariate in `var`; None if other variables occur."""
    coeffs: dict[int, Cyclo] = {}
    for e, c in f.terms.items():
        if any(k and i != var for i, k in enumerate(e)):
            return None
        coeffs[e[var]] = c
    if not coeffs:
        return UPoly(())
    out = [_ZERO] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return UPoly(out)


def _substitute_value(f: Poly, var: int, value: Cyclo) -> Poly:
    out: dict = {}
    for e, c in f.terms.items():
        ne = list(e)
        k = ne[var]
        ne[var] = 0
        nc = c * value ** k if k else c
        key = tuple(ne)
        acc = out.get(key)
        s = nc if acc is None else acc + nc
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s
    return Poly(f.ring, out)


@dataclass
class AffineResult:
    kind: str
    points: list[list[Cyclo]] = field(default_factory=list)
    particular: Optional[list[Cyclo]] = None
    directions: list[list[Cyclo]] = field(default_factory=list)
    gb: list[Poly] = field(default_factory=list)


def classify_affine(gens: Sequence[Poly], ring: PolyRing,
                    budget: int = DEFAULT_BUDGET) -> AffineResult:
    """Classify the affine zero set in all variables of `ring`."""
    gens = [g for g in gens if not g.is_zero()]
    n = ring.nvars
    if not gens:
        return AffineResult(SUBSPACE, particular=[_ZERO] * n,
                            directions=[list(r) for r in Matrix.identity(n).rows])
    if any(g.is_scalar() for g in gens):
        return AffineResult(EMPTY)
    gb = groebner_basis(gens, grlex_key, budget)
    if any(g.is_scalar() for g in gb):
        return AffineResult(EMPTY)
    if all(g.total_degree() <= 1 for g in gb):
        return _solve_linear_system(gb, ring)
    if _zero_dimensional(gb, range(n)):
        try:
            leaves = split(gb, ring, budget)
        except (UnsplittableConditionError, DegreeBudgetExceededError):
            return AffineResult(IDEAL_ONLY, gb=gb)
        # a zero-dimensional system splits into leaves that fix every variable
        points: list[list[Cyclo]] = []
        for assignments, _ in leaves:
            point = [assignments[i] for i in range(n)]
            if point not in points:
                points.append(point)
        return AffineResult(POINTS, points=points)
    return AffineResult(IDEAL_ONLY, gb=gb)


def _zero_dimensional(gb: Sequence[Poly], variables) -> bool:
    """Whether each of `variables` is alone in some grlex leading monomial."""
    leads = [g.leading(grlex_key)[0] for g in gb]
    return all(any(e[i] and sum(e) == e[i] for e in leads) for i in variables)


def _solve_linear_system(gens: Sequence[Poly], ring: PolyRing) -> AffineResult:
    zero_e = (0,) * ring.nvars
    m = Matrix([g.linear_coefficients() for g in gens])
    rhs = [-g.coefficient(zero_e) for g in gens]
    particular = solve_linear(m, rhs)
    if particular is None:
        return AffineResult(EMPTY)
    directions = m.kernel_basis()
    if not directions:
        return AffineResult(POINTS, points=[particular])
    return AffineResult(SUBSPACE, particular=particular, directions=directions)


def split(equations: Sequence[Poly], ring: PolyRing,
          budget: int = DEFAULT_BUDGET) -> list[tuple[dict[int, Cyclo], list[Poly]]]:
    """The zero set of `equations` as a union of leaves (assignments, basis).

    A leaf fixes some variables (indices into `ring`) to cyclotomic values and
    keeps the reduced grlex basis of the rest of the system.  Three rules
    branch, tried in order:
    1. a univariate generator branches on each of its roots; a root outside
       the cyclotomic numbers raises `UnsplittableConditionError`;
    2. a generator x^a * h with monomial content branches on V(x_i) for each
       x_i in x^a, and on V(h);
    3. a zero-dimensional basis with no univariate generator is re-based in
       lex, whose basis holds a univariate in the last free variable, and
       rule 1 splits that.
    A basis no rule applies to is a leaf.  Going past `BRANCH_DEPTH` nested
    branches raises `PwbError`.
    """
    leaves: list[tuple[dict[int, Cyclo], list[Poly]]] = []

    def on_univariate(basis: list[Poly], assignments: dict, depth: int) -> bool:
        for g in basis:
            for var in range(ring.nvars):
                if var in assignments:
                    continue
                u = _poly_to_upoly(g, var)
                if u is not None and u.degree() >= 1:
                    roots, rem = extract_roots(u)
                    if rem.degree() >= 1:
                        raise UnsplittableConditionError(g)
                    for i, r in enumerate(roots):
                        if r not in roots[:i]:
                            branch([_substitute_value(h, var, r) for h in basis],
                                   {**assignments, var: r}, depth + 1)
                    return True
        return False

    def branch(eqs: list[Poly], assignments: dict, depth: int) -> None:
        if depth > BRANCH_DEPTH:
            raise PwbError(f"splitting went past depth {BRANCH_DEPTH} (solver.BRANCH_DEPTH)")
        eqs = [e for e in eqs if not e.is_zero()]
        if any(e.is_scalar() for e in eqs):
            return
        gb = groebner_basis(eqs, grlex_key, budget)
        if any(g.is_scalar() for g in gb) or on_univariate(gb, assignments, depth):
            return
        # V(x^a * h) = V(x_i) for each x_i in x^a, union V(h)
        for g in gb:
            content, cofactor = g.monomial_content()
            if any(content):
                for v in (i for i, k in enumerate(content) if k):
                    branch(gb + [ring.var(v)], assignments, depth + 1)
                branch([cofactor if h is g else h for h in gb], assignments, depth + 1)
                return
        free = [v for v in range(ring.nvars) if v not in assignments]
        if _zero_dimensional(gb, free) and \
                on_univariate(groebner_basis(gb, lex_order, budget), assignments, depth):
            return
        leaves.append((assignments, gb))

    branch(list(equations), {}, 0)
    return leaves


def apply_assignments(p: Poly, assignments: dict[int, Cyclo]) -> Poly:
    """p with each assigned variable replaced by its value."""
    for var, value in assignments.items():
        p = _substitute_value(p, var, value)
    return p


def find_point(gens: Sequence[Poly], ring: PolyRing, assignments: dict[int, Cyclo],
               budget: int = DEFAULT_BUDGET) -> Optional[list[Cyclo]]:
    """One exact solution of `gens` that extends `assignments`, or None.

    A system that stays nonlinear gets its first free variable pinned to 1,
    -1, 2, -2 and 0 in turn, and the search goes on from each.
    """
    gens = [apply_assignments(g, assignments) for g in gens]
    res = classify_affine(gens, ring, budget)
    if res.kind in (POINTS, SUBSPACE):
        point = list(res.points[0] if res.kind == POINTS else res.particular)
        for var, value in assignments.items():
            point[var] = value
        return point
    if res.kind == IDEAL_ONLY:
        var = next(v for v in range(ring.nvars)
                   if any(e[v] for g in gens for e in g.terms))
        for guess in (_ONE, Cyclo.of(-1), Cyclo.of(2), Cyclo.of(-2), _ZERO):
            point = find_point(gens, ring, {**assignments, var: guess}, budget)
            if point is not None:
                return point
    return None


def solve_projective(gens: Sequence[Poly], ring: PolyRing,
                     budget: int = DEFAULT_BUDGET) -> SolutionSet:
    """Classify the projective zero set of a homogeneous system."""
    n = ring.nvars
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return SolutionSet(SUBSPACE, n,
                           basis=tuple(tuple(r) for r in Matrix.identity(n).rows))
    gb = groebner_basis(gens, grlex_key, budget)
    if all(g.total_degree() <= 1 for g in gb):
        null = _linear_kernel(gb, ring)
        if not null:
            return SolutionSet(EMPTY, n)
        return SolutionSet(SUBSPACE, n, basis=tuple(tuple(r) for r in null))

    chart_results: list[AffineResult] = []
    for m in range(n):
        sub = PolyRing(ring.names[m + 1:])
        chart_gens = []
        for g in gens:
            h = apply_assignments(g, {m: _ONE, **dict.fromkeys(range(m), _ZERO)})
            if not h.is_zero():
                chart_gens.append(Poly(sub, {e[m + 1:]: c for e, c in h.terms.items()}))
        if sub.nvars == 0:
            # the chart holds the single candidate point e_m
            res = AffineResult(POINTS, points=[[]]) if not chart_gens else AffineResult(EMPTY)
        else:
            res = classify_affine(chart_gens, sub, budget)
        if res.kind == IDEAL_ONLY:
            return SolutionSet(IDEAL_ONLY, n, generators=tuple(gb))
        chart_results.append(res)

    return aggregate_chart_results(chart_results, n, fallback=tuple(gb))


def aggregate_chart_results(chart_results: list[AffineResult], n: int,
                            fallback: tuple[Poly, ...] = ()) -> SolutionSet:
    """Assemble per-chart affine classifications into one projective SolutionSet.

    chart_results[m] describes solutions with coordinates (0,..,0,1,*,..,*),
    the 1 in position m.
    """
    if any(res.kind == IDEAL_ONLY for res in chart_results):
        return SolutionSet(IDEAL_ONLY, n, generators=fallback)

    def lift(m: int, vec: list[Cyclo]) -> tuple[Cyclo, ...]:
        return tuple([_ZERO] * m + [_ONE] + list(vec))

    def lift_dir(m: int, vec: list[Cyclo]) -> tuple[Cyclo, ...]:
        return tuple([_ZERO] * (m + 1) + list(vec))

    all_points: list[tuple[Cyclo, ...]] = []
    span_vectors: list[list[Cyclo]] = []
    has_subspace = False
    for m, res in enumerate(chart_results):
        if res.kind == EMPTY:
            continue
        if res.kind == POINTS:
            for p in res.points:
                all_points.append(lift(m, p))
                span_vectors.append(list(lift(m, p)))
        else:
            has_subspace = True
            span_vectors.append(list(lift(m, res.particular)))
            for d in res.directions:
                span_vectors.append(list(lift_dir(m, d)))

    if not span_vectors:
        return SolutionSet(EMPTY, n)
    if not has_subspace:
        uniq: list[tuple[Cyclo, ...]] = []
        for p in all_points:
            if not any(all(a == b for a, b in zip(p, q)) for q in uniq):
                uniq.append(p)
        uniq.sort(key=lambda p: tuple(str(c) for c in p))
        return SolutionSet(POINTS, n, points=tuple(uniq))

    candidate, pivots, _ = rref([dict(enumerate(v)) for v in span_vectors], n)
    if _union_is_subspace(pivots, chart_results):
        return SolutionSet(SUBSPACE, n, basis=tuple(tuple(r) for r in candidate))
    return SolutionSet(IDEAL_ONLY, n, generators=fallback)


def _linear_kernel(gens: Sequence[Poly], ring: PolyRing) -> list[list[Cyclo]]:
    return kernel([dict(enumerate(g.linear_coefficients())) for g in gens], ring.nvars)


def _union_is_subspace(pivots: list[int], chart_results: list[AffineResult]) -> bool:
    """Whether the chart pieces make up all of P(V), for V the row space of
    a reduced row echelon form with these pivot columns.

    V meets chart m (coordinates before m zero, coordinate m one) only when
    m is a pivot, and then in the row with pivot m plus the span of the rows
    with later pivots.  Each piece lies in that set by construction, and
    nested affine subspaces of equal dimension are equal, so the dimensions
    decide: a piece must be empty off the pivots, and on a pivot have one
    direction per later pivot (a points piece is one point, of dimension 0).
    """
    for m, res in enumerate(chart_results):
        if m not in pivots:
            if res.kind != EMPTY:
                return False
            continue
        later = sum(1 for p in pivots if p > m)
        if res.kind == POINTS:
            if len(res.points) != 1 or later:
                return False
        elif res.kind != SUBSPACE or len(res.directions) != later:
            return False
    return True
