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
from heapq import heappop, heappush
from itertools import chain
from math import gcd
from operator import add, ge as ge_, le as le_, sub
from typing import Callable, Optional, Sequence

from .errors import (DegreeBudgetExceededError, DivisorZeroError, PwbError,
                     UnsplittableConditionError)
from .linalg import Matrix, kernel, rref, solve_linear
from .rings import Poly, PolyRing, _add_terms, embed, grlex_key
from .scalars import Cyclo, _mul_mod, _new, conductor, conjugate_product, lcm
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


# -- Buchberger on integer numerators --------------------------------------
#
# One kernel for every conductor.  On entry N is the lcm of the input
# conductors, and a polynomial becomes a term dict from exponent to integer
# numerator over one positive common denominator: an int when N = 1, a tuple
# of phi(N) ints otherwise (the `Cyclo` layout one level up).  A divisor is
# kept primitive with a positive rational-integer leading coefficient D: a
# non-rational leading coefficient is multiplied by its conjugate product, as
# `Cyclo.inverse` does.  Division is fraction-free, W <- s*W - q*x^m*G with
# s = D/g and q = a/g for a the leading numerator of W and g = gcd(D, a), and
# the content W shares with its denominator is divided out.  On exit a
# coefficient is a `Cyclo` at conductor 1 when it is rational, at N otherwise.


class _Keys(dict):
    """The order key of each exponent, computed once."""

    __slots__ = ("order",)

    def __init__(self, order: Callable):
        super().__init__()
        self.order = order

    def __missing__(self, e):
        k = self[e] = self.order(e)
        return k


def _content(values, n: int) -> int:
    """The gcd of the integers of some numerators."""
    return gcd(*values) if n == 1 else gcd(*chain.from_iterable(values))


def _apply(w: dict, f: Callable, n: int) -> None:
    """Apply f to each integer of the numerators in w, in place."""
    if n == 1:
        for e, v in w.items():
            w[e] = f(v)
    else:
        for e, v in w.items():
            w[e] = tuple(map(f, v))


def _numerators(p: Poly, n: int) -> tuple[dict, int]:
    """The numerators of p at conductor n over their common denominator."""
    return _integral([(e, c.num[0] if n == 1 else c.lift_to(n).num, c.den)
                      for e, c in p.terms.items()], n)


def _divisor(w: dict, n: int, keys: _Keys) -> tuple:
    """(leading exponent, D, the other terms, all terms) of the primitive
    multiple of the numerators w whose leading coefficient D is a positive
    rational integer.  Consumes w."""
    lead = max(w, key=keys.__getitem__)
    a = w[lead]
    if n != 1 and any(a[1:]):
        rest = conjugate_product(a, n)
        for e, v in w.items():
            w[e] = _mul_mod(v, rest, n)
    d, g = w[lead] if n == 1 else w[lead][0], _content(w.values(), n)
    _apply(w, (g if d > 0 else -g).__rfloordiv__, n)
    return lead, abs(d) // g, [(e, c) for e, c in w.items() if e != lead], w


def _reduce(w: dict, den: int, divisors: Sequence[tuple], n: int,
            keys: _Keys) -> tuple[list, bool]:
    """Divide w/den by the divisors, by the first whose leading exponent
    divides the leading exponent of the rest each time.  Returns the remainder
    as (exponent, numerator, denominator) in decreasing order, and whether a
    division step was taken.  Consumes w."""
    rem: list = []
    stepped = False
    key = keys.__getitem__
    while w:
        we = max(w, key=key)
        for ge, d, tail, _ in divisors:
            if all(map(ge_, we, ge)):
                break
        else:
            rem.append((we, w.pop(we), den))
            continue
        stepped = True
        a = w.pop(we)
        m = tuple(map(sub, we, ge))
        g = gcd(d, a) if n == 1 else gcd(d, *a)
        if g != d:
            _apply(w, (d // g).__mul__, n)
            den *= d // g
        if n == 1:
            q = a // g
            for e, c in tail:
                e = tuple(map(add, e, m))
                v = w.get(e, 0) - q * c
                if v:
                    w[e] = v
                else:
                    del w[e]
        else:
            q = tuple(x // g for x in a)
            for e, c in tail:
                e = tuple(map(add, e, m))
                v = tuple(map(sub, w.get(e, (0,) * len(q)), _mul_mod(q, c, n)))
                if any(v):
                    w[e] = v
                else:
                    w.pop(e, None)
        if den != 1 and w:
            g = gcd(den, _content(w.values(), n))
            if g != 1:
                _apply(w, g.__rfloordiv__, n)
                den //= g
    return rem, stepped


def _integral(terms: list, n: int) -> tuple[dict, int]:
    """Terms (exponent, numerator, denominator) as numerators over their
    common denominator."""
    den = 1
    for _, _, d in terms:
        if den % d:
            den = lcm(den, d)
    if n == 1:
        return {e: c * (den // d) for e, c, d in terms}, den
    return {e: tuple(x * (den // d) for x in c) for e, c, d in terms}, den


def _cyclo(num, den: int, n: int) -> Cyclo:
    """num/den at conductor 1 when rational, at n otherwise."""
    if n == 1:
        return _new(1, (num,), den)
    return _new(n, num, den) if any(num[1:]) else _new(1, num[:1], den)


def normal_form(f: Poly, basis: Sequence[Poly], order: Callable = grlex_key) -> Poly:
    """Remainder of f under multivariate division by basis."""
    if not basis:
        return f
    if any(g.is_zero() for g in basis):
        raise DivisorZeroError("zero polynomial has no leading term")
    n = conductor(c for p in (f, *basis) for c in p.terms.values())
    keys = _Keys(order)
    divisors = [_divisor(_numerators(g, n)[0], n, keys) for g in basis]
    rem, _ = _reduce(*_numerators(f, n), divisors, n, keys)
    return Poly(f.ring, {e: _cyclo(c, d, n) for e, c, d in rem})


def groebner_basis(gens: Sequence[Poly], order: Callable = grlex_key,
                   budget: int = DEFAULT_BUDGET) -> list[Poly]:
    """Reduced Groebner basis, deterministic output.  A pair lcm or a reduced
    S-polynomial of total degree above `budget` raises
    `DegreeBudgetExceededError`."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[-1].ring
    n = conductor(c for g in gens for c in g.terms.values())
    keys = _Keys(order)
    basis = _interreduce([_divisor(_numerators(g, n)[0], n, keys) for g in gens], n, keys)
    leads = [b[0] for b in basis]
    pairs: list = []  # a heap of (lcm degree, lcm, i, j), i > j
    pending: set = set()

    def add_pairs(new: int) -> None:
        for t in range(new):
            lcm_e = tuple(map(max, leads[new], leads[t]))
            heappush(pairs, (sum(lcm_e), lcm_e, new, t))
            pending.add((new, t))

    for new in range(len(basis)):
        add_pairs(new)
    while pairs:
        # normal selection: smallest lcm degree first, deterministic tiebreak
        deg, lcm_e, i, j = heappop(pairs)
        pending.discard((i, j))
        if deg > budget:
            raise DegreeBudgetExceededError(deg, budget)
        # coprime criterion
        if not any(map(min, leads[i], leads[j])):
            continue
        # chain criterion: some k with LT(k) | lcm and both pairs done
        if any(k != i and k != j and all(map(le_, ke, lcm_e))
               and (max(i, k), min(i, k)) not in pending
               and (max(j, k), min(j, k)) not in pending
               for k, ke in enumerate(leads)):
            continue
        rem, _ = _reduce(_spoly(basis[i], basis[j], lcm_e, n), 1, basis, n, keys)
        if rem:
            top = max(sum(e) for e, _, _ in rem)
            if top > budget:
                raise DegreeBudgetExceededError(top, budget)
            basis.append(_divisor(_integral(rem, n)[0], n, keys))
            leads.append(basis[-1][0])
            add_pairs(len(basis) - 1)
    return [Poly(ring, {e: _cyclo(c, d, n) for e, c in w.items()})
            for _, d, _, w in _interreduce(basis, n, keys)]


def _spoly(f: tuple, g: tuple, lcm_e: tuple, n: int) -> dict:
    """(D_g/h) x^(lcm - LT f) f - (D_f/h) x^(lcm - LT g) g, h = gcd(D_f, D_g),
    for two divisors: the leading terms cancel, so they are left out."""
    (fe, df, ftail, _), (ge, dg, gtail, _) = f, g
    h = gcd(df, dg)
    out: dict = {}
    for tail, lead, k in ((ftail, fe, dg // h), (gtail, ge, -(df // h))):
        m = tuple(map(sub, lcm_e, lead))
        for e, c in tail:
            e = tuple(map(add, e, m))
            if n == 1:
                v = out.get(e, 0) + c * k
            else:
                v = tuple(x + y * k for x, y in zip(out.get(e, (0,) * len(c)), c))
            if v if n == 1 else any(v):
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _interreduce(basis: list, n: int, keys: _Keys) -> list:
    """Reduce each element by the others until none changes, then sort by
    leading term."""
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1:]
            if not others:
                continue
            rem, stepped = _reduce(dict(basis[i][3]), 1, others, n, keys)
            if stepped:
                changed = True
                basis = others + [_divisor(_integral(rem, n)[0], n, keys)] if rem else others
                break
    basis.sort(key=lambda b: keys[b[0]])
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
    _add_terms(out, ((e[:var] + (0,) + e[var + 1:], c * value ** e[var] if e[var] else c)
                     for e, c in f.terms.items()))
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
