"""The Poisson bracket engine.

A PoissonAlgebra is a polynomial ring plus the bracket table {x_i, x_j} for
i < j; antisymmetry is structural and the bracket of arbitrary elements is
the biderivation extension

    {f, g} = sum_{i<j} (df/dx_i dg/dx_j - df/dx_j dg/dx_i) {x_i, x_j},

which is automatically bilinear, antisymmetric, and Leibniz in each slot.
It is computed in its Hamiltonian form {f, g} = sum_v dg/dx_v {f, x_v}:
`PoissonAlgebra.hamiltonian` applies the Leibniz rule to the table once,

    {f, x_v} = sum_a df/dx_a {x_a, x_v},

and the bracket, the Jacobi check, the center and the modular derivation
read it.  The Jacobi identity is checked on generator triples at
construction (that suffices, again by Leibniz).
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Optional, Sequence

from .errors import JacobiFailsError, NotMonomialError, NotQuadraticError, PwbError
from .linalg import Matrix, kernel, rank
from .rings import (Poly, PolyRing, _add_terms, _mul_terms, _partial_terms, column_supports,
                    linear_substitution)
from .scalars import Cyclo
from .solver import (DEFAULT_BUDGET, AffineResult, SolutionSet, aggregate_chart_results,
                     classify_affine, groebner_basis, normal_form)
from .solver import EMPTY as solver_empty
from .solver import IDEAL_ONLY as solver_ideal
from .solver import POINTS as solver_points

_ZERO = Cyclo.of(0)


def _variables(terms: dict) -> set:
    """The indices of the variables that occur in a term dict."""
    return {k for e in terms for k, x in enumerate(e) if x}


class PoissonAlgebra:
    __slots__ = ("ring", "table", "quadratic", "bracket_degree", "name", "_cache")

    def __init__(self, ring: PolyRing, table: dict, check_jacobi: bool = True,
                 name: str = "A"):
        """table maps (i, j) with i < j to Poly; missing pairs are zero."""
        clean: dict = {}
        for (i, j), p in table.items():
            if i == j or not (0 <= i < ring.nvars and 0 <= j < ring.nvars):
                raise PwbError(f"bad bracket pair ({i}, {j})")
            if i > j:
                i, j, p = j, i, -p
            if (i, j) in clean:
                raise PwbError(f"duplicate bracket pair ({i}, {j})")
            if not p.is_zero():
                clean[(i, j)] = p
        degrees = {p.homogeneous_degree() for p in clean.values()}
        if not degrees:
            quadratic, bdeg = True, 2
        elif None in degrees or len(degrees) > 1:
            quadratic, bdeg = False, None
        else:
            bdeg = degrees.pop()
            quadratic = bdeg == 2
        self._set(ring, clean, quadratic, bdeg, name)
        if check_jacobi:
            ok, witness = self.jacobi_check()
            if not ok:
                raise JacobiFailsError(witness)
            self._cache["jacobi"] = True

    def _set(self, ring: PolyRing, table: dict, quadratic: bool, bracket_degree: Optional[int],
             name: str) -> None:
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "quadratic", quadratic)
        object.__setattr__(self, "bracket_degree", bracket_degree)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_cache", {})  # what is derived once per algebra

    def __setattr__(self, *a):
        raise AttributeError("PoissonAlgebra is immutable")

    @property
    def nvars(self) -> int:
        return self.ring.nvars

    def pair(self, i: int, j: int) -> Poly:
        """{x_i, x_j}, any order of indices."""
        if i == j:
            return self.ring.zero()
        if i < j:
            return self.table.get((i, j), self.ring.zero())
        p = self.table.get((j, i))
        return -p if p is not None else self.ring.zero()

    def require_quadratic(self, what: str):
        if not self.quadratic:
            raise NotQuadraticError(f"{what} requires a quadratic bracket")

    # -- bracket --------------------------------------------------------

    def bracket(self, f: Poly, g: Poly) -> Poly:
        """{f, g} = sum_v dg/dx_v {f, x_v}, over the variables x_v of g in
        ascending order, each {f, x_v} by `hamiltonian`; a cancelled sum is
        dropped."""
        out: dict = {}
        for v in sorted(_variables(g.terms)):
            ham = self.hamiltonian(f.terms, v)
            if ham:
                _add_terms(out, _mul_terms(_partial_terms(g.terms, v), ham).items())
        return Poly(self.ring, out)

    def hamiltonian(self, terms: dict, v: int) -> dict:
        """The terms of {f, x_v} for the f with term dict `terms` (int or
        `Cyclo` coefficients), by Leibniz: each term c x^e gives
        sum_a c e_a x^(e - e_a) {x_a, x_v}, over the table pairs holding x_v.
        This is the one place pwb applies the Leibniz rule to the table."""
        out: dict = {}
        pairs = self._pairs_with()[v]
        for e, c in terms.items():
            for a, s, entry in pairs:
                if e[a]:
                    low = e[:a] + (e[a] - 1,) + e[a + 1:]
                    factor = c * (s * e[a])
                    _add_terms(out, ((tuple(map(add, f, low)), factor * d)
                                     for f, d in entry.items()))
        return out

    def linear_bracket_terms(self, columns: Sequence[Sequence[tuple]], i: int, j: int) -> dict:
        """The terms of {y_i, y_j} = sum_(a, b) g_ai g_bj {x_a, x_b} for the
        linear forms y_j = sum_a g_aj x_a, given by the nonzero entries of
        their columns (`column_supports`).  Only pairs of entries whose
        {x_a, x_b} is in the table are multiplied, gathered per table pair,
        and the scaled entries are added over the table pairs in order."""
        table = self.table
        gathered: dict = {}
        for a, u in columns[i]:
            for b, v in columns[j]:
                key = (a, b) if a < b else (b, a)
                if a != b and key in table:
                    c = u * v if a < b else -(u * v)
                    acc = gathered.get(key)
                    gathered[key] = c if acc is None else acc + c
        out: dict = {}
        if gathered:
            for key, p in table.items():
                scale = gathered.get(key)
                if scale:
                    _add_terms(out, ((e, c * scale) for e, c in p.terms.items()))
        return out

    def jacobi_check(self) -> tuple[bool, Optional[tuple[str, str, str]]]:
        """Jacobi on every triple of variables, or the first failing triple.

        A triple whose three inner brackets all vanish satisfies Jacobi, so
        only triples containing a pair of the table are visited, in
        lexicographic order, each by its Jacobiator read off the table.
        """
        names = self.ring.names
        triples = {tuple(sorted((i, j, k))) for i, j in self.table
                   for k in range(self.nvars) if k != i and k != j}
        for i, j, k in sorted(triples):
            if self._jacobiator(i, j, k):
                return False, (names[i], names[j], names[k])
        return True, None

    def jacobi_holds(self) -> bool:
        """The Jacobi verdict, decided once per algebra: recorded at
        construction with check_jacobi=True, else by `jacobi_check` on the
        first call."""
        found = self._cache.get("jacobi")
        if found is None:
            found = self._cache["jacobi"] = self.jacobi_check()[0]
        return found

    def _jacobiator(self, i: int, j: int, k: int) -> dict:
        """The terms of {{x_j, x_k}, x_i} + cyclic for i < j < k."""
        out: dict = {}
        for entry, sign, v in ((self.table.get((j, k)), 1, i), (self.table.get((i, k)), -1, j),
                               (self.table.get((i, j)), 1, k)):
            if entry is not None:
                ham = self.hamiltonian(entry.terms, v).items()
                _add_terms(out, ham if sign > 0 else ((e, -c) for e, c in ham))
        return out

    def _pairs_with(self) -> list[list]:
        """Per variable j, the table pairs holding x_j: (the other index a,
        the sign that makes the entry {x_a, x_j}, the entry's terms)."""
        found = self._cache.get("pairs_with")
        if found is None:
            found = self._cache["pairs_with"] = [[] for _ in range(self.nvars)]
            for (a, b), p in self.table.items():
                found[b].append((a, 1, p.terms))
                found[a].append((b, -1, p.terms))
        return found

    # -- normal elements and derivations ---------------------------------

    def modular_derivation(self) -> "PoissonDerivation":
        """f -> sum_j d{f, x_j}/dx_j evaluated on generators."""
        images = []
        for i in range(self.nvars):
            x_i = {tuple(int(t == i) for t in range(self.nvars)): 1}
            acc: dict = {}
            for j in range(self.nvars):
                _add_terms(acc, _partial_terms(self.hamiltonian(x_i, j), j).items())
            images.append(Poly(self.ring, acc))
        return PoissonDerivation(self, images)

    def is_unimodular(self) -> bool:
        return self.modular_derivation().is_zero()

    def skew_matrix(self) -> Optional[Matrix]:
        """(q_ij) when every table entry is q_ij * x_i * x_j, else None."""
        n = self.nvars
        rows = [[_ZERO] * n for _ in range(n)]
        for (i, j), p in self.table.items():
            e = [0] * n
            e[i] += 1
            e[j] += 1
            mono = tuple(e)
            if any(key != mono for key in p.terms):
                return None
            q = p.terms[mono]
            rows[i][j] = q
            rows[j][i] = -q
        return Matrix(rows)

    # -- truncated center and derived ideal -------------------------------

    def center_truncated(self, d: int, weights: Optional[Sequence[int]] = None
                         ) -> list[list[Poly]]:
        """Per degree k <= d, a basis of {f in A_k : {f, x_j} = 0 for all j},
        the column of x^I in the map ad(x_j) read off `hamiltonian`."""
        out: list[list[Poly]] = [[self.ring.one()]]
        for k in range(1, d + 1):
            monos = self.ring.monomials_of_degree(k, weights)
            if not monos:
                out.append([])
                continue
            # equation (j, e): sum_I c_I [x^e]{x^I, x_j} = 0, as monomial index I -> coefficient
            columns: dict = {}
            for i, mexp in enumerate(monos):
                for j in range(self.nvars):
                    for ee, c in self.hamiltonian({mexp: 1}, j).items():
                        columns.setdefault((j, ee), {})[i] = c
            if not columns:
                out.append([self.ring.monomial(m) for m in monos])
                continue
            out.append([Poly(self.ring, {m: c for c, m in zip(vec, monos) if c})
                        for vec in kernel(list(columns.values()), len(monos))])
        return out

    def derived_ideal(self, d: int, weights: Optional[Sequence[int]] = None
                      ) -> "DerivedIdeal":
        return DerivedIdeal(self, d, weights)

    # -- degree-one normal elements ----------------------------------------

    def normal_find_deg1(self, budget: int = DEFAULT_BUDGET) -> SolutionSet:
        """All degree-one Poisson normal directions, up to scalar.

        Chart m fixes u = x_m + sum_{i>m} mu_i x_i; the requirement
        {u, x_j} in (u) becomes polynomial equations in the mu after
        eliminating x_m (`_normal_chart`), which is exactly the linear
        elimination of the quotient unknowns.
        """
        self.require_quadratic("normal_find_deg1")
        n = self.nvars
        chart_results: list[AffineResult] = []
        chart_equations: list[list[Poly]] = []
        diagnostics: list[Poly] = []
        for m in range(n):
            mu_ring, equations = self._normal_chart(m)
            if mu_ring.nvars:
                res = classify_affine(equations, mu_ring, budget)
            elif equations:
                res = AffineResult(solver_empty)
            else:
                res = AffineResult(solver_points, points=[[]])
            if res.kind == solver_ideal:
                diagnostics.extend(res.gb)
            chart_results.append(res)
            chart_equations.append(equations)
        result = aggregate_chart_results(chart_results, n, fallback=tuple(diagnostics))
        if result.kind == solver_ideal and not result.generators:
            # no chart is of kind ideal, but the pieces do not form a subspace:
            # describe the set by each chart's Groebner basis
            gens: dict[str, Poly] = {}
            for eqs in chart_equations:
                if eqs:
                    for g in groebner_basis(eqs, budget=budget):
                        gens.setdefault(str(g), g)
            result = SolutionSet(solver_ideal, n, generators=tuple(gens.values()))
        return result

    def _normal_chart(self, m: int) -> tuple[PolyRing, list[Poly]]:
        """Chart m's equations in the ring of the mu: per j, the x-coefficients
        of {x_m, x_j} + sum_t mu_t {x_(g_t), x_j} with x_m -> -sum_t mu_t
        x_(g_t), the g_t = m+1..n-1.  The terms come off the table, x_m^2
        by the square of that sum written out once, and are added in the
        order that substituting into the expanded polynomial adds them."""
        n = self.nvars
        tail = range(m + 1, n)
        mu_ring = PolyRing(tuple(f"_m{i}" for i in tail))
        nmu = mu_ring.nvars
        mu_unit = [tuple(int(s == t) for s in range(nmu)) for t in range(nmu)]
        x_unit = [tuple(int(s == g) for s in range(n)) for g in range(n)]
        # x_m and x_m^2 as (mu exponent, x exponent, coefficient)
        image = [(mu_unit[t], x_unit[g], -1) for t, g in enumerate(tail)]
        square = [(tuple(map(add, mu_unit[t], mu_unit[s])),
                   tuple(map(add, x_unit[m + 1 + t], x_unit[m + 1 + s])), 1 if s == t else 2)
                  for s in range(nmu) for t in range(s, nmu)]
        sources = [((0,) * nmu, m)] + [(mu_unit[t], g) for t, g in enumerate(tail)]
        equations: list[Poly] = []
        for j, pairs in enumerate(self._pairs_with()):
            entries = {a: (sign, terms) for a, sign, terms in pairs}
            out: dict = {}
            for mu, g in sources:
                sign, terms = entries.get(g, (1, {}))
                for e, c in terms.items():
                    c = -c if sign < 0 else c  # {x_g, x_j}
                    k = e[m]
                    if not k:
                        _add_terms(out, (((e, mu), c),))
                        continue
                    rest = e[:m] + (0,) + e[m + 1:]
                    _add_terms(out, (((tuple(map(add, rest, x)), tuple(map(add, mu, nu))),
                                      c * s) for nu, x, s in (image if k == 1 else square)))
            # group by the x-part of the exponent
            grouped: dict = {}
            for (x, mu), c in out.items():
                grouped.setdefault(x, {})[mu] = c
            equations.extend(Poly(mu_ring, terms) for terms in grouped.values())
        return mu_ring, equations

    def __repr__(self):
        entries = ", ".join(
            f"{{{self.ring.names[i]},{self.ring.names[j]}}}={p}" for (i, j), p in sorted(self.table.items()))
        return f"PoissonAlgebra({', '.join(self.ring.names)}; {entries or 'zero bracket'})"


@dataclass(frozen=True)
class PoissonDerivation:
    """A derivation recorded by its images on the generators."""

    algebra: PoissonAlgebra
    images: tuple

    def __init__(self, algebra: PoissonAlgebra, images: Sequence[Poly]):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "images", tuple(images))

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images)

    def __repr__(self):
        names = self.algebra.ring.names
        body = ", ".join(f"{v} -> {img}" for v, img in zip(names, self.images))
        return f"PoissonDerivation({body})"


def transport(A: PoissonAlgebra, basis: Matrix, names: Sequence[str]) -> PoissonAlgebra:
    """The bracket of A written in the linear coordinates y with x = basis * y.

    Column j of `basis` holds the x-coefficients of the new degree-one
    element y_j.  Its bracket with y_i is read off the table from the two
    columns' nonzero entries (`linear_bracket_terms`), then written in y
    by x = basis * y (`linear_substitution` of the inverse), each
    monomial's y-image formed once per call and shared by the entries.  A
    change of basis keeps every entry's degree and the Jacobi identity, so
    the result takes A's `quadratic` and `bracket_degree`, and neither its
    pairs nor Jacobi are checked again.
    """
    columns = column_supports(basis.rows)
    to_y = linear_substitution(column_supports(basis.inverse().rows))
    yring = PolyRing(tuple(names))
    table: dict = {}
    for i in range(A.nvars):
        for j in range(i + 1, A.nvars):
            br = A.linear_bracket_terms(columns, i, j)
            if br:
                table[(i, j)] = Poly(yring, to_y(br))
    B = PoissonAlgebra.__new__(PoissonAlgebra)
    B._set(yring, table, A.quadratic, A.bracket_degree, "A")
    return B


class DerivedIdeal:
    """Truncated data for the ideal generated by all brackets {A, A}.

    By Leibniz that ideal is generated by the table entries {x_i, x_j}.
    """

    def __init__(self, algebra: PoissonAlgebra, d: int,
                 weights: Optional[Sequence[int]] = None):
        self.algebra = algebra
        self.bound = d
        self.weights = list(weights) if weights is not None else [1] * algebra.nvars
        self.generators = [p for _, p in sorted(algebra.table.items())]
        self._dims: Optional[list[int]] = None

    def dims(self) -> list[int]:
        """Dimension of the degree-k piece of the ideal, k = 0..bound."""
        if self._dims is not None:
            return self._dims
        ring = self.algebra.ring
        out = [0]
        for k in range(1, self.bound + 1):
            col_index: dict = {}
            rows = []
            for g in self.generators:
                gdeg = g.weighted_degree(self.weights)
                if gdeg > k:
                    continue
                for K in ring.monomials_of_degree(k - gdeg, self.weights):
                    # the terms of x^K * g: g's terms shifted by K
                    rows.append({col_index.setdefault(tuple(map(add, e, K)), len(col_index)): c
                                 for e, c in g.terms.items()})
            out.append(rank(rows))
        self._dims = out
        return out

    def contains(self, f: Poly, budget: int = DEFAULT_BUDGET) -> bool:
        if f.is_zero():
            return True
        if self.is_monomial():
            monos = [next(iter(g.terms)) for g in self.generators]
            return all(
                any(all(a >= b for a, b in zip(e, m)) for m in monos)
                for e in f.terms)
        return normal_form(f, groebner_basis(self.generators, budget=budget)).is_zero()

    def is_monomial(self) -> bool:
        return all(len(g.terms) == 1 for g in self.generators)

    def minimal_primes(self) -> list[tuple[str, ...]]:
        """Minimal primes of a monomial derived ideal, as variable-name tuples."""
        if not self.is_monomial():
            raise NotMonomialError("derived ideal is not monomial in these coordinates")
        ring = self.algebra.ring
        supports = []
        for g in self.generators:
            e = next(iter(g.terms))
            supports.append(frozenset(i for i, k in enumerate(e) if k))
        supports = [s for s in supports if s]
        # minimal hitting sets by branch and prune (n is small)
        covers: list[frozenset] = []

        def rec(idx: int, chosen: frozenset):
            if any(c <= chosen for c in covers):
                return
            if idx == len(supports):
                covers[:] = [c for c in covers if not chosen < c]
                if not any(c <= chosen for c in covers):
                    covers.append(chosen)
                return
            if supports[idx] & chosen:
                rec(idx + 1, chosen)
                return
            for v in sorted(supports[idx]):
                rec(idx + 1, chosen | {v})

        rec(0, frozenset())
        uniq = sorted({tuple(sorted(c)) for c in covers})
        minimal = [c for c in uniq
                   if not any(set(o) < set(c) for o in uniq)]
        return [tuple(ring.names[i] for i in c) for c in minimal]

    def components(self) -> list[tuple[str, ...]]:
        """Polynomial-ring components of A/(derived ideal): kept variables per prime."""
        ring = self.algebra.ring
        out = []
        for prime in self.minimal_primes():
            kept = tuple(v for v in ring.names if v not in prime)
            out.append(kept)
        return sorted(out)
