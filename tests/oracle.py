"""Independent brute-force implementations used to cross-check expected values.

Deliberately naive and separate from the main library: dense exponent-table
polynomials, a recursive Leibniz bracket (no biderivation formula), plain
Gaussian elimination over Fractions, and direct power iteration for orders.
Only the exact scalar type is shared; `OracleCyclo` is an independent
Fraction-tuple reference for that type itself.  The eliminations pwb ran
before its integer kernel (dense Gauss-Jordan over Cyclo entries, and the
fixed-ring generator echelon over pwb `Poly` values) are kept here as
references for that kernel, and so are the `Poly`-product bracket and
substitution, the fully enumerated invariant-monoid search, the Molien
series summed over enumerated elements (with `pwb.series` for the sum of
fractions), the chart-union check of projective solving, and the two
splitters that `pwb.solver.split` replaced (over pwb's Groebner bases and
root extraction), and the word-matrix elimination of every degree that
`pwb.envelope.envelope_dims` ran before it counted normal words, and the
Buchberger on monic `Poly` values that `pwb.solver` ran before its integer
kernel, and the minimal-polynomial eigenvalues, the image-and-bracket
automorphism check and the bracket-built center that `pwb.symmetry` and
`pwb.brackets` ran before they read the bracket table, and the eigenspaces
by `kernel_basis`, the bracket-built transport and the `Poly`-product rows
of the derived ideal that they ran before they read a rank-one update's
eigenspaces in closed form, and the mixed-ring builders of the
normal-element and reflection charts and the bracket-built Jacobi check
that they ran before they read those systems off the table, and the
envelope tasks `pwb.envelope` ran before it resolved overlaps of leading
words and kept its degree-2 echelon: degree 3 by elimination, the relation
images of an extension reduced against the relations, and the trace by
products and divisions, and the loops that applied the Leibniz rule to the
table before `PoissonAlgebra.hamiltonian` did it once: the bracket over the
table pairs, the Jacobiator, the Lie Jacobi check by structure constants and
the modular derivation by `Poly` sums, and what pwb ran before it read maps
by their nonzero entries: series equality by cross-multiplication, the
weighted Hilbert series by `UPoly` products, the character count over
[0, e)^n, and the 2x2-minor reader with the automorphism check and the
substituting transport built on it.
`least_conductor` solves for a value's least conductor divisor by divisor,
as the reference of `Cyclo.least`, and the root extraction with cyclotomic
trial division is the reference of `pwb.upoly.extract_roots`.  The
pointwise normal-element check and the Poisson-derivation test on its answer
live only here: pwb itself finds normal elements by `normal_find_deg1`.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd
from operator import add
from typing import Optional

from pwb.errors import (DegreeBudgetExceededError, DivisorZeroError, NotAutomorphismError,
                        PwbError, ScalarError, UnsplittableConditionError, ZeroElementError)
from pwb.brackets import PoissonAlgebra, PoissonDerivation
from pwb.envelope import EnvelopeExtension, envelope_presentation
from pwb.linalg import Echelon, Matrix, kernel, rank, realify, rref, solve_linear
from pwb.rings import Poly, PolyRing, _add_terms, _mul_terms, _partial_terms, grlex_key
from pwb.scalars import (Cyclo, conductor, cyclotomic_polynomial, divisors, euler_phi, lcm, zeta,
                         zpoly_mul, zpoly_quotient)
from pwb.series import RationalSeries
from pwb.solver import DEFAULT_BUDGET, EMPTY, POINTS, groebner_basis, lex_order
from pwb.symmetry import (FINITE_NON_REFLECTION, IDENTITY, INFINITE_ORDER, NOT_AUTOMORPHISM,
                          REFLECTION, Classification, GradedMap, is_poisson_automorphism)
from pwb.upoly import UPoly, _rational_root_candidates, _root_of_unity_candidates, extract_roots

ZERO = Cyclo.of(0)
ONE = Cyclo.of(1)


class DensePoly:
    """Coefficient table over all exponent tuples (kept explicitly, zeros too)."""

    def __init__(self, nvars: int, table=None):
        self.nvars = nvars
        self.table = dict(table or {})

    @staticmethod
    def variable(nvars: int, i: int) -> "DensePoly":
        e = [0] * nvars
        e[i] = 1
        return DensePoly(nvars, {tuple(e): ONE})

    @staticmethod
    def scalar(nvars: int, c) -> "DensePoly":
        return DensePoly(nvars, {(0,) * nvars: Cyclo.of(c)})

    def clean(self) -> "DensePoly":
        return DensePoly(self.nvars, {e: c for e, c in self.table.items() if not c.is_zero()})

    def add(self, other: "DensePoly") -> "DensePoly":
        out = dict(self.table)
        for e, c in other.table.items():
            out[e] = out.get(e, ZERO) + c
        return DensePoly(self.nvars, out).clean()

    def scale(self, c) -> "DensePoly":
        c = Cyclo.of(c)
        return DensePoly(self.nvars, {e: v * c for e, v in self.table.items()}).clean()

    def mul(self, other: "DensePoly") -> "DensePoly":
        out: dict = {}
        for e1, c1 in self.table.items():
            for e2, c2 in other.table.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, ZERO) + c1 * c2
        return DensePoly(self.nvars, out).clean()

    def power(self, k: int) -> "DensePoly":
        acc = DensePoly.scalar(self.nvars, 1)
        for _ in range(k):
            acc = acc.mul(self)
        return acc

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.table.values())

    def equals(self, other: "DensePoly") -> bool:
        return self.add(other.scale(-1)).is_zero()

    def derivative(self, i: int) -> "DensePoly":
        out: dict = {}
        for e, c in self.table.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = out.get(tuple(ne), ZERO) + c * e[i]
        return DensePoly(self.nvars, out).clean()

    def substitute_var(self, i: int, replacement: "DensePoly") -> "DensePoly":
        acc = DensePoly(self.nvars)
        for e, c in self.table.items():
            term = DensePoly.scalar(self.nvars, c)
            for j, k in enumerate(e):
                base = replacement if j == i else DensePoly.variable(self.nvars, j)
                term = term.mul(base.power(k))
            acc = acc.add(term)
        return acc

    def substitute_all(self, images: list) -> "DensePoly":
        """Simultaneous substitution x_i -> images[i]."""
        acc = DensePoly(self.nvars)
        for e, c in self.table.items():
            term = DensePoly.scalar(self.nvars, c)
            for j, k in enumerate(e):
                if k:
                    term = term.mul(images[j].power(k))
            acc = acc.add(term)
        return acc


class OracleBracket:
    """Bracket from a generator table, extended by recursive Leibniz only."""

    def __init__(self, nvars: int, table: dict):
        self.nvars = nvars
        self.table = {}
        for (i, j), p in table.items():
            self.table[(i, j)] = p
            self.table[(j, i)] = p.scale(-1)

    def pair(self, i: int, j: int) -> DensePoly:
        return self.table.get((i, j), DensePoly(self.nvars))

    def mono_bracket(self, e1: tuple, e2: tuple) -> DensePoly:
        """{x^e1, x^e2} by peeling one variable at a time (Leibniz)."""
        n = self.nvars
        if sum(e1) == 0 or sum(e2) == 0:
            return DensePoly(n)
        if sum(e1) == 1 and sum(e2) == 1:
            return self.pair(e1.index(1), e2.index(1))
        if sum(e1) > 1:
            i = next(t for t, k in enumerate(e1) if k)
            rest = list(e1)
            rest[i] -= 1
            rest = tuple(rest)
            xi = (0,) * i + (1,) + (0,) * (n - i - 1)
            # {x_i * r, g} = x_i {r, g} + {x_i, g} r
            a = DensePoly.variable(n, i).mul(self.mono_bracket(rest, e2))
            b = self.mono_bracket(xi, e2).mul(DensePoly(n, {rest: ONE}))
            return a.add(b)
        # sum(e1) == 1 < sum(e2): use antisymmetry
        return self.mono_bracket(e2, e1).scale(-1)

    def bracket(self, f: DensePoly, g: DensePoly) -> DensePoly:
        acc = DensePoly(self.nvars)
        for e1, c1 in f.table.items():
            for e2, c2 in g.table.items():
                acc = acc.add(self.mono_bracket(e1, e2).scale(c1 * c2))
        return acc

    def modular_images(self) -> list[DensePoly]:
        """phi(x_i) = sum_j d{x_i, x_j}/dx_j from the definition."""
        out = []
        for i in range(self.nvars):
            acc = DensePoly(self.nvars)
            for j in range(self.nvars):
                acc = acc.add(self.pair(i, j).derivative(j))
            out.append(acc)
        return out


def dense_rank(rows: list[list[Fraction]]) -> int:
    """Plain Gaussian elimination over Fractions."""
    rows = [list(r) for r in rows if any(x != 0 for x in r)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def cyclo_sparse_rank(rows: list[dict]) -> int:
    """Rank of sparse rows (column -> Cyclo) by elimination over Q(zeta_N) itself."""
    pivots: dict[int, dict] = {}
    for row in rows:
        row = {k: v for k, v in row.items() if not v.is_zero()}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = row[lead].inverse()
                pivots[lead] = {k: v * inv for k, v in row.items()}
                break
            f = row[lead]
            for k, v in piv.items():
                acc = row.get(k, ZERO) - f * v
                if acc.is_zero():
                    row.pop(k, None)
                else:
                    row[k] = acc
    return len(pivots)


def matrix_order_by_iteration(rows, cap: int = 64):
    """Multiplicative order by direct power iteration, or None past the cap."""
    n = len(rows)
    rows = [[Cyclo.of(x) for x in row] for row in rows]

    def mul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(n)), ZERO) for j in range(n)]
                for i in range(n)]

    def is_identity(m):
        return all((m[i][j].is_one() if i == j else m[i][j].is_zero())
                   for i in range(n) for j in range(n))

    power = rows
    for k in range(1, cap + 1):
        if is_identity(power):
            return k
        power = mul(power, rows)
    return None


def _dense_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), ZERO) for j in range(n)]
            for i in range(n)]


def group_elements(mats, bound: int):
    """The group generated by square matrices (lists of rows), as pwb enumerated
    it before it computed abelian groups from their characters: breadth-first
    from the identity with products by the definition.  Returns the element
    matrices (lists of Cyclo rows), or None past `bound` elements."""
    n = len(mats[0])
    gens = [[[Cyclo.of(x) for x in row] for row in m] for m in mats]
    m = conductor_of(gens)
    identity = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    seen = {matrix_key(identity, m)}
    elements = frontier = [identity]
    while frontier:
        new_frontier = []
        for e in frontier:
            for g in gens:
                h = _dense_mul(e, g)
                key = matrix_key(h, m)
                if key not in seen:
                    seen.add(key)
                    new_frontier.append(h)
                    if len(seen) > bound:
                        return None
        elements = elements + new_frontier
        frontier = new_frontier
    return elements


def group_by_products(mats, bound: int):
    """The `group_elements` of these generators as (keys, exponent): each
    element keyed by its entries lifted to the lcm conductor M of the
    generators (see `matrix_key`), and the exponent as the lcm of the element
    orders; or (None, None) past `bound` elements.  Each cyclic subgroup is
    walked once, by products up to the identity: if h has order k, its power
    h^j has order k / gcd(j, k)."""
    elements = group_elements(mats, bound)
    if elements is None:
        return None, None
    m = conductor_of([[[Cyclo.of(x) for x in row] for row in g] for g in mats])
    identity = matrix_key(elements[0], m)
    orders: dict = {}
    for h in elements:
        if matrix_key(h, m) in orders:
            continue
        powers = [h]
        while matrix_key(powers[-1], m) != identity:
            powers.append(_dense_mul(powers[-1], h))
        k = len(powers)
        for j, p in enumerate(powers, 1):
            orders.setdefault(matrix_key(p, m), k // gcd(j, k))
    exponent = 1
    for k in orders.values():
        exponent = lcm(exponent, k)
    return set(orders), exponent


def det_one_minus_t(rows) -> list[Cyclo]:
    """Coefficients of det(1 - g t) in t, from the power sums p_k = tr(g^k) by
    Newton's identities: det(1 - g t) = sum_k (-1)^k e_k t^k with
    k e_k = sum_{i=1}^k (-1)^(i-1) e_(k-i) p_i."""
    n = len(rows)
    p = [ZERO]
    power = rows
    for _ in range(n):
        p.append(sum((power[i][i] for i in range(n)), ZERO))
        power = _dense_mul(power, rows)
    e = [ONE]
    for k in range(1, n + 1):
        acc = ZERO
        for i in range(1, k + 1):
            term = e[k - i] * p[i]
            acc = acc + term if i % 2 else acc - term
        e.append(acc / k)
    return [c if k % 2 == 0 else -c for k, c in enumerate(e)]


def molien_by_charpoly_sum(mats):
    """The Molien series of the group the matrices generate, as pwb summed it
    before it counted the characters of an abelian group: 1/det(1 - g t)
    summed over the `group_elements` (at most 512) and divided by their number."""
    elements = group_elements(mats, 512)
    total = None
    for g in elements:
        s = RationalSeries(UPoly.one(), UPoly(det_one_minus_t(g)))
        total = s if total is None else total + s
    return total / Cyclo.of(len(elements))


def conductor_of(mats) -> int:
    """The lcm conductor of the entries of matrices given as lists of Cyclo rows."""
    m = 1
    for mat in mats:
        for row in mat:
            for c in row:
                m = lcm(m, c.n)
    return m


def matrix_key(rows, m: int) -> tuple:
    """Exact entries lifted to conductor m: equal matrices get equal keys."""
    return tuple((c.lift_to(m).num, c.lift_to(m).den) for row in rows for c in row)


def monomial_is_invariant(exps, chars_per_gen) -> bool:
    """The eigenbasis monomial y^exps is fixed by every generator: the product
    of its characters, taken with Cyclo powers, is 1."""
    for chars in chars_per_gen:
        acc = ONE
        for j, e in enumerate(exps):
            if e:
                acc = acc * chars[j] ** e
        if not acc.is_one():
            return False
    return True


def exponents_up_to(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Every exponent tuple of total degree at most `degree`."""
    return [e for e in product(range(degree + 1), repeat=nvars) if sum(e) <= degree]


def invariant_monomial_counts(chars_per_gen, nvars: int, degree: int) -> list[int]:
    """Invariant eigenbasis monomials of each degree 0..degree, one by one."""
    counts = [0] * (degree + 1)
    for e in exponents_up_to(nvars, degree):
        if monomial_is_invariant(e, chars_per_gen):
            counts[sum(e)] += 1
    return counts


# -- the reference eliminations ---------------------------------------------------
#
# The dense Gauss-Jordan over Cyclo entries, the dense determinant and the
# sparse Poly echelon that pwb.linalg and pwb.fixedrings used before every
# elimination moved to the integer kernel `pwb.linalg.Echelon`, kept as
# differential oracles for it and for `Matrix.det`.


class SingularOracleMatrix(Exception):
    pass


def dense_rref(rows: list[list[Cyclo]]) -> tuple[list[list[Cyclo]], list[int]]:
    """Reduced row echelon form (zero rows kept, last) and pivot columns."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    row_at = 0
    for col in range(ncols):
        pr = next((r for r in range(row_at, len(work)) if not work[r][col].is_zero()), None)
        if pr is None:
            continue
        work[row_at], work[pr] = work[pr], work[row_at]
        inv = work[row_at][col].inverse()
        work[row_at] = [x * inv for x in work[row_at]]
        lead = work[row_at]
        for r in range(len(work)):
            if r != row_at and not work[r][col].is_zero():
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], lead)]
        pivots.append(col)
        row_at += 1
        if row_at == len(work):
            break
    return work, pivots


def dense_kernel(rows: list[list[Cyclo]], ncols: int) -> list[list[Cyclo]]:
    """Right nullspace basis, one vector per free column."""
    reduced, pivots = dense_rref(rows)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        vec = [ZERO] * ncols
        vec[f] = ONE
        for i, p in enumerate(pivots):
            vec[p] = -reduced[i][f]
        basis.append(vec)
    return basis


def dense_inverse(rows: list[list[Cyclo]]) -> list[list[Cyclo]]:
    n = len(rows)
    aug = [list(r) + [ONE if j == i else ZERO for j in range(n)] for i, r in enumerate(rows)]
    reduced, pivots = dense_rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularOracleMatrix
    return [r[n:] for r in reduced]


def dense_det(rows: list[list[Cyclo]]) -> Cyclo:
    """Determinant by Gaussian elimination, one pivot inverse per column."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise SingularOracleMatrix("not square")
    work = [list(r) for r in rows]
    acc = ONE
    for col in range(n):
        pr = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
        if pr is None:
            return ZERO
        if pr != col:
            work[col], work[pr] = work[pr], work[col]
            acc = -acc
        pivot = work[col][col]
        acc = acc * pivot
        inv = pivot.inverse()
        for r in range(col + 1, n):
            if not work[r][col].is_zero():
                f = work[r][col] * inv
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return acc


def dense_solve(rows: list[list[Cyclo]], ncols: int, b: list[Cyclo]) -> Optional[list[Cyclo]]:
    """One solution of A x = b, or None if inconsistent."""
    reduced, pivots = dense_rref([list(r) + [x] for r, x in zip(rows, b)])
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for i, p in enumerate(pivots):
        x[p] = reduced[i][ncols]
    return x


def _grlex(e):
    return (sum(e), e)


def _reduce_against(poly, echelon: dict):
    changed = True
    while changed and not poly.is_zero():
        changed = False
        for e in sorted(poly.terms, key=_grlex, reverse=True):
            hit = echelon.get(e)
            if hit is not None:
                poly = poly - poly.terms[e] * hit
                changed = True
                break
    return poly


def _echelon_insert(poly, echelon: dict):
    """Reduce and insert; returns the monic remainder if it was new."""
    poly = _reduce_against(poly, echelon)
    if poly.is_zero():
        return None
    lead = max(poly.terms, key=_grlex)
    poly = poly * poly.terms[lead].inverse()
    echelon[lead] = poly
    return poly


def _products_of_degree(chosen: list, k: int) -> list:
    """Every product of (generator, degree) pairs of total degree k, one per
    multiset, by recursion: pwb formed them so before it mapped the weighted
    monomials of the generator ring through one substitution."""
    out = []

    def rec(idx: int, remaining: int, acc):
        if remaining == 0:
            if acc is not None:
                out.append(acc)
            return
        if idx == len(chosen):
            return
        poly, deg = chosen[idx]
        rec(idx + 1, remaining, acc)
        if deg <= remaining:
            rec(idx, remaining - deg, poly if acc is None else acc * poly)

    rec(0, k, None)
    return out


def poly_echelon_generators(bases_per_degree: dict, d: int) -> list:
    """Generators per degree as remainders of the invariant basis against the
    products of lower-degree generators, in a per-degree echelon of pwb
    `Poly` values keyed by leading monomial (grlex), made monic."""
    chosen: list = []
    for k in range(1, d + 1):
        echelon: dict = {}
        for prod in _products_of_degree(chosen, k):
            _echelon_insert(prod, echelon)
        for vec in bases_per_degree.get(k, []):
            new = _echelon_insert(vec, echelon)
            if new is not None:
                chosen.append((new, k))
    return chosen


# -- pointwise normality ------------------------------------------------------------
#
# `normal_find_deg1` solves for every degree-one normal direction at once; these
# test one element at a time, by exact division, and check that the derivation a
# normal element defines is a Poisson derivation.


def divides_into(u, f):
    """Exact quotient f/u of pwb `Poly`s, or None.  Errors if u == 0."""
    if u.is_zero():
        raise DivisorZeroError("division by the zero polynomial")
    if u.ring != f.ring:
        raise PwbError("polynomials from different rings")
    le, lc = u.leading()
    lc_inv = lc.inverse()
    quotient = u.ring.zero()
    rem = f
    while not rem.is_zero():
        re, rc = rem.leading()
        if any(a < b for a, b in zip(re, le)):
            return None
        qe = tuple(a - b for a, b in zip(re, le))
        qt = u.ring.monomial(qe, rc * lc_inv)
        quotient = quotient + qt
        rem = rem - qt * u
    return quotient


def normal_check(A, u):
    """pi_u with {u, x_j} = pi_u(x_j) * u for all j, or None."""
    if u.is_zero():
        raise PwbError("normality of zero is undefined")
    images = []
    for x in A.ring.gens():
        b = poly_bracket(A, u, x)
        q = divides_into(u, b) if not b.is_zero() else A.ring.zero()
        if q is None:
            return None
        images.append(q)
    return PoissonDerivation(A, images)


def derivation_apply(D, f):
    """D(f) for a `PoissonDerivation` D, by the chain rule on its images."""
    out = D.algebra.ring.zero()
    for i, img in enumerate(D.images):
        if not img.is_zero():
            fi = f.partial(i)
            if not fi.is_zero():
                out = out + fi * img
    return out


def derivation_is_poisson(D) -> bool:
    """Check alpha({x_i, x_j}) = {alpha(x_i), x_j} + {x_i, alpha(x_j)} on generators."""
    A = D.algebra
    xs = A.ring.gens()
    for i in range(A.nvars):
        for j in range(i + 1, A.nvars):
            lhs = derivation_apply(D, A.pair(i, j))
            rhs = poly_bracket(A, D.images[i], xs[j]) + poly_bracket(A, xs[i], D.images[j])
            if lhs != rhs:
                return False
    return True


# -- Poly-level routines pwb ran before its term-dict bracket ----------------------
#
# pwb's bracket and substitution now run on term dicts with each partial taken
# once, and its invariant-monoid search is bounded by the character orders.
# These are the earlier versions, unchanged but for their names: the bracket
# takes four `Poly.partial`s and three `Poly` products per table pair, and the
# monoid generators are found by enumerating every monomial up to degree d.


def poly_bracket(A, f, g):
    """{f, g} of a pwb `PoissonAlgebra` by `Poly` partials and products."""
    out = A.ring.zero()
    for (i, j), p in A.table.items():
        fi, fj = f.partial(i), f.partial(j)
        gi, gj = g.partial(i), g.partial(j)
        term = fi * gj - fj * gi
        if not term.is_zero():
            out = out + term * p
    return out


def poly_substitute(f, images, target=None):
    """Evaluate a pwb `Poly` at x_i -> images[i] by `Poly` products and sums."""
    tgt = target or f.ring
    result = tgt.zero()
    power_cache: dict = {}

    def power(i: int, k: int):
        got = power_cache.get((i, k))
        if got is None:
            got = images[i] ** k
            power_cache[(i, k)] = got
        return got

    for e, c in f.terms.items():
        term = tgt.scalar(c)
        for i, k in enumerate(e):
            if k:
                term = term * power(i, k)
        result = result + term
    return result


def _invariant_monomials(ring, logs, e: int, k: int) -> list:
    return [x for x in ring.monomials_of_degree(k)
            if all(sum(a * t for a, t in zip(row, x)) % e == 0 for row in logs)]


def diagonal_bases(ring, T, logs, e: int, d: int) -> dict:
    """At every degree 1..d, every invariant eigenbasis monomial y^x written
    in x (y_j the j-th column of T), leading terms descending: the bases pwb
    reduced before it expanded the monoid generators alone."""
    ys = [ring.linear_form(T.column(j)) for j in range(ring.nvars)]
    return {k: sorted((poly_substitute(ring.monomial(x), ys)
                       for x in _invariant_monomials(ring, logs, e, k)),
                      key=lambda p: _grlex(p.leading()[0]), reverse=True)
            for k in range(1, d + 1)}


def enumerated_monoid_generators(ring, logs, e: int, d: int) -> list:
    """The non-decomposable invariant exponents up to degree d, by (degree,
    grlex), from every monomial of each degree."""
    gen_exps: list = []
    for k in range(1, d + 1):
        new = [x for x in _invariant_monomials(ring, logs, e, k)
               if not any(all(a >= b for a, b in zip(x, g)) for g in gen_exps)]
        gen_exps.extend(sorted(new, key=_grlex))
    return gen_exps


# -- the reference scalar type ---------------------------------------------------
#
# Q(zeta_N) as a phi(N)-tuple of Fractions: the representation pwb.scalars used
# before it moved to integer numerators over one denominator, kept as the
# differential oracle for that arithmetic.  The inverse is extended Euclid over
# Q with Phi_N.  Only the integer helpers (Phi_N, phi, lcm) are shared.

_FZERO = Fraction(0)
_FONE = Fraction(1)


_O_REDUCTION_ROWS: dict[int, list[tuple[Fraction, ...]]] = {}


def _reduction_table(n: int, upto: int) -> list[tuple[Fraction, ...]]:
    """Rows j = 0.. with x^(deg+j) mod Phi_n as phi(n)-vectors, grown on demand."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = _O_REDUCTION_ROWS.setdefault(n, [])
    if not rows:
        # x^deg = -(phi_0 + ... + phi_{deg-1} x^{deg-1})
        rows.append(tuple(Fraction(-phi[k]) for k in range(deg)))
    while len(rows) <= upto:
        current = list(rows[-1])
        top = current[deg - 1]
        current = [_FZERO] + current[: deg - 1]
        if top:
            current = [current[k] - top * phi[k] for k in range(deg)]
        rows.append(tuple(current))
    return rows


def _reduce_mod_cyclotomic(coeffs: list[Fraction], n: int) -> tuple[Fraction, ...]:
    deg = euler_phi(n)
    if len(coeffs) <= deg:
        return tuple(coeffs) + (_FZERO,) * (deg - len(coeffs))
    table = _reduction_table(n, len(coeffs) - deg - 1)
    out = list(coeffs[:deg])
    for j in range(deg, len(coeffs)):
        c = coeffs[j]
        if c:
            row = table[j - deg]
            for k in range(deg):
                if row[k]:
                    out[k] += c * row[k]
    return tuple(out)


@lru_cache(maxsize=None)
def _power_vector(n: int, e: int) -> tuple[Fraction, ...]:
    """Canonical vector of zeta_n^e."""
    e %= n
    deg = euler_phi(n)
    if e < deg:
        return tuple(_FONE if k == e else _FZERO for k in range(deg))
    return _reduce_mod_cyclotomic([_FZERO] * e + [_FONE], n)


@lru_cache(maxsize=None)
def _root_of_unity_logs(n: int) -> dict[tuple[Fraction, ...], int]:
    """Canonical vector of zeta_n^a -> a, for 0 <= a < n."""
    return {_power_vector(n, a): a for a in range(n)}


@lru_cache(maxsize=None)
def _lift_matrix(n: int, m: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rows: canonical vectors (conductor m) of zeta_n^k for k < phi(n). Requires n | m."""
    step = m // n
    return tuple(_power_vector(m, k * step) for k in range(euler_phi(n)))


class OracleCyclo:
    """Immutable element of Q(zeta_N), reduced mod Phi_N."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, coeffs):
        if n < 1:
            raise ScalarError("conductor must be >= 1")
        coeffs = tuple(Fraction(x) for x in coeffs)
        if len(coeffs) != euler_phi(n):
            raise ScalarError(f"expected {euler_phi(n)} coefficients for conductor {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("OracleCyclo is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(value) -> "OracleCyclo":
        if isinstance(value, OracleCyclo):
            return value
        return OracleCyclo(1, (Fraction(value),))

    @staticmethod
    def zero() -> "OracleCyclo":
        return _O_ZERO

    @staticmethod
    def one() -> "OracleCyclo":
        return _O_ONE

    # -- structure ----------------------------------------------------

    def lift_to(self, m: int) -> "OracleCyclo":
        if m == self.n:
            return self
        if m % self.n:
            raise ScalarError(f"cannot lift conductor {self.n} into {m}")
        deg_m = euler_phi(m)
        out = [_FZERO] * deg_m
        rows = _lift_matrix(self.n, m)
        for k, ck in enumerate(self.c):
            if ck:
                row = rows[k]
                for j in range(deg_m):
                    if row[j]:
                        out[j] += ck * row[j]
        return OracleCyclo(m, out)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.c)

    def is_one(self) -> bool:
        return self.c[0] == 1 and all(x == 0 for x in self.c[1:])

    def is_rational(self) -> bool:
        return all(x == 0 for x in self.c[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"{self} is not rational")
        return self.c[0]

    # -- arithmetic ---------------------------------------------------

    def _aligned(self, other: "OracleCyclo") -> tuple["OracleCyclo", "OracleCyclo"]:
        if self.n == other.n:
            return self, other
        m = lcm(self.n, other.n)
        return self.lift_to(m), other.lift_to(m)

    def __add__(self, other):
        if not isinstance(other, OracleCyclo):
            if isinstance(other, (int, Fraction)):
                other = OracleCyclo.of(other)
            else:
                return NotImplemented
        a, b = self._aligned(other)
        return OracleCyclo(a.n, tuple(x + y for x, y in zip(a.c, b.c)))

    __radd__ = __add__

    def __neg__(self):
        return OracleCyclo(self.n, tuple(-x for x in self.c))

    def __sub__(self, other):
        if not isinstance(other, OracleCyclo):
            if isinstance(other, (int, Fraction)):
                other = OracleCyclo.of(other)
            else:
                return NotImplemented
        a, b = self._aligned(other)
        return OracleCyclo(a.n, tuple(x - y for x, y in zip(a.c, b.c)))

    def __rsub__(self, other):
        return OracleCyclo.of(other) - self

    def __mul__(self, other):
        if not isinstance(other, OracleCyclo):
            if isinstance(other, (int, Fraction)):
                f = Fraction(other)
                return OracleCyclo(self.n, tuple(x * f for x in self.c))
            return NotImplemented
        a, b = self._aligned(other)
        if a.n == 1:
            return OracleCyclo(1, (a.c[0] * b.c[0],))
        la, lb = len(a.c), len(b.c)
        conv = [_FZERO] * (la + lb - 1)
        for i, x in enumerate(a.c):
            if x:
                for j, y in enumerate(b.c):
                    if y:
                        conv[i + j] += x * y
        return OracleCyclo(a.n, _reduce_mod_cyclotomic(conv, a.n))

    __rmul__ = __mul__

    def inverse(self) -> "OracleCyclo":
        if self.is_zero():
            raise ZeroElementError("cannot invert zero")
        if self.n == 1:
            return OracleCyclo(1, (1 / self.c[0],))
        phi = [Fraction(k) for k in cyclotomic_polynomial(self.n)]
        inv = _poly_modular_inverse(list(self.c), phi)
        return OracleCyclo(self.n, _reduce_mod_cyclotomic(inv, self.n))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if f == 0:
                raise ZeroElementError("division by zero")
            return OracleCyclo(self.n, tuple(x / f for x in self.c))
        if isinstance(other, OracleCyclo):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return OracleCyclo.of(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = OracleCyclo.of(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = OracleCyclo.of(other)
        if not isinstance(other, OracleCyclo):
            return NotImplemented
        a, b = self._aligned(other)
        return a.c == b.c

    __hash__ = None  # equal values may live at different conductors

    def __bool__(self):
        return not self.is_zero()

    # -- multiplicative order ------------------------------------------

    def root_of_unity_log(self) -> Optional[tuple[int, int]]:
        """(a, M) with self = zeta_M^a, 0 <= a < M = lcm(2, N), or None.
        Exact: every root of unity in Q(zeta_N) is a power of zeta_M."""
        if self.is_zero():
            raise ZeroElementError("zero is not a root of unity")
        m = lcm(2, self.n)
        a = _root_of_unity_logs(m).get(self.lift_to(m).c)
        return None if a is None else (a, m)

    def root_of_unity_order(self) -> Optional[int]:
        """Least m with self^m = 1, or None."""
        log = self.root_of_unity_log()
        if log is None:
            return None
        a, m = log
        return m // gcd(a, m)

    # -- printing -------------------------------------------------------

    def __str__(self):
        if self.is_rational():
            return str(self.c[0])
        parts = []
        for k, ck in enumerate(self.c):
            if ck == 0:
                continue
            if k == 0:
                parts.append(str(ck))
                continue
            z = f"zeta({self.n})" + (f"^{k}" if k > 1 else "")
            if ck == 1:
                term = z
            elif ck == -1:
                term = f"-{z}"
            else:
                term = f"{ck}*{z}"
            parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"OracleCyclo({self})"


_O_ZERO = OracleCyclo(1, (_FZERO,))
_O_ONE = OracleCyclo(1, (_FONE,))


def least_conductor(value) -> OracleCyclo:
    """The value (anything with a conductor `n` and Fraction coordinates `c`)
    at its least conductor: the first divisor M of n, in ascending order,
    for which x L = c has an exact solution over Fractions, L the rows of
    zeta_M^k (k < phi(M)) lifted to n."""
    n, target = value.n, list(value.c)
    for m in (d for d in range(1, n + 1) if n % d == 0):
        x = _solve_rows(_lift_matrix(m, n), target)
        if x is not None:
            return OracleCyclo(m, x)
    raise AssertionError("a value lies in the field it is stored in")


def _solve_rows(rows, target: list[Fraction]) -> Optional[list[Fraction]]:
    """x with sum_k x_k rows[k] == target, or None: Gauss-Jordan on the
    transposed system [rows^T | target].  The rows are independent."""
    k = len(rows)
    system = [[row[j] for row in rows] + [t] for j, t in enumerate(target)]
    for col in range(k):
        pivot = next(i for i in range(col, len(system)) if system[i][col])
        system[col], system[pivot] = system[pivot], system[col]
        top = system[col][col]
        system[col] = [x / top for x in system[col]]
        for i, row in enumerate(system):
            f = row[col]
            if i != col and f:
                system[i] = [x - f * y for x, y in zip(row, system[col])]
    if any(row[-1] for row in system[k:]):
        return None
    return [system[i][-1] for i in range(k)]


# -- Fraction-coefficient univariate helpers (internal) -----------------


def _fpoly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _fpoly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    q = [_FZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        q[i] = c
        if c:
            for j, d in enumerate(b):
                a[i + j] -= c * d
    return q, _fpoly_trim(a)


def _poly_modular_inverse(a: list[Fraction], mod: list[Fraction]) -> list[Fraction]:
    """Inverse of a mod the monic polynomial `mod`, over Q (extended Euclid)."""
    r0, r1 = list(mod), _fpoly_trim(list(a))
    s0, s1 = [_FZERO], [_FONE]
    while r1:
        q, r = _fpoly_divmod(r0, r1)
        r0, r1 = r1, r
        # s0 - q*s1
        prod = [_FZERO] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    if sc:
                        prod[i + j] += qc * sc
        new_s = [_FZERO] * max(len(s0), len(prod))
        for i, c in enumerate(s0):
            new_s[i] += c
        for i, c in enumerate(prod):
            new_s[i] -= c
        s0, s1 = s1, _fpoly_trim(new_s)
    if len(r0) != 1:
        raise ZeroElementError("element is a zero divisor (not invertible)")
    inv_gcd = 1 / r0[0]
    return [c * inv_gcd for c in s0]


# -- the chart-union check of projective solving ------------------------------
#
# `pwb.solver.aggregate_chart_results` accepts a union of chart pieces as the
# subspace P(V) by counting pivots of V.  This is the check it ran before: it
# solves for V's piece in each chart and compares it with the chart's piece as
# canonical affine subspaces keyed by their printed entries.


def canonical_affine(particular: list[Cyclo], directions: list[list[Cyclo]]
                     ) -> tuple[tuple, tuple]:
    """Canonical (particular, direction-space) pair for affine-subspace equality."""
    dirs, pivots, _ = rref([dict(enumerate(v)) for v in directions], len(particular))
    p = list(particular)
    for row, pv in zip(dirs, pivots):
        f = p[pv]
        if not f.is_zero():
            p = [x - f * y for x, y in zip(p, row)]
    key_dirs = tuple(tuple(str(x) for x in r) for r in dirs)
    key_p = tuple(str(x) for x in p)
    return key_p, key_dirs


def verify_union_is_subspace(basis: list[list[Cyclo]], chart_results, n: int) -> bool:
    """Check the chart pieces assemble exactly to the candidate subspace."""
    b = Matrix(basis)  # r x n
    for m, res in enumerate(chart_results):
        # V intersect chart m: combinations s with (s.B)_i = 0 for i < m, = 1 at m
        rows = [[b.rows[k][i] for k in range(b.nrows)] for i in range(m + 1)]
        rhs = [ZERO] * m + [ONE]
        s0 = solve_linear(Matrix(rows), rhs)
        if s0 is None:
            if res.kind != EMPTY:
                return False
            continue
        if res.kind == EMPTY:
            return False
        null = Matrix(rows).kernel_basis()
        part = [sum((s0[k] * b.rows[k][i] for k in range(b.nrows)), ZERO) for i in range(n)]
        dirs = []
        for kv in null:
            d = [sum((kv[k] * b.rows[k][i] for k in range(b.nrows)), ZERO) for i in range(n)]
            dirs.append(d)
        if res.kind == POINTS:
            if len(res.points) != 1 or dirs and any(any(not x.is_zero() for x in d) for d in dirs):
                return False
            expect = [ZERO] * m + [ONE] + list(res.points[0])
            if canonical_affine(part, [])[0] != canonical_affine(expect, [])[0]:
                return False
        else:
            expect_p = [ZERO] * m + [ONE] + list(res.particular)
            expect_d = [[ZERO] * (m + 1) + list(d) for d in res.directions]
            if canonical_affine(part, dirs) != canonical_affine(expect_p, expect_d):
                return False
    return True


# -- the splitters pwb ran before `solver.split` ----------------------------------
#
# `pwb.solver.split` branches on a univariate generator, on monomial content,
# and on the univariate of a lex basis when a zero-dimensional grlex basis
# holds none.  These are the two splitters it replaced: the lex
# back-substitution that gave a zero-dimensional chart its points, and the
# reflection search's grlex-only splitter, which leaves such a basis unsplit.


def _as_univariate(f, var: int) -> Optional[UPoly]:
    """f as a polynomial in variable `var` alone, or None when another occurs."""
    if any(k and i != var for e in f.terms for i, k in enumerate(e)):
        return None
    coeffs = [ZERO] * (1 + max(e[var] for e in f.terms))
    for e, c in f.terms.items():
        coeffs[e[var]] = c
    return UPoly(coeffs)


def _substitute(f, var: int, value: Cyclo):
    ring = f.ring
    images = [ring.scalar(value) if i == var else ring.var(i) for i in range(ring.nvars)]
    return f.substitute(images, ring)


def _distinct(values: list) -> list:
    out: list = []
    for v in values:
        if v not in out:
            out.append(v)
    return out


def lex_points(gens, ring, budget: int = DEFAULT_BUDGET) -> Optional[list[list[Cyclo]]]:
    """The points of a zero-dimensional system, by back-substitution over its lex
    basis from the last variable up; None when a univariate condition does not
    split, a variable stays free, or the budget is hit."""
    try:
        gb = groebner_basis(gens, lex_order, budget)
    except DegreeBudgetExceededError:
        return None
    n = ring.nvars
    points: list[list[Cyclo]] = []

    def back_substitute(current, assignment: list, var: int) -> bool:
        current = [g for g in current if not g.is_zero()]
        if any(g.is_scalar() for g in current):
            return True
        if var < 0:
            points.append(list(assignment))
            return True
        univariates = [u for u in (_as_univariate(g, var) for g in current)
                       if u is not None and u.degree() >= 1]
        if not univariates:
            return False
        roots, rem = extract_roots(min(univariates, key=UPoly.degree))
        if rem.degree() >= 1:
            return False
        for r in _distinct(roots):
            assignment[var] = r
            if not back_substitute([_substitute(g, var, r) for g in current], assignment,
                                   var - 1):
                return False
        return True

    return points if back_substitute(gb, [ZERO] * n, n - 1) else None


def grlex_branch_solve(equations, ring, budget: int = DEFAULT_BUDGET) -> list:
    """Leaves (assignments, grlex basis) of the zero set, split on univariate
    generators and on monomial content only."""
    leaves: list = []

    def branch(eqs, assignments: dict, depth: int) -> None:
        if depth > 40:
            raise PwbError("reflection search branch limit exceeded")
        eqs = [e for e in eqs if not e.is_zero()]
        if any(e.is_scalar() for e in eqs):
            return
        gb = groebner_basis(eqs, grlex_key, budget)
        if any(g.is_scalar() for g in gb):
            return
        for g in gb:
            for var in range(ring.nvars):
                u = None if var in assignments else _as_univariate(g, var)
                if u is not None and u.degree() >= 1:
                    roots, rem = extract_roots(u)
                    if rem.degree() >= 1:
                        raise UnsplittableConditionError(g)
                    for r in _distinct(roots):
                        branch([_substitute(h, var, r) for h in gb],
                               {**assignments, var: r}, depth + 1)
                    return
        for g in gb:
            content, cofactor = g.monomial_content()
            if any(content):
                for v in (i for i, k in enumerate(content) if k):
                    branch(gb + [ring.var(v)], dict(assignments), depth + 1)
                branch([cofactor if h is g else h for h in gb], dict(assignments), depth + 1)
                return
        leaves.append((assignments, gb))

    branch(list(equations), {}, 0)
    return leaves


def envelope_dims_by_elimination(A, d: int) -> list[int]:
    """dim of each degree k = 0..d of the enveloping presentation, by eliminating
    all words u*r*v (r a relation) realified over Q(zeta_N), in every degree."""
    pres = envelope_presentation(A)
    g = pres.ngens
    n = conductor(c for r in pres.relations for c in r.values())
    phi = euler_phi(n)
    rels = [[(*divmod(col, phi), c) for col, c in row.items()]
            for r in pres.relations
            for row in realify({a * g + b: c for (a, b), c in r.items()}, n)]
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


# -- the envelope tasks pwb ran before the Jacobi verdict decided them --------------
#
# `pwb.envelope` counts normal words when the table satisfies Jacobi (the
# relations are then a Groebner basis), extends a map by the automorphism
# check alone, and divides a trace denominator by (1 - t)^k once.  These are
# the versions they replaced: degree 3 by elimination of every u*r*v, the
# relation images of an extension reduced against a relation span eliminated
# for each map (the reference for the theorem that they are preserved iff the
# map is an automorphism), and a trace squared, factored and tested by
# repeated products and divisions.


def envelope_dims_through_degree_3(A, d: int) -> list[int]:
    """`pwb.envelope.envelope_dims` by elimination through degree 3, then the
    count of words free of leading words when degree 3 holds exactly that
    many dimensions, elimination in every degree otherwise."""
    pres = envelope_presentation(A)
    g = pres.ngens
    n = conductor(c for r in pres.relations for c in r.values())
    phi = euler_phi(n)
    top = g - 1
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
            leading = {col // phi for col in span.pivots}
            normal = [sum(1 for word in product(range(g), repeat=j)
                          if not any(a * g + b in leading for a, b in zip(word, word[1:])))
                      for j in range(d + 1)]
        elif k == 3 and dims[3] == normal[3]:
            return dims + normal[4:]
    return dims


def checked_envelope_extend(A, g):
    """`pwb.envelope.envelope_extend` with the automorphism check first, then
    the relation test `relations_preserved`."""
    ok, pair = is_poisson_automorphism(A, g)
    if not ok:
        raise NotAutomorphismError(f"map does not preserve the bracket on {pair}")
    rows, zeros = g.matrix.rows, [ZERO] * A.nvars
    extended = GradedMap(Matrix([r + zeros for r in rows] + [zeros + r for r in rows]))
    return EnvelopeExtension(extended, relations_preserved(A, g))


def relations_preserved(A, g) -> bool:
    """Does diag(g, g) map every relation of the enveloping presentation into
    their span?  Each image is reduced against the relation span eliminated
    for this map, realified over Q(zeta_N), N the conductor of the relations
    and the map, words indexed a*g + b."""
    pres = envelope_presentation(A)
    gsz = pres.ngens
    rows, zeros = g.matrix.rows, [ZERO] * A.nvars
    extended = Matrix([r + zeros for r in rows] + [zeros + r for r in rows])
    cols = [[(a2, ca) for a2, ca in enumerate(col) if not ca.is_zero()]
            for col in extended.transpose().rows]
    N = conductor([c for r in pres.relations for c in r.values()]
                  + [c for col in cols for _, c in col])
    span = Echelon()
    for r in pres.relations:
        for row in realify({a * gsz + b: c for (a, b), c in r.items()}, N):
            span.insert(row)
    for r in pres.relations:
        image: dict = {}
        for (a, b), c in r.items():
            for a2, ca in cols[a]:
                for b2, cb in cols[b]:
                    idx = a2 * gsz + b2
                    image[idx] = image.get(idx, ZERO) + c * ca * cb
        if span.reduce(realify(image, N)[0]):
            return False
    return True


def squared_trace_by_products(base, xi, n: int) -> tuple:
    """The square of a trace series by `RationalSeries` multiplication, and
    1/((1 - xi t)^2 (1 - t)^(2n-2)) as a product of 2n linear factors."""
    return base * base, RationalSeries.one_over([xi, xi] + [ONE] * (2 * n - 2))


def quasi_reflection_shape_by_division(series, total: int) -> bool:
    """Is the series 1/((1 - xi t)(1 - t)^(total-1)), xi != 1 a root of unity?
    Divides by 1 - t one factor at a time."""
    if series.num != UPoly.one():
        return False
    den = series.den
    one_minus_t = UPoly.one_minus(ONE)
    for _ in range(total - 1):
        q, rem = den.divmod(one_minus_t)
        if not rem.is_zero():
            return False
        den = q
    if den.degree() != 1:
        return False
    xi = -den[1]
    if den[0] != ONE:
        return False
    order = xi.root_of_unity_order() if not xi.is_zero() else None
    return order is not None and order > 1


# -- the Buchberger pwb ran before its integer kernel -----------------------------
#
# `pwb.solver.groebner_basis` and `normal_form` reduce integer numerator vectors
# at one conductor, fraction-free.  This is the `Cyclo` version they replaced:
# every division step builds new `Poly` values, and basis elements are monic.


def monic(p, order=grlex_key):
    """p over its leading coefficient."""
    if p.is_zero():
        return p
    return p * p.leading(order)[1].inverse()


def cyclo_normal_form(f, basis, order=grlex_key):
    """Remainder of f under multivariate division by basis."""
    if not basis:
        return f
    ring = f.ring
    leads = [g.leading(order) for g in basis]
    rem = ring.zero()
    work = f
    while not work.is_zero():
        we, wc = work.leading(order)
        for g, (ge, gc) in zip(basis, leads):
            if all(a >= b for a, b in zip(we, ge)):
                q = ring.monomial(tuple(a - b for a, b in zip(we, ge)), wc * gc.inverse())
                work = work - q * g
                break
        else:
            t = ring.monomial(we, wc)
            rem = rem + t
            work = work - t
    return rem


def _cyclo_spoly(f, g, order):
    fe, fc = f.leading(order)
    ge, gc = g.leading(order)
    lcm_e = tuple(max(a, b) for a, b in zip(fe, ge))
    mf = f.ring.monomial(tuple(l - a for l, a in zip(lcm_e, fe)), fc.inverse())
    mg = f.ring.monomial(tuple(l - b for l, b in zip(lcm_e, ge)), gc.inverse())
    return mf * f - mg * g


def cyclo_groebner_basis(gens, order=grlex_key, budget: int = DEFAULT_BUDGET) -> list:
    """Reduced Groebner basis: the same pair selection, criteria and budget
    checks as pwb's, on monic `Poly` values."""
    basis = [monic(g, order) for g in gens if not g.is_zero()]
    if not basis:
        return []
    basis = _cyclo_interreduce(basis, order)
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}
    while pairs:
        def pair_key(ij):
            i, j = ij
            lcm_e = tuple(map(max, basis[i].leading(order)[0], basis[j].leading(order)[0]))
            return (sum(lcm_e), lcm_e, i, j)

        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        fe = basis[i].leading(order)[0]
        ge = basis[j].leading(order)[0]
        lcm_e = tuple(max(a, b) for a, b in zip(fe, ge))
        if sum(lcm_e) > budget:
            raise DegreeBudgetExceededError(sum(lcm_e), budget)
        if all(a == 0 or b == 0 for a, b in zip(fe, ge)):
            continue
        if any(k not in (i, j)
               and all(a <= l for a, l in zip(basis[k].leading(order)[0], lcm_e))
               and (max(i, k), min(i, k)) not in pairs
               and (max(j, k), min(j, k)) not in pairs
               for k in range(len(basis))):
            continue
        s = cyclo_normal_form(_cyclo_spoly(basis[i], basis[j], order), basis, order)
        if not s.is_zero():
            if s.total_degree() > budget:
                raise DegreeBudgetExceededError(s.total_degree(), budget)
            basis.append(monic(s, order))
            new = len(basis) - 1
            pairs.update((new, t) for t in range(new))
    return _cyclo_interreduce(basis, order)


def _cyclo_interreduce(basis: list, order) -> list:
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1:]
            if not others:
                continue
            r = cyclo_normal_form(basis[i], others, order)
            if r != basis[i]:
                changed = True
                basis = others if r.is_zero() else others + [monic(r, order)]
                break
    basis = [monic(g, order) for g in basis]
    basis.sort(key=lambda g: order(g.leading(order)[0]))
    return basis


# -- what pwb ran before reading the bracket table --------------------------------
#
# pwb now reads the eigenvalues of a rank-one update g = I + u k^T off its trace,
# the right side of the automorphism check off the table, and each column of
# the center's linear map off the table by Leibniz.  These are the earlier
# versions, unchanged but for their names: every map takes the minimal
# polynomial, the check brackets the images of the generators, and the center
# brackets each monomial with each generator.


def minpoly_eigenvalues(m: Matrix) -> Optional[tuple]:
    """The distinct eigenvalues, 1 first and then by printed form, or None,
    by the minimal polynomial and `extract_roots`."""
    mp = UPoly(m.minpoly_coeffs())
    if not mp.is_squarefree():
        return None
    roots, rem = extract_roots(mp)
    if rem.degree() >= 1:
        return None
    return tuple(sorted(roots, key=lambda c: (not c.is_one(), str(c))))


def minpoly_order(m: Matrix) -> Optional[int]:
    """The order of m from `minpoly_eigenvalues`, or None if infinite."""
    eigenvalues = minpoly_eigenvalues(m)
    if eigenvalues is None:
        return None
    order = 1
    for r in eigenvalues:
        k = r.root_of_unity_order()
        if k is None:
            return None
        order = lcm(order, k)
    return order


def bracket_automorphism_check(A, g) -> tuple:
    """g({x_i, x_j}) = {g(x_i), g(x_j)} on all generator pairs, by the general
    bracket of the generator images: (verdict, first failing pair)."""
    ring = A.ring
    images = [ring.linear_form(g.matrix.column(i)) for i in range(A.nvars)]
    for i in range(A.nvars):
        for j in range(i + 1, A.nvars):
            lhs = A.pair(i, j).apply_linear(g.matrix)
            rhs = poly_bracket(A, images[i], images[j])
            if lhs != rhs:
                return False, (ring.names[i], ring.names[j])
    return True, None


def minpoly_classify(A, g) -> Classification:
    """`pwb.symmetry.classify` by `bracket_automorphism_check`, the order from
    `minpoly_order` and the rank of g - I by elimination."""
    ok, witness = bracket_automorphism_check(A, g)
    if not ok:
        return Classification(NOT_AUTOMORPHISM, witness_pair=witness)
    if g.matrix.is_identity():
        return Classification(IDENTITY, order=1)
    order = minpoly_order(g.matrix)
    if order is None:
        return Classification(INFINITE_ORDER)
    n = g.n
    if (g.matrix - Matrix.identity(n)).rank() == 1:
        xi = g.matrix.trace() - Cyclo.of(n - 1)
        eig = (g.matrix - Matrix.diagonal([xi] * n)).kernel_basis()
        return Classification(REFLECTION, order=order, xi=xi, eigenvector=tuple(eig[0]))
    return Classification(FINITE_NON_REFLECTION, order=order)


def center_by_bracket(A, d: int, weights=None) -> list:
    """`PoissonAlgebra.center_truncated` with each column {x^I, x_j} taken by
    the general bracket."""
    out = [[A.ring.one()]]
    xs = A.ring.gens()
    for k in range(1, d + 1):
        monos = A.ring.monomials_of_degree(k, weights)
        if not monos:
            out.append([])
            continue
        columns: dict = {}
        for i, mexp in enumerate(monos):
            mono = A.ring.monomial(mexp)
            for j, x in enumerate(xs):
                for ee, c in poly_bracket(A, mono, x).terms.items():
                    columns.setdefault((j, ee), {})[i] = c
        if not columns:
            out.append([A.ring.monomial(m) for m in monos])
            continue
        out.append([Poly(A.ring, {m: c for c, m in zip(vec, monos) if c})
                    for vec in kernel(list(columns.values()), len(monos))])
    return out


# -- what pwb ran before it read rank-one eigenspaces off the update ---------------
#
# pwb now reads the eigenspaces of a rank-one update g = I + u k^T and the
# xi-eigenvector that `classify` reports in closed form, transports a bracket
# table by reading it off the table, and builds each row of the derived ideal by
# shifting a generator's terms.  These are the earlier versions, unchanged but
# for their names: every eigenspace is a `kernel_basis` of (g - lam I) B,
# transport brackets the new coordinates, and a row is the `Poly` product of a
# monomial and a generator.  The eigenvector by `kernel_basis` of g - xi I is
# the one `minpoly_classify` above reports.


def kernel_try_diagonalize(gens):
    """Common eigenbasis T and per-generator eigenvalue lists, or None, each
    eigenspace by `kernel_basis`."""
    mats = [g.matrix for g in gens]
    n = mats[0].nrows
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mats[i] * mats[j] != mats[j] * mats[i]:
                return None
    spaces = [([list(r) for r in Matrix.identity(n).rows], [])]
    for g in gens:
        eigenvalues = g.eigenvalues()
        if eigenvalues is None:
            return None
        shifted = [(lam, g.matrix - Matrix.diagonal([lam] * n)) for lam in eigenvalues]
        new_spaces = []
        for basis, chars in spaces:
            k = len(basis)
            B = Matrix(basis).transpose()
            for lam, delta in shifted:
                cols = [[sum((vec[t] * basis[t][i] for t in range(k)), ZERO)
                         for i in range(n)] for vec in (delta * B).kernel_basis()]
                if cols:
                    new_spaces.append((cols, chars + [lam]))
        spaces = new_spaces
    T = Matrix([col for basis, _ in spaces for col in basis]).transpose()
    chars = [[lams[gi] for basis, lams in spaces for _ in basis] for gi in range(len(mats))]
    return T, chars


def bracket_transport(A, basis: Matrix, names) -> PoissonAlgebra:
    """The bracket of A in the coordinates y with x = basis * y, each new pair
    by the general bracket of the new degree-one elements."""
    n = A.nvars
    inv = basis.inverse()
    yring = PolyRing(tuple(names))
    images = [yring.linear_form(inv.column(i)) for i in range(n)]
    new_elems = [A.ring.linear_form(basis.column(j)) for j in range(n)]
    table: dict = {}
    for i in range(n):
        for j in range(i + 1, n):
            br = poly_bracket(A, new_elems[i], new_elems[j])
            if not br.is_zero():
                table[(i, j)] = br.substitute(images, yring)
    return PoissonAlgebra(yring, table, check_jacobi=False)


def derived_dims_by_products(ideal) -> list[int]:
    """`DerivedIdeal.dims` with each row the `Poly` product of a monomial and
    a generator."""
    ring = ideal.algebra.ring
    out = [0]
    for k in range(1, ideal.bound + 1):
        col_index: dict = {}
        rows = []
        for g in ideal.generators:
            gdeg = g.weighted_degree(ideal.weights)
            if gdeg > k:
                continue
            for K in ring.monomials_of_degree(k - gdeg, ideal.weights):
                prod = ring.monomial(K) * g
                rows.append({col_index.setdefault(e, len(col_index)): c
                             for e, c in prod.terms.items()})
        out.append(rank(rows))
    return out


# -- what pwb ran before it read its solve-path systems off the table -----------
#
# pwb now builds the equations of a normal-element chart and of a reflection
# chart from the table entries on term dicts, and checks Jacobi by Leibniz on
# the table.  These are the earlier versions, unchanged but for their names:
# each chart lifts the table into a mixed ring of parameters and variables,
# substitutes the images there and splits the result by its x-part, and
# Jacobi takes three general brackets per triple.


def mixed_ring_normal_equations(A, m: int) -> tuple:
    """Chart m of `PoissonAlgebra.normal_find_deg1`: the ring of the mu and
    the equations, by substituting x_m -> -sum mu_i x_i in a mixed ring."""
    n = A.nvars
    tail = list(range(m + 1, n))
    mu_names = tuple(f"_m{i}" for i in tail)
    mixed = PolyRing(mu_names + A.ring.names)
    nmu = len(mu_names)
    xoff = nmu

    def lift_poly(p):
        return Poly(mixed, {(0,) * nmu + e: c for e, c in p.terms.items()})

    subst_images = [mixed.var(t) for t in range(nmu)]
    for i in range(n):
        if i == m:
            img = mixed.zero()
            for t, gi in enumerate(tail):
                e = [0] * mixed.nvars
                e[t] = 1
                e[xoff + gi] = 1
                img = img + Poly(mixed, {tuple(e): -ONE})
            subst_images.append(img)
        else:
            subst_images.append(mixed.var(xoff + i))
    equations = []
    mu_ring = PolyRing(mu_names)
    for j in range(n):
        w = lift_poly(A.pair(m, j))
        for t, gi in enumerate(tail):
            p = A.pair(gi, j)
            if not p.is_zero():
                w = w + mixed.var(t) * lift_poly(p)
        if w.is_zero():
            continue
        rem = w.substitute(subst_images, mixed)
        grouped: dict = {}
        for e, c in rem.terms.items():
            grouped.setdefault(e[xoff:], {})[e[:nmu]] = c
        for _, mu_terms in grouped.items():
            equations.append(Poly(mu_ring, dict(mu_terms)))
    return mu_ring, equations


def mixed_ring_reflection_equations(A, vectors, nparams: int) -> tuple:
    """The ring of the t and k and the equations of a reflection chart with
    eigenvector u = v0 + sum_l t_l v_(l+1), by substituting g(x_i) = x_i +
    k_i u into each table entry in a mixed ring."""
    n = A.nvars
    param_names = tuple(f"_t{l+1}" for l in range(nparams))
    k_names = tuple(f"_k{i+1}" for i in range(n))
    pk = PolyRing(param_names + k_names)
    kvar = [pk.var(nparams + i) for i in range(n)]
    ucoef = []
    for i in range(n):
        acc = pk.scalar(vectors[0][i])
        for l in range(nparams):
            acc = acc + pk.var(l) * pk.scalar(vectors[l + 1][i])
        ucoef.append(acc)
    mixed = PolyRing(pk.names + A.ring.names)
    off = pk.nvars

    def lift_pk(p):
        return Poly(mixed, {e + (0,) * n: c for e, c in p.terms.items()})

    def lift_x(p):
        return Poly(mixed, {(0,) * off + e: c for e, c in p.terms.items()})

    u_mixed = mixed.zero()
    for i in range(n):
        u_mixed = u_mixed + lift_pk(ucoef[i]) * mixed.var(off + i)
    images = [mixed.var(l) for l in range(off)] + \
             [mixed.var(off + i) + lift_pk(kvar[i]) * u_mixed for i in range(n)]
    bracket_with_u = []
    for i in range(n):
        acc = mixed.zero()
        for l in range(n):
            p = A.pair(i, l)
            if not p.is_zero():
                acc = acc + lift_pk(ucoef[l]) * lift_x(p)
        bracket_with_u.append(acc)
    equations = []
    for i in range(n):
        for j in range(i + 1, n):
            pij = A.pair(i, j)
            lhs = lift_x(pij).substitute(images, mixed) if not pij.is_zero() else mixed.zero()
            rhs = lift_x(pij) \
                + lift_pk(kvar[j]) * bracket_with_u[i] \
                - lift_pk(kvar[i]) * bracket_with_u[j]
            diff = lhs - rhs
            if diff.is_zero():
                continue
            grouped: dict = {}
            for e, c in diff.terms.items():
                grouped.setdefault(e[off:], {})[e[:off]] = c
            for _, pk_terms in grouped.items():
                equations.append(Poly(pk, dict(pk_terms)))
    return pk, equations


def bracket_jacobi_check(A) -> tuple:
    """`PoissonAlgebra.jacobi_check` with {x_i, {x_j, x_k}} + cyclic taken by
    three general brackets per triple."""
    names = A.ring.names
    xs = A.ring.gens()
    triples = {tuple(sorted((i, j, k))) for i, j in A.table
               for k in range(A.nvars) if k != i and k != j}
    for i, j, k in sorted(triples):
        total = (poly_bracket(A, A.pair(j, k), xs[i])
                 + poly_bracket(A, A.pair(k, i), xs[j])
                 + poly_bracket(A, A.pair(i, j), xs[k]))
        if not total.is_zero():
            return False, (names[i], names[j], names[k])
    return True, None


# -- what pwb ran before it wrote the Leibniz rule once -----------------------
#
# pwb now applies the Leibniz rule to the table in one kernel,
# `PoissonAlgebra.hamiltonian` ({f, x_v} over the pairs holding x_v), and the
# bracket, the Jacobi checks, the center and the modular derivation read it.
# These are the earlier loops, unchanged but for their names: the bracket over
# the table pairs with each partial of f and g taken once, the Jacobiator of
# each table entry by its own Leibniz loop, the Lie Jacobi check by structure
# constants, and the modular derivation by `Poly` partials and sums.


def pair_loop_bracket(A, f, g):
    """{f, g}: over the table pairs in order, (f_i g_j - f_j g_i) {x_i, x_j}
    on term dicts, a pair visited only when it can contribute."""
    vf = {k for e in f.terms for k, x in enumerate(e) if x}
    vg = {k for e in g.terms for k, x in enumerate(e) if x}
    df: dict = {}
    dg: dict = {}
    out: dict = {}
    for (i, j), p in A.table.items():
        if not (i in vf and j in vg or j in vf and i in vg):
            continue
        for k in (i, j):
            if k not in df:
                df[k], dg[k] = _partial_terms(f.terms, k), _partial_terms(g.terms, k)
        term = _mul_terms(df[i], dg[j])
        _add_terms(term, ((e, -c) for e, c in _mul_terms(df[j], dg[i]).items()))
        if term:
            _add_terms(out, _mul_terms(term, p.terms).items())
    return Poly(A.ring, out)


def leibniz_jacobi_check(A) -> tuple:
    """`PoissonAlgebra.jacobi_check` with each triple's Jacobiator by its own
    Leibniz loop, {x^e, x_v} = sum_a e_a x^(e - e_a) {x_a, x_v}."""
    pairs_with: list = [[] for _ in range(A.nvars)]
    for (a, b), p in A.table.items():
        pairs_with[b].append((a, 1, p.terms))
        pairs_with[a].append((b, -1, p.terms))
    names = A.ring.names
    triples = {tuple(sorted((i, j, k))) for i, j in A.table
               for k in range(A.nvars) if k != i and k != j}
    for i, j, k in sorted(triples):
        out: dict = {}
        for entry, sign, v in ((A.table.get((j, k)), 1, i), (A.table.get((i, k)), -1, j),
                               (A.table.get((i, j)), 1, k)):
            if entry is None:
                continue
            for e, c in entry.terms.items():
                for a, s, terms in pairs_with[v]:
                    if e[a]:
                        low = e[:a] + (e[a] - 1,) + e[a + 1:]
                        factor = c * (sign * s * e[a])
                        _add_terms(out, ((tuple(map(add, f, low)), factor * d)
                                         for f, d in terms.items()))
        if out:
            return False, (names[i], names[j], names[k])
    return True, None


def lie_jacobi_by_triples(lie) -> tuple:
    """`LieData.jacobi_holds` by the structure constants: [[x_b, x_c], x_a]
    + cyclic on each triple holding a nonzero bracket, in lexicographic order."""
    n = lie.dimension
    triples = {tuple(sorted((i, j, k))) for i, j in lie.brackets
               for k in range(n) if k != i and k != j}
    for i, j, k in sorted(triples):
        total = [ZERO] * n
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            inner = lie.ad(b, c)
            for m in range(n):
                if not inner[m].is_zero():
                    outer = lie.ad(a, m)
                    for t in range(n):
                        total[t] = total[t] + inner[m] * outer[t]
        if any(not c.is_zero() for c in total):
            return False, (i, j, k)
    return True, None


def modular_by_pairs(A) -> PoissonDerivation:
    """`PoissonAlgebra.modular_derivation` by `pair`, `Poly.partial` and
    `Poly` sums."""
    images = []
    for i in range(A.nvars):
        acc = A.ring.zero()
        for j in range(A.nvars):
            p = A.pair(i, j)
            if not p.is_zero():
                acc = acc + p.partial(j)
        images.append(acc)
    return PoissonDerivation(A, images)


# -- what pwb ran before it read maps by their nonzero entries --------------------
#
# pwb now compares rational series on their unique normal form, counts a
# diagonal group's invariant monomials in the box prod_j [0, o_j) of its
# character orders, reads {y_i, y_j} off the table by walking the nonzero
# entries of the two columns, and writes a transported table in y from the
# monomial images formed once per call.  These are the earlier versions,
# unchanged but for their names: equality by cross-multiplication, the
# weighted Hilbert series by `UPoly` products, the count in [0, e)^n over
# (1 - t^e)^n, the reader by 2x2 minors over every table pair, the
# automorphism check on that reader, and transport by `Poly.substitute`.


def cross_multiplied_equal(s, t) -> bool:
    """`RationalSeries.__eq__` by cross-multiplication."""
    return s.num * t.den == t.num * s.den


def hilbert_weighted_by_products(degrees) -> RationalSeries:
    """`pwb.series.hilbert_weighted` with the denominator a `UPoly` product."""
    den = UPoly.one()
    for d in degrees:
        den = den * UPoly([ONE] + [ZERO] * (d - 1) + [-ONE])
    return RationalSeries.reduced(UPoly.one(), den)


def cube_character_molien(logs, e: int, n: int) -> RationalSeries:
    """`pwb.symmetry._character_molien` counting each of the n coordinates
    over [0, e): N(t)/(1 - t^e)^n, then cancelled to the normal form."""
    zero = (0,) * len(logs)
    counts = {zero: [1]}
    for j in range(n):
        col = [row[j] for row in logs]
        nxt: dict = {}
        for res, poly in counts.items():
            for x in range(e):
                key = tuple((r + a * x) % e for r, a in zip(res, col))
                acc = nxt.setdefault(key, [])
                if len(acc) < len(poly) + x:
                    acc.extend([0] * (len(poly) + x - len(acc)))
                for k, c in enumerate(poly):
                    acc[k + x] += c
        counts = nxt
    num = counts[zero]
    den = [1]
    for d in divisors(e):
        factor = [1, -1] if d == 1 else list(cyclotomic_polynomial(d))
        power = n
        while power:
            q = zpoly_quotient(num, factor)
            if q is None:
                break
            num, power = q, power - 1
        for _ in range(power):
            den = zpoly_mul(den, factor)
    return RationalSeries.reduced(UPoly(num), UPoly(den))


def _minor(w, x, y, z):
    """w x - y z from its nonzero products, or None when both vanish."""
    first = w * x if w and x else None
    if not (y and z):
        return first
    return -(y * z) if first is None else first - y * z


def minor_linear_bracket_terms(A, rows, i: int, j: int) -> dict:
    """`PoissonAlgebra.linear_bracket_terms` by 2x2 minors of the rows:
    sum_(a<b) (B_ai B_bj - B_bi B_aj) {x_a, x_b} over every table pair."""
    out: dict = {}
    for (a, b), p in A.table.items():
        minor = _minor(rows[a][i], rows[b][j], rows[b][i], rows[a][j])
        if minor:
            _add_terms(out, ((e, c * minor) for e, c in p.terms.items()))
    return out


def minor_automorphism_check(A, g) -> tuple:
    """`pwb.symmetry.is_poisson_automorphism` with the images of the
    generators as linear forms and the right side by 2x2 minors of g."""
    ring, m = A.ring, g.matrix.rows
    images = [ring.linear_form(g.matrix.column(i)).terms for i in range(A.nvars)]
    products: dict = {}

    def image(e: tuple) -> dict:
        found = products.get(e)
        if found is None:
            c = next((i for i, x in enumerate(e) if x), None)
            if c is None:
                return {e: ONE}
            rest = e[:c] + (e[c] - 1,) + e[c + 1:]
            found = products[e] = _mul_terms(image(rest), images[c]) if any(rest) else images[c]
        return found

    for i in range(A.nvars):
        for j in range(i + 1, A.nvars):
            lhs: dict = {}
            for e, c in A.pair(i, j).terms.items():
                _add_terms(lhs, ((f, c * d) for f, d in image(e).items()))
            if Poly(ring, lhs) != Poly(ring, minor_linear_bracket_terms(A, m, i, j)):
                return False, (ring.names[i], ring.names[j])
    return True, None


def substituted_transport(A, basis: Matrix, names) -> PoissonAlgebra:
    """`pwb.brackets.transport` by 2x2 minors of the basis, each entry then
    written in y by `Poly.substitute`."""
    n = A.nvars
    inv = basis.inverse()
    yring = PolyRing(tuple(names))
    images = [yring.linear_form(inv.column(i)) for i in range(n)]
    table: dict = {}
    for i in range(n):
        for j in range(i + 1, n):
            br = minor_linear_bracket_terms(A, basis.rows, i, j)
            if br:
                table[(i, j)] = Poly(A.ring, br).substitute(images, yring)
    return PoissonAlgebra(yring, table, check_jacobi=False)


# -- the root extraction pwb ran before it dropped trial division -----------------
#
# `pwb.upoly.extract_roots` finds every root of unity among its trial
# candidates.  This is the version it replaced, unchanged but for its name: it
# also divides out each cyclotomic polynomial Phi_d with phi(d) <= deg p.


def cyclotomic_upoly(d: int) -> UPoly:
    return UPoly([Cyclo.of(c) for c in cyclotomic_polynomial(d)])


def extract_roots_with_trial_division(p: UPoly) -> tuple[list, UPoly]:
    """`pwb.upoly.extract_roots` with Phi_d trial division after the candidates."""
    roots: list = []
    if p.is_zero():
        return roots, p
    k = 0
    while k < len(p.coeffs) and p.coeffs[k].is_zero():
        k += 1
    if k:
        roots.extend([ZERO] * k)
        p = UPoly(p.coeffs[k:])
    changed = True
    while changed and p.degree() >= 1:
        changed = False
        candidates: list = []
        if p.all_rational():
            candidates.extend(_rational_root_candidates(p))
        candidates.extend(_root_of_unity_candidates(p.degree(), p.conductor()))
        for r in candidates:
            while p.degree() >= 1 and p.evaluate(r).is_zero():
                p = p // UPoly.linear_root(r)
                roots.append(r)
                changed = True
        d = 1
        while p.degree() >= 2 and d <= 2 * p.degree() ** 2 + 4:
            if euler_phi(d) <= p.degree():
                q, rem = p.divmod(cyclotomic_upoly(d))
                if rem.is_zero():
                    p = q
                    roots.extend(zeta(d, j) for j in range(d) if gcd(j, d) == 1 or d == 1)
                    changed = True
                    continue
            d += 1
    if p.degree() == 1:
        roots.append(-p[0] / p[1])
        p = UPoly(p.coeffs[1:])
    return roots, p
