"""Graded Poisson automorphisms: verification, classification, trace and
Molien series, group closure, the diagonal-derivation grading of skew
algebras, and the reflection search.

A reflection g is a rank-one update I + u k^T whose update direction u must
be a degree-one Poisson normal element, so the search runs over charts of
the normal-element variety and solves the automorphism equations in the
unknown covector k.  `solver.split` cuts that solution variety into leaves,
and each leaf has a constant or visibly free eigenvalue.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Optional, Sequence

from .brackets import PoissonAlgebra
from .errors import (BoundExceededError, InfiniteOrderError, NotSkewError, PwbError,
                     SingularMatrixError)
from .linalg import Matrix, hermite_normal_form
from .rings import Poly, PolyRing, _add_terms, grlex_key
from .scalars import (Cyclo, conductor, cyclotomic_polynomial, divisors, lcm, zeta, zpoly_mul,
                      zpoly_quotient)
from .series import RationalSeries
from .solver import (DEFAULT_BUDGET, EMPTY, IDEAL_ONLY, POINTS, apply_assignments,
                     find_point, normal_form, split)
from .upoly import UPoly, extract_roots

_ZERO = Cyclo.of(0)
_ONE = Cyclo.of(1)

NOT_AUTOMORPHISM = "not_automorphism"
IDENTITY = "identity"
REFLECTION = "reflection"
FINITE_NON_REFLECTION = "finite_non_reflection"
INFINITE_ORDER = "infinite_order"


class GradedMap:
    """An invertible linear action on the degree-one generators."""

    __slots__ = ("matrix", "_cache")

    def __init__(self, matrix: Matrix):
        if matrix.nrows != matrix.ncols:
            raise PwbError("graded map matrix must be square")
        if matrix.rank() < matrix.nrows:
            raise SingularMatrixError("graded map must be invertible")
        self.matrix = matrix
        self._cache = {}

    @classmethod
    def _invertible(cls, matrix: Matrix) -> "GradedMap":
        """A map from a square matrix already known to be invertible."""
        g = object.__new__(cls)
        g.matrix = matrix
        g._cache = {}
        return g

    @property
    def n(self) -> int:
        return self.matrix.nrows

    def image_of_var(self, ring: PolyRing, i: int) -> Poly:
        return ring.linear_form(self.matrix.column(i))

    def apply(self, f: Poly) -> Poly:
        return f.apply_linear(self.matrix)

    def __mul__(self, other: "GradedMap") -> "GradedMap":
        # a product of invertible maps is invertible: no rank check
        return GradedMap._invertible(self.matrix * other.matrix)

    def inverse(self) -> "GradedMap":
        return GradedMap._invertible(self.matrix.inverse())

    def __eq__(self, other):
        return isinstance(other, GradedMap) and self.matrix == other.matrix

    __hash__ = None

    def update_rank(self) -> int:
        """The rank of g - I when it is 0 or 1, else 2 (for 2 or more)."""
        if "update_rank" not in self._cache:
            self._cache["update_rank"] = _update_rank(self.matrix)
        return self._cache["update_rank"]

    def eigenvalues(self) -> Optional[tuple[Cyclo, ...]]:
        """The distinct eigenvalues, 1 first and then by printed form, or None
        unless the matrix is diagonalizable with eigenvalues `extract_roots`
        finds (a squarefree minimal polynomial that splits over them).

        A rank-one update g = I + u k^T has the eigenvalue 1, n - 1 times, and
        xi = 1 + k.u = tr g - (n - 1), and is diagonalizable iff xi != 1, so
        its eigenvalues are read off the trace; only a map with g - I of rank
        2 or more takes the minimal polynomial."""
        if "eigenvalues" not in self._cache:
            m = self.matrix
            rank = self.update_rank()
            if rank == 0:
                found = (_ONE,)
            elif rank == 2:
                found = _eigenvalues(m)
            else:
                xi = _as_extracted(m.trace() - Cyclo.of(m.nrows - 1), m)
                if m.nrows == 1:
                    found = (xi,)
                else:
                    found = None if xi.is_one() else (_ONE, xi)
            self._cache["eigenvalues"] = found
        return self._cache["eigenvalues"]

    def order(self) -> Optional[int]:
        """Multiplicative order, or None if infinite."""
        if "order" not in self._cache:
            self._cache["order"] = _finite_order(self.eigenvalues())
        return self._cache["order"]

    def __repr__(self):
        return f"GradedMap({self.matrix!r})"


def _eigenvalues(m: Matrix) -> Optional[tuple[Cyclo, ...]]:
    """The eigenvalues by the minimal polynomial and `extract_roots`."""
    mp = UPoly(m.minpoly_coeffs())
    if not mp.is_squarefree():
        return None
    roots, rem = extract_roots(mp)
    if rem.degree() >= 1:
        return None
    return tuple(sorted(roots, key=lambda c: (not c.is_one(), str(c))))


def _update_rank(m: Matrix) -> int:
    """The rank of m - I when it is 0 or 1, else 2: each row of m - I is tested
    for proportionality to the first nonzero one, by 2n products a row."""
    first = None
    for i, row in enumerate(m.rows):
        d = list(row)
        d[i] = d[i] - _ONE
        if first is None:
            lead = next((j for j, c in enumerate(d) if c), None)
            if lead is not None:
                first = d
        elif any(d[j] * first[lead] != d[lead] * first[j] for j in range(len(d))):
            return 2
    return 0 if first is None else 1


def _as_extracted(xi: Cyclo, m: Matrix) -> Cyclo:
    """xi stored as `extract_roots` stores a root of the minimal polynomial of
    m: a rational at conductor 1, a root of unity of order d at conductor d,
    any other value at the lcm conductor of the entries of m."""
    if xi.is_rational():
        return Cyclo.of(xi.as_fraction())
    log = xi.root_of_unity_log()
    if log is not None:
        a, e = log
        return zeta(e // gcd(a, e), a // gcd(a, e))
    return xi.lift_to(conductor(c for row in m.rows for c in row))


def _finite_order(eigenvalues: Optional[tuple[Cyclo, ...]]) -> Optional[int]:
    """Order of a matrix with these eigenvalues: finite iff it is diagonalizable
    and every eigenvalue is a root of unity."""
    if eigenvalues is None:
        return None
    order = 1
    for r in eigenvalues:
        k = r.root_of_unity_order()
        if k is None:
            return None
        order = lcm(order, k)
    return order


@dataclass(frozen=True)
class Classification:
    kind: str
    order: Optional[int] = None
    xi: Optional[Cyclo] = None
    eigenvector: Optional[tuple] = None      # the xi-eigenvector (reflections)
    witness_pair: Optional[tuple[str, str]] = None


def is_poisson_automorphism(A: PoissonAlgebra, g: GradedMap
                            ) -> tuple[bool, Optional[tuple[str, str]]]:
    """Check g({x_i, x_j}) = {g(x_i), g(x_j)} on all generator pairs, the
    first failing pair as witness.  The images of the generators are built
    once; the right side is read off the bracket table by 2x2 minors of g:
    {g(x_i), g(x_j)} = sum_(a<b) (g_ai g_bj - g_bi g_aj) {x_a, x_b}."""
    ring, m = A.ring, g.matrix.rows
    images = [g.image_of_var(ring, i) for i in range(A.nvars)]
    for i in range(A.nvars):
        for j in range(i + 1, A.nvars):
            rhs: dict = {}
            for (a, b), p in A.table.items():
                gai, gbi = m[a][i], m[b][i]
                if gai or gbi:
                    minor = gai * m[b][j] - gbi * m[a][j]
                    if minor:
                        _add_terms(rhs, ((e, minor * c) for e, c in p.terms.items()))
            if A.pair(i, j).substitute(images) != Poly(ring, rhs):
                return False, (ring.names[i], ring.names[j])
    return True, None


def classify(A: PoissonAlgebra, g: GradedMap) -> Classification:
    ok, witness = is_poisson_automorphism(A, g)
    if not ok:
        return Classification(NOT_AUTOMORPHISM, witness_pair=witness)
    if g.matrix.is_identity():
        return Classification(IDENTITY, order=1)
    order = g.order()
    if order is None:
        return Classification(INFINITE_ORDER)
    n = g.n
    if g.update_rank() == 1:
        xi = g.matrix.trace() - Cyclo.of(n - 1)
        eig = (g.matrix - Matrix.diagonal([xi] * n)).kernel_basis()
        return Classification(REFLECTION, order=order, xi=xi, eigenvector=tuple(eig[0]))
    return Classification(FINITE_NON_REFLECTION, order=order)


def trace_series(g: GradedMap) -> RationalSeries:
    """Generating series of traces on graded components.

    The matrix here acts on the degree-one generators themselves, so the
    series is 1/det(1 - g t); the determinant picks up the inverse only when
    the matrix is taken on the underlying space instead of the functions.
    """
    m = g.matrix
    coeffs = m.charpoly_coeffs()  # det(tI - M) = t^n + a_{n-1}t^{n-1} + ... + a_0
    n = m.nrows
    den = UPoly([_ONE] + [coeffs[n - k] for k in range(1, n + 1)])
    return RationalSeries(UPoly.one(), den)


@dataclass(frozen=True)
class PoissonGroup:
    """A finite group of graded maps, kept as its generators.

    `diagonal` is the abelian form (T, logs), or None: a common eigenbasis T
    of the generators and the integer logs of their characters modulo the
    exponent e, so that zeta_e^logs[i][j] is generator i's eigenvalue on
    column j of T.  The order and the Molien series of an abelian form come
    from the logs, and `elements` is None.  Otherwise `elements` is the
    breadth-first enumeration from the identity.
    """

    generators: tuple
    order: int
    exponent: int
    diagonal: Optional[tuple] = None
    elements: Optional[tuple] = None


def group_closure(gens: Sequence[GradedMap], bound: int = 512) -> PoissonGroup:
    """The group generated by `gens`, each of finite order at most `bound`.

    A generator of infinite order raises `InfiniteOrderError` (carrying its
    position as `.index`), and then one of order above `bound` a plain
    `BoundExceededError`, before any element is built.  Commuting generators
    with a common eigenbasis give the abelian form: the character logs are
    computed once, modulo the exponent (the lcm of the generator orders),
    the order is the lattice index of `_abelian_order`, and no element is
    built.  Otherwise the elements are enumerated breadth-first, at most
    `bound` of them, and the exponent is the lcm of their orders.
    """
    if not gens:
        raise PwbError("need at least one generator")
    gens = tuple(gens)
    orders = [_require_finite_order(g, i) for i, g in enumerate(gens)]
    exponent = 1
    for i, k in enumerate(orders):
        if k > bound:
            raise BoundExceededError(f"generator {i + 1} has order {k}, above the bound {bound}")
        exponent = lcm(exponent, k)
    diagonal = _try_diagonalize(gens)
    if diagonal is not None:
        T, chars = diagonal
        e, logs = _character_logs(chars)
        return PoissonGroup(gens, _abelian_order(logs, e), e, (T, logs))
    elements = _enumerate(gens, bound)
    for h in elements:
        # an element's order is at most the group order, so within the bound
        exponent = lcm(exponent, h.order())
    return PoissonGroup(gens, len(elements), exponent, None, elements)


def _enumerate(gens: Sequence[GradedMap], bound: int) -> tuple:
    """The elements generated by `gens`, breadth-first from the identity.
    Every product lies in Q(zeta_N), N the lcm conductor of the generators'
    entries, so the entries lifted to N key an element exactly."""
    n = gens[0].n
    N = conductor(c for g in gens for row in g.matrix.rows for c in row)

    def key(h: GradedMap) -> tuple:
        lifted = (c.lift_to(N) for row in h.matrix.rows for c in row)
        return tuple((c.num, c.den) for c in lifted)

    elements: list[GradedMap] = [GradedMap._invertible(Matrix.identity(n))]
    seen = {key(elements[0])}
    frontier = list(elements)
    while frontier:
        new_frontier = []
        for e in frontier:
            for g in gens:
                h = e * g
                k = key(h)
                if k not in seen:
                    seen.add(k)
                    elements.append(h)
                    new_frontier.append(h)
                    if len(elements) > bound:
                        raise BoundExceededError(f"group closure exceeded {bound} elements")
        frontier = new_frontier
    return tuple(elements)


def _require_finite_order(g: GradedMap, index: int) -> int:
    """The order of g, or `InfiniteOrderError` naming its position."""
    order = g.order()
    if order is None:
        raise InfiniteOrderError(f"generator {index + 1} has infinite order: {g.matrix!r}",
                                 index)
    return order


def _try_diagonalize(gens: Sequence[GradedMap]):
    """Common eigenbasis T and per-generator eigenvalue lists, or None."""
    mats = [g.matrix for g in gens]
    n = mats[0].nrows
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mats[i] * mats[j] != mats[j] * mats[i]:
                return None
    # common eigenspaces, kept whole until every generator has split them:
    # (basis column vectors, eigenvalue of each generator processed so far)
    spaces: list[tuple[list[list[Cyclo]], list[Cyclo]]] = [
        ([list(r) for r in Matrix.identity(n).rows], [])]
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
                # B has full column rank: the kernel of (g - lam) B is the
                # lam-eigenspace of g restricted to the span of B
                cols = [[sum((vec[t] * basis[t][i] for t in range(k)), _ZERO)
                         for i in range(n)] for vec in (delta * B).kernel_basis()]
                if cols:
                    new_spaces.append((cols, chars + [lam]))
        spaces = new_spaces
    T = Matrix([col for basis, _ in spaces for col in basis]).transpose()
    chars = [[lams[gi] for basis, lams in spaces for _ in basis] for gi in range(len(mats))]
    return T, chars


def _character_logs(chars) -> tuple[int, list[list[int]]]:
    """The exponent e of the characters and their logs: zeta_e^logs[i][j] == chars[i][j]."""
    found = []
    e = 1
    for row in chars:
        out = []
        for c in row:
            log = c.root_of_unity_log()
            if log is None:
                raise InfiniteOrderError(f"eigenvalue {c} is not a root of unity")
            a, m = log
            e = lcm(e, m // gcd(a, m))
            out.append(log)
        found.append(out)
    return e, [[a * e // m for a, m in row] for row in found]


def _abelian_order(logs, e: int) -> int:
    """Order of the abelian group with these character logs modulo e.

    With logs L (r x n), the group is the image of Z^r -> (Z/e)^n, x -> xL,
    so its order is the index of e*Z^n in the lattice spanned by the rows of
    L and e*I_n: e^n over the product of the pivots of that lattice's
    Hermite normal form.
    """
    n = len(logs[0])
    lattice = hermite_normal_form(logs + [[e if i == j else 0 for j in range(n)]
                                          for i in range(n)])
    index = 1
    for i, row in enumerate(lattice):
        index *= row[i]
    return e ** n // index


# `_character_molien` keeps one count per character of the group: a table of
# |G| keys that a few generators of moderate order can make arbitrarily large.
CHARACTER_LIMIT = 1 << 16


def _require_character_table(group: PoissonGroup) -> None:
    """`BoundExceededError` when the abelian form has more than
    `CHARACTER_LIMIT` characters to count."""
    if group.diagonal is not None and group.order > CHARACTER_LIMIT:
        raise BoundExceededError(f"group of order {group.order} has more than "
                                 f"{CHARACTER_LIMIT} characters to count")


def _character_molien(logs, e: int, n: int) -> RationalSeries:
    """Molien series of the diagonal group with these character logs.

    The invariant exponents are closed under adding e to a coordinate, so
    each is an invariant x in [0, e)^n plus e times an exponent vector, and
    the series is N(t)/(1 - t^e)^n with N(t) = sum t^|x| over those x.  N
    is counted coordinate by coordinate, keyed by the residue of each
    character.  Then every factor of 1 - t^e = (1 - t) * prod_{1 < d | e}
    Phi_d that divides N is cancelled, which leaves the normal form.
    """
    zero = (0,) * len(logs)
    counts: dict[tuple[int, ...], list[int]] = {zero: [1]}
    for j in range(n):
        col = [row[j] for row in logs]
        nxt: dict[tuple[int, ...], list[int]] = {}
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


def molien_series(group: PoissonGroup) -> RationalSeries:
    """The Molien series, the average of 1/det(1 - g t) over the group.  An
    abelian form counts its invariant eigenbasis monomials by character
    (`_character_molien`, at most `CHARACTER_LIMIT` characters); any other
    group sums `trace_series` over its elements."""
    if group.diagonal is not None:
        _require_character_table(group)
        T, logs = group.diagonal
        return _character_molien(logs, group.exponent, T.nrows)
    total = None
    for g in group.elements:
        s = trace_series(g)
        total = s if total is None else total + s
    return total / Cyclo.of(group.order)


# -- skew-specific grading machinery ---------------------------------------


def block_decomposition(q: Matrix) -> list[list[int]]:
    """Partition {0..n-1} by equal rows of the skew matrix q."""
    n = q.nrows
    for i in range(n):
        for j in range(n):
            if not (q.rows[i][j] + q.rows[j][i]).is_zero():
                raise NotSkewError("matrix is not skew-symmetric")
    blocks: list[list[int]] = []
    for i in range(n):
        placed = False
        for block in blocks:
            r = block[0]
            if all(q.rows[i][k] == q.rows[r][k] for k in range(n)):
                block.append(i)
                placed = True
                break
        if not placed:
            blocks.append([i])
    for block in blocks:
        for i in block:
            for j in block:
                if not q.rows[i][j].is_zero():
                    raise NotSkewError("nonzero bracket inside a block")
    return blocks


# -- reflection search -------------------------------------------------------

NO_REFLECTIONS = "no_reflections"
FOUND = "found"
INCONCLUSIVE = "inconclusive"

# verified reflections exhibited per leaf of the search
MAX_SAMPLES = 2


@dataclass
class ReflectionFamily:
    """One leaf of the reflection search.

    direction: coefficients of the eigenvector u as polynomials in the chart
    parameters (constants when the chart is a single point).  xi is the
    common eigenvalue when it is constant on the leaf, None when the leaf
    carries a free eigenvalue parameter.
    """

    chart: int
    direction: tuple
    xi: Optional[Cyclo]
    xi_free: bool
    relations: tuple
    assignments: tuple
    samples: tuple = ()


@dataclass
class ReflectionsReport:
    status: str
    families: list[ReflectionFamily] = field(default_factory=list)
    normal_set: Optional[object] = None
    diagnostics: list[str] = field(default_factory=list)


def find_reflections(A: PoissonAlgebra, budget: int = DEFAULT_BUDGET) -> ReflectionsReport:
    A.require_quadratic("find_reflections")
    n = A.nvars
    charts: list[tuple[list, int]] = []  # (direction coefficient vectors over params, nparams)
    normset = None
    diagnostics: list[str] = []
    q = A.skew_matrix()
    if q is not None:
        # skew case: a degree-one normal element is supported inside a single
        # block, so the blocks give a complete chart cover of the candidates
        for block in block_decomposition(q):
            basis = []
            for i in block:
                vec = [_ZERO] * n
                vec[i] = _ONE
                basis.append(vec)
            r = len(basis)
            for j in range(r):
                charts.append(([basis[j]] + basis[j + 1:], r - 1 - j))
        diagnostics.append("skew bracket: candidate eigenvectors taken blockwise")
    else:
        normset = A.normal_find_deg1(budget)
        if normset.kind == EMPTY:
            return ReflectionsReport(NO_REFLECTIONS, normal_set=normset,
                                     diagnostics=["no degree-one Poisson normal elements"])
        if normset.kind == IDEAL_ONLY:
            return ReflectionsReport(
                INCONCLUSIVE, normal_set=normset,
                diagnostics=["normal-element variety could not be enumerated"])
        if normset.kind == POINTS:
            for p in normset.points:
                charts.append(([list(p)], 0))
        else:
            basis = [list(b) for b in normset.basis]
            r = len(basis)
            for j in range(r):
                charts.append(([basis[j]] + basis[j + 1:], r - 1 - j))

    families: list[ReflectionFamily] = []
    inconclusive = False
    for chart_idx, (vectors, nparams) in enumerate(charts):
        try:
            found = _solve_reflection_chart(A, vectors, nparams, budget)
        except PwbError as exc:
            inconclusive = True
            diagnostics.append(f"chart {chart_idx}: {exc}")
            continue
        for fam in found:
            fam.chart = chart_idx
            if fam.xi_free and not fam.samples:
                # a free-eigenvalue leaf only counts once a root-of-unity
                # member has actually been exhibited
                inconclusive = True
                diagnostics.append(
                    f"chart {chart_idx}: candidate family with unresolved eigenvalue "
                    f"({', '.join(str(r) for r in fam.relations) or 'no relations'})")
                continue
            families.append(fam)
    if families:
        return ReflectionsReport(FOUND, families, normal_set=normset, diagnostics=diagnostics)
    if inconclusive:
        return ReflectionsReport(INCONCLUSIVE, normal_set=normset, diagnostics=diagnostics)
    return ReflectionsReport(NO_REFLECTIONS, normal_set=normset, diagnostics=diagnostics)


def _solve_reflection_chart(A: PoissonAlgebra, vectors, nparams: int,
                            budget: int) -> list[ReflectionFamily]:
    """Reflections with eigenvector u = v0 + sum_l t_l v_(l+1)."""
    n = A.nvars
    param_names = tuple(f"_t{l+1}" for l in range(nparams))
    k_names = tuple(f"_k{i+1}" for i in range(n))
    pk = PolyRing(param_names + k_names)
    kvar = [pk.var(nparams + i) for i in range(n)]
    # u coefficients as elements of pk
    ucoef = []
    for i in range(n):
        acc = pk.scalar(vectors[0][i])
        for l in range(nparams):
            acc = acc + pk.var(l) * pk.scalar(vectors[l + 1][i])
        ucoef.append(acc)
    # mixed ring for the polynomial identities: params + k + x
    mixed = PolyRing(pk.names + A.ring.names)
    off = pk.nvars

    def lift_pk(p: Poly) -> Poly:
        return Poly(mixed, {e + (0,) * n: c for e, c in p.terms.items()})

    def lift_x(p: Poly) -> Poly:
        return Poly(mixed, {(0,) * off + e: c for e, c in p.terms.items()})

    u_mixed = mixed.zero()
    for i in range(n):
        u_mixed = u_mixed + lift_pk(ucoef[i]) * mixed.var(off + i)
    # g(x_i) = x_i + k_i u
    images = [mixed.var(l) for l in range(off)] + \
             [mixed.var(off + i) + lift_pk(kvar[i]) * u_mixed for i in range(n)]
    # {x_i, u} = sum_l u_l {x_i, x_l}
    bracket_with_u = []
    for i in range(n):
        acc = mixed.zero()
        for l in range(n):
            p = A.pair(i, l)
            if not p.is_zero():
                acc = acc + lift_pk(ucoef[l]) * lift_x(p)
        bracket_with_u.append(acc)
    equations: list[Poly] = []
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
    xi_expr = pk.zero()
    for i in range(n):
        xi_expr = xi_expr + kvar[i] * ucoef[i]

    families: list[ReflectionFamily] = []
    seen: set = set()
    for assignments, residual in split(equations, pk, budget):
        xi_nf = apply_assignments(xi_expr, assignments)
        if residual:
            xi_nf = normal_form(xi_nf, residual, grlex_key)
        if xi_nf.is_zero():
            continue  # unipotent directions are not reflections
        if xi_nf.is_scalar():
            xi = _ONE + xi_nf.as_scalar()
            if xi.is_zero() or xi.is_one():
                continue
            if xi.root_of_unity_order() is None:
                continue
            xi_value, xi_free = xi, False
        else:
            xi_value, xi_free = None, True
        direction = tuple(apply_assignments(c, assignments) for c in ucoef)
        sig = (str(sorted((k, str(v)) for k, v in assignments.items())),
               str(sorted(str(g) for g in residual)),
               str(xi_value), xi_free)
        if sig in seen:
            continue
        seen.add(sig)
        samples = _sample_reflections(A, vectors, nparams, pk, assignments, residual,
                                      xi_expr, xi_free, budget)
        families.append(ReflectionFamily(
            chart=-1,
            direction=tuple(d.as_scalar() if d.is_scalar() else d for d in direction),
            xi=xi_value, xi_free=xi_free,
            relations=tuple(residual),
            assignments=tuple(sorted((pk.names[i], str(v)) for i, v in assignments.items())),
            samples=tuple(samples)))
    return families


def _sample_reflections(A: PoissonAlgebra, vectors, nparams: int, pk: PolyRing,
                        assignments: dict, residual: list, xi_expr: Poly,
                        xi_free: bool, budget: int) -> list[GradedMap]:
    """Concrete verified reflections on a leaf."""
    targets: list[list[Poly]] = []
    if xi_free:
        for xi0 in (Cyclo.of(-1), zeta(3), zeta(4)):
            extra = apply_assignments(xi_expr, assignments) - pk.scalar(xi0 - _ONE)
            targets.append(list(residual) + [extra])
    else:
        targets.append(list(residual))
    out: list[GradedMap] = []
    for gens in targets:
        if len(out) >= MAX_SAMPLES:
            break
        point = find_point(gens, pk, assignments, budget)
        if point is None:
            continue
        g = _build_reflection(A, vectors, nparams, point)
        if g is None:
            continue
        cls = classify(A, g)
        if cls.kind == REFLECTION:
            if not any(g == h for h in out):
                out.append(g)
    return out


def _build_reflection(A: PoissonAlgebra, vectors, nparams: int,
                      point: list[Cyclo]) -> Optional[GradedMap]:
    n = A.nvars
    u = [Cyclo.of(vectors[0][i]) for i in range(n)]
    for l in range(nparams):
        t = point[l]
        if not t.is_zero():
            u = [a + t * Cyclo.of(vectors[l + 1][i]) for i, a in enumerate(u)]
    k = point[nparams: nparams + n]
    rows = [[(_ONE if r == c else _ZERO) + u[r] * k[c] for c in range(n)] for r in range(n)]
    try:
        return GradedMap(Matrix(rows))
    except SingularMatrixError:
        return None
