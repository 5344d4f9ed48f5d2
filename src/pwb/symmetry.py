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
from operator import add
from typing import Optional, Sequence

from .brackets import PoissonAlgebra
from .errors import (BoundExceededError, InfiniteOrderError, InvalidDegreeError, NotSkewError,
                     PwbError, SingularMatrixError)
from .linalg import Matrix, _dot, hermite_normal_form
from .rings import (Poly, PolyRing, _add_terms, _mul_terms, column_supports, grlex_key,
                    linear_substitution)
from .scalars import (Cyclo, conductor, cyclotomic_polynomial, divisors, lcm, zeta, zpoly_mul,
                      zpoly_quotient)
from .series import RationalSeries
from .solver import (DEFAULT_BUDGET, EMPTY, IDEAL_ONLY, POINTS, apply_assignments,
                     find_point, normal_form, split)
from .upoly import UPoly, extract_roots

_ZERO = Cyclo.of(0)
_ONE = Cyclo.of(1)
_MINUS_ONE = Cyclo.of(-1)

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
            self._cache["update_rank"], self._cache["update"] = _update(self.matrix)
        return self._cache["update_rank"]

    def update(self) -> Optional[tuple[list[Cyclo], list[Cyclo]]]:
        """(u, k) with g - I = u k^T when g - I has rank one, else None: k is
        the first nonzero row of g - I, and u is 1 at that row."""
        self.update_rank()
        return self._cache["update"]

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
                xi = m.trace() - Cyclo.of(m.nrows - 1)
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


def _update(m: Matrix) -> tuple[int, Optional[tuple[list[Cyclo], list[Cyclo]]]]:
    """The rank of m - I when it is 0 or 1, else 2, and for rank one (u, k)
    with m - I = u k^T.  k is the first nonzero row of m - I, and each later
    row is tested for proportionality to it by 2n products; u_i is the
    ratio (m - I)_(i, lead) / k_lead, lead the first nonzero column of k,
    so u is 1 at k's row."""
    first, at_lead = None, []
    for i, row in enumerate(m.rows):
        d = list(row)
        d[i] = d[i] - _ONE
        if first is None:
            lead = next((j for j, c in enumerate(d) if c), None)
            if lead is None:
                at_lead.append(_ZERO)
                continue
            first, top = d, i
        elif any(d[j] * first[lead] != d[lead] * first[j] for j in range(len(d))):
            return 2, None
        at_lead.append(d[lead])
    if first is None:
        return 0, None
    inv = first[lead].inverse()
    u = [_ONE if i == top else c * inv if c else _ZERO for i, c in enumerate(at_lead)]
    return 1, (u, first)


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
    first failing pair as witness.  Both sides read the nonzero entries of
    g's columns (`column_supports`): the left side is the image of the
    table entry, each product of images formed once per check
    (`linear_substitution`), and the right side is read off the table
    (`PoissonAlgebra.linear_bracket_terms`)."""
    columns = column_supports(g.matrix.rows)
    apply = linear_substitution(columns)
    for i in range(A.nvars):
        for j in range(i + 1, A.nvars):
            entry = A.table.get((i, j))
            lhs = apply(entry.terms) if entry is not None else {}
            if lhs != A.linear_bracket_terms(columns, i, j):
                return False, (A.ring.names[i], A.ring.names[j])
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
    update = g.update()
    if update is None:
        return Classification(FINITE_NON_REFLECTION, order=order)
    # the xi-eigenvector u in the reduced echelon shape of the kernel of
    # g - xi I: 1 at its last nonzero entry
    xi = g.matrix.trace() - Cyclo.of(g.n - 1)
    u = update[0]
    last = next(c for c in reversed(u) if c)
    eigenvector = tuple(c / last if c else _ZERO for c in u)
    return Classification(REFLECTION, order=order, xi=xi, eigenvector=eigenvector)


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
    return RationalSeries.reduced(UPoly.one(), den)  # numerator 1, den(0) = 1


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
    `bound` of them, and the exponent is the lcm of their orders.  A
    negative `bound` raises `InvalidDegreeError` before any order is found.
    """
    if not gens:
        raise PwbError("need at least one generator")
    if bound < 0:
        raise InvalidDegreeError(f"group order bound {bound} is negative")
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
    """Common eigenbasis T and per-generator eigenvalue lists, or None.

    The common eigenspaces are kept whole until every generator has split
    them.  A space is a basis B of column vectors with its identity
    positions: the rows where B is the identity, as every basis
    `kernel_basis` returns is on its free columns, and recombining keeps
    that.  A generator g splits B into the kernels of (g - lam I) B, each
    in the reduced echelon shape `kernel_basis` gives (`_eigenspace_kernel`,
    or `_rank_one_kernel` for a rank-one g), and B times each kernel vector
    is a column of the new space.
    """
    n = gens[0].n
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not _commute(gens[i], gens[j]):
                return None
    # (basis column vectors, their identity positions, eigenvalue of each
    # generator processed so far)
    spaces: list[tuple[list[list[Cyclo]], list[int], list[Cyclo]]] = [
        ([list(r) for r in Matrix.identity(n).rows], list(range(n)), [])]
    for g in gens:
        eigenvalues = g.eigenvalues()
        if eigenvalues is None:
            return None
        update = g.update()
        new_spaces = []
        for basis, positions, chars in spaces:
            for lam in eigenvalues:
                if update is None:
                    vecs = _eigenspace_kernel(g.matrix, lam, basis)
                else:
                    vecs = _rank_one_kernel(update, lam, basis, positions)
                if vecs:
                    cols = [_recombined(vec, basis) for _, vec in vecs]
                    new_spaces.append((cols, [positions[f] for f, _ in vecs], chars + [lam]))
        spaces = new_spaces
    T = Matrix([col for basis, _, _ in spaces for col in basis]).transpose()
    chars = [[lams[gi] for basis, _, lams in spaces for _ in basis] for gi in range(len(gens))]
    return T, chars


def _commute(g: GradedMap, h: GradedMap) -> bool:
    """gh == hg.  For a rank-one g = I + u k^T that is u (h^T k)^T == (h u) k^T,
    an equation of two rank-one matrices (h is invertible, so h u != 0): it
    holds iff h u = alpha u and h^T k = alpha k for one alpha, which is
    (h u)_i at the row where u is 1."""
    if g.update() is None:
        g, h = h, g
    update = g.update()
    if update is None:
        return g.matrix * h.matrix == h.matrix * g.matrix
    u, k = update
    m = h.matrix
    hu = [_dot(row, u) for row in m.rows]
    alpha = hu[next(i for i, c in enumerate(u) if c)]
    return (all(x == alpha * c for x, c in zip(hu, u))
            and all(_dot(m.column(j), k) == alpha * c for j, c in enumerate(k)))


def _eigenspace_kernel(m: Matrix, lam: Cyclo, basis: list[list[Cyclo]]):
    """[(free column, {t: nonzero entry})] for the kernel vectors of
    (m - lam I) B by `kernel_basis`: B has full column rank, so they span the
    lam-eigenspace of m in the span of B.  A vector's free column is its
    last nonzero entry."""
    delta = m - Matrix.diagonal([lam] * m.nrows)
    vecs = (delta * Matrix(basis).transpose()).kernel_basis()
    return [(max(t for t, c in enumerate(v) if c), {t: c for t, c in enumerate(v) if c})
            for v in vecs]


def _rank_one_kernel(update, lam: Cyclo, basis: list[list[Cyclo]], positions: list[int]):
    """`_eigenspace_kernel` for m = I + u k^T, by no elimination.

    Since (m - I) B = u (k^T B), the kernel for lam = 1 is that of the row
    r = k^T B: with p its first nonzero entry, the vector of free column f
    is 1 at f and -r_f / r_p at p.  For lam = xi it is spanned by the
    coordinates c of u, read at the identity positions, when B c = u,
    normalised at the last nonzero coordinate, which is the one free
    column; otherwise it is zero."""
    u, k = update
    if lam.is_one():
        r = [_dot(k, b) for b in basis]
        p = next((j for j, c in enumerate(r) if c), None)
        if p is None:
            return [(f, {f: _ONE}) for f in range(len(basis))]
        return [(f, {f: _ONE, p: -(r[f] / r[p])} if r[f] else {f: _ONE})
                for f in range(len(basis)) if f != p]
    c = [u[pos] for pos in positions]
    if any(_dot(c, [b[i] for b in basis]) != u[i] for i in range(len(u)) if i not in positions):
        return []
    f = max(t for t, x in enumerate(c) if x)
    vec = {t: c[t] / c[f] for t in range(f) if c[t]}
    vec[f] = _ONE
    return [(f, vec)]


def _recombined(vec: dict, basis: list[list[Cyclo]]) -> list[Cyclo]:
    """B times a kernel vector, from its nonzero coordinates."""
    out = []
    for i in range(len(basis[0])):
        acc = _ZERO
        for t, c in vec.items():
            b = basis[t][i]
            if b:
                acc = acc + c * b
        out.append(acc)
    return out


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


def _character_orders(logs, e: int) -> list[int]:
    """Per eigenbasis variable y_j, the order o_j of its characters."""
    return [e // gcd(e, *col) for col in zip(*logs)]


def _character_molien(logs, e: int) -> RationalSeries:
    """Molien series of the diagonal group with these character logs.

    With o_j the order of y_j's characters (`_character_orders`), y_j^o_j
    is invariant, so each invariant exponent is an invariant x in the box
    prod_j [0, o_j) plus a multiple of o_j in each coordinate, and the
    series is N(t)/prod_j (1 - t^o_j) with N(t) = sum t^|x| over those x.
    N is counted coordinate by coordinate, keyed by the residue of each
    character.  Then every factor of 1 - t^o = (1 - t) * prod_{1 < d | o}
    Phi_d that divides N is cancelled, which leaves the normal form.
    """
    zero = (0,) * len(logs)
    orders = _character_orders(logs, e)
    counts: dict[tuple[int, ...], list[int]] = {zero: [1]}
    for col, o in zip(zip(*logs), orders):
        nxt: dict[tuple[int, ...], list[int]] = {}
        for res, poly in counts.items():
            for x in range(o):
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
        power = sum(1 for o in orders if o % d == 0)
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
        return _character_molien(group.diagonal[1], group.exponent)
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
    bases: list[list] = []  # each basis's charts cover the candidates in its span
    normset = None
    diagnostics: list[str] = []
    q = A.skew_matrix()
    if q is not None:
        # skew case: a degree-one normal element is supported inside a single
        # block, so the blocks give a complete chart cover of the candidates
        bases = [[[_ONE if t == i else _ZERO for t in range(n)] for i in block]
                 for block in block_decomposition(q)]
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
            charts = [([list(p)], 0) for p in normset.points]
        else:
            bases = [[list(b) for b in normset.basis]]
    for basis in bases:
        charts += [(basis[j:], len(basis) - 1 - j) for j in range(len(basis))]

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
    """Reflections g(x_i) = x_i + k_i u with eigenvector u = v0 + sum_l t_l
    v_(l+1), from the equations of `_reflection_equations`."""
    pk, ucoef, equations = _reflection_equations(A, vectors, nparams)
    xi_expr = pk.zero()
    for i in range(A.nvars):
        xi_expr = xi_expr + pk.var(nparams + i) * ucoef[i]
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


def _reflection_equations(A: PoissonAlgebra, vectors, nparams: int
                          ) -> tuple[PolyRing, list[Poly], list[Poly]]:
    """The ring of the t and k, the coefficients of u in it, and the
    equations: the x-coefficients of g{x_i, x_j} - {g x_i, g x_j}, i < j.

    Each table monomial x_a x_b of {x_i, x_j} moves under g by
    k_b x_a u + k_a x_b u + k_a k_b u^2, and {g x_i, g x_j} - {x_i, x_j} =
    k_j {x_i, u} - k_i {x_j, u} with {x_i, u} = sum_l u_l {x_i, x_l}, each
    {x_i, x_l} a `hamiltonian`; the table entries themselves cancel and are
    never formed.  x_a u, u^2 and
    {x_i, u} are written out once per chart, as x-monomial -> terms in t, k.
    """
    n = A.nvars
    pk = PolyRing(tuple(f"_t{l+1}" for l in range(nparams)) + tuple(f"_k{i+1}" for i in range(n)))
    unit = [tuple(int(s == r) for s in range(pk.nvars)) for r in range(pk.nvars)]
    k_unit = unit[nparams:]
    # u_i = v0_i + sum_l t_l v_(l+1),i
    ucoef = [{e: Cyclo.of(v[i]) for e, v in zip([(0,) * pk.nvars] + unit, vectors) if v[i]}
             for i in range(n)]
    x_unit = [tuple(int(s == a) for s in range(n)) for a in range(n)]
    x_times_u = [{tuple(map(add, x_unit[a], x_unit[l])): ucoef[l] for l in range(n) if ucoef[l]}
                 for a in range(n)]
    u_squared: dict = {}
    for l in range(n):
        for r in range(n):
            if ucoef[l] and ucoef[r]:
                _add_terms(u_squared.setdefault(tuple(map(add, x_unit[l], x_unit[r])), {}),
                           _mul_terms(ucoef[l], ucoef[r]).items())
    bracket_u: list[dict] = []
    for i in range(n):
        acc: dict = {}
        for l in range(n):
            for e, c in A.hamiltonian({x_unit[i]: 1}, l).items():
                _add_terms(acc.setdefault(e, {}), ((f, c * d) for f, d in ucoef[l].items()))
        bracket_u.append(acc)

    def add_in(out: dict, xterms: dict, c: Cyclo, shift: tuple) -> None:
        """out += c * k^shift * xterms, per x-monomial."""
        for x, terms in xterms.items():
            _add_terms(out.setdefault(x, {}),
                       ((tuple(map(add, e, shift)), c * d) for e, d in terms.items()))

    equations: list[Poly] = []
    for i in range(n):
        for j in range(i + 1, n):
            diff: dict = {}
            for e, c in A.pair(i, j).terms.items():
                a = next(v for v, x in enumerate(e) if x)
                b = a if e[a] == 2 else next(v for v in range(a + 1, n) if e[v])
                add_in(diff, x_times_u[a], c, k_unit[b])
                add_in(diff, x_times_u[b], c, k_unit[a])
                add_in(diff, u_squared, c, tuple(map(add, k_unit[a], k_unit[b])))
            add_in(diff, bracket_u[i], _MINUS_ONE, k_unit[j])
            add_in(diff, bracket_u[j], _ONE, k_unit[i])
            equations.extend(Poly(pk, terms) for terms in diff.values() if terms)
    return pk, [Poly(pk, terms) for terms in ucoef], equations


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
