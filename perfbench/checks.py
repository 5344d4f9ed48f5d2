"""Answer checks for the benchmark tasks.

The reference values come from outside the code under test:

* `tests/oracle.py`: a recursive-Leibniz bracket on dense polynomials, plain
  Gaussian elimination and matrix orders by power iteration;
* closed forms: `math.comb(2n+k-1, k)` for enveloping dimensions, monomial
  counts for Molien coefficients, the Chevalley-Shephard-Todd degree product;
* the paper values that `pwb.suite` checks, restated in `PAPER` below.

pwb's own objects are used only as containers and, for CLI reports, pwb's
polynomial parser decodes the printed expressions.
"""
from __future__ import annotations

import math

from oracle import DensePoly, OracleBracket, dense_rank, matrix_order_by_iteration
from pwb.rings import Poly, PolyRing
from pwb.scalars import Cyclo

ONE = Cyclo.of(1)
ZERO = Cyclo.of(0)


class CheckFailed(Exception):
    """A task's answer disagrees with its reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- oracle adapters -------------------------------------------------------------


def dense(p: Poly) -> DensePoly:
    return DensePoly(p.ring.nvars, dict(p.terms))


def oracle_bracket(A) -> OracleBracket:
    return OracleBracket(A.nvars, {pair: dense(p) for pair, p in A.table.items()})


def linear_images(rows, n: int) -> list[DensePoly]:
    """Images of x_i under a graded map, column convention: x_i -> sum_j m[j][i] x_j."""
    out = []
    for i in range(n):
        img = DensePoly(n)
        for j in range(n):
            c = Cyclo.of(rows[j][i])
            if not c.is_zero():
                img = img.add(DensePoly.variable(n, j).scale(c))
        out.append(img)
    return out


def substitute(p: DensePoly, images: list[DensePoly], nvars: int) -> DensePoly:
    """p(images) with the images living in `nvars` variables."""
    acc = DensePoly(nvars)
    for e, c in p.table.items():
        term = DensePoly.scalar(nvars, c)
        for j, k in enumerate(e):
            if k:
                term = term.mul(images[j].power(k))
        acc = acc.add(term)
    return acc


def matrix_order(rows) -> int:
    order = matrix_order_by_iteration(rows)
    require(order is not None, "map has no finite order below the oracle cap")
    return order


def rank_minus_identity(rows) -> int:
    n = len(rows)
    return dense_rank([[Cyclo.of(rows[i][j]) - (ONE if i == j else ZERO) for j in range(n)]
                       for i in range(n)])


def require_automorphism(ob: OracleBracket, rows) -> None:
    n = ob.nvars
    images = linear_images(rows, n)
    for i in range(n):
        for j in range(i + 1, n):
            lhs = ob.bracket(images[i], images[j])
            rhs = substitute(ob.pair(i, j), images, n)
            require(lhs.equals(rhs), f"map does not preserve {{x{i}, x{j}}}")


def require_reflection(ob: OracleBracket, rows, order=None) -> None:
    require_automorphism(ob, rows)
    require(rank_minus_identity(rows) == 1, "map is not a reflection (rank(g - 1) != 1)")
    got = matrix_order(rows)
    require(got > 1, "reflection of order 1")
    require(order is None or got == order, f"order {got}, expected {order}")


def closure_order(matrices) -> int:
    """Order of the group generated by the matrices, by brute-force closure."""
    n = len(matrices[0])
    gens = [[[Cyclo.of(x) for x in row] for row in m] for m in matrices]

    def mul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(n)), ZERO) for j in range(n)]
                for i in range(n)]

    identity = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    elements = [identity]
    frontier = [identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if not any(y == z for z in elements):
                    elements.append(y)
                    fresh.append(y)
        require(len(elements) <= 512, "group closure exceeds 512 elements")
        frontier = fresh
    return len(elements)


# -- fixed rings -------------------------------------------------------------------


def require_fixed_ring(A, ob: OracleBracket, generators, expressions, entry, polynomial,
                       degrees) -> None:
    """Invariance of each generator and the induced bracket, both by the oracle.

    `generators` are matrices (rows) of the group generators, `expressions`
    ambient Polys, `entry(i, j)` the induced bracket as a Poly in the
    generator ring.
    """
    n = A.nvars
    dense_exprs = [dense(e) for e in expressions]
    for rows in generators:
        images = linear_images(rows, n)
        for e, d in zip(expressions, dense_exprs):
            require(substitute(d, images, n).equals(d), f"generator {e} is not invariant")
    k = len(expressions)
    for i in range(k):
        for j in range(i + 1, k):
            lhs = ob.bracket(dense_exprs[i], dense_exprs[j])
            rhs = substitute(dense(entry(i, j)), dense_exprs, n)
            require(lhs.equals(rhs), f"induced bracket of generators {i}, {j} is wrong")
    require(len(degrees) == len(expressions), "degrees and expressions differ in length")
    for e, d in zip(expressions, degrees):
        require(e.homogeneous_degree() == d, f"generator {e} does not have degree {d}")
    if polynomial:
        require(len(expressions) == n, "a polynomial fixed ring needs n generators")


def require_skew_form(ob: OracleBracket, expressions, skew) -> None:
    """{E_i, E_j} = q_ij E_i E_j for the returned skew matrix q."""
    require(skew is not None, "fixed ring is not recognised as skew-presentable")
    dense_exprs = [dense(e) for e in expressions]
    for i in range(len(dense_exprs)):
        for j in range(i + 1, len(dense_exprs)):
            lhs = ob.bracket(dense_exprs[i], dense_exprs[j])
            rhs = dense_exprs[i].mul(dense_exprs[j]).scale(skew.rows[i][j])
            require(lhs.equals(rhs), f"skew form wrong at generators {i}, {j}")


def free_molien_coefficients(n: int, m: int, upto: int) -> list[int]:
    """Invariant monomial counts of diag(zeta_m, 1, ..., 1) on n variables."""
    return [sum(math.comb(k - m * j + n - 2, n - 2) for j in range(k // m + 1))
            for k in range(upto + 1)]


# -- enveloping algebras -------------------------------------------------------------


def envelope_dim_reference(n: int, d: int) -> list[int]:
    """Graded dimensions of a polynomial ring on 2n generators."""
    return [math.comb(2 * n + k - 1, k) for k in range(d + 1)]


def squared_reflection_trace(n: int, upto: int) -> list[int]:
    """Taylor coefficients of 1/((1 + t)^2 (1 - t)^(2n-2))."""
    return [sum((j + 1) * (-1) ** j * math.comb(2 * n - 3 + k - j, k - j)
                for j in range(k + 1))
            for k in range(upto + 1)]


# -- CLI reports ---------------------------------------------------------------------


def parse_scalar(text: str) -> Cyclo:
    return PolyRing(()).parse(text).as_scalar()


def require_normal_vector(ob: OracleBracket, coeffs) -> None:
    """u = sum c_i x_i is normal: every {u, x_j} vanishes on the hyperplane u = 0."""
    n = ob.nvars
    coeffs = [Cyclo.of(c) for c in coeffs]
    pivot = next((i for i, c in enumerate(coeffs) if not c.is_zero()), None)
    require(pivot is not None, "zero vector returned as a normal element")
    u = DensePoly(n)
    for i, c in enumerate(coeffs):
        if not c.is_zero():
            u = u.add(DensePoly.variable(n, i).scale(c))
    # x_pivot = -(sum_{i != pivot} c_i x_i) / c_pivot on the hyperplane
    inv = ONE / coeffs[pivot]
    on_plane = DensePoly(n)
    for i, c in enumerate(coeffs):
        if i != pivot and not c.is_zero():
            on_plane = on_plane.add(DensePoly.variable(n, i).scale(-c * inv))
    for j in range(n):
        b = ob.bracket(u, DensePoly.variable(n, j))
        require(b.substitute_var(pivot, on_plane).is_zero(),
                f"{{u, x{j}}} is not divisible by u = {[str(c) for c in coeffs]}")


def require_normal_report(ob: OracleBracket, sol: dict) -> None:
    """Every returned normal point, subspace basis vector and their sum is normal;
    an unresolved ideal must at least list its generators."""
    kind = sol["kind"]
    if kind == "points":
        vectors = [[parse_scalar(c) for c in p] for p in sol["points"]]
    elif kind == "subspace":
        vectors = [[parse_scalar(c) for c in b] for b in sol["basis"]]
        if len(vectors) > 1:
            vectors.append([sum(col, ZERO) for col in zip(*vectors)])
    else:
        vectors = []
    if kind == "ideal":
        require(sol["generators"], "normal set reported as an ideal with no generators")
    for v in vectors:
        require_normal_vector(ob, v)


def chart_ring(n: int) -> PolyRing:
    """The ring of every chart's unknowns: chart m solves for u = x_m + sum_{i>m} _m{i} x_i."""
    return PolyRing(tuple(f"_m{i}" for i in range(n)))


def require_spans_coordinates(sol: dict, n: int) -> None:
    """Each x_i is normal in a skew algebra, so each must be in the returned set.

    For an ideal, x_m is the point where chart m's unknowns are all zero, so
    every generator must have a zero constant term."""
    kind = sol["kind"]
    require(kind != "empty", "skew algebra has an empty normal set")
    if kind == "ideal":
        require(sol["generators"], "normal set reported as an ideal with no generators")
        ring = chart_ring(n)
        for g in sol["generators"]:
            require(ring.parse(g).terms.get((0,) * n, ZERO).is_zero(),
                    f"ideal generator {g} does not vanish at a coordinate point")
        return
    key = "points" if kind == "points" else "basis"
    vectors = [[parse_scalar(c) for c in v] for v in sol[key]]
    for i in range(n):
        e = [ONE if t == i else ZERO for t in range(n)]
        if kind == "points":
            found = any(sum(1 for c in v if not c.is_zero()) == 1 and not v[i].is_zero()
                        for v in vectors)
        else:
            found = dense_rank(vectors + [e]) == dense_rank(vectors)
        require(found, f"x{i + 1} is missing from the normal set")


def require_reflection_samples(ob: OracleBracket, report: dict) -> int:
    samples = 0
    if report["status"] == "found":
        for fam in report["reflections"]:
            for m in fam["samples"]:
                require_reflection(ob, [[parse_scalar(c) for c in row] for row in m])
                samples += 1
    return samples


def require_fixed_report(A, ob: OracleBracket, payload: dict, map_rows) -> list[str]:
    """Check a `presented_json` payload; returns the generator expressions as printed."""
    gens = payload["generators"]
    names = [g["name"] for g in gens]
    exprs = [A.ring.parse(g["expression"]) for g in gens]
    gring = PolyRing(tuple(names))
    table = {(names.index(t["left"]), names.index(t["right"])): gring.parse(t["bracket"])
             for t in payload["table"]}

    def entry(i, j):
        if (i, j) in table:
            return table[(i, j)]
        if (j, i) in table:
            return -table[(j, i)]
        return gring.zero()

    degrees = [g["degree"] for g in gens]
    require_fixed_ring(A, ob, [map_rows], exprs, entry, payload["polynomial"], degrees)
    if payload["polynomial"]:
        require(math.prod(degrees) == matrix_order(map_rows),
                "degree product differs from the group order")
    return [g["expression"] for g in gens]


# Paper values, as checked by the vectors in pwb.suite.
PAPER = {
    # v_cubic_p_only
    ("jac_pq", "1", "0"): {"normal_kind": "empty", "reflections": "no_reflections"},
    # v_cubic_pq_normal_lines
    ("jac_pq", "-1", "1"): {"normal_kind": "points", "normal_count": 3},
    ("jac_pq", "-zeta(3)", "1"): {"normal_kind": "points", "normal_count": 3},
    # v_matrix_normal_elements, v_matrix_reflections, v_matrix_fixed_ring, v_matrix_rigidity
    ("qmatrix", 2): {"normal_kind": "subspace",
                     "normal_basis": [["0", "1", "0", "0"], ["0", "0", "1", "0"]],
                     "reflections": "found", "xi": "-1",
                     "fixed": ["a", "b + c", "d", "b*c"],
                     "verdict": ("distinguished", "derived_components", 3, 2)},
    ("qmatrix", 3): {"normal_kind": "points", "normal_count": 2,
                     "reflections": "no_reflections"},
    # v_weyl_center_and_reflections, v_weyl_fixed_ring_and_rigidity
    ("hweyl", 1): {"reflections": "found", "families": 1, "xi": "-1",
                   "verdict": ("distinguished", "center_gen_in_derived", None, None)},
    ("hweyl", 2): {"reflections": "found", "families": 1, "xi": "-1",
                   "verdict": ("distinguished", "center_gen_in_derived", None, None)},
    # v_ph_lie (sl2 has none; the 2-dim non-abelian algebra has reflections)
    ("ph_lie", "sl2"): {"reflections": "no_reflections"},
    ("ph_lie", "aff2"): {"reflections": "found"},
}
