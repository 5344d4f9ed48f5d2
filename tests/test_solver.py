from fractions import Fraction
from math import prod
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from pwb import linalg, solver
from pwb.errors import DegreeBudgetExceededError, UnsplittableConditionError
from pwb.families import (homogenized_weyl, jacobian_pq, lie_two_dim_nonabelian, ph_lie,
                          quantum_matrices, skew_symmetric, sl2)
from pwb.linalg import Matrix
from pwb.rings import Poly, PolyRing, grlex_key
from pwb.scalars import Cyclo, conductor, zeta
from pwb.solver import (EMPTY, IDEAL_ONLY, POINTS, SUBSPACE, classify_affine, elim_order,
                        groebner_basis, lex_order, normal_form, solve_projective, split,
                        subalgebra_member)

R2 = PolyRing(["x", "y"])
R3 = PolyRing(["x", "y", "z"])


def test_groebner_principal():
    gb = groebner_basis([R3.parse("x")])
    assert gb == [R3.parse("x")]


def test_groebner_lex_elimination():
    gens = [R2.parse("x^2 - y"), R2.parse("x*y - 1")]
    gb = groebner_basis(gens, lex_order)
    wanted = {str(R2.parse("x - y^2")), str(R2.parse("y^3 - 1"))}
    assert {str(g) for g in gb} == wanted


def test_groebner_inconsistent():
    gb = groebner_basis([R2.parse("x"), R2.parse("x + 1")])
    assert [str(g) for g in gb] == ["1"]


def test_groebner_idempotent():
    gens = [R3.parse("x^2 - y*z"), R3.parse("x*y - z^2"), R3.parse("y^2 - x*z")]
    gb = groebner_basis(gens)
    gb2 = groebner_basis(gb)
    assert [str(g) for g in gb] == [str(g) for g in gb2]


def test_normal_form_linear():
    gens = groebner_basis([R2.parse("x^2 - y"), R2.parse("x*y - 1")])
    f, g = R2.parse("x^3 + y"), R2.parse("x*y^2 - x")
    nf = normal_form(f + g, gens)
    assert nf == normal_form(f, gens) + normal_form(g, gens)


def test_budget():
    # sizeable standard benchmark system with a tiny budget
    gens = [R3.parse("x^5 + y^4 + z^3 - 1"), R3.parse("x^3 + y^3 + z^2 - 1")]
    with pytest.raises(DegreeBudgetExceededError):
        groebner_basis(gens, budget=5)


def test_ideal_membership():
    def member(f, gens):
        return normal_form(f, groebner_basis(gens)).is_zero()

    assert member(R2.parse("x^2 + x*y"), [R2.parse("x")])
    assert member(R2.parse("1"), [R2.parse("x"), R2.parse("x+1")])
    assert not member(R3.parse("z"), [R3.parse("z^2")])


def test_subalgebra_member():
    f = R2.parse("x^2*y^2")
    expr = subalgebra_member(f, [R2.parse("x*y")])
    assert expr is not None and str(expr) == "t1^2"
    assert subalgebra_member(R2.parse("x"), [R2.parse("x^2")]) is None
    # elementary symmetric polynomials generate the symmetric ones
    e1, e2 = R2.parse("x + y"), R2.parse("x*y")
    expr = subalgebra_member(R2.parse("x^2 + y^2"), [e1, e2])
    assert expr is not None
    ring = expr.ring
    assert expr == ring.parse("t1^2 - 2*t2")


def test_subalgebra_member_matrix_bracket():
    # 2bc expressed in the fixed-ring generators of the swap action
    from pwb.families import quantum_matrices
    A = quantum_matrices(2)
    gens = [A.ring.parse(src) for src in ("a", "b + 2*c", "b*c", "d")]
    expr = subalgebra_member(A.bracket(gens[0], gens[3]), gens)
    assert expr is not None and expr == expr.ring.parse("2*t3")


def test_classify_affine_linear():
    res = classify_affine([R3.parse("x + y - 1")], R3)
    assert res.kind == SUBSPACE and len(res.directions) == 2
    res = classify_affine([R3.parse("x - 1"), R3.parse("y + 2"), R3.parse("z")], R3)
    assert res.kind == POINTS and len(res.points) == 1


def test_classify_affine_points():
    res = classify_affine([R2.parse("x^2 - 1"), R2.parse("y^3 - 1")], R2)
    assert res.kind == POINTS and len(res.points) == 6
    values = {str(p[0]) for p in res.points}
    assert values == {"1", "-1"}


def test_classify_affine_unsplittable():
    # x^2 = 2 has no rational or root-of-unity solutions: stays ideal-only
    res = classify_affine([R2.parse("x^2 - 2"), R2.parse("y")], R2)
    assert res.kind == IDEAL_ONLY


def test_split_raises_a_typed_error_on_an_unsplittable_condition():
    with pytest.raises(UnsplittableConditionError,
                       match=r"^univariate condition x\^2 - 2 does not split over "
                             r"cyclotomic numbers$"):
        split([R2.parse("x^2 - 2"), R2.parse("y")], R2)


def same_points(got, expected) -> bool:
    """Equal as sets of values: printed entries depend on the conductor reached."""
    return len(got) == len(expected) and all(p in expected for p in got)


def test_a_zero_dimensional_basis_without_univariate_is_split_in_lex():
    # chart 0 of normal_find_deg1 on jacobian_pq(-1, 1): the grlex basis is
    # zero-dimensional but holds no univariate element
    mu = PolyRing(["m1", "m2"])
    gens = [mu.parse("m2^2 - m1"), mu.parse("m1*m2 - 1"), mu.parse("m1^2 - m2")]
    assert [str(g) for g in groebner_basis(gens)] == ["m2^2 - m1", "m1*m2 - 1", "m1^2 - m2"]
    [(assignments, residual)] = oracle.grlex_branch_solve(gens, mu)
    assert assignments == {} and residual == groebner_basis(gens)
    assert all(residual == [] and len(values) == 2 for values, residual in split(gens, mu))
    res = classify_affine(gens, mu)
    assert res.kind == POINTS
    assert same_points(res.points, oracle.lex_points(gens, mu))
    assert same_points(res.points, [[Cyclo.of(1), Cyclo.of(1)], [zeta(3), zeta(3, 2)],
                                    [zeta(3, 2), zeta(3)]])
    assert jacobian_pq(-1, 1).normal_find_deg1().describe() == "3 points"


RATIONAL_ROOTS = [Cyclo.of(0), Cyclo.of(1), Cyclo.of(-2), Cyclo.of(Fraction(1, 2))]
ROOTS = RATIONAL_ROOTS + [Cyclo.of(-1), zeta(3), zeta(3, 2), zeta(4), zeta(6)]


@st.composite
def zero_dimensional_systems(draw):
    """(ring, system, number of points) in 2 or 3 unknowns: f_i(x_i) = 0, each
    f_i a product of one or two linear factors x_i - r with distinct roots r,
    rational or roots of unity, written in y for an invertible change of
    variables x = M y.  M mixes the unknowns whose roots are all rational by
    an integer matrix and moves the others by a signed permutation, so each
    coordinate of each point stays rational or a root of unity, which is what
    the root extraction can find."""
    n = draw(st.integers(2, 3))
    ring = PolyRing(["y1", "y2", "y3"][:n])
    rational = [draw(st.booleans()) for _ in range(n)]
    roots = [draw(st.lists(st.sampled_from(RATIONAL_ROOTS if q else ROOTS), min_size=1,
                           max_size=2, unique_by=str)) for q in rational]
    mixed = [i for i in range(n) if rational[i]]
    order = draw(st.permutations(range(n)))
    rows = []
    for i in range(n):
        row = [0] * n
        if i in mixed:
            for j in mixed:
                row[order[j]] = draw(st.integers(-1, 2))
        else:
            row[order[i]] = draw(st.sampled_from([1, -1]))
        rows.append(row)
    assume(not Matrix(rows).det().is_zero())
    system = []
    for row, rs in zip(rows, roots):
        f = ring.one()
        for r in rs:
            f = f * (ring.linear_form(row) - ring.scalar(r))
        system.append(f)
    return ring, system, prod(len(rs) for rs in roots)


@settings(max_examples=40, deadline=None)
@given(zero_dimensional_systems())
@example((R2, [R2.parse("x^2 - 1"), R2.parse("y^3 - 1")], 6))
@example((R2, [R2.parse("(x + y)*(x + y - 1)"), R2.parse("(x - y)*(x - y + 2)")], 4))
def test_zero_dimensional_points_match_the_lex_back_substitution(case):
    ring, system, count = case
    res = classify_affine(system, ring)
    assert res.kind == POINTS and len(res.points) == count
    assert same_points(res.points, oracle.lex_points(system, ring))


def test_solve_projective_subspace():
    mu = PolyRing(["m1", "m2", "m3"])
    res = solve_projective([mu.parse("m1")], mu)
    assert res.kind == SUBSPACE and len(res.basis) == 2


def test_solve_projective_empty():
    mu = PolyRing(["m1", "m2"])
    res = solve_projective([mu.parse("m1"), mu.parse("m2")], mu)
    assert res.kind == EMPTY


def test_solve_projective_axes():
    # mu1*mu2 = 0: union of the two axes, not a single subspace
    mu = PolyRing(["m1", "m2"])
    res = solve_projective([mu.parse("m1*m2")], mu)
    assert res.kind == POINTS
    assert len(res.points) == 2


def test_solve_projective_cube_roots():
    # mu2^3 = mu1^3 on the projective line: three points (1, gamma)
    mu = PolyRing(["m1", "m2"])
    res = solve_projective([mu.parse("m2^3 - m1^3")], mu)
    assert res.kind == POINTS and len(res.points) == 3
    gammas = {str(p[1]) for p in res.points}
    assert gammas == {"1", str(zeta(3)), str(zeta(3, 2))}


def test_solve_projective_points_satisfy_generators():
    mu = PolyRing(["m1", "m2", "m3"])
    gens = [mu.parse("m1*m2 - m3^2"), mu.parse("m2^2 - m1*m3"), mu.parse("m1^2*m2 - m2^2*m3")]
    res = solve_projective(gens, mu)
    if res.kind == POINTS:
        for p in res.points:
            for g in gens:
                acc = Cyclo.of(0)
                for e, c in g.terms.items():
                    term = c
                    for i, k in enumerate(e):
                        term = term * p[i] ** k
                    acc = acc + term
                assert acc.is_zero()


def test_solve_projective_whole_space():
    mu = PolyRing(["m1", "m2"])
    res = solve_projective([], mu)
    assert res.kind == SUBSPACE and len(res.basis) == 2


def test_solve_projective_union_of_plane_and_point_is_not_a_subspace():
    # V(xz, yz) = {z = 0} union {x = y = 0}: charts see a plane piece and a
    # point outside it, which must not be merged into one subspace
    res = solve_projective([R3.parse("x*z"), R3.parse("y*z")], R3)
    assert res.kind == IDEAL_ONLY and res.generators


def test_solve_projective_union_of_two_planes():
    res = solve_projective([R3.parse("x*(x + y + z)")], R3)
    assert res.kind == IDEAL_ONLY


# -- Groebner bases against sympy -----------------------------------------------

QUADRATIC_MONOMIALS = [e for k in range(3) for e in R3.monomials_of_degree(k)]


@st.composite
def rational_systems(draw):
    """One to three polynomials in x, y, z of degree <= 2, each of one to four
    terms with nonzero rational coefficients."""
    coeffs = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        exps = draw(st.lists(st.sampled_from(QUADRATIC_MONOMIALS), min_size=1, max_size=4,
                             unique=True))
        p = R3.zero()
        for e in exps:
            p = p + R3.monomial(e, Cyclo.of(draw(coeffs)))
        polys.append(p)
    return polys


@settings(max_examples=40, deadline=None)
@given(rational_systems())
@example([R3.parse("x^2 - y*z"), R3.parse("x*y - z^2"), R3.parse("y^2 - x*z")])
@example([R3.parse("x"), R3.parse("x + 1")])
def test_groebner_basis_matches_sympy(polys):
    # both sides are reduced grlex (then lex) bases with x > y > z, made monic:
    # equal as sets
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x y z")
    system = [sympy.Poly.from_dict({e: sympy.Rational(c.as_fraction())
                                    for e, c in p.terms.items()}, gens, domain="QQ")
              for p in polys]

    def monic(g, name):
        lc = g.LC(order=name)
        return frozenset((e, Fraction(str(c / lc))) for e, c in g.terms())

    for name, order in (("grlex", grlex_key), ("lex", lex_order)):
        expected = {monic(g, name) for g in sympy.groebner(system, *gens, order=name).polys}
        got = {frozenset((e, c.as_fraction()) for e, c in g.terms.items())
               for g in groebner_basis(polys, order)}
        assert got == expected


# -- chart unions: pivot counts against the old check ----------------------------


def with_old_union_check(solve):
    """Run `solve()` with `aggregate_chart_results` deciding a chart union by
    the oracle's old check instead of by pivot counts."""
    candidate = {}

    def recorded_rref(rows, ncols):
        candidate["rref"] = out = linalg.rref(rows, ncols)
        candidate["n"] = ncols
        return out

    def old_check(pivots, chart_results):
        return oracle.verify_union_is_subspace(candidate["rref"][0], chart_results,
                                               candidate["n"])

    with patch.object(solver, "rref", recorded_rref), \
            patch.object(solver, "_union_is_subspace", old_check):
        return solve()


@st.composite
def products_of_linear_forms(draw):
    """(ring, system) in 2 to 4 unknowns: each equation l_i * f_k of a linear
    form l_i cutting out a subspace V with a small integer linear form f_k.
    Where every f_k is a coordinate, each chart sees the l_i alone, so the
    pieces are affine and their union is P(V); other forms f_k make unions
    that are or are not a subspace."""
    n = draw(st.integers(2, 4))
    ring = PolyRing([f"m{i}" for i in range(1, n + 1)])
    coeff = st.sampled_from([-1, 0, 0, 1, 2])
    cuts = [ring.linear_form([draw(coeff) for _ in range(n)])
            for _ in range(draw(st.integers(1, n - 1)))]
    factors = []
    for _ in range(draw(st.integers(1, n))):
        if draw(st.booleans()):
            factors.append(ring.var(draw(st.integers(0, n - 1))))
        else:
            factors.append(ring.linear_form([draw(coeff) for _ in range(n)]))
    return ring, [l * f for l in cuts for f in factors]


MU3 = PolyRing(["m1", "m2", "m3"])


@settings(max_examples=80, deadline=None)
@given(products_of_linear_forms())
@example((MU3, [MU3.parse("m1^2"), MU3.parse("m1*m2")]))   # the plane m1 = 0
@example((MU3, [MU3.parse("m1*m2"), MU3.parse("m1*m3")]))  # a plane and a point
@example((MU3, [MU3.parse("m1*m2"), MU3.parse("m2*m3"), MU3.parse("m1*m3")]))  # three points
def test_chart_unions_by_pivot_counts_match_the_old_check(case):
    ring, gens = case
    expected = with_old_union_check(lambda: solve_projective(gens, ring))
    assert solve_projective(gens, ring) == expected


@pytest.mark.parametrize("algebra", [
    quantum_matrices(2), jacobian_pq(1, 0), jacobian_pq(0, 1), homogenized_weyl(1),
    ph_lie(sl2()), ph_lie(lie_two_dim_nonabelian()),
    skew_symmetric(Matrix([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])),
    skew_symmetric(Matrix([[0, 1, 0, 2], [-1, 0, 0, 0], [0, 0, 0, 3], [-2, 0, -3, 0]])),
], ids=["qmatrix2", "jac_p", "jac_q", "hweyl1", "ph_sl2", "ph_lie2", "skew3", "skew4"])
def test_normal_elements_by_pivot_counts_match_the_old_check(algebra):
    expected = with_old_union_check(algebra.normal_find_deg1)
    assert algebra.normal_find_deg1() == expected


# -- the integer kernel against the Cyclo Buchberger ------------------------------

FIELDS = {
    "Q": [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)],
    "Q(zeta3)": [1, -2, Fraction(1, 3), zeta(3), -zeta(3), 1 + zeta(3), 2 * zeta(3, 2)],
    "Q(zeta4)": [1, -1, Fraction(3, 2), zeta(4), 1 - zeta(4), Fraction(1, 2) * zeta(4)],
    "Q(zeta3, zeta4)": [1, -1, Fraction(1, 2), zeta(3), zeta(4), zeta(3) + zeta(4),
                        zeta(12)],
}
ORDER_NAMES = ["grlex", "lex", "elim"]


def _order(name: str, nvars: int, draw):
    if name == "grlex":
        return grlex_key
    if name == "lex":
        return lex_order
    return elim_order(draw(st.integers(1, nvars - 1)))


@st.composite
def drawn_polys(draw, ring, field, count, degree=2):
    """`count` nonzero polynomials of degree <= `degree` and one to four terms,
    coefficients from the field's sample."""
    monos = [e for k in range(degree + 1) for e in ring.monomials_of_degree(k)]
    coeffs = st.sampled_from(FIELDS[field])
    polys = []
    for _ in range(count):
        exps = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        polys.append(Poly(ring, {e: Cyclo.of(draw(coeffs)) for e in exps}))
    return polys


@st.composite
def drawn_systems(draw):
    """(ring, gens, order, budget): one to three generators in two or three
    unknowns over one of the fields, under grlex, lex or an elimination order."""
    ring = draw(st.sampled_from([R2, R3]))
    gens = draw(drawn_polys(ring, draw(st.sampled_from(sorted(FIELDS))),
                            draw(st.integers(1, 3))))
    order = _order(draw(st.sampled_from(ORDER_NAMES)), ring.nvars, draw)
    return ring, gens, order, draw(st.sampled_from([3, 4, 6]))


def _outcome(fn):
    """fn()'s value, or the degree of the budget stop it raised."""
    try:
        return fn()
    except DegreeBudgetExceededError as exc:
        return ("budget", exc.degree, exc.budget)


def _stored_at_conductor(polys, n: int) -> bool:
    """Every coefficient is stored at conductor 1 when rational, at n otherwise."""
    return all(c.n == (1 if c.is_rational() else n) for p in polys for c in p.terms.values())


@settings(max_examples=150, deadline=None)
@given(drawn_systems())
@example((R2, [R2.parse("x^2 - y"), R2.parse("x*y - 1")], lex_order, 6))
@example((R3, [R3.parse("x^5 + y^4 + z^3 - 1"), R3.parse("x^3 + y^3 + z^2 - 1")],
          grlex_key, 5))
@example((R2, [R2.parse("zeta(3)*x^2 + y"), R2.parse("zeta(4)*x*y - 1")], grlex_key, 6))
def test_groebner_basis_matches_the_cyclo_buchberger(case):
    # equal value by value, in order, or stopped by the budget at the same degree
    ring, gens, order, budget = case
    got = _outcome(lambda: groebner_basis(gens, order, budget))
    assert got == _outcome(lambda: oracle.cyclo_groebner_basis(gens, order, budget))
    if isinstance(got, list):
        assert _stored_at_conductor(got, conductor(c for g in gens for c in g.terms.values()))


@st.composite
def divisions(draw):
    """(f, divisors, order): a polynomial of degree <= 3 and one to three
    divisors, neither monic nor a Groebner basis, over one field."""
    ring = draw(st.sampled_from([R2, R3]))
    field = draw(st.sampled_from(sorted(FIELDS)))
    f, = draw(drawn_polys(ring, field, 1, degree=3))
    divisors = draw(drawn_polys(ring, field, draw(st.integers(1, 3))))
    return f, divisors, _order(draw(st.sampled_from(ORDER_NAMES)), ring.nvars, draw)


@settings(max_examples=200, deadline=None)
@given(divisions())
@example((R2.parse("x^3 + zeta(3)*y^2"), [R2.parse("2*x*y + 1"), R2.parse("3*zeta(4)*y^2 - x")],
          grlex_key))
def test_normal_form_matches_the_cyclo_division(case):
    f, divisors, order = case
    got = normal_form(f, divisors, order)
    assert got == oracle.cyclo_normal_form(f, divisors, order)
    n = conductor(c for p in (f, *divisors) for c in p.terms.values())
    assert _stored_at_conductor([got], n)

