import random
from collections import Counter
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from pwb import fixedrings, symmetry
from pwb.brackets import PoissonAlgebra, transport
from pwb.cli import main
from pwb.errors import BoundExceededError, InfiniteOrderError, SingularMatrixError
from pwb.families import (homogenized_weyl, jacobian, jacobian_pq, lie_two_dim_nonabelian,
                          ph_lie, quantum_matrices, skew_symmetric, sl2)
from pwb.linalg import Matrix
from pwb.fixedrings import fixed_group, rigidity_report
from pwb.rings import Poly, PolyRing
from pwb.scalars import Cyclo, zeta
from pwb.series import RationalSeries, hilbert_free, hilbert_weighted
from pwb.solver import POINTS
from pwb.symmetry import (FINITE_NON_REFLECTION, FOUND, IDENTITY, INCONCLUSIVE, INFINITE_ORDER,
                          NO_REFLECTIONS, NOT_AUTOMORPHISM, REFLECTION, GradedMap,
                          PoissonGroup, block_decomposition, classify, find_reflections,
                          group_closure, is_poisson_automorphism, molien_series, trace_series)
from pwb.upoly import UPoly
from test_acceptance import _block_reflection, _random_skew
from test_brackets import _stored, drawn_algebras
from test_fixedrings import diagonal_groups


def skew2(p):
    return skew_symmetric(Matrix([[0, p], [-p, 0]]), names=["x", "y"])


def test_is_poisson_automorphism():
    A = skew2(2)
    ok, _ = is_poisson_automorphism(A, GradedMap(Matrix.diagonal([zeta(5), 1])))
    assert ok
    ring = PolyRing(["x", "y"])
    B = PoissonAlgebra(ring, {(0, 1): ring.parse("x^2")}, check_jacobi=False)
    ok, pair = is_poisson_automorphism(B, GradedMap(Matrix.diagonal([1, zeta(3)])))
    assert not ok and pair == ("x", "y")


def test_qmatrix_swap_is_automorphism():
    A = quantum_matrices(2)
    mu = Cyclo.of(2)
    g = GradedMap(Matrix([
        [1, 0, 0, 0],
        [0, 0, mu.inverse(), 0],
        [0, mu, 0, 0],
        [0, 0, 0, 1],
    ]))
    ok, _ = is_poisson_automorphism(A, g)
    assert ok
    cls = classify(A, g)
    assert cls.kind == REFLECTION and cls.xi == -1 and cls.order == 2


def test_classify_cases():
    A = skew2(1)
    assert classify(A, GradedMap(Matrix.identity(2))).kind == IDENTITY
    cls = classify(A, GradedMap(Matrix.diagonal([zeta(3), 1])))
    assert cls.kind == REFLECTION and cls.xi == zeta(3) and cls.order == 3
    assert classify(A, GradedMap(Matrix.diagonal([2, 1]))).kind == INFINITE_ORDER
    cls = classify(A, GradedMap(Matrix.diagonal([-1, -1])))
    assert cls.kind == FINITE_NON_REFLECTION and cls.order == 2
    Z = skew_symmetric(Matrix([[0, 0], [0, 0]]), names=["x", "y"])
    shear = GradedMap(Matrix([[1, 1], [0, 1]]))
    assert classify(Z, shear).kind == INFINITE_ORDER
    B = PoissonAlgebra(PolyRing(["x", "y"]), {(0, 1): PolyRing(["x", "y"]).parse("x^2")},
                       check_jacobi=False)
    assert classify(B, GradedMap(Matrix.diagonal([1, zeta(3)]))).kind == NOT_AUTOMORPHISM


def test_eigenvalues_sorted_distinct_or_none_unless_diagonalizable():
    g = GradedMap(Matrix.diagonal([zeta(4), -1, 1, zeta(4)]))
    assert [str(c) for c in g.eigenvalues()] == ["1", "-1", "zeta(4)"]
    assert g.order() == 4
    # a non-squarefree minimal polynomial, and one that does not split
    for rows in ([[1, 1], [0, 1]], [[1, 1], [1, 0]]):
        g = GradedMap(Matrix(rows))
        assert g.eigenvalues() is None and g.order() is None


def test_reflection_eigenvector():
    A = quantum_matrices(2)
    g = GradedMap(Matrix([
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ]))
    cls = classify(A, g)
    assert cls.kind == REFLECTION
    # eigenvector for xi = -1 spans b - c (normalized with the free slot = 1)
    v = list(cls.eigenvector)
    assert v[0].is_zero() and v[3].is_zero()
    assert v[1] == -1 and v[2] == 1


def test_trace_series_identity_and_reflection():
    g = GradedMap(Matrix.identity(3))
    assert trace_series(g) == hilbert_free(3)
    r = GradedMap(Matrix.diagonal([zeta(3), 1, 1]))
    expected = RationalSeries.one_over([zeta(3), Cyclo.of(1), Cyclo.of(1)])
    assert trace_series(r) == expected
    s = GradedMap(Matrix.diagonal([-1, -1]))
    assert trace_series(s) == RationalSeries.one_over([Cyclo.of(-1), Cyclo.of(-1)])


def test_trace_series_reflection_shape_off_diagonal():
    # swap with mu: trace must match the diagonalized reflection form
    mu = Cyclo.of(3)
    g = GradedMap(Matrix([[0, mu], [mu.inverse(), 0]]))
    assert trace_series(g) == RationalSeries.one_over([Cyclo.of(-1), Cyclo.of(1)])


def test_trace_series_takes_no_gcd(monkeypatch):
    # 1/det(1 - g t) is already in normal form: numerator 1, den(0) = 1
    from pwb import series
    maps = [GradedMap(Matrix.identity(3)), GradedMap(Matrix.diagonal([zeta(3), 1, 1])),
            GradedMap(Matrix([[0, 3], [Cyclo.of(1) / 3, 0]])),
            GradedMap(Matrix([[1, 2, 0], [0, zeta(4), 1], [1, 0, -1]]))]
    calls, gcd = [], series.gcd_upoly
    monkeypatch.setattr(series, "gcd_upoly", lambda a, b: calls.append(b) or gcd(a, b))
    traces = [trace_series(g) for g in maps]
    assert calls == []
    monkeypatch.undo()
    for tr in traces:
        general = RationalSeries(tr.num, tr.den)
        assert (tr.num.coeffs, tr.den.coeffs) == (general.num.coeffs, general.den.coeffs)
        assert str(tr) == str(general)


def test_group_closure_rejects_infinite_order_before_closing():
    from pwb.errors import BoundExceededError, InfiniteOrderError
    finite = GradedMap(Matrix.diagonal([zeta(3), 1]))
    shear = GradedMap(Matrix([[1, 1], [0, 1]]))
    with pytest.raises(InfiniteOrderError, match="generator 2 has infinite order") as info:
        group_closure([finite, shear])
    assert info.value.index == 1
    # an order that classify already found is used as is
    scale = GradedMap(Matrix.diagonal([2, 1]))
    assert classify(PoissonAlgebra(PolyRing(["x", "y"]), {}), scale).kind == INFINITE_ORDER
    with pytest.raises(InfiniteOrderError, match="generator 1 has infinite order"):
        group_closure([scale])
    # a finite order above the bound is a plain bound error
    with pytest.raises(BoundExceededError) as info:
        group_closure([GradedMap(Matrix.diagonal([zeta(7), 1]))], bound=4)
    assert not isinstance(info.value, InfiniteOrderError)


def test_group_closure_rejects_a_negative_bound_before_any_order(monkeypatch):
    from pwb import fixedrings, symmetry
    from pwb.errors import InvalidDegreeError
    orders = []
    require = symmetry._require_finite_order
    monkeypatch.setattr(symmetry, "_require_finite_order",
                        lambda g, i: orders.append(i) or require(g, i))
    with pytest.raises(InvalidDegreeError, match="bound -1 is negative"):
        group_closure([GradedMap(Matrix.diagonal([-1, 1]))], bound=-1)
    assert orders == []
    assert group_closure([GradedMap(Matrix.diagonal([-1, 1]))], bound=2).order == 2


def test_group_closure_and_molien():
    g = GradedMap(Matrix.diagonal([zeta(3), 1]))
    G = group_closure([g])
    assert G.order == 3 and G.exponent == 3
    assert molien_series(G) == hilbert_weighted([3, 1])

    a = GradedMap(Matrix.diagonal([-1, 1]))
    b = GradedMap(Matrix.diagonal([1, -1]))
    K = group_closure([a, b])
    assert K.order == 4 and K.exponent == 2
    assert molien_series(K) == hilbert_weighted([2, 2])

    m = GradedMap(Matrix.diagonal([-1, -1]))
    M = molien_series(group_closure([m]))
    # (1 + t^2)/(1 - t^2)^2
    num = UPoly([1, 0, 1])
    den = UPoly([1, 0, -1]) * UPoly([1, 0, -1])
    assert M == RationalSeries(num, den)


def record_calls(monkeypatch):
    """Record each Matrix.det, Matrix.rank and Poly.apply_linear call as (name,
    whether it ran inside apply_linear)."""
    calls, stack = [], []

    def recorded(name, f):
        def call(*args):
            calls.append((name, "apply_linear" in stack))
            stack.append(name)
            try:
                return f(*args)
            finally:
                stack.pop()
        return call

    for cls, name in ((Matrix, "det"), (Matrix, "rank"), (Poly, "apply_linear")):
        monkeypatch.setattr(cls, name, recorded(name, getattr(cls, name)))
    return calls


def checks(calls):
    return [c for c in calls if c[0] != "apply_linear"]


def test_group_closure_products_skip_the_det(monkeypatch):
    # a product of invertible maps is invertible: the enumeration of Q8 (8
    # elements, 16 products) runs no invertibility check per product
    a, b = (GradedMap(Matrix(rows)) for rows in Q8)
    calls = record_calls(monkeypatch)
    G = group_closure([a, b])
    assert G.order == 8 and G.exponent == 4
    assert not checks(calls)
    # the elements are still the products, and still invertible
    assert all(not e.matrix.det().is_zero() for e in G.elements)
    assert G.elements[-1] == GradedMap(G.elements[-1].matrix)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(diagonal_groups(orders=(1, 2, 3, 4, 6, 12), max_generators=3,
                       conjugated=st.booleans()))
@example((2, [Matrix.diagonal([zeta(12), 1]), Matrix.diagonal([zeta(4), zeta(6)])]))
@example((3, [Matrix.diagonal([zeta(8) if i == j else 1 for i in range(3)]) for j in range(3)]))
def test_abelian_form_matches_the_enumeration(case):
    # order and exponent of the abelian form against a breadth-first
    # enumeration; the eigenbasis prints as when computed afresh, and the
    # logs are those of the fresh characters, modulo the exponent
    n, mats = case
    G = group_closure([GradedMap(m) for m in mats])
    assert G.diagonal is not None and G.elements is None
    T, logs = G.diagonal
    fresh_T, chars = symmetry._try_diagonalize([GradedMap(m) for m in mats])
    assert str(T) == str(fresh_T)
    assert symmetry._character_logs(chars) == (G.exponent, logs)
    T_inv = T.inverse()
    for m, row in zip(mats, logs):
        assert T_inv * m * T == Matrix.diagonal([zeta(G.exponent, a) for a in row])
    assume(G.order <= 512)
    keys, exponent = oracle.group_by_products([m.rows for m in mats], 512)
    assert (G.order, G.exponent) == (len(keys), exponent)


def test_bound_caps_the_enumeration_not_the_computed_order():
    gens = [GradedMap(Matrix.diagonal([zeta(12) if i == j else 1 for j in range(3)]))
            for i in range(3)]
    G = group_closure(gens, bound=12)
    assert (G.order, G.exponent) == (1728, 12) and G.elements is None
    # a group without a common eigenbasis is enumerated, within the bound
    with pytest.raises(BoundExceededError, match="group closure exceeded 5 elements"):
        group_closure([GradedMap(Matrix(r)) for r in S3], bound=5)


def test_an_abelian_form_holds_no_elements_and_groups_are_frozen():
    # the elements are a field, set only for a group without a common eigenbasis
    gens = [GradedMap(Matrix.diagonal([zeta(3), 1])), GradedMap(Matrix.diagonal([1, -1]))]
    G, H = group_closure(gens), group_closure(gens)
    assert G.elements is None and G == H
    assert G == PoissonGroup(tuple(gens), 6, 6, G.diagonal)
    K, L = (group_closure([GradedMap(Matrix(r)) for r in S3]) for _ in range(2))
    assert len(K.elements) == 6 and K == L
    with pytest.raises(AttributeError):
        G.order = 7


def test_abelian_closure_multiplies_no_maps_and_diagonalizes_once(monkeypatch):
    # commuting diagonalizable generators: no element is built or enumerated,
    # and the closure, the Molien series, the fixed ring and the rigidity
    # report share one simultaneous diagonalization and one computation of
    # the character logs, and sum no trace series
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(GradedMap, "__mul__", counted("product", GradedMap.__mul__))
    for name in ("_try_diagonalize", "_character_logs", "_enumerate", "trace_series"):
        monkeypatch.setattr(symmetry, name, counted(name, getattr(symmetry, name)))
    A = skew2(2)
    G = group_closure([GradedMap(Matrix.diagonal([zeta(3), 1])),
                       GradedMap(Matrix.diagonal([1, -1]))])
    assert (G.order, G.exponent) == (6, 6)
    assert calls == Counter(_try_diagonalize=1, _character_logs=1)
    assert molien_series(G) == hilbert_weighted([3, 2])
    assert fixed_group(A, G).degrees == (2, 3)
    assert rigidity_report(A, G, bound=3).presented.degrees == (2, 3)
    assert calls == Counter(_try_diagonalize=1, _character_logs=1)


S3 = ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
Q8 = ([[zeta(4), 0], [0, zeta(4, 3)]], [[0, -1], [1, 0]])


def test_enumerated_groups_take_orders_from_eigenvalues(monkeypatch):
    # S3 and Q8 do not diagonalize: their elements are enumerated, and the
    # exponent reads each element's GradedMap.order, not a run of powers
    calls = []
    is_identity = Matrix.is_identity
    monkeypatch.setattr(Matrix, "is_identity", lambda m: calls.append(m) or is_identity(m))
    for rows, order, exponent in ((S3, 6, 6), (Q8, 8, 4)):
        G = group_closure([GradedMap(Matrix(r)) for r in rows])
        assert G.diagonal is None
        assert (G.order, G.exponent) == (order, exponent)
        assert all("order" in e._cache for e in G.elements)
        # the elements themselves, against the oracle's enumeration
        mats = [[[Cyclo.of(x) for x in row] for row in r] for r in rows]
        keys, _ = oracle.group_by_products(mats, 512)
        M = oracle.conductor_of(mats)
        assert {oracle.matrix_key(e.matrix.rows, M) for e in G.elements} == keys
    assert calls == []
    # a generator order above the bound is a plain bound error, before any product
    with pytest.raises(BoundExceededError, match="generator 2 has order 3, above the bound 2"
                       ) as info:
        group_closure([GradedMap(Matrix(r)) for r in S3], bound=2)
    assert not isinstance(info.value, InfiniteOrderError)


def test_build_reflection_runs_one_invertibility_check(monkeypatch):
    # GradedMap's rank check rejects a singular candidate, once per build
    from pwb import fixedrings, symmetry
    calls = record_calls(monkeypatch)
    per_build, build = [], symmetry._build_reflection

    def counted(*args):
        before = len(calls)
        g = build(*args)
        per_build.append((checks(calls[before:]), g))
        return g

    monkeypatch.setattr(symmetry, "_build_reflection", counted)
    assert find_reflections(ph_lie(lie_two_dim_nonabelian())).status == FOUND
    assert any(g is not None for _, g in per_build)
    assert all(made == [("rank", False)] for made, _ in per_build)


def test_apply_linear_runs_no_invertibility_check(monkeypatch):
    # a GradedMap is checked when it is built: the automorphism check and the
    # Reynolds averages of S3 permuting three variables run no rank or det
    A = skew_symmetric(Matrix([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]))
    g = GradedMap(Matrix.diagonal([zeta(3), zeta(3), zeta(3)]))
    ring = PolyRing(["x", "y", "z"])
    Z = PoissonAlgebra(ring, {})
    swap = GradedMap(Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    cycle = GradedMap(Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    calls = record_calls(monkeypatch)
    assert is_poisson_automorphism(A, g) == (True, None)
    assert not checks(calls)
    G = group_closure([swap, cycle])
    assert G.order == 6
    assert fixedrings._reynolds_bases(ring, G, 6)[3]
    assert not checks(calls)
    assert fixed_group(Z, G, bound=6).polynomial
    assert not [c for c in checks(calls) if c[0] == "det" or c[1]]


def test_solve_path_substitutes_nothing_and_builds_no_mixed_ring(monkeypatch):
    # normal charts, reflection charts and the Jacobi check read their
    # systems off the table: no Poly.substitute, and every ring built is a
    # ring of chart parameters, none that also holds the algebra's variables
    Q, J = quantum_matrices(3), jacobian_pq(1, -zeta(3))
    substituted, rings = [], []
    substitute, init = Poly.substitute, PolyRing.__init__

    def recorded_init(ring, names):
        names = tuple(names)
        rings.append(names)
        init(ring, names)

    monkeypatch.setattr(Poly, "substitute",
                        lambda f, *args: substituted.append(f) or substitute(f, *args))
    monkeypatch.setattr(PolyRing, "__init__", recorded_init)
    for A, status in ((Q, NO_REFLECTIONS), (J, FOUND)):
        assert A.jacobi_check() == (True, None)
        assert A.normal_find_deg1().kind == POINTS
        assert find_reflections(A).status == status
    assert substituted == []
    assert rings and all(name.startswith("_") for names in rings for name in names)
    assert max(map(len, rings)) <= 2 * Q.nvars - 1


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_reflection_charts_match_the_mixed_ring_equations(data):
    # equal by value as a multiset; the order is free
    A = data.draw(drawn_algebras())
    n = A.nvars
    nparams = data.draw(st.integers(0, n - 1))
    entry = st.sampled_from((Cyclo.of(0), Cyclo.of(0), Cyclo.of(1), Cyclo.of(-2), zeta(3),
                             zeta(4, 3), zeta(12, 5), Cyclo.of(Fraction(1, 2)).lift_to(12)))
    vectors = [[data.draw(entry) for _ in range(n)] for _ in range(nparams + 1)]
    pk, _, equations = symmetry._reflection_equations(A, vectors, nparams)
    expected_ring, expected = oracle.mixed_ring_reflection_equations(A, vectors, nparams)
    assert pk == expected_ring
    rest = list(expected)
    for p in equations:
        match = next((k for k, q in enumerate(rest) if q == p), None)
        assert match is not None, p
        rest.pop(match)
    assert rest == []


@pytest.mark.parametrize("rows", [[[1, 2], [2, 4]], [[1, zeta(3)], [zeta(3, 2), 1]]])
def test_graded_map_rejects_a_singular_matrix(rows):
    # the second is singular only over Q(zeta_3): zeta_3 * zeta_3^2 = 1
    with pytest.raises(SingularMatrixError, match="graded map must be invertible"):
        GradedMap(Matrix(rows))


def test_l_degree_and_bicharacter():
    # on a skew algebra {x^I, x^J} = (I^T q J) x^(I+J)
    q = Matrix([[0, 1, zeta(3)], [-1, 0, 2], [-zeta(3), -2, 0]])
    A = skew_symmetric(q, names=["x", "y", "z"])
    assert A.skew_matrix() == q
    ring = A.ring
    for I in [(1, 0, 0), (2, 1, 0), (0, 3, 1)]:
        for J in [(0, 1, 0), (1, 1, 2), (3, 0, 0)]:
            chi = sum((q.rows[i][j] * (a * b) for i, a in enumerate(I)
                       for j, b in enumerate(J)), Cyclo.of(0))
            lhs = A.bracket(ring.monomial(I), ring.monomial(J))
            assert lhs == ring.monomial(tuple(a + b for a, b in zip(I, J)), chi)
    assert quantum_matrices(2).skew_matrix() is None


def test_block_decomposition():
    q0 = Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert block_decomposition(q0) == [[0, 1, 2]]
    q1 = Matrix([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
    assert block_decomposition(q1) == [[0], [1], [2]]
    q2 = Matrix([[0, 0, 1], [0, 0, 1], [-1, -1, 0]])
    assert block_decomposition(q2) == [[0, 1], [2]]


def test_find_reflections_jacobian_p_only():
    report = find_reflections(jacobian_pq(1, 0))
    assert report.status == NO_REFLECTIONS


XYZ = PolyRing(["x", "y", "z"])


@pytest.mark.parametrize("algebra", [
    quantum_matrices(2), jacobian_pq(1, 0), jacobian_pq(0, 1), jacobian_pq(-1, 1),
    homogenized_weyl(1), ph_lie(sl2()), ph_lie(lie_two_dim_nonabelian()),
    jacobian(XYZ.parse("-x^2*z - z^3")),
    skew_symmetric(Matrix([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])),
    skew_symmetric(Matrix([[0, 0, 1], [0, 0, 1], [-1, -1, 0]])),
    skew_symmetric(Matrix([[0, 1, 0, 2], [-1, 0, 0, 0], [0, 0, 0, 3], [-2, 0, -3, 0]])),
], ids=["qmatrix2", "jac_p", "jac_q", "jac_cubic", "hweyl1", "ph_sl2", "ph_lie2",
        "jac_unsplit", "skew3", "skew3_block", "skew4"])
def test_reflections_by_split_match_the_grlex_only_splitter(algebra):
    # no leaf of these searches is a zero-dimensional basis without a
    # univariate generator, so the lex rule of `split` never fires
    with patch.object(symmetry, "split", oracle.grlex_branch_solve):
        expected = find_reflections(algebra)
    assert find_reflections(algebra) == expected


def test_a_chart_that_fails_is_reported_per_chart():
    report = find_reflections(jacobian(XYZ.parse("x^3 + x*y^2 + x*z^2")), budget=2)
    assert report.status == INCONCLUSIVE
    assert report.diagnostics == ["chart 0: S-polynomial degree 3 exceeds budget 2; "
                                  "budget 3 gets past this stop"]


def test_a_condition_with_one_root_left_after_extraction_splits():
    # charts 1 and 2 hold _k3^2 +- 1/2*zeta(4)*_k3: roots 0 and -+zeta(4)/2,
    # the second neither rational nor a root of unity
    report = find_reflections(jacobian(XYZ.parse("-x^2*z - z^3")))
    assert report.status == FOUND and report.diagnostics == []
    assert sorted(f.chart for f in report.families) == [0, 1, 2]


def test_find_reflections_x_squared_bracket():
    ring = PolyRing(["x", "y"])
    A = PoissonAlgebra(ring, {(0, 1): ring.parse("x^2")}, check_jacobi=False)
    report = find_reflections(A)
    assert report.status == NO_REFLECTIONS


def test_find_reflections_skew_single_direction():
    A = skew2(1)
    report = find_reflections(A)
    assert report.status == FOUND
    # reflections scale x or y by a free root of unity
    assert all(f.xi_free for f in report.families)
    assert len(report.families) == 2
    assert all(f.samples for f in report.families)
    for fam in report.families:
        for g in fam.samples:
            assert classify(A, g).kind == REFLECTION


def test_find_reflections_homogenized_weyl():
    for n in (1, 2):
        H = homogenized_weyl(n)
        report = find_reflections(H)
        assert report.status == FOUND
        assert len(report.families) == 1
        fam = report.families[0]
        assert not fam.xi_free and fam.xi == -1
        g = fam.samples[0]
        # g(z) = -z
        assert g.matrix.column(2 * n)[2 * n] == -1
        assert classify(H, g).kind == REFLECTION


def test_find_reflections_qmatrix2():
    A = quantum_matrices(2)
    report = find_reflections(A)
    assert report.status == FOUND
    real = [f for f in report.families if f.samples]
    assert real
    for fam in real:
        assert fam.xi == -1 and not fam.xi_free
        for g in fam.samples:
            cls = classify(A, g)
            assert cls.kind == REFLECTION and cls.xi == -1
            # fixes a and d
            assert g.matrix.column(0) == [1, 0, 0, 0] or g.matrix.column(0)[0] == 1
            assert g.matrix.rows[0][0] == 1 and g.matrix.rows[3][3] == 1


def test_find_reflections_ph_lie():
    assert find_reflections(ph_lie(sl2())).status == NO_REFLECTIONS
    report = find_reflections(ph_lie(lie_two_dim_nonabelian()))
    assert report.status == FOUND
    fams = [f for f in report.families if f.samples]
    assert fams
    assert any(f.xi_free for f in fams)
    g = fams[0].samples[0]
    A = ph_lie(lie_two_dim_nonabelian())
    cls = classify(A, g)
    assert cls.kind == REFLECTION
    # eigenvector is x2: g fixes x1 and z
    assert g.matrix.rows[0][0] == 1 and g.matrix.rows[2][2] == 1


# -- rank-one eigenvalues, the automorphism check and the enumeration, against
# the routes pwb ran before reading the bracket table ----------------------------


def _field_value(rng, n):
    """A value of Q(zeta_n) with small coefficients, zero a quarter of the time."""
    if rng.random() < 0.25:
        return Cyclo.of(0)
    a = Cyclo.of(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3))))
    return a * zeta(n, rng.randrange(n)) + Cyclo.of(rng.randint(-1, 1)) * zeta(n, rng.randrange(n))


# xi = 1 + k.u for a drawn update: a shear, rationals, roots of unity of
# several orders, and a value that is neither
XI_TARGETS = (1, -1, 2, Fraction(1, 2), zeta(3), -zeta(3), zeta(4), zeta(12, 5), zeta(3) + 2)


def _rank_one_update(rng, n, N):
    """Rows of I + u k^T over Q(zeta_N); k is solved for a target xi two
    times in three."""
    u = [_field_value(rng, N) for _ in range(n)]
    k = [_field_value(rng, N) for _ in range(n)]
    if rng.random() < 0.67 and any(u):
        lead = next(i for i, c in enumerate(u) if c)
        rest = sum((k[i] * u[i] for i in range(n) if i != lead), Cyclo.of(0))
        k[lead] = (Cyclo.of(rng.choice(XI_TARGETS)) - 1 - rest) / u[lead]
    return [[Cyclo.of(int(r == c)) + u[r] * k[c] for c in range(n)] for r in range(n)]


def _drawn_map(rng):
    """A rank-one update over Q, Q(zeta_3), Q(zeta_4) or Q(zeta_12), or a
    product of two (rank two or less), its entries lifted to conductor 12 one
    time in four; None when singular."""
    N, n = rng.choice((1, 3, 4, 12)), rng.randint(1, 4)
    m = Matrix(_rank_one_update(rng, n, N))
    if n > 1 and rng.random() < 0.3:
        m = m * Matrix(_rank_one_update(rng, n, N))
    if rng.random() < 0.25:
        m = Matrix([[c.lift_to(12) for c in row] for row in m.rows])
    try:
        return GradedMap(m)
    except SingularMatrixError:
        return None


def _values(values):
    """The values with their printed forms, compared by value (`Cyclo.__eq__`)."""
    return None if values is None else [(c, str(c)) for c in values]


def _printed(cls):
    vector = None if cls.eigenvector is None else [str(c) for c in cls.eigenvector]
    return cls.kind, cls.order, str(cls.xi), vector, cls.witness_pair


def test_rank_one_eigenvalues_match_the_minimal_polynomial():
    # value by value and printed form by printed form, with the order and
    # the printed classification on a zero and a skew bracket
    rng = random.Random(1995)
    seen = Counter()
    # xi = 2 + zeta(3) is neither rational nor a root of unity: the minimal
    # polynomial stores it at the entries' conductor 12, the trace at 3, and
    # both print it at 3
    drawn = [GradedMap(Matrix([[zeta(3) + 2, zeta(4)], [0, 1]]))]
    drawn += [_drawn_map(rng) for _ in range(250)]
    for g in drawn:
        if g is None:
            continue
        n = g.n
        assert g.update_rank() == min(2, (g.matrix - Matrix.identity(n)).rank())
        assert _values(g.eigenvalues()) == _values(oracle.minpoly_eigenvalues(g.matrix))
        assert g.order() == oracle.minpoly_order(g.matrix)
        ring = PolyRing([f"x{i}" for i in range(n)])
        q = [[_field_value(rng, 3) if r < c else Cyclo.of(0) for c in range(n)]
             for r in range(n)]
        skew = skew_symmetric(Matrix([[q[r][c] - q[c][r] for c in range(n)] for r in range(n)]),
                              names=ring.names)
        for A in (PoissonAlgebra(ring, {}), skew):
            assert _printed(classify(A, g)) == _printed(oracle.minpoly_classify(A, g))
        seen[g.update_rank(), g.eigenvalues() is None, n == 1] += 1
    # identities, shears, diagonalizable rank-one maps, n = 1 and rank two
    assert {(0, False, False), (1, True, False), (1, False, False), (1, False, True),
            (2, False, False)} <= set(seen)


def test_rank_one_maps_take_no_minimal_polynomial(monkeypatch, tmp_path, capsys):
    # the reflection samples of a 5-variable skew algebra and a reflection
    # --group map of `pwb report` classify from the trace
    calls = []
    minpoly = Matrix.minpoly_coeffs
    monkeypatch.setattr(Matrix, "minpoly_coeffs", lambda m: calls.append(m) or minpoly(m))
    q = Matrix([[0, 1, 0, 2, 0], [-1, 0, 0, 0, 1], [0, 0, 0, 3, 0], [-2, 0, -3, 0, 0],
                [0, -1, 0, 0, 0]])
    report = find_reflections(skew_symmetric(q))
    assert report.status == FOUND and all(f.samples for f in report.families)
    algebra, group = tmp_path / "s.pois", tmp_path / "g.map"
    algebra.write_text("algebra S {\n  vars: x, y;\n  bracket{x,y} = 2*x*y;\n}\n")
    group.write_text("map g on S {\n  x -> zeta(3)*x;\n}\n")
    assert main(["report", "--algebra", str(algebra), "--group", str(group),
                 "--degree", "3", "--json"]) == 0
    assert capsys.readouterr().out
    assert calls == []


def _automorphism_cases(rng, family):
    """(algebra, map) pairs of one family, about half of them automorphisms:
    scalar and structure-preserving diagonal maps, and those perturbed by one
    off-diagonal entry or replaced by a random map."""
    if family == "skew":
        n = rng.randint(2, 4)
        q = [[_field_value(rng, 3) if r < c else Cyclo.of(0) for c in range(n)]
             for r in range(n)]
        A = skew_symmetric(Matrix([[q[r][c] - q[c][r] for c in range(n)] for r in range(n)]))
    elif family == "jacobian_pq":
        A = jacobian_pq(rng.randint(-2, 2), rng.choice((-2, -1, 1, 2)))
    elif family == "quantum_matrices":
        A = quantum_matrices(2)
    else:  # a table loaded without the Jacobi check
        ring = PolyRing([f"x{i}" for i in range(rng.randint(2, 4))])
        pairs = [(i, j) for i in range(ring.nvars) for j in range(i + 1, ring.nvars)]
        table = {}
        for pair in rng.sample(pairs, rng.randint(1, len(pairs))):
            table[pair] = sum((ring.monomial(tuple(rng.randint(0, 1) for _ in ring.names),
                                             _field_value(rng, 3) or Cyclo.of(1))
                               for _ in range(2)), ring.zero())
        A = PoissonAlgebra(ring, table, check_jacobi=False)
    n = A.nvars
    roots = (Cyclo.of(1), Cyclo.of(-1), zeta(3), zeta(4), zeta(3, 2))
    if family == "skew":
        diagonal = [rng.choice(roots) for _ in range(n)]
    elif family == "quantum_matrices":
        a, b, c = (rng.choice(roots) for _ in range(3))
        diagonal = [a, b, c, b * c / a]
    else:
        diagonal = [rng.choice(roots)] * n
    rows = [[diagonal[r] if r == c else Cyclo.of(0) for c in range(n)] for r in range(n)]
    shape = rng.random()
    if shape < 0.3:
        r, c = rng.sample(range(n), 2)
        rows[r][c] = _field_value(rng, 4) or Cyclo.of(1)
    elif shape < 0.45:
        rows = [[_field_value(rng, 12) for _ in range(n)] for _ in range(n)]
    try:
        return A, GradedMap(Matrix(rows))
    except SingularMatrixError:
        return A, GradedMap(Matrix.identity(n))


@pytest.mark.parametrize("family", ["skew", "jacobian_pq", "quantum_matrices", "unchecked"])
def test_automorphism_check_by_minors_matches_the_bracket_of_images(family):
    # verdict and witness pair, on maps that are and are not automorphisms
    rng = random.Random(family)
    verdicts = Counter()
    for _ in range(60):
        A, g = _automorphism_cases(rng, family)
        found = is_poisson_automorphism(A, g)
        assert found == oracle.bracket_automorphism_check(A, g)
        verdicts[found[0]] += 1
    assert verdicts[True] and verdicts[False]


@st.composite
def block_map_cases(draw):
    """(algebra, map): a skew algebra on 2-5 variables under a block
    reflection of a block of its skew matrix (an automorphism), that map
    with one entry outside the block changed (usually not one), or a dense
    map."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    n = draw(st.integers(2, 5))
    q = _random_skew(rng, n)
    A = skew_symmetric(q)
    shape = draw(st.sampled_from(("block", "perturbed", "dense")))
    if shape == "dense":
        rows = [[_field_value(rng, 12) for _ in range(n)] for _ in range(n)]
        try:
            return A, GradedMap(Matrix(rows))
        except SingularMatrixError:
            return A, GradedMap(Matrix.identity(n))
    blocks = block_decomposition(q)
    block = blocks[rng.randrange(len(blocks))]
    S = Matrix([[rng.choice((1, 2, -1)) if r == c else rng.choice((0, 1, -1)) if r < c else 0
                 for c in range(len(block))] for r in range(len(block))])
    g = _block_reflection(n, block, S, rng.randrange(len(block)), rng.choice((2, 3, 4, 6)))
    if shape == "block":
        return A, g
    rows = [list(r) for r in g.matrix.rows]
    r, c = rng.sample(range(n), 2)
    rows[r][c] = rows[r][c] + (_field_value(rng, 4) or Cyclo.of(1))
    try:
        return A, GradedMap(Matrix(rows))
    except SingularMatrixError:
        return A, g


@settings(max_examples=120, deadline=None)
@given(block_map_cases())
def test_automorphism_check_matches_the_oracles_on_block_and_dense_maps(case):
    # verdict and witness pair against the bracket of the images and against
    # the check by 2x2 minors of the map
    A, g = case
    found = is_poisson_automorphism(A, g)
    assert found == oracle.bracket_automorphism_check(A, g)
    assert found == oracle.minor_automorphism_check(A, g)


def test_block_map_cases_hold_automorphisms_and_others():
    verdicts = Counter()

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(block_map_cases())
    def record(case):
        verdicts[is_poisson_automorphism(*case)[0]] += 1

    record()
    assert verdicts[True] and verdicts[False]


G313 = ([[zeta(3), 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def test_the_enumeration_compares_no_maps(monkeypatch):
    # elements are keyed by their entries at the generators' lcm conductor,
    # not found by a scan of GradedMap.__eq__
    calls = []
    eq = GradedMap.__eq__
    monkeypatch.setattr(GradedMap, "__eq__", lambda g, h: calls.append(g) or eq(g, h))
    for rows, order, exponent in ((S3, 6, 6), (Q8, 8, 4), (G313, 162, 18)):
        G = group_closure([GradedMap(Matrix(r)) for r in rows])
        assert G.diagonal is None and (G.order, G.exponent) == (order, exponent)
    assert calls == []


# -- rank-one eigenspaces in closed form, against the kernel routes --------------


@st.composite
def commuting_generators(draw):
    """(n, generator maps): one to three commuting
    diagonalizable maps on n = 1..4 variables, each a reflection or a map with
    any eigenvalues, of orders 2, 3, 4, 6 and 12, diagonal in the standard
    basis, in the basis of a rational S or in that of S with one zeta_3 entry.
    One time in five the last map is conjugated by another S, so the maps
    need not commute, and in half the draws some entries are stored at a
    larger conductor, 3, 4 or 12, than their own."""
    n = draw(st.integers(1, 4))
    diagonals = []
    for _ in range(draw(st.integers(1, 3))):
        order = draw(st.sampled_from((2, 3, 4, 6, 12)))
        if draw(st.booleans()):
            pos, power = draw(st.integers(0, n - 1)), draw(st.integers(1, order - 1))
            diagonals.append([zeta(order, power) if t == pos else 1 for t in range(n)])
        else:
            diagonals.append([zeta(order, draw(st.integers(0, order - 1))) for _ in range(n)])
    kind = draw(st.sampled_from(("standard", "rational", "zeta3")))
    lifted = draw(st.booleans())

    def stored(m):
        if not lifted:
            return GradedMap(m)
        return GradedMap(Matrix([[c.lift_to(draw(st.sampled_from(
            [N for N in (c.n, 3, 4, 12) if N % c.n == 0]))) if 12 % c.n == 0 else c
            for c in row] for row in m.rows]))

    if kind == "standard":
        return n, [stored(Matrix.diagonal(d)) for d in diagonals]

    def base_change():
        entry = st.sampled_from([-1, 0, 1, 2])
        # unit lower times invertible upper triangular: always invertible
        lower = [[1 if i == j else draw(entry) if j < i else 0 for j in range(n)]
                 for i in range(n)]
        upper = [[draw(st.sampled_from([1, -1, 2])) if i == j else draw(entry) if j > i else 0
                  for j in range(n)] for i in range(n)]
        if kind == "zeta3":
            if n == 1:
                upper[0][0] = zeta(3)
            else:
                i = draw(st.integers(1, n - 1))
                lower[i][draw(st.integers(0, i - 1))] = draw(st.sampled_from([1, -1])) * zeta(3)
        return Matrix(lower) * Matrix(upper)

    S = base_change()
    mats = [S * Matrix.diagonal(d) * S.inverse() for d in diagonals]
    if len(mats) > 1 and draw(st.integers(0, 4)) == 0:
        R = base_change()
        mats[-1] = R * Matrix.diagonal(diagonals[-1]) * R.inverse()
    return n, [stored(m) for m in mats]


def _rows(rows):
    return [_values(row) for row in rows]


@settings(max_examples=60, deadline=None)
@given(commuting_generators(), st.integers(0, 1000))
@example((3, [GradedMap(m) for m in (
    Matrix([[zeta(3), 0, 0], [0, 1, 0], [0, 0, 1]]),
    Matrix([[1, 0, 0], [0, zeta(4), 0], [0, 0, 1]]))]), 0)
def test_rank_one_eigenspaces_match_the_kernel_route(case, seed):
    # T and the characters entry by entry, each generator's classification
    # with its eigenvector, and the transported table printed and stored,
    # against the routes that eliminate
    n, gens = case
    found = symmetry._try_diagonalize(gens)
    expected = oracle.kernel_try_diagonalize(gens)
    assert (found is None) == (expected is None)
    Z = PoissonAlgebra(PolyRing([f"x{i + 1}" for i in range(n)]), {})
    for g in gens:
        cls, ref = classify(Z, g), oracle.minpoly_classify(Z, g)
        assert _printed(cls) == _printed(ref)
        assert _values(cls.eigenvector) == _values(ref.eigenvector)
        assert _values([cls.xi] if cls.xi else None) == _values([ref.xi] if ref.xi else None)
    if found is None:
        return
    (T, chars), (T_ref, chars_ref) = found, expected
    assert _rows(T.rows) == _rows(T_ref.rows)
    assert _rows(chars) == _rows(chars_ref)
    A = skew_symmetric(_random_skew(random.Random(seed), n))
    names = tuple(f"_y{i + 1}" for i in range(n))
    By, By_ref = transport(A, T, names), oracle.bracket_transport(A, T, names)
    assert str(By) == str(By_ref)
    assert {pair: _stored(p) for pair, p in By.table.items()} == {
        pair: _stored(p) for pair, p in By_ref.table.items()}


def test_a_value_at_a_foreign_conductor_takes_no_kernel(monkeypatch):
    # entries stored at conductors of their own.  In the first map u_1 =
    # (4 zeta_6 - 2) / (zeta_3 - 1) is stored at 12 (zeta_3 is stored
    # there), though `kernel_basis` of g - xi I would store at 6; in the
    # second u_1 = (2 + zeta_3) / (-1 - zeta_6) = -1 is stored at 12.  Both
    # eigenspaces are read off u and k, and T is the kernel route's T
    calls = []
    kernel_basis = Matrix.kernel_basis
    monkeypatch.setattr(Matrix, "kernel_basis", lambda m: calls.append(m) or kernel_basis(m))
    for rows in ([[zeta(12, 2) - 1, 0], [4 * zeta(6) - 2, zeta(3, 0)]],
                 [[-zeta(12, 2), 0], [zeta(3) + 2, 1]]):
        gens = [GradedMap(Matrix(rows))]
        assert gens[0].update() is not None
        calls.clear()
        T, chars = symmetry._try_diagonalize(gens)
        assert calls == []
        T_ref, chars_ref = oracle.kernel_try_diagonalize(gens)
        assert T == T_ref and str(T) == str(T_ref)
        assert _rows(chars) == _rows(chars_ref)


def _map_pairs(rng):
    """Pairs of maps: drawn ones, which rarely commute, and a map with its
    square, its inverse, a scalar map, and a map diagonal in its eigenbasis."""
    for _ in range(150):
        g, h = _drawn_map(rng), _drawn_map(rng)
        if g is None or h is None or g.n != h.n:
            continue
        yield g, h
        yield g, g * g
        yield h, g.inverse() if rng.random() < 0.5 else g
        yield g, GradedMap(Matrix.diagonal([zeta(3)] * g.n))


def test_commutation_of_a_rank_one_map_matches_the_products():
    rng = random.Random(144)
    verdicts = Counter()
    for g, h in _map_pairs(rng):
        expected = g.matrix * h.matrix == h.matrix * g.matrix
        assert symmetry._commute(g, h) == expected
        assert symmetry._commute(h, g) == expected
        verdicts[expected, g.update() is not None or h.update() is not None] += 1
    assert {(True, True), (False, True), (True, False), (False, False)} <= set(verdicts)


def test_a_reflection_trial_eliminates_for_no_eigenspace(monkeypatch):
    # n = 3 with a two-variable block: reflections of orders 3 and 4 in it,
    # classified, closed, and the fixed ring built on their common eigenbasis
    from pwb import brackets, fixedrings
    from pwb.fixedrings import is_skew_presentation
    A = skew_symmetric(Matrix([[0, 0, zeta(3)], [0, 0, zeta(3)], [-zeta(3), -zeta(3), 0]]))
    S = Matrix([[2, 1], [-1, 1]])
    gens = [_block_reflection(3, [0, 1], S, pos, order) for pos, order in ((0, 3), (1, 4))]
    stack, inside = [], []

    def spanned(name, fn):
        def call(*args, **kwargs):
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return call

    def recorded(name, fn):
        def call(*args, **kwargs):
            inside.append((name, tuple(stack)))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(Matrix, "kernel_basis", recorded("kernel_basis", Matrix.kernel_basis))
    monkeypatch.setattr(PoissonAlgebra, "bracket", recorded("bracket", PoissonAlgebra.bracket))
    monkeypatch.setattr(symmetry, "_try_diagonalize",
                        spanned("_try_diagonalize", symmetry._try_diagonalize))
    classify_spanned = spanned("classify", symmetry.classify)
    transport_spanned = spanned("transport", brackets.transport)
    monkeypatch.setattr(fixedrings, "transport", transport_spanned)
    kinds = [classify_spanned(A, g) for g in gens]
    assert [(c.kind, c.order) for c in kinds] == [(REFLECTION, 3), (REFLECTION, 4)]
    G = group_closure(gens)
    assert G.diagonal is not None and (G.order, G.exponent) == (12, 12)
    p = fixed_group(A, G, bound=12, canonical=False, with_relations=False)
    assert p.polynomial and is_skew_presentation(p) is not None
    assert [call for call in inside
            if call[0] == "kernel_basis" and {"_try_diagonalize", "classify"} & set(call[1])
            or call[0] == "bracket" and "transport" in call[1]] == []


def test_the_automorphism_check_forms_each_product_of_images_once(monkeypatch):
    # quantum_matrices(2) under the b <-> c swap: every pair is checked, and
    # each monomial of the table is the image of one product
    A = quantum_matrices(2)
    g = GradedMap(Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]))
    from pwb import rings
    calls = []
    mul_terms = rings._mul_terms
    monkeypatch.setattr(rings, "_mul_terms", lambda a, b: calls.append(1) or mul_terms(a, b))
    assert is_poisson_automorphism(A, g) == (True, None)
    assert len(calls) == len({e for p in A.table.values() for e in p.terms})
