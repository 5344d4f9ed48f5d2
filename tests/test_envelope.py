from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from pwb.brackets import PoissonAlgebra
from pwb.envelope import (envelope_dims, envelope_extend, envelope_presentation,
                          envelope_trace)
from pwb import envelope
from pwb.errors import (CapExceededError, InvalidDegreeError, NotAutomorphismError,
                        NotQuadraticError, NotReflectionError)
from pwb.errors import JacobiFailsError
from pwb.families import (homogenized_weyl, jacobian, jacobian_pq, quantum_matrices,
                          skew_symmetric, weyl)
from pwb.linalg import Echelon, Matrix
from pwb.rings import PolyRing
from pwb.scalars import Cyclo, conductor, zeta
from pwb.series import RationalSeries, hilbert_free
from pwb.symmetry import GradedMap, classify, is_poisson_automorphism, trace_series
from pwb.upoly import UPoly


def skew2(p):
    return skew_symmetric(Matrix([[0, p], [-p, 0]]), names=["x", "y"])


def zero2():
    return skew_symmetric(Matrix([[0, 0], [0, 0]]), names=["x", "y"])


def test_presentation_counts():
    A = skew2(1)
    n = 2
    pres = envelope_presentation(A)
    # [m_i,m_j] (i<j), [h_i,m_j] (all i,j), [h_i,h_j] (i<j)
    assert len(pres.relations) == n * (n - 1) // 2 + n * n + n * (n - 1) // 2
    assert all(pres.render(r) != "0" for r in pres.relations)


def test_presentation_words_pxy():
    A = skew2(1)
    pres = envelope_presentation(A, aliases=True)
    rels = set(pres.relation_strings())
    assert "x1*y1 - y1*x1 = 0" in rels
    # [h_x, m_y] = m_{x*y}: x2*y1 - y1*x2 - x1*y1 = 0
    assert any(s.startswith("-x1*y1 + x2*y1 - y1*x2") or
               "x2*y1" in s and "x1*y1" in s for s in rels)


def test_envelope_dims_zero_bracket():
    # polynomial ring on 2 generators
    assert envelope_dims(zero2(), 2)[0:3] == [1, 4, 10]
    ring = PolyRing(["x"])
    A = PoissonAlgebra(ring, {})
    assert envelope_dims(A, 2) == [1, 2, 3]


def test_envelope_dims_match_free_series():
    for p in (1, 2):
        A = skew2(p)
        dims = envelope_dims(A, 3)
        expect = [c.as_fraction() for c in hilbert_free(4).taylor(3)]
        assert dims == expect == [1, 4, 10, 20]


def test_envelope_dims_cubic_and_weyl():
    A = jacobian_pq(0, 1)
    d = envelope_dims(A, 2)
    expect = [c.as_fraction() for c in hilbert_free(6).taylor(2)]
    assert d == expect == [1, 6, 21]
    H = homogenized_weyl(1)
    assert envelope_dims(H, 2) == [1, 6, 21]


def test_envelope_dims_cyclotomic():
    w = zeta(3)
    A = skew_symmetric(Matrix([[0, w, 1], [-w, 0, 2], [-1, -2, 0]]))
    assert envelope_dims(A, 4) == [1, 6, 21, 56, 126]


XYZ = PolyRing(["x", "y", "z"])


def jacobi_failing():
    return PoissonAlgebra(XYZ, {(0, 1): XYZ.parse("x^2"), (1, 2): XYZ.parse("x*y"),
                                (0, 2): XYZ.parse("y^2")}, check_jacobi=False)


RATIONALS = [Cyclo.of(c) for c in (1, -1, 2, -3)] + [Cyclo.of(1) / 2]
SCALARS = {1: RATIONALS, 3: RATIONALS + [zeta(3), -zeta(3, 2)], 4: RATIONALS + [zeta(4)],
           12: RATIONALS + [zeta(12), zeta(3) - zeta(4), zeta(12, 5) / 2]}


@st.composite
def quadratic_tables(draw, nvars=(2, 3), conductors=(3, 4, 1)):
    """A quadratic bracket on nvars[0]..nvars[1] variables with entries in
    Q(zeta_N), N drawn from conductors: a skew-symmetric or (on three
    variables) Jacobian one (Jacobi holds), or a table of drawn quadratics
    loaded with check_jacobi=False (Jacobi fails for about half of the
    3-variable ones)."""
    n = draw(st.integers(*nvars))
    ring = PolyRing(["x", "y", "z", "w"][:n])
    scalars = SCALARS[draw(st.sampled_from(conductors))]
    scalar = st.sampled_from(scalars)
    kind = draw(st.sampled_from(["skew", "jacobian", "table", "table"] if n == 3
                                else ["skew", "table"]))
    if kind == "skew":
        q = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                c = draw(st.sampled_from([Cyclo.of(0)] + scalars))
                q[i][j], q[j][i] = c, -c
        return skew_symmetric(Matrix(q), names=ring.names)
    monomials = [ring.var(i) * ring.var(j) for i in range(n) for j in range(i, n)]
    if kind == "jacobian":
        f = ring.zero()
        for m in draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3)):
            f = f + ring.scalar(draw(scalar)) * m * ring.var(draw(st.integers(0, 2)))
        if f.is_zero() or f.homogeneous_degree() != 3:
            return skew_symmetric(Matrix.zero(n, n), names=ring.names)
        return jacobian(f)
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            p = ring.zero()
            for m in draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=2)):
                p = p + ring.scalar(draw(scalar)) * m
            table[(i, j)] = p
    return PoissonAlgebra(ring, table, check_jacobi=False)


@settings(max_examples=30, deadline=None)
@given(quadratic_tables())
def test_envelope_dims_match_the_elimination_in_every_degree(A):
    assert envelope_dims(A, 4) == oracle.envelope_dims_by_elimination(A, 4)


def test_envelope_dims_of_a_jacobi_failing_table_are_eliminated():
    with pytest.raises(JacobiFailsError):
        PoissonAlgebra(XYZ, jacobi_failing().table)
    assert envelope_dims(jacobi_failing(), 4) == [1, 6, 21, 54, 108]
    assert oracle.envelope_dims_by_elimination(jacobi_failing(), 4) == [1, 6, 21, 54, 108]


def test_envelope_dims_past_degree_3_count_normal_words_of_a_groebner_basis(monkeypatch):
    # on a fresh algebra, a PBW algebra inserts no row in any degree: its
    # relations are a Groebner basis by Jacobi; a Jacobi-failing table is
    # counted through degree 2 and eliminated in degrees 3 and 4
    inserted, insert = [], Echelon.insert
    monkeypatch.setattr(Echelon, "insert",
                        lambda self, row: inserted.append(row) or insert(self, row))

    def rows(build, d):
        inserted.clear()
        envelope_dims(build(), d)
        return len(inserted)

    for build in (lambda: quantum_matrices(2), lambda: jacobian_pq(1, 2),
                  lambda: homogenized_weyl(1)):
        assert [rows(build, d) for d in range(5)] == [0] * 5
    assert rows(jacobi_failing, 2) == 0
    assert rows(jacobi_failing, 4) > rows(jacobi_failing, 3) > 0
    assert envelope_dims(quantum_matrices(2), 6, cap=6) == [1, 8, 36, 120, 330, 792, 1716]


def test_envelope_presentation_is_built_once_per_algebra(monkeypatch):
    built = []
    relations = envelope._relations
    monkeypatch.setattr(envelope, "_relations", lambda A: built.append(A) or relations(A))
    A = skew2(2)
    envelope_dims(A, 3)
    envelope_extend(A, GradedMap(Matrix.diagonal([-1, 1])))
    pres = envelope_presentation(A, aliases=True)
    assert built == [A]
    assert pres.names == ("x1", "y1", "x2", "y2")
    assert envelope_presentation(A).relations is pres.relations


def test_envelope_dims_rejects_nonquadratic():
    with pytest.raises(NotQuadraticError):
        envelope_dims(weyl(1), 2)


def test_envelope_dims_degree_range():
    assert envelope_dims(skew2(1), 0) == [1]
    assert envelope_dims(skew2(1), 1) == [1, 4]
    with pytest.raises(InvalidDegreeError):
        envelope_dims(skew2(1), -1)
    with pytest.raises(CapExceededError):
        envelope_dims(skew2(1), 5)


def test_envelope_dims_rejects_a_negative_cap():
    with pytest.raises(InvalidDegreeError, match="^cap -1 is negative$"):
        envelope_dims(skew2(1), 0, cap=-1)
    assert envelope_dims(skew2(1), 0, cap=0) == [1]


def test_envelope_extend():
    A = skew2(1)
    g = GradedMap(Matrix.diagonal([zeta(3), 1]))
    ext = envelope_extend(A, g)
    assert ext.relations_preserved
    m = ext.map.matrix
    assert m.rows[0][0] == zeta(3) and m.rows[2][2] == zeta(3)
    assert m.rows[1][1].is_one() and m.rows[3][3].is_one()
    with pytest.raises(NotAutomorphismError):
        ring = PolyRing(["x", "y"])
        B = PoissonAlgebra(ring, {(0, 1): ring.parse("x^2")}, check_jacobi=False)
        envelope_extend(B, GradedMap(Matrix.diagonal([1, zeta(3)])))


def test_envelope_extend_cyclotomic():
    # Q(zeta_3) relations under a map with zeta_4 and zeta_3 entries: N = 12
    w = zeta(3)
    A = skew_symmetric(Matrix([[0, w, 1], [-w, 0, 2], [-1, -2, 0]]))
    assert envelope_extend(A, GradedMap(Matrix.diagonal([zeta(4), 1, w]))).relations_preserved
    ring = PolyRing(["x", "y"])
    B = PoissonAlgebra(ring, {(0, 1): ring.parse("x^2")})
    assert envelope_extend(B, GradedMap(Matrix.diagonal([w, w]))).relations_preserved
    # a map that is no automorphism breaks a relation: {x, y} = x^2 under
    # y -> zeta_3 y leaves (zeta_3 - 1) m_x m_x outside the span
    g = GradedMap(Matrix.diagonal([1, w]))
    assert not oracle.relations_preserved(B, g)
    with pytest.raises(NotAutomorphismError):
        envelope_extend(B, g)


def test_envelope_extend_skips_the_det(monkeypatch):
    # the block-diagonal copy of an invertible map is invertible, and the
    # automorphism check applies the map unchecked: no det and no rank
    A = skew_symmetric(Matrix([[0, zeta(3), 1], [-zeta(3), 0, 2], [-1, -2, 0]]))
    g = GradedMap(Matrix.diagonal([zeta(4), 1, zeta(3)]))
    calls = []
    det, rank = Matrix.det, Matrix.rank
    monkeypatch.setattr(Matrix, "det", lambda self: calls.append("det") or det(self))
    monkeypatch.setattr(Matrix, "rank", lambda self: calls.append("rank") or rank(self))
    ext = envelope_extend(A, g)
    assert ext.relations_preserved and not calls
    assert ext.map == GradedMap(ext.map.matrix)


def test_envelope_extend_identity():
    A = zero2()
    ext = envelope_extend(A, GradedMap(Matrix.identity(2)))
    assert ext.map.matrix.is_identity() and ext.relations_preserved


def test_envelope_trace_squares():
    A = skew2(1)
    g = GradedMap(Matrix.diagonal([zeta(3), 1]))
    tr = envelope_trace(A, g)
    base = trace_series(g)
    assert tr.series == base * base
    assert tr.series == tr.factored
    assert not tr.quasi_reflection


def test_envelope_trace_never_quasi():
    H = homogenized_weyl(1)
    g = GradedMap(Matrix.diagonal([1, 1, -1]))
    tr = envelope_trace(H, g)
    assert not tr.quasi_reflection
    assert tr.series == tr.factored


@pytest.mark.parametrize("A, rows, kind", [
    (skew2(1), [[1, 0], [0, 1]], "identity"),
    (skew2(1), [[-1, 0], [0, -1]], "finite_non_reflection"),
    (zero2(), [[1, 1], [0, 1]], "infinite_order"),
    (skew2(1), [[0, 1], [1, 0]], "not_automorphism"),
])
def test_envelope_trace_rejects_every_other_class(A, rows, kind):
    with pytest.raises(NotReflectionError, match=f"^map classifies as {kind}$"):
        envelope_trace(A, GradedMap(Matrix(rows)))


def test_envelope_trace_is_written_from_the_eigenvalue(monkeypatch):
    # no characteristic polynomial, no series arithmetic, no division: the
    # series is 1/((1 - xi t)^2 (1 - t)^(2n-2)) and the flag a theorem
    from pwb import series, symmetry
    cases = [(skew2(1), GradedMap(Matrix.diagonal([zeta(3), 1]))),
             (quantum_matrices(2), GradedMap(Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0],
                                                      [0, 0, 0, 1]]))),
             (homogenized_weyl(1), GradedMap(Matrix.diagonal([1, 1, -1])))]
    calls = []

    def spy(owner, name):
        f = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a: calls.append(name) or f(*a))

    spy(Matrix, "charpoly_coeffs")
    spy(symmetry, "trace_series")
    spy(series, "gcd_upoly")
    spy(UPoly, "divmod")
    traces = [envelope_trace(A, g) for A, g in cases]
    assert calls == []
    monkeypatch.undo()
    for (A, g), tr in zip(cases, traces):
        base = trace_series(g)
        assert tr.series == base * base and str(tr.series) == str(base * base)
        assert tr.factored == tr.series and not tr.quasi_reflection


# -- differential tests against the eliminations and checks the envelope replaced --

WIDE_TABLES = quadratic_tables(nvars=(2, 4), conductors=(1, 3, 4, 12))


def wide_degree(A) -> int:
    # full elimination in degree 4 takes seconds on 8 letters, or on 6 letters
    # realified over Q(zeta_12); degree 3 there
    n = conductor(c for r in envelope_presentation(A).relations for c in r.values())
    return 4 if A.nvars < 4 and n < 12 else 3


@settings(max_examples=30, deadline=None)
@given(WIDE_TABLES)
def test_envelope_dims_resolve_overlaps_as_the_eliminations_do(A):
    d = wide_degree(A)
    dims = envelope_dims(A, d)
    assert dims == oracle.envelope_dims_through_degree_3(A, d)
    assert dims == oracle.envelope_dims_by_elimination(A, d)
    assert envelope_dims(A, d) == dims  # again, from the kept verdict


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(WIDE_TABLES)
def test_jacobi_holds_iff_degree_3_counts_the_normal_words(A):
    # both directions of the theorem `envelope_dims` rests on: the relations
    # are a Groebner basis (degree 3 has C(2n + 2, 3) dimensions, one per
    # weakly increasing word) exactly when the table satisfies Jacobi
    n = A.nvars
    assert A.jacobi_holds() == (oracle.envelope_dims_by_elimination(A, 3)[3] == comb(2 * n + 2, 3))


def test_drawn_tables_take_the_counting_path_and_the_fallback(monkeypatch):
    # the Jacobi verdict picks the path: no row is eliminated when it holds,
    # degree 3 is eliminated when it fails, and both verdicts are drawn
    inserted, insert = [], Echelon.insert
    monkeypatch.setattr(Echelon, "insert",
                        lambda self, row: inserted.append(row) or insert(self, row))
    verdicts = []

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(WIDE_TABLES)
    def record(A):
        inserted.clear()
        envelope_dims(A, 3)
        verdicts.append(A.jacobi_holds())
        assert verdicts[-1] == (not inserted)

    record()
    assert True in verdicts and False in verdicts


def test_no_overlap_is_reduced(monkeypatch):
    # over Q(zeta_12), phi = 4, the Jacobi verdict decides: no row is reduced
    # (an insert reduces first), and the count equals the elimination
    z = zeta(12)
    upper = {(0, 1): z, (0, 2): 1, (0, 3): 2, (1, 2): z * z, (1, 3): 3, (2, 3): z}
    q = [[Cyclo.of(0)] * 4 for _ in range(4)]
    for (i, j), c in upper.items():
        q[i][j], q[j][i] = Cyclo.of(c), -Cyclo.of(c)
    B = skew_symmetric(Matrix(q))
    reduced, reduce = [], Echelon.reduce
    monkeypatch.setattr(Echelon, "reduce",
                        lambda self, row: reduced.append(row) or reduce(self, row))
    dims = envelope_dims(B, 4)
    assert reduced == []
    monkeypatch.undo()
    assert dims == oracle.envelope_dims_by_elimination(B, 4) == [1, 8, 36, 120, 330]


def test_no_echelon_is_kept():
    # the algebra keeps its relations and its Jacobi verdict, no elimination
    A = jacobi_failing()
    envelope_dims(A, 4)
    envelope_extend(A, GradedMap(Matrix.diagonal([zeta(4)] * 3)))
    assert A._cache["jacobi"] is False
    assert "envelope_relations" in A._cache and "envelope_echelon" not in A._cache
    assert not any(isinstance(v, Echelon) for v in A._cache.values())


MAP_SCALARS = [Cyclo.of(c) for c in (1, -1, 2, 0)] + [zeta(3), zeta(4), -zeta(12)]


@st.composite
def algebras_and_maps(draw):
    """A drawn quadratic table, or the non-quadratic weyl(1), with a square map
    of its size: scalar, diagonal, a permutation, or dense small entries."""
    if draw(st.integers(0, 3)) == 0:
        A = weyl(1)
    else:
        A = draw(WIDE_TABLES)
    n = A.nvars
    kind = draw(st.sampled_from(["scalar", "diagonal", "permutation", "dense"]))
    nonzero = st.sampled_from([c for c in MAP_SCALARS if not c.is_zero()])
    if kind == "scalar":
        rows = Matrix.diagonal([draw(nonzero)] * n).rows
    elif kind == "diagonal":
        rows = Matrix.diagonal([draw(nonzero) for _ in range(n)]).rows
    elif kind == "permutation":
        perm = draw(st.permutations(range(n)))
        rows = [[Cyclo.of(1) if perm[i] == j else Cyclo.of(0) for j in range(n)]
                for i in range(n)]
    else:
        rows = [[draw(st.sampled_from(MAP_SCALARS)) for _ in range(n)] for _ in range(n)]
    if Matrix(rows).rank() < n:
        rows = Matrix.identity(n).rows
    return A, GradedMap(Matrix(rows))


def outcome(call, *args):
    try:
        ext = call(*args)
    except Exception as exc:  # the exception type and text are the outcome
        return type(exc), str(exc)
    return ext.map.matrix, ext.relations_preserved


@settings(max_examples=60, deadline=None)
@given(algebras_and_maps())
def test_envelope_extend_matches_the_checked_extension(pair):
    A, g = pair
    assert outcome(envelope_extend, A, g) == outcome(oracle.checked_envelope_extend, A, g)


@settings(max_examples=60, deadline=None)
@given(algebras_and_maps())
def test_relations_are_preserved_iff_the_map_is_an_automorphism(pair):
    # the theorem `envelope_extend` rests on: the relation test alone decides
    A, g = pair
    if not A.quadratic:
        return
    assert oracle.relations_preserved(A, g) == is_poisson_automorphism(A, g)[0]


def test_drawn_maps_include_automorphisms_and_non_automorphisms():
    verdicts = []

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(algebras_and_maps())
    def record(pair):
        verdicts.append((pair[0].quadratic, is_poisson_automorphism(*pair)[0]))

    record()
    assert {(True, True), (True, False), (False, True), (False, False)} <= set(verdicts)


def test_envelope_extend_checks_the_bracket_once(monkeypatch):
    # one automorphism check per extension and no relation reduced: the
    # check decides (`test_relations_are_preserved_iff_the_map_is_an_automorphism`)
    A, W = skew2(2), weyl(1)
    sign, swap = GradedMap(Matrix.diagonal([-1, 1])), GradedMap(Matrix([[0, 1], [1, 0]]))
    scale, unimodular = (GradedMap(Matrix.diagonal([2, 1])),
                         GradedMap(Matrix.diagonal([2, Cyclo.of(1) / 2])))
    calls = []
    check = envelope.is_poisson_automorphism
    monkeypatch.setattr(envelope, "is_poisson_automorphism",
                        lambda A, g: calls.append(A) or check(A, g))
    realify = envelope.realify
    monkeypatch.setattr(envelope, "realify", lambda *a: calls.append("realify") or realify(*a))
    reduce = Echelon.reduce
    monkeypatch.setattr(Echelon, "reduce",
                        lambda self, row: calls.append("reduce") or reduce(self, row))
    assert envelope_extend(A, sign).relations_preserved
    assert calls == [A]
    with pytest.raises(NotAutomorphismError,
                       match=r"^map does not preserve the bracket on \('x', 'y'\)$"):
        envelope_extend(A, swap)
    assert calls == [A, A]
    # non-quadratic: the automorphism error comes first, then the quadratic one
    with pytest.raises(NotAutomorphismError):
        envelope_extend(W, scale)
    with pytest.raises(NotQuadraticError,
                       match="^enveloping presentation needs a quadratic bracket$"):
        envelope_extend(W, unimodular)
    assert calls == [A, A, W, W]


REFLECTION_XI = [Cyclo.of(-1), zeta(3), zeta(3, 2), zeta(4), -zeta(4), zeta(6), zeta(12)]


def _rank_one_update(u, v):
    """I + u v^T."""
    n = len(u)
    return GradedMap(Matrix([[Cyclo.of(int(i == j)) + u[i] * v[j] for j in range(n)]
                             for i in range(n)]))


@st.composite
def reflections(draw):
    """A reflection of a skew algebra (diag with xi at one place) or of the zero
    bracket on 1-4 variables (I + u v^T with v^T u = xi - 1, dense); on one
    variable both are g = [[xi]] on the zero bracket."""
    n = draw(st.integers(1, 4))
    xi = draw(st.sampled_from(REFLECTION_XI))
    q = [[Cyclo.of(0)] * n for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            for j in range(i + 1, n):
                q[i][j] = draw(st.sampled_from(SCALARS[3]))
                q[j][i] = -q[i][j]
        k = draw(st.integers(0, n - 1))
        return skew_symmetric(Matrix(q)), GradedMap(
            Matrix.diagonal([xi if i == k else 1 for i in range(n)]))
    A = skew_symmetric(Matrix(q))
    u = [Cyclo.of(draw(st.integers(-2, 2))) for _ in range(n)]
    k = draw(st.integers(0, n - 1))
    u[k] = Cyclo.of(1)
    v = [Cyclo.of(draw(st.integers(-2, 2))) if i != k else Cyclo.of(0) for i in range(n)]
    v[k] = xi - 1 - sum((a * b for a, b in zip(u, v)), Cyclo.of(0))
    return A, _rank_one_update(u, v)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(reflections())
@example((skew_symmetric(Matrix([[0]])), GradedMap(Matrix([[zeta(12)]]))))
@example((skew_symmetric(Matrix([[0] * 4] * 4)),  # v^T u = -zeta(4) - 1
          _rank_one_update([Cyclo.of(c) for c in (1, 2, -1, 1)],
                           [Cyclo.of(1), Cyclo.of(-2), Cyclo.of(2), 4 - zeta(4)])))
def test_envelope_trace_series_match_the_products(pair):
    A, g = pair
    tr = envelope_trace(A, g)
    squared, factored = oracle.squared_trace_by_products(trace_series(g), classify(A, g).xi,
                                                          A.nvars)
    assert tr.series == squared and str(tr.series) == str(squared)
    assert tr.factored == factored and str(tr.factored) == str(factored)
    assert not tr.quasi_reflection
    assert not oracle.quasi_reflection_shape_by_division(tr.series, 2 * A.nvars)


QUASI_XI = [Cyclo.of(1), Cyclo.of(-1), zeta(3), zeta(4), zeta(12), Cyclo.of(2),
            Cyclo.of(1) / 2, Cyclo.of(1) + zeta(3), Cyclo.of(0)]
NUMERATORS = [UPoly.one(), UPoly([2]), UPoly([1, 1]), UPoly([1, -1]), UPoly([1, 0, zeta(3)])]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(QUASI_XI), st.integers(0, 6), st.integers(1, 8),
       st.sampled_from(NUMERATORS))
def test_quasi_reflection_shape_matches_the_repeated_division(xi, k, total, num):
    # the oracle against the shape written out: num/(1 - t)^k is 1/(1 - t)^(total-1)
    # for num = 1 at k = total - 1 and for num = 1 - t, which cancels, at k = total
    series = RationalSeries(num, UPoly.one_minus(xi) * UPoly.one_minus(1) ** k)
    order = xi.root_of_unity_order() if not xi.is_zero() else None
    shape = (num, k) in ((UPoly.one(), total - 1), (UPoly.one_minus(1), total))
    assert oracle.quasi_reflection_shape_by_division(series, total) == (
        shape and order is not None and order > 1)
