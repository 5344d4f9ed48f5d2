import pytest
from hypothesis import given, settings
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
from pwb.scalars import Cyclo, zeta
from pwb.series import hilbert_free
from pwb.symmetry import GradedMap, trace_series


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
SCALARS = {1: RATIONALS, 3: RATIONALS + [zeta(3), -zeta(3, 2)], 4: RATIONALS + [zeta(4)]}


@st.composite
def quadratic_tables(draw):
    """A 2- or 3-variable quadratic bracket with entries in Q, Q(zeta_3) or
    Q(zeta_4): a skew-symmetric or Jacobian one (Jacobi holds), or a table of
    drawn quadratics loaded with check_jacobi=False (Jacobi fails for about
    half of the 3-variable ones)."""
    n = draw(st.integers(2, 3))
    ring = PolyRing(["x", "y", "z"][:n])
    scalars = SCALARS[draw(st.sampled_from([3, 4, 1]))]
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
    # a PBW algebra inserts no row of degree 4 or more; a Jacobi-failing
    # table is no Groebner basis and is eliminated in degree 4 too
    inserted, insert = [], Echelon.insert
    monkeypatch.setattr(Echelon, "insert",
                        lambda self, row: inserted.append(row) or insert(self, row))

    def rows(A, d):
        inserted.clear()
        envelope_dims(A, d)
        return len(inserted)

    for A in (quantum_matrices(2), jacobian_pq(1, 2), homogenized_weyl(1)):
        assert rows(A, 4) == rows(A, 3)
    assert rows(jacobi_failing(), 4) > rows(jacobi_failing(), 3)
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


def test_envelope_extend_cyclotomic(monkeypatch):
    # Q(zeta_3) relations under a map with zeta_4 and zeta_3 entries: N = 12
    w = zeta(3)
    A = skew_symmetric(Matrix([[0, w, 1], [-w, 0, 2], [-1, -2, 0]]))
    assert envelope_extend(A, GradedMap(Matrix.diagonal([zeta(4), 1, w]))).relations_preserved
    ring = PolyRing(["x", "y"])
    B = PoissonAlgebra(ring, {(0, 1): ring.parse("x^2")})
    assert envelope_extend(B, GradedMap(Matrix.diagonal([w, w]))).relations_preserved
    # a map that is no automorphism must break a relation once past the bracket check:
    # {x, y} = x^2 under y -> zeta_3 y leaves (zeta_3 - 1) m_x m_x outside the span
    monkeypatch.setattr(envelope, "is_poisson_automorphism", lambda A, g: (True, None))
    assert not envelope_extend(B, GradedMap(Matrix.diagonal([1, w]))).relations_preserved


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
    with pytest.raises(NotReflectionError):
        envelope_trace(A, GradedMap(Matrix.diagonal([-1, -1])))


def test_envelope_trace_never_quasi():
    H = homogenized_weyl(1)
    g = GradedMap(Matrix.diagonal([1, 1, -1]))
    tr = envelope_trace(H, g)
    assert not tr.quasi_reflection
    assert tr.series == tr.factored
