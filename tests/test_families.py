import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from pwb.brackets import PoissonAlgebra
from pwb.errors import JacobiFailsError, LieJacobiFailsError, NotSkewError, ZeroPotentialError
from pwb.families import (LieData, homogenized_weyl, jacobian, jacobian_pq, lie_one_dim_ideals,
                          lie_two_dim_nonabelian, ph_lie, quantum_matrices, skew_symmetric,
                          sl2, weyl)
from pwb.formats import parse_lie
from pwb.linalg import Matrix
from pwb.rings import PolyRing
from pwb.scalars import Cyclo, zeta
from pwb.solver import EMPTY, POINTS, SUBSPACE


def test_skew_constructor():
    A = skew_symmetric(Matrix([[0, 2], [-2, 0]]), names=["x", "y"])
    assert A.pair(0, 1) == A.ring.parse("2*x*y")
    with pytest.raises(NotSkewError):
        skew_symmetric(Matrix([[0, 1], [1, 0]]))
    Z = skew_symmetric(Matrix([[0, 0], [0, 0]]))
    assert not Z.table and Z.quadratic


def test_jacobian_constructor_guards():
    with pytest.raises(ZeroPotentialError):
        jacobian(PolyRing(["x", "y", "z"]).zero())


def test_pq_skew_agreement():
    # f_{0,q} agrees with the cyclic skew matrix ((0,-q,q),(q,0,-q),(-q,q,0))... with
    # the bracket orientation {x,y} = qxy, {y,z} = qyz, {z,x} = qxz
    q = 3
    A = jacobian_pq(0, q)
    S = skew_symmetric(Matrix([[0, q, -q], [-q, 0, q], [q, -q, 0]]), names=["x", "y", "z"])
    for i in range(3):
        for j in range(3):
            assert A.pair(i, j) == S.pair(i, j)


def test_every_family_satisfies_jacobi():
    algebras = [
        skew_symmetric(Matrix([[0, 1, zeta(3)], [-1, 0, 2], [-zeta(3), -2, 0]])),
        jacobian_pq(1, 0), jacobian_pq(0, 1), jacobian_pq(-1, 1), jacobian_pq(2, 5),
        quantum_matrices(2), quantum_matrices(3),
        weyl(1), weyl(2), homogenized_weyl(1), homogenized_weyl(2),
        ph_lie(sl2()), ph_lie(lie_two_dim_nonabelian()), ph_lie(LieData.of(2, {})),
    ]
    for A in algebras:
        ok, _ = A.jacobi_check()
        assert ok


def test_jacobian_always_unimodular():
    ring = PolyRing(["x", "y", "z"])
    for src in ["x^3 - y*z^2", "x*y*z + z^3", "x^2*y + y^2*z + z^2*x"]:
        assert jacobian(ring.parse(src)).is_unimodular()


def test_ph_lie_brackets():
    A = ph_lie(LieData.of(2, {}))
    assert not A.table
    B = ph_lie(lie_two_dim_nonabelian())
    assert B.pair(0, 1) == B.ring.parse("x2*z")
    C = ph_lie(sl2(), names=("e", "f", "h", "z"))
    assert C.pair(0, 1) == C.ring.parse("h*z")
    assert C.pair(2, 0) == C.ring.parse("2*e*z")
    assert C.pair(2, 1) == C.ring.parse("-2*f*z")
    assert C.quadratic


def test_ph_lie_center_contains_z():
    for lie in [sl2(), lie_two_dim_nonabelian()]:
        A = ph_lie(lie)
        z = A.ring.var(A.nvars - 1)
        pi = oracle.normal_check(A, z)
        assert pi is not None and pi.is_zero()


def test_lie_jacobi_guard():
    # [x1,x2] = x3, [x1,x3] = x1, [x2,x3] = x2: cyclic sum is 2*x3
    with pytest.raises(LieJacobiFailsError):
        LieData.of(3, {
            (0, 1): (0, 0, 1),
            (0, 2): (1, 0, 0),
            (1, 2): (0, 1, 0),
        })


def test_lie_jacobi_check_skips_an_empty_bracket_table(monkeypatch):
    # no triple holds a nonzero bracket, so a large dim costs nothing
    calls = []
    ad = LieData.ad
    monkeypatch.setattr(LieData, "ad", lambda self, i, j: calls.append((i, j)) or ad(self, i, j))
    name, lie = parse_lie("lie g { dim: 200; }")
    assert (name, lie.dimension, lie.brackets) == ("g", 200, {})
    assert calls == []


@pytest.mark.parametrize("dimension, brackets, triple", [
    (3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0), (1, 2): (0, 1, 0)}, (0, 1, 2)),
    # a bracket on (0, 1) that satisfies Jacobi comes first in lexicographic order
    (6, {(0, 1): (0, 1, 0, 0, 0, 0), (2, 4): (0, 0, 0, 0, 0, 1),
         (2, 5): (0, 0, 1, 0, 0, 0), (4, 5): (0, 0, 0, 0, 1, 0)}, (2, 4, 5)),
    # the failing triple (1, 2, 4) holds the pair (1, 2) but not the pair (3, 5)
    (6, {(5, 3): (0, 1, 0, 0, 0, 0), (1, 2): (0, 0, 0, 1, 0, 0),
         (3, 4): (0, 0, 0, 0, 0, 1)}, (1, 2, 4)),
])
def test_lie_jacobi_witness_is_the_first_failing_triple(dimension, brackets, triple):
    with pytest.raises(LieJacobiFailsError) as info:
        LieData.of(dimension, brackets)
    assert info.value.triple == triple


@st.composite
def lie_structures(draw):
    """Structure constants on 2-5 basis vectors over Q(zeta_3), each vector
    mostly zeros; most such brackets fail Jacobi."""
    n = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    value = st.sampled_from((0, 0, 0, 1, -1, 2, zeta(3)))
    return n, {pair: tuple(Cyclo.of(draw(value)) for _ in range(n))
               for pair in draw(st.lists(st.sampled_from(pairs), unique=True))}


_SL2 = (3, {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)})
_HEISENBERG = (4, {(0, 1): (0, 0, 1, 0), (0, 3): (0, 0, 0, 0)})
_FAILS = (6, {(1, 2): (0, 0, 0, 1, 0, 0), (3, 4): (0, 0, 0, 0, 0, 1),
              (3, 5): (0, -1, 0, 0, 0, 0)})


@settings(max_examples=200, deadline=None)
@given(lie_structures())
@example(_SL2)
@example(_HEISENBERG)
@example(_FAILS)
def test_lie_jacobi_matches_the_structure_constant_loop(structure):
    # the verdict and the first failing triple, by the homogenized bracket's
    # Jacobi check and by the structure constants
    n, brackets = structure
    clean = {pair: tuple(map(Cyclo.of, vec)) for pair, vec in brackets.items() if any(vec)}
    lie = LieData(n, clean)
    expected = oracle.lie_jacobi_by_triples(lie)
    assert lie.jacobi_holds() == expected
    if expected[0]:
        assert LieData.of(n, brackets) == lie
    else:
        with pytest.raises(LieJacobiFailsError) as info:
            LieData.of(n, brackets)
        assert info.value.triple == expected[1]


def test_ph_lie_checks_jacobi_once(monkeypatch):
    # LieData.of checks the homogenized bracket, and ph_lie does not check it
    # again; a LieData built directly is checked by ph_lie
    calls = []
    check = PoissonAlgebra.jacobi_check
    monkeypatch.setattr(PoissonAlgebra, "jacobi_check", lambda A: calls.append(A) or check(A))
    ph_lie(sl2())
    assert len(calls) == 1
    n, brackets = _FAILS
    lie = LieData(n, {pair: tuple(map(Cyclo.of, vec)) for pair, vec in brackets.items()})
    with pytest.raises(JacobiFailsError):
        ph_lie(lie)
    assert len(calls) == 2
    # the flag takes no part in equality or the repr
    checked = sl2()
    assert checked.jacobi_checked and checked == LieData(3, checked.brackets)
    assert repr(checked) == repr(LieData(3, checked.brackets))


def test_lie_structures_include_jacobi_failures():
    verdicts = []

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(lie_structures())
    def record(structure):
        n, brackets = structure
        clean = {pair: tuple(vec) for pair, vec in brackets.items() if any(vec)}
        verdicts.append(oracle.lie_jacobi_by_triples(LieData(n, clean))[0])

    record()
    assert True in verdicts and False in verdicts


def test_lie_one_dim_ideals():
    assert lie_one_dim_ideals(sl2()).kind == EMPTY
    res = lie_one_dim_ideals(lie_two_dim_nonabelian())
    assert res.kind == POINTS and len(res.points) == 1
    assert res.points[0][0].is_zero() and res.points[0][1] == 1
    res = lie_one_dim_ideals(LieData.of(2, {}))
    assert res.kind == SUBSPACE and len(res.basis) == 2


def test_ph_lie_normal_elements_match_lie_ideals():
    # no 1-dim ideal => z is the only normal direction
    A = ph_lie(sl2())
    res = A.normal_find_deg1()
    assert res.kind == POINTS and len(res.points) == 1
    assert res.points[0][3] == 1 and all(c.is_zero() for c in res.points[0][:3])
    # with a 1-dim ideal, x2 shows up too
    B = ph_lie(lie_two_dim_nonabelian())
    res = B.normal_find_deg1()
    assert res.kind == POINTS and len(res.points) == 2
