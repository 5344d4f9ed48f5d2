import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from pwb.brackets import PoissonAlgebra, transport
from pwb.errors import JacobiFailsError
from pwb.families import (LieData, homogenized_weyl, jacobian, jacobian_pq, quantum_matrices,
                          skew_symmetric, weyl)
from pwb.linalg import Matrix
from pwb.rings import Poly, PolyRing, column_supports
from pwb.scalars import Cyclo, zeta
from pwb.solver import EMPTY, IDEAL_ONLY, POINTS, SUBSPACE


def skew2(p):
    return skew_symmetric(Matrix([[0, p], [-p, 0]]), names=["x", "y"])


def test_bracket_table_and_leibniz():
    A = skew2(3)
    x, y = A.ring.gens()
    assert A.bracket(x, y) == A.ring.parse("3*x*y")
    # {x^2, y} = 2p x^2 y by Leibniz
    assert A.bracket(x * x, y) == A.ring.parse("6*x^2*y")
    f = A.ring.parse("x^2*y - 2*x + 1")
    assert A.bracket(f, f).is_zero()
    g = A.ring.parse("x*y + y^3")
    h = A.ring.parse("x - y^2")
    assert A.bracket(f, g * h) == g * A.bracket(f, h) + A.bracket(f, g) * h
    assert A.bracket(f, g) == -A.bracket(g, f)


def test_quantum_matrices_table():
    A = quantum_matrices(2)
    a, b, c, d = A.ring.gens()
    assert A.bracket(a, d) == A.ring.parse("2*b*c")
    assert A.bracket(b, c).is_zero()
    assert A.bracket(a, b) == A.ring.parse("a*b")
    assert A.bracket(c, d) == A.ring.parse("c*d")


def test_quantum_matrices_n3():
    A = quantum_matrices(3)
    i11 = A.ring.index("x1_1")
    i22 = A.ring.index("x2_2")
    br = A.bracket(A.ring.var(i11), A.ring.var(i22))
    assert br == A.ring.parse("2*x1_2*x2_1")
    ok, _ = A.jacobi_check()
    assert ok


def test_jacobi_failure_witness():
    ring = PolyRing(["x", "y", "z"])
    table = {(0, 1): ring.parse("x^2"), (2, 0): ring.parse("z^2")}
    with pytest.raises(JacobiFailsError) as e:
        PoissonAlgebra(ring, table)
    assert e.value.triple == ("x", "y", "z")
    A = PoissonAlgebra(ring, table, check_jacobi=False)
    ok, triple = A.jacobi_check()
    assert not ok and triple == ("x", "y", "z")


def test_jacobi_check_visits_only_triples_with_a_nonzero_bracket(monkeypatch):
    calls = []
    jacobiator = PoissonAlgebra._jacobiator

    def counted(self, i, j, k):
        calls.append((i, j, k))
        return jacobiator(self, i, j, k)

    monkeypatch.setattr(PoissonAlgebra, "_jacobiator", counted)
    ring = PolyRing([f"x{i}" for i in range(6)])
    assert PoissonAlgebra(ring, {}).jacobi_check() == (True, None)
    assert calls == []
    A = PoissonAlgebra(ring, {(1, 3): ring.parse("x1*x3")}, check_jacobi=False)
    assert A.jacobi_check() == (True, None)
    # the four triples that contain {x1, x3}, in lexicographic order
    assert calls == [(0, 1, 3), (1, 2, 3), (1, 3, 4), (1, 3, 5)]


def test_jacobian_brackets_satisfy_jacobi():
    for (p, q) in [(1, 0), (0, 1), (1, 1), (-1, 1), (2, 3)]:
        A = jacobian_pq(p, q)
        ok, _ = A.jacobi_check()
        assert ok


def test_jacobian_pq_table():
    A = jacobian_pq(1, 0)
    assert A.pair(0, 1) == A.ring.parse("z^2")
    assert A.pair(1, 2) == A.ring.parse("x^2")
    assert A.pair(2, 0) == A.ring.parse("y^2")
    B = jacobian(PolyRing(["x", "y", "z"]).parse("x*y*z"))
    assert B.pair(0, 1) == B.ring.parse("x*y")
    assert B.pair(1, 2) == B.ring.parse("y*z")
    assert B.pair(2, 0) == B.ring.parse("x*z")
    C = jacobian(PolyRing(["x", "y", "z"]).parse("z"))
    assert C.pair(0, 1) == C.ring.one()
    assert not C.quadratic


def test_normal_check():
    A = skew2(2)
    x, y = A.ring.gens()
    pi = oracle.normal_check(A, x)
    assert pi is not None
    assert pi.images[0].is_zero() and pi.images[1] == A.ring.parse("2*y")
    assert oracle.derivation_is_poisson(pi)

    H = homogenized_weyl(1)
    z = H.ring.var(2)
    pi = oracle.normal_check(H, z)
    assert pi is not None and pi.is_zero()

    J = jacobian_pq(1, 0)
    assert oracle.normal_check(J, J.ring.var(0)) is None


def test_normal_find_deg1_jacobian_p_only():
    assert jacobian_pq(1, 0).normal_find_deg1().kind == EMPTY
    assert jacobian_pq(2, 0).normal_find_deg1().kind == EMPTY


def test_normal_find_deg1_qmatrix2():
    res = quantum_matrices(2).normal_find_deg1()
    assert res.kind == SUBSPACE
    basis = [[str(c) for c in row] for row in res.basis]
    assert basis == [["0", "1", "0", "0"], ["0", "0", "1", "0"]]  # span{b, c}


def test_normal_find_deg1_homogenized_weyl():
    for n in (1, 2):
        res = homogenized_weyl(n).normal_find_deg1()
        assert res.kind == POINTS and len(res.points) == 1
        point = res.points[0]
        assert all(c.is_zero() for c in point[:-1]) and point[-1] == 1


def test_normal_find_deg1_plane_plus_line():
    # normal set: the x1-x2 plane plus the x3 line, which is not a subspace
    A = skew_symmetric(Matrix([[0, 0, 1], [0, 0, 1], [-1, -1, 0]]))
    res = A.normal_find_deg1()
    assert res.kind == IDEAL_ONLY and res.generators
    # each x_i is normal, so every chart equation vanishes at mu = 0
    for g in res.generators:
        assert g.coefficient((0,) * g.ring.nvars).is_zero()


def _assert_points_match(res, expected):
    assert res.kind == POINTS and len(res.points) == len(expected)
    for e in expected:
        assert any(all(Cyclo.of(a) == b for a, b in zip(e, f)) for f in res.points)


def test_normal_find_deg1_cubic_cases():
    g = zeta(3)
    # p = -q: the lines x + gamma y + gamma^2 z
    res = jacobian_pq(-1, 1).normal_find_deg1()
    _assert_points_match(res, [(1, 1, 1), (1, g, g * g), (1, g * g, g)])
    # p = -omega q with omega primitive: omega^2 x + y + z etc., normalized
    om = zeta(3)
    res = jacobian_pq(-om, 1).normal_find_deg1()
    _assert_points_match(res, [(1, om, om), (1, 1, om * om), (1, om * om, 1)])


def test_normal_solutions_pass_normal_check():
    for A in [jacobian_pq(-1, 1), quantum_matrices(2), homogenized_weyl(1)]:
        res = A.normal_find_deg1()
        vectors = []
        if res.kind == POINTS:
            vectors = [list(p) for p in res.points]
        elif res.kind == SUBSPACE:
            vectors = [list(b) for b in res.basis]
        for v in vectors:
            u = A.ring.linear_form(v)
            assert oracle.normal_check(A, u) is not None


def test_modular_derivation():
    # exact brackets are unimodular
    for (p, q) in [(1, 0), (0, 1), (-1, 1)]:
        assert jacobian_pq(p, q).is_unimodular()
    # {x,y} = xy: phi(x) = x, phi(y) = -y
    A = skew2(1)
    phi = A.modular_derivation()
    assert phi.images[0] == A.ring.var(0)
    assert phi.images[1] == -A.ring.var(1)
    # the cyclic fixed-ring bracket with n = 3, q = 1
    ring = PolyRing(["X", "y", "z"])
    B = PoissonAlgebra(ring, {
        (0, 1): ring.parse("3*X*y"),
        (1, 2): ring.parse("y*z"),
        (2, 0): ring.parse("3*X*z"),
    }, check_jacobi=False)
    phi = B.modular_derivation()
    assert phi.images[0].is_zero()
    assert phi.images[1] == ring.parse("-2*y")
    assert phi.images[2] == ring.parse("2*z")
    assert not B.is_unimodular()


def test_center_truncated():
    H = homogenized_weyl(1)
    dims = [len(b) for b in H.center_truncated(3)]
    assert dims == [1, 1, 1, 1]
    z = H.ring.var(2)
    assert H.center_truncated(3)[1][0] == z

    Z = skew_symmetric(Matrix([[0, 0], [0, 0]]), names=["x", "y"])
    assert [len(b) for b in Z.center_truncated(1)] == [1, 2]

    A = skew2(1)
    assert [len(b) for b in A.center_truncated(2)] == [1, 0, 0]


def test_center_homogenized_weyl_n2():
    H = homogenized_weyl(2)
    cen = H.center_truncated(3)
    assert [len(b) for b in cen] == [1, 1, 1, 1]
    assert cen[2][0] == H.ring.monomial((0, 0, 0, 0, 2))


def test_derived_ideal_homogenized_weyl():
    H = homogenized_weyl(1)
    D = H.derived_ideal(4)
    # same dimensions as the principal ideal (z^2)
    assert D.dims() == [0, 0, 1, 3, 6]
    z = H.ring.var(2)
    assert D.contains(z * z) and not D.contains(z)
    assert D.is_monomial()
    assert D.components() == [("x1", "y1")]


def test_derived_ideal_qmatrix2():
    A = quantum_matrices(2)
    D = A.derived_ideal(3)
    assert D.is_monomial()
    comps = D.components()
    assert sorted(len(c) for c in comps) == [1, 1, 2]
    assert ("a", "d") in comps and ("b",) in comps and ("c",) in comps
    det = A.ring.parse("a*d - b*c")
    assert not D.contains(det)


def test_derived_ideal_zero_bracket():
    Z = skew_symmetric(Matrix([[0, 0], [0, 0]]), names=["x", "y"])
    assert Z.derived_ideal(3).dims() == [0, 0, 0, 0]


def test_weyl_flags():
    P = weyl(2)
    assert not P.quadratic and P.bracket_degree == 0
    H = homogenized_weyl(2)
    assert H.quadratic
    assert H.bracket(H.ring.var(0), H.ring.var(1 + 2)).is_zero()  # {x1, y2} = 0
    assert H.bracket(H.ring.var(0), H.ring.var(2)) == H.ring.monomial((0, 0, 0, 0, 2))


# -- the term-dict bracket and substitution against the Poly oracle -------------


def _random_coefficient(rng):
    # a value made at conductor 1, 3, 4 or 12; rational values stored at 12 too
    n = rng.choice((1, 3, 4, 12))
    c = Cyclo.of(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))))
    if n > 1:
        c = c * zeta(n, rng.randrange(n)) if rng.random() < 0.7 else c * zeta(n, 0)
    return c if not c.is_zero() else Cyclo.of(1)


def _random_poly(rng, ring, terms, degree):
    out = ring.zero()
    for _ in range(rng.randint(1, terms)):
        e = [0] * ring.nvars
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(ring.nvars)] += 1
        # added one term at a time, so equal monomials sum and may cancel
        out = out + ring.monomial(e, _random_coefficient(rng))
    return out


def _random_table(rng, ring):
    pairs = [(i, j) for i in range(ring.nvars) for j in range(i + 1, ring.nvars)]
    return {pair: _random_poly(rng, ring, 3, 3)
            for pair in rng.sample(pairs, rng.randint(1, len(pairs)))}


def _stored(p):
    """Terms in dict order with each coefficient as stored: conductor, numerators, denominator."""
    return [(e, c.n, c.num, c.den) for e, c in p.terms.items()]


def test_bracket_matches_the_poly_oracle_term_by_term():
    # each term's value and the printed form, on non-skew tables, against the
    # Poly bracket and the pair loop pwb ran before its Hamiltonian kernel;
    # the stored form no longer decides the print, so the dict order and a
    # cancelled sum's conductor are free
    rng = random.Random(20261018)
    for _ in range(3000):
        ring = PolyRing([f"x{i}" for i in range(rng.randint(2, 5))])
        A = PoissonAlgebra(ring, _random_table(rng, ring), check_jacobi=False)
        f = _random_poly(rng, ring, 4, 3)
        g = f if rng.random() < 0.05 else _random_poly(rng, ring, 4, 3)
        found = A.bracket(f, g)
        for expected in (oracle.poly_bracket(A, f, g), oracle.pair_loop_bracket(A, f, g)):
            assert found.terms == expected.terms
            assert str(found) == str(expected)


def test_substitute_matches_the_poly_oracle_term_by_term():
    rng = random.Random(31337)
    for _ in range(3000):
        ring = PolyRing([f"x{i}" for i in range(rng.randint(2, 5))])
        target = ring if rng.random() < 0.5 else PolyRing([f"y{i}" for i in range(rng.randint(1, 5))])
        f = _random_poly(rng, ring, 5, 4)
        images = [_random_poly(rng, target, 3, 2) for _ in range(ring.nvars)]
        assert (_stored(f.substitute(images, target))
                == _stored(oracle.poly_substitute(f, images, target)))


def test_bracket_matches_the_leibniz_oracle():
    rng = random.Random(2006)
    for _ in range(300):
        ring = PolyRing([f"x{i}" for i in range(rng.randint(2, 4))])
        table = _random_table(rng, ring)
        A = PoissonAlgebra(ring, table, check_jacobi=False)
        f, g = _random_poly(rng, ring, 3, 3), _random_poly(rng, ring, 3, 3)
        dense = {pair: oracle.DensePoly(ring.nvars, p.terms) for pair, p in table.items()}
        expected = oracle.OracleBracket(ring.nvars, dense).bracket(
            oracle.DensePoly(ring.nvars, f.terms), oracle.DensePoly(ring.nvars, g.terms))
        assert oracle.DensePoly(ring.nvars, A.bracket(f, g).terms).equals(expected)


def test_bracket_takes_each_partial_once_and_forms_no_poly_product(monkeypatch):
    # {f, g} of two linear forms on a 4-variable skew algebra: at most 2n
    # partials per operand, and no Poly product
    calls = []
    partial, mul = Poly.partial, Poly.__mul__
    monkeypatch.setattr(Poly, "partial", lambda self, i: calls.append(id(self)) or partial(self, i))
    monkeypatch.setattr(Poly, "__mul__", lambda self, other: calls.append("mul") or mul(self, other))
    A = skew_symmetric(Matrix([[0, 1, 2, zeta(3)], [-1, 0, 3, 1], [-2, -3, 0, 4],
                               [-zeta(3), -1, -4, 0]]))
    f = A.ring.linear_form([1, 2, 0, zeta(4)])
    g = A.ring.linear_form([0, 1, -1, 3])
    br = A.bracket(f, g)
    assert calls.count(id(f)) <= 8 and calls.count(id(g)) <= 8
    assert "mul" not in calls
    assert br == oracle.poly_bracket(A, f, g)


def test_bracket_visits_only_the_pairs_that_can_contribute(monkeypatch):
    # {x0, x1} on a table with pairs (0, 1), (2, 3) and (1, 3): x1 is the only
    # variable of g, so the bracket takes one Hamiltonian, {x0, x1}
    seen = []
    hamiltonian = PoissonAlgebra.hamiltonian
    monkeypatch.setattr(PoissonAlgebra, "hamiltonian",
                        lambda A, terms, v: seen.append(v) or hamiltonian(A, terms, v))
    ring = PolyRing(["x0", "x1", "x2", "x3"])
    A = PoissonAlgebra(ring, {(0, 1): ring.parse("x0*x1"), (2, 3): ring.parse("x2*x3"),
                              (1, 3): ring.parse("x1*x3")}, check_jacobi=False)
    f, g = ring.var(0), ring.var(1)
    assert A.bracket(f, g) == ring.parse("x0*x1")
    assert seen == [1]


@st.composite
def _drawn_polys(draw, ring):
    """A polynomial of degree at most 3 in `ring` over Q(zeta_12)."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        e = [0] * ring.nvars
        for _ in range(draw(st.integers(0, 3))):
            e[draw(st.integers(0, ring.nvars - 1))] += 1
        c = Cyclo.of(Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 2, 3)))))
        terms[tuple(e)] = c * zeta(12, draw(st.integers(0, 11)))
    return Poly(ring, {e: c for e, c in terms.items() if c})


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hamiltonian_matches_the_leibniz_oracle(data):
    # {f, x_v} for every v, on tables that need not satisfy Jacobi
    A = data.draw(drawn_algebras(degrees=(0, 1, 2, 3)))
    f = data.draw(_drawn_polys(A.ring))
    n = A.nvars
    dense = {pair: oracle.DensePoly(n, p.terms) for pair, p in A.table.items()}
    bracket = oracle.OracleBracket(n, dense)
    for v in range(n):
        expected = bracket.bracket(oracle.DensePoly(n, f.terms), oracle.DensePoly.variable(n, v))
        assert oracle.DensePoly(n, A.hamiltonian(f.terms, v)).equals(expected)


# -- the center's columns by Leibniz against the bracket-built ones -------------


def _center_cases(rng):
    """Algebras over Q and Q(zeta_3), with weights where their brackets are
    weighted-homogeneous, and unchecked random tables."""
    q = Matrix([[0, 1, zeta(3)], [-1, 0, 2], [-zeta(3), -2, 0]])
    yield skew_symmetric(q), None, 3
    yield skew_symmetric(Matrix([[0, 2, 0], [-2, 0, 0], [0, 0, 0]])), [1, 1, 2], 4
    yield homogenized_weyl(1), None, 3
    yield homogenized_weyl(2), None, 2
    yield jacobian_pq(1, zeta(3)), None, 3
    yield quantum_matrices(2), None, 2
    yield jacobian(PolyRing(["x", "y", "z"]).parse("x*y*z")), [1, 2, 3], 5
    for _ in range(30):
        ring = PolyRing([f"x{i}" for i in range(rng.randint(2, 4))])
        weights = None if rng.random() < 0.5 else [rng.randint(1, 2) for _ in ring.names]
        yield (PoissonAlgebra(ring, _random_table(rng, ring), check_jacobi=False), weights,
               rng.randint(1, 3))


def test_center_by_leibniz_matches_the_bracket_built_columns():
    # each basis polynomial printed and stored as by the bracket-built columns
    rng = random.Random(1972)
    for A, weights, d in _center_cases(rng):
        found = A.center_truncated(d, weights)
        expected = oracle.center_by_bracket(A, d, weights)
        assert [[str(p) for p in b] for b in found] == [[str(p) for p in b] for b in expected]
        assert [[_stored(p) for p in b] for b in found] == [[_stored(p) for p in b]
                                                           for b in expected]


def test_center_takes_no_bracket(monkeypatch):
    H, Q = homogenized_weyl(2), quantum_matrices(2)
    calls = []
    bracket = PoissonAlgebra.bracket
    monkeypatch.setattr(PoissonAlgebra, "bracket",
                        lambda A, f, g: calls.append(A) or bracket(A, f, g))
    assert [len(b) for b in H.center_truncated(3)] == [1, 1, 1, 1]
    assert [len(b) for b in Q.center_truncated(2)] == [1, 0, 1]
    assert calls == []


# -- transport by 2x2 minors and the derived ideal's shifted rows ---------------


def _invertible_basis(rng, n):
    """An invertible matrix over Q, Q(zeta_3), Q(zeta_4) or Q(zeta_12), with
    zero entries, some entries lifted to a larger conductor."""
    N = rng.choice((1, 3, 4, 12))
    values = [Cyclo.of(0), Cyclo.of(1), Cyclo.of(-1), Cyclo.of(2), zeta(N), -zeta(N, N - 1)]
    while True:
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
        rows = [[c.lift_to(12) if rng.random() < 0.15 else c for c in row] for row in rows]
        T = Matrix(rows)
        if T.rank() == n:
            return T


def test_transport_by_minors_matches_the_bracket_built_table():
    # each entry printed and stored as by bracketing the new coordinates,
    # though transport walks the nonzero entries of the basis columns
    rng = random.Random(2021)
    for _ in range(120):
        n = rng.randint(2, 4)
        ring = PolyRing([f"x{i}" for i in range(n)])
        A = PoissonAlgebra(ring, _random_table(rng, ring), check_jacobi=False)
        T = _invertible_basis(rng, n)
        names = tuple(f"y{i}" for i in range(n))
        found, expected = transport(A, T, names), oracle.bracket_transport(A, T, names)
        assert list(found.table) == list(expected.table)
        assert (found.quadratic, found.bracket_degree, found.name) == (
            expected.quadratic, expected.bracket_degree, expected.name)
        for pair, p in expected.table.items():
            assert str(found.table[pair]) == str(p)
            assert _stored(found.table[pair]) == _stored(p)


def _block_basis(rng, n):
    """The identity outside a block of 1 to n coordinates, an invertible
    `_invertible_basis` on it."""
    block = sorted(rng.sample(range(n), rng.randint(1, n)))
    local = _invertible_basis(rng, len(block))
    rows = [[Cyclo.of(int(r == c)) for c in range(n)] for r in range(n)]
    for a, ra in enumerate(block):
        for b, cb in enumerate(block):
            rows[ra][cb] = local.rows[a][b]
    return Matrix(rows)


def test_linear_bracket_terms_and_transport_match_the_minors():
    # the column walk against the 2x2 minors over every table pair, by value
    # and print; transport against the minors and `Poly.substitute`, printed
    # and stored
    rng = random.Random(20261020)
    for _ in range(100):
        n = rng.randint(2, 5)
        ring = PolyRing([f"x{i}" for i in range(n)])
        A = PoissonAlgebra(ring, _random_table(rng, ring), check_jacobi=False)
        T = _block_basis(rng, n) if rng.random() < 0.6 else _invertible_basis(rng, n)
        columns = column_supports(T.rows)
        for i in range(n):
            for j in range(n):
                found = A.linear_bracket_terms(columns, i, j)
                expected = oracle.minor_linear_bracket_terms(A, T.rows, i, j)
                assert found == expected
                assert str(Poly(ring, found)) == str(Poly(ring, expected))
        names = tuple(f"y{i}" for i in range(n))
        found, expected = transport(A, T, names), oracle.substituted_transport(A, T, names)
        assert str(found) == str(expected)
        assert {pair: _stored(p) for pair, p in found.table.items()} == {
            pair: _stored(p) for pair, p in expected.table.items()}


def test_transport_substitutes_nothing(monkeypatch):
    A = quantum_matrices(2)
    T = Matrix([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]])
    expected = oracle.bracket_transport(A, T, ("a", "p", "m", "d"))
    calls = []
    substitute = Poly.substitute
    monkeypatch.setattr(Poly, "substitute", lambda p, *a: calls.append(p) or substitute(p, *a))
    assert str(transport(A, T, ("a", "p", "m", "d"))) == str(expected)
    assert calls == []


def test_transport_takes_no_bracket(monkeypatch):
    A = quantum_matrices(2)  # built, and its Jacobi identity checked, first
    calls = []
    bracket = PoissonAlgebra.bracket
    monkeypatch.setattr(PoissonAlgebra, "bracket",
                        lambda A, f, g: calls.append(A) or bracket(A, f, g))
    T = Matrix([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]])
    found = transport(A, T, ("a", "p", "m", "d"))
    assert calls == []
    # {p, m} = {b + c, b - c} = -2 {b, c} = 0
    assert str(found) == ("PoissonAlgebra(a, p, m, d; {a,p}=a*p, {a,m}=a*m, "
                          "{a,d}=1/2*p^2 - 1/2*m^2, {p,d}=p*d, {m,d}=m*d)")


def test_transport_validates_no_pair(monkeypatch):
    # a change of basis keeps each entry's degree: the result is built
    # without `PoissonAlgebra.__init__`, from A's `quadratic` and
    # `bracket_degree` (`test_transport_by_minors_matches_the_bracket_built_table`
    # compares both with a validated construction)
    A = quantum_matrices(2)
    T = Matrix([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]])
    built = []
    init = PoissonAlgebra.__init__
    monkeypatch.setattr(PoissonAlgebra, "__init__",
                        lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    found = transport(A, T, ("a", "p", "m", "d"))
    assert built == []
    assert (found.quadratic, found.bracket_degree, found.name) == (True, 2, "A")
    assert found._cache == {}


def _derived_cases():
    """Built-in families, with and without weights that keep them homogeneous."""
    xyz = PolyRing(["x", "y", "z"])
    yield quantum_matrices(2), None, 4
    yield quantum_matrices(2), [1, 2, 2, 3], 6
    yield homogenized_weyl(1), None, 4
    yield homogenized_weyl(2), [1, 1, 2, 2, 1], 4
    yield jacobian_pq(1, zeta(3)), None, 4
    yield jacobian(xyz.parse("x*y*z")), [1, 2, 3], 8
    yield skew_symmetric(Matrix([[0, 1, zeta(3)], [-1, 0, 2], [-zeta(3), -2, 0]])), None, 4
    yield skew_symmetric(Matrix([[0, 2, 0], [-2, 0, 0], [0, 0, 0]])), [1, 1, 2], 5
    yield weyl(1), None, 3


def test_derived_dims_match_the_product_rows():
    for A, weights, d in _derived_cases():
        ideal = A.derived_ideal(d, weights)
        assert ideal.dims() == oracle.derived_dims_by_products(A.derived_ideal(d, weights))


def test_derived_dims_build_no_monomial(monkeypatch):
    ideal = quantum_matrices(2).derived_ideal(4)
    calls = []
    monomial = PolyRing.monomial
    monkeypatch.setattr(PolyRing, "monomial",
                        lambda ring, *args: calls.append(args) or monomial(ring, *args))
    assert ideal.dims() == [0, 0, 5, 14, 28]
    assert calls == []


# -- the solve path's systems off the table against the mixed-ring builders ------


@st.composite
def drawn_algebras(draw, degrees=(2,)):
    """An algebra on 2-5 variables over Q, Q(zeta_3), Q(zeta_4) or Q(zeta_12),
    some coefficients stored at conductor 12: a skew table, the Jacobian
    bracket of a cubic (both satisfy Jacobi), or a table whose entries are
    each a skew monomial or a sum of monomials of the given degrees, built
    without the Jacobi check (it often fails)."""
    N = draw(st.sampled_from((1, 3, 4, 12)))

    def coefficient(nonzero=False):
        top = draw(st.integers(1, 3) if nonzero else st.integers(0, 3))
        c = Cyclo.of(Fraction(draw(st.sampled_from((-1, 1))) * top, draw(st.sampled_from((1, 1, 2)))))
        c = c * zeta(N, draw(st.integers(0, N - 1)))
        return c.lift_to(12) if draw(st.integers(0, 6)) == 0 else c

    kind = draw(st.sampled_from(("skew", "jacobian", "table")))
    if kind == "jacobian":
        xyz = PolyRing(["x", "y", "z"])
        cubics = xyz.monomials_of_degree(3)
        chosen = draw(st.lists(st.sampled_from(cubics), min_size=1, max_size=4, unique=True))
        return jacobian(Poly(xyz, {e: coefficient(nonzero=True) for e in chosen}))
    n = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "skew":
        q = [[Cyclo.of(0)] * n for _ in range(n)]
        for i, j in pairs:
            q[i][j] = coefficient()
            q[j][i] = -q[i][j]
        return skew_symmetric(Matrix(q))
    ring = PolyRing([f"x{i}" for i in range(n)])
    table = {}
    for i, j in draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)):
        if draw(st.booleans()):
            e = [0] * n
            e[i] = e[j] = 1
            table[(i, j)] = ring.monomial(e, coefficient(nonzero=True))
            continue
        entry = ring.zero()
        for _ in range(draw(st.integers(1, 3))):
            e = [0] * n
            for _ in range(draw(st.sampled_from(degrees))):
                e[draw(st.integers(0, n - 1))] += 1
            # added one term at a time, so equal monomials sum and may cancel
            entry = entry + ring.monomial(e, coefficient())
        table[(i, j)] = entry
    return PoissonAlgebra(ring, table, check_jacobi=False)


@settings(max_examples=150, deadline=None)
@given(drawn_algebras())
@example(quantum_matrices(2))
@example(homogenized_weyl(2))
@example(jacobian_pq(1, zeta(3)))
def test_normal_charts_match_the_mixed_ring_equations(A):
    # every chart's equations, in order, term by term as stored
    for m in range(A.nvars):
        ring, equations = A._normal_chart(m)
        expected_ring, expected = oracle.mixed_ring_normal_equations(A, m)
        assert ring == expected_ring
        assert [_stored(p) for p in equations] == [_stored(p) for p in expected]


_XYZ = PolyRing(["x", "y", "z"])
_FAILING = PoissonAlgebra(_XYZ, {(0, 1): _XYZ.parse("x^2"), (2, 0): _XYZ.parse("z^2")},
                          check_jacobi=False)


@settings(max_examples=150, deadline=None)
@given(drawn_algebras(degrees=(0, 1, 2, 3)))
@example(_FAILING)
@example(quantum_matrices(3))
def test_jacobi_check_by_leibniz_matches_the_bracket_built_check(A):
    assert A.jacobi_check() == oracle.bracket_jacobi_check(A) == oracle.leibniz_jacobi_check(A)


def test_drawn_algebras_include_jacobi_failures():
    # the differential Jacobi test above sees failing tables, not just
    # the skew and Jacobian ones that hold by construction
    verdicts = []

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(drawn_algebras(degrees=(0, 1, 2, 3)))
    def record(A):
        verdicts.append(A.jacobi_check()[0])

    record()
    assert True in verdicts and False in verdicts


@settings(max_examples=150, deadline=None)
@given(drawn_algebras(degrees=(0, 1, 2, 3)))
@example(quantum_matrices(2))
@example(homogenized_weyl(2))
def test_modular_derivation_matches_the_poly_sums(A):
    found, expected = A.modular_derivation(), oracle.modular_by_pairs(A)
    assert [p.terms for p in found.images] == [p.terms for p in expected.images]
    assert str(found) == str(expected)


def test_every_table_consumer_reaches_the_hamiltonian(monkeypatch):
    # the Leibniz rule is applied to the table in one place
    from pwb import symmetry
    calls = []
    hamiltonian = PoissonAlgebra.hamiltonian
    monkeypatch.setattr(PoissonAlgebra, "hamiltonian",
                        lambda A, terms, v: calls.append(v) or hamiltonian(A, terms, v))
    Q = quantum_matrices(2)
    x = Q.ring.gens()
    consumers = {
        "bracket": lambda: Q.bracket(x[0], x[1]),
        "jacobi_check": Q.jacobi_check,
        "center_truncated": lambda: Q.center_truncated(2),
        "modular_derivation": Q.modular_derivation,
        "_reflection_equations":
            lambda: symmetry._reflection_equations(Q, [(1, 0, 0, 0), (0, 1, 0, 0)], 1),
        "LieData.of": lambda: LieData.of(3, {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0),
                                             (1, 2): (0, 2, 0)}),
    }
    reached = []
    for name, consumer in consumers.items():
        calls.clear()
        consumer()
        if calls:
            reached.append(name)
    assert reached == list(consumers)
