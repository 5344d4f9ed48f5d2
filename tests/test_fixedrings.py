import dataclasses
import random
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from pwb import fixedrings, solver, symmetry
from pwb.brackets import DerivedIdeal, PoissonAlgebra
from pwb.families import (homogenized_weyl, jacobian_pq, lie_two_dim_nonabelian, ph_lie,
                          quantum_matrices, skew_symmetric)
from pwb.fixedrings import (DISTINGUISHED, NOT_DISTINGUISHED, fixed_cyclic_reflection,
                            fixed_group, is_skew_presentation, presented_from_linear_basis,
                            rigidity_report)
from pwb.formats import presented_json
from pwb.linalg import Matrix
from pwb.rings import PolyRing
from pwb.scalars import Cyclo, zeta
from pwb.series import hilbert_weighted
from pwb.symmetry import GradedMap, _character_logs, _character_molien, group_closure


def skew2(p):
    return skew_symmetric(Matrix([[0, p], [-p, 0]]), names=["x", "y"])


def gmap(rows):
    return GradedMap(Matrix(rows))


def test_fixed_cyclic_reflection_skew():
    A = skew2(2)
    for m in (2, 3, 5):
        g = GradedMap(Matrix.diagonal([zeta(m), 1]))
        p = fixed_cyclic_reflection(A, g)
        assert p.polynomial and p.relations == ()
        assert sorted(p.degrees) == [1, m]
        i_pow = p.degrees.index(m)
        i_lin = p.degrees.index(1)
        assert p.expressions[i_pow] == A.ring.parse(f"x^{m}")
        assert p.expressions[i_lin] == A.ring.parse("y")
        # {x^m, y} = 2m x^m y
        entry = p.entry(i_pow, i_lin)
        expect = p.generator_ring.monomial(
            tuple(1 if t in (i_pow, i_lin) else 0 for t in range(2)), 2 * m)
        assert entry == expect
        assert p.molien == hilbert_weighted([m, 1])


def test_fixed_cyclic_reflection_cubic():
    # the q-only cubic bracket under diag(zeta_3, 1, 1)
    A = jacobian_pq(0, 1)
    g = GradedMap(Matrix.diagonal([zeta(3), 1, 1]))
    p = fixed_cyclic_reflection(A, g)
    assert p.polynomial
    assert sorted(p.degrees) == [1, 1, 3]
    iX = p.degrees.index(3)
    iy = p.expressions.index(A.ring.parse("y"))
    iz = p.expressions.index(A.ring.parse("z"))
    assert p.expressions[iX] == A.ring.parse("x^3")
    R = p.generator_ring

    def mono(i, j, c):
        return R.monomial(tuple((1 if t == i else 0) + (1 if t == j else 0)
                                for t in range(3)), c)

    assert p.entry(iX, iy) == mono(iX, iy, 3)
    assert p.entry(iy, iz) == mono(iy, iz, 1)
    assert p.entry(iz, iX) == mono(iz, iX, 3)
    # modular derivation of the re-instantiated fixed ring: phi(y) = -2y, phi(z) = 2z
    B = p.as_algebra()
    phi = B.modular_derivation()
    assert phi.images[iX].is_zero()
    assert phi.images[iy] == -2 * B.ring.var(iy)
    assert phi.images[iz] == 2 * B.ring.var(iz)
    assert A.is_unimodular() and not B.is_unimodular()


def test_fixed_cyclic_reflection_homogenized_weyl():
    H = homogenized_weyl(2)
    rows = Matrix.diagonal([1, 1, 1, 1, -1]).rows
    p = fixed_cyclic_reflection(H, gmap(rows))
    assert p.polynomial and sorted(p.degrees) == [1, 1, 1, 1, 2]
    iw = p.degrees.index(2)
    assert p.expressions[iw] == H.ring.parse("z^2")
    names = p.names
    ring = p.generator_ring
    ix1 = p.expressions.index(H.ring.parse("x1"))
    iy1 = p.expressions.index(H.ring.parse("y1"))
    ix2 = p.expressions.index(H.ring.parse("x2"))
    iy2 = p.expressions.index(H.ring.parse("y2"))
    assert p.entry(ix1, iy1) == ring.var(iw)
    assert p.entry(ix2, iy2) == ring.var(iw)
    assert p.entry(ix1, iy2).is_zero()
    assert is_skew_presentation(p) is None  # w is not a product of the generators


def test_fixed_cyclic_reflection_with_shear():
    # reflection of H_1 with g(x) = x + a z, g(z) = -z: fixed generators absorb a/2
    H = homogenized_weyl(1)
    a = Cyclo.of(4)
    g = gmap([[1, 0, 0], [0, 1, 0], [a, 0, -1]])
    p = fixed_cyclic_reflection(H, g)
    assert p.polynomial
    # some scalar multiple of x1 + (a/2) z must appear among the generators
    target = H.ring.parse("x1 + 2*z")
    assert any(oracle.divides_into(e, target) is not None and e.total_degree() == 1
               for e in p.expressions)
    iw = p.degrees.index(2)
    assert p.expressions[iw] == H.ring.parse("z^2")


def test_fixed_group_qmatrix_swap():
    A = quantum_matrices(2)
    mu = Cyclo.of(3)
    g = gmap([
        [1, 0, 0, 0],
        [0, 0, mu.inverse(), 0],
        [0, mu, 0, 0],
        [0, 0, 0, 1],
    ])
    G = group_closure([g])
    assert G.order == 2
    p = fixed_group(A, G, bound=2)
    assert p.polynomial
    assert list(p.degrees) == [1, 1, 1, 2]
    assert p.expressions[0] == A.ring.parse("a")
    assert p.expressions[1] == A.ring.parse("b + 3*c")
    assert p.expressions[2] == A.ring.parse("d")
    assert p.expressions[3] == A.ring.parse("b*c")
    R = p.generator_ring
    a_, s_, d_, w_ = R.gens()
    assert p.entry(0, 1) == a_ * s_            # {a, b+mu c} = a (b+mu c)
    assert p.entry(0, 3) == 2 * a_ * w_        # {a, bc} = 2a(bc)
    assert p.entry(0, 2) == 2 * w_             # {a, d} = 2bc
    assert p.entry(1, 2) == s_ * d_            # {b+mu c, d} = (b+mu c) d
    assert p.entry(3, 2) == 2 * w_ * d_        # {bc, d} = 2(bc)d
    assert p.entry(1, 3).is_zero()             # {b+mu c, bc} = 0


def test_fixed_group_symmetric_functions():
    ring = PolyRing(["x", "y"])
    Z = PoissonAlgebra(ring, {})
    swap = gmap([[0, 1], [1, 0]])
    p = fixed_group(Z, group_closure([swap]), bound=2)
    assert p.polynomial
    assert [str(e) for e in p.expressions] == ["x + y", "x*y"]
    assert all(v.is_zero() for v in p.table.values()) or not p.table


def test_fixed_group_non_reflection_relations():
    A = skew2(1)
    g = gmap([[-1, 0], [0, -1]])
    p = fixed_group(A, group_closure([g]), bound=2)
    assert not p.polynomial
    assert [str(e) for e in p.expressions] == ["x^2", "x*y", "y^2"]
    assert len(p.relations) == 1
    rel = p.relations[0]
    R = rel.ring
    assert rel == R.parse("g2^2 - g1*g3") or rel == R.parse("g1*g3 - g2^2")
    # brackets per Leibniz
    assert p.entry(0, 1) == R.parse("2*g1*g2")
    assert p.entry(0, 2) == R.parse("4*g2^2") or p.entry(0, 2) == R.parse("4*g1*g3")
    assert p.entry(1, 2) == R.parse("2*g2*g3")
    assert is_skew_presentation(p) is None


def test_skew_presentation_positive():
    A = skew2(2)
    g = GradedMap(Matrix.diagonal([zeta(4), 1]))
    p = fixed_group(A, group_closure([g]), bound=4)
    q = is_skew_presentation(p)
    assert q is not None
    i_pow = p.degrees.index(4)
    i_lin = p.degrees.index(1)
    assert q.rows[i_pow][i_lin] == 8  # {x^4, y} = 4*2 x^4 y
    # only the relations decide: no relations but not flagged polynomial still reads q
    assert is_skew_presentation(dataclasses.replace(p, polynomial=False)) == q


def test_skew_presentation_zero_bracket():
    ring = PolyRing(["x", "y"])
    Z = PoissonAlgebra(ring, {})
    p = fixed_group(Z, group_closure([gmap([[0, 1], [1, 0]])]), bound=2)
    q = is_skew_presentation(p)
    assert q is not None and all(c.is_zero() for row in q.rows for c in row)


def test_presented_from_linear_basis_cubic_diagonalization():
    # p = -q case: u, v, w with {u,v} = rho u v, rho = gamma q (1 - gamma)
    q = 1
    gamma = zeta(3)
    A = jacobian_pq(-q, q)
    vectors = [
        [1, 1, 1],
        [1, gamma, gamma * gamma],
        [1, gamma * gamma, gamma],
    ]
    p = presented_from_linear_basis(A, vectors, ["u", "v", "w"])
    skew = is_skew_presentation(p)
    assert skew is not None
    rho = gamma * q * (1 - gamma)
    assert skew.rows[0][1] == rho
    assert skew.rows[1][2] == rho
    assert skew.rows[2][0] == rho


def test_rigidity_cubic_qcase():
    A = jacobian_pq(0, 1)
    g = GradedMap(Matrix.diagonal([zeta(3), 1, 1]))
    rep = rigidity_report(A, group_closure([g]))
    assert rep.verdict == DISTINGUISHED and rep.witness == "unimodular"
    assert rep.ambient.unimodular and not rep.fixed.unimodular


def test_rigidity_qmatrix2():
    A = quantum_matrices(2)
    g = gmap([
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ])
    rep = rigidity_report(A, group_closure([g]), bound=2)
    assert rep.verdict == DISTINGUISHED and rep.witness == "derived_components"
    assert rep.ambient.derived_components == 3
    assert rep.fixed.derived_components == 2


def test_rigidity_homogenized_weyl():
    for n in (1, 2):
        H = homogenized_weyl(n)
        rows = Matrix.diagonal([1] * (2 * n) + [-1]).rows
        rep = rigidity_report(H, group_closure([gmap(rows)]), bound=2)
        assert rep.verdict == DISTINGUISHED and rep.witness == "center_gen_in_derived"
        assert rep.ambient.center_gen_in_derived is False
        assert rep.fixed.center_gen_in_derived is True


def test_rigidity_trivial_group():
    A = quantum_matrices(2)
    rep = rigidity_report(A, group_closure([gmap(Matrix.identity(4).rows)]), bound=2)
    assert rep.verdict == NOT_DISTINGUISHED and rep.witness is None


def test_fixed_group_generators_invariant():
    A = quantum_matrices(2)
    g = gmap([
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ])
    G = group_closure([g])
    p = fixed_group(A, G, bound=2)
    for e in p.expressions:
        for h in G.generators:
            assert e.apply_linear(h.matrix) == e


def test_fixed_group_nonabelian_reynolds_path():
    # S3 permuting three variables, zero bracket: elementary symmetric functions
    ring = PolyRing(["x", "y", "z"])
    Z = PoissonAlgebra(ring, {})
    swap = gmap([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    cycle = gmap([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    G = group_closure([swap, cycle])
    assert G.order == 6
    p = fixed_group(Z, G, bound=3)
    assert p.polynomial
    assert [str(e) for e in p.expressions] == ["x + y + z", "x*y + x*z + y*z", "x*y*z"]
    assert list(p.degrees) == [1, 2, 3]
    assert p.molien == hilbert_weighted([1, 2, 3])


def test_fixed_group_reynolds_path_degree_bound_too_small():
    # S3 permuting three variables needs x*y*z in degree 3; bound 2 stops short
    from pwb.errors import DegreeBoundTooSmallError
    ring = PolyRing(["x", "y", "z"])
    Z = PoissonAlgebra(ring, {})
    swap = gmap([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    cycle = gmap([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    G = group_closure([swap, cycle])
    assert G.diagonal is None
    with pytest.raises(DegreeBoundTooSmallError, match="first gap at degree 3") as info:
        fixed_group(Z, G, bound=2)
    assert info.value.degree == 3


def test_fixed_group_reynolds_path_without_relations():
    # the quaternion group Q8 on two variables: invariants are not free
    ring = PolyRing(["x", "y"])
    Z = PoissonAlgebra(ring, {})
    G = group_closure([GradedMap(Matrix.diagonal([zeta(4), zeta(4, 3)])),
                       gmap([[0, -1], [1, 0]])])
    assert G.order == 8 and G.diagonal is None
    p = fixed_group(Z, G, bound=6, with_relations=False)
    assert not p.polynomial and p.relations is None
    assert p.degrees == (4, 4, 6)
    assert [str(e) for e in p.expressions] == ["x^4 + y^4", "x^2*y^2", "x^5*y - x*y^5"]
    assert "relations not computed (non-polynomial presentation)" in p.diagnostics
    # canonical only selects among routes for diagonalizable groups
    q = fixed_group(Z, G, bound=6, canonical=False, with_relations=False)
    assert q.expressions == p.expressions and q.degrees == p.degrees


def test_fixed_group_commuting_reflections_in_one_block_diagonalize():
    # reflections of orders 2 and 4 at distinct positions of a 3-variable block,
    # conjugated by one base change: they commute and share an eigenbasis
    ring = PolyRing(["x", "y", "z"])
    Z = PoissonAlgebra(ring, {})
    S = Matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    gens = [GradedMap(S * Matrix.diagonal([zeta(m) if t == pos else 1 for t in range(3)])
                      * S.inverse()) for pos, m in ((0, 2), (1, 4))]
    G = group_closure(gens)
    T, logs = G.diagonal
    assert str(T) == "0 1 1\n1 1 0\n1 0 1"
    # characters (1, 1, -1) and (1, zeta4, 1), as logs modulo the exponent 4
    assert G.exponent == 4 and logs == [[0, 0, 2], [0, 1, 0]]
    p = fixed_group(Z, G, bound=4, canonical=False, with_relations=False)
    assert p.polynomial and sorted(p.degrees) == [1, 2, 4]


def zeta3_zeta4_pair():
    """Two commuting generators, diagonal in a base change over Q(zeta_3): the
    zeta_3-eigenspace of the first is split by the second."""
    S = Matrix([[1, zeta(3), 0], [0, 1, -1], [1, 0, 1]])
    return [GradedMap(S * Matrix.diagonal(d) * S.inverse())
            for d in ([zeta(3), zeta(3), 1], [zeta(4), -1, zeta(4)])]


def test_try_diagonalize_eigenbasis_and_characters_print_unchanged():
    # an entry of T prints at its least conductor, whatever it is stored at
    T, chars = symmetry._try_diagonalize(zeta3_zeta4_pair())
    assert T == Matrix([[0, zeta(3), 1], [-1, 1, 0], [1, 0, 1]])
    assert str(T) == "0 zeta(3) 1\n-1 1 0\n1 0 1"
    assert [[str(c) for c in row] for row in chars] == [["1", "zeta(3)", "zeta(3)"],
                                                        ["zeta(4)", "-1", "zeta(4)"]]


def test_try_diagonalize_takes_one_minimal_polynomial_per_generator(monkeypatch):
    calls = []
    minpoly = Matrix.minpoly_coeffs

    def counted(self):
        calls.append(self)
        return minpoly(self)

    monkeypatch.setattr(Matrix, "minpoly_coeffs", counted)
    gens = zeta3_zeta4_pair()
    # the generator orders and the eigenbasis share one eigenvalue computation
    G = group_closure(gens)
    assert G.diagonal is not None
    assert len(calls) <= len(gens)
    # the eigenvalues classify found are reused
    gens = zeta3_zeta4_pair()
    Z = PoissonAlgebra(PolyRing(["x", "y", "z"]), {})
    assert [symmetry.classify(Z, g).order for g in gens] == [3, 4]
    calls.clear()
    assert group_closure(gens).diagonal is not None
    assert calls == []


@pytest.mark.parametrize("bound", [0, 1])
def test_a_gap_far_past_the_bound_is_named(bound):
    # the invariants of diag(zeta7, zeta7) start in degree 7, far past the bound
    from pwb.errors import DegreeBoundTooSmallError
    Z = PoissonAlgebra(PolyRing(["x", "y"]), {})
    G = group_closure([GradedMap(Matrix.diagonal([zeta(7), zeta(7)]))])
    with pytest.raises(DegreeBoundTooSmallError, match="first gap at degree 7") as info:
        fixed_group(Z, G, bound=bound)
    assert info.value.degree == 7


def _skew5_with_two_zero_entries():
    zero = {(1, 2), (3, 4)}
    return skew_symmetric(Matrix([[0 if i == j or (min(i, j), max(i, j)) in zero
                                   else (1 if i < j else -1) for j in range(5)]
                                  for i in range(5)]))


@pytest.mark.parametrize("case", ["skew5_fixed", "skew5_report", "skew2_cubic", "zero_bracket",
                                  "zero_bracket_no_relations"])
def test_one_elimination_basis_per_fixed_ring(monkeypatch, case):
    # the bracket table and the relations read one tag elimination; a ring
    # whose induced brackets all vanish computes none
    calls = []
    original = solver.groebner_basis
    monkeypatch.setattr(solver, "groebner_basis",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    if case.startswith("skew5"):
        call = fixed_group if case == "skew5_fixed" else rigidity_report
        call(_skew5_with_two_zero_entries(),
             group_closure([GradedMap(Matrix.diagonal([-1, 1, 1, 1, 1]))]))
        assert len(calls) == 1
    elif case == "skew2_cubic":
        p = fixed_group(skew2(1), group_closure([gmap([[zeta(3), 0], [0, zeta(3, 2)]])]))
        assert not p.polynomial and [str(r) for r in p.relations] == ["g1^3 - g2*g3"]
        assert len(calls) == 1
    elif case == "zero_bracket":
        Z = PoissonAlgebra(PolyRing(["x", "y", "z"]), {})
        p = fixed_group(Z, group_closure([GradedMap(Matrix.diagonal([-1, 1, 1]))]))
        assert p.polynomial and not p.table and calls == []
    else:
        Z = PoissonAlgebra(PolyRing(["x", "y"]), {})
        p = fixed_group(Z, group_closure([gmap([[zeta(3), 0], [0, zeta(3, 2)]])]),
                        with_relations=False)
        assert not p.polynomial and p.relations is None and calls == []


def test_fixed_group_degree_bound_too_small():
    from pwb.errors import DegreeBoundTooSmallError
    A = skew2(1)
    g = GradedMap(Matrix.diagonal([zeta(5), 1]))
    with pytest.raises(DegreeBoundTooSmallError):
        fixed_group(A, group_closure([g]), bound=3)


@pytest.mark.parametrize("call", [fixed_group, rigidity_report])
def test_negative_bound_is_rejected_before_any_work(monkeypatch, call):
    from pwb.errors import DegreeBoundTooSmallError, InvalidDegreeError
    A = skew2(2)
    G = group_closure([GradedMap(Matrix.diagonal([zeta(3), 1]))])

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the bound was checked")

    with monkeypatch.context() as patched:
        for name in ("_fixed", "profile_algebra"):
            patched.setattr(fixedrings, name, no_work)
        with pytest.raises(InvalidDegreeError, match="degree bound -2 is negative"):
            call(A, G, bound=-2)
    # zero is a valid bound, if too small for this group: an honest gap
    with pytest.raises(DegreeBoundTooSmallError, match="first gap at degree 1"):
        call(A, G, bound=0)


def test_fixed_group_non_reflection_cyclic_diagonal():
    # diag(zeta3, zeta3^2) is order 3 but not a reflection; invariants need
    # the mixed product and the ring of invariants is not free
    ring = PolyRing(["x", "y"])
    Z = PoissonAlgebra(ring, {})
    g = gmap([[zeta(3), 0], [0, zeta(3, 2)]])
    p = fixed_group(Z, group_closure([g]), bound=3)
    assert not p.polynomial
    assert sorted(str(e) for e in p.expressions) == ["x*y", "x^3", "y^3"]
    assert p.relations and len(p.relations) == 1


def test_ph_lie_fixed_ring():
    A = ph_lie(lie_two_dim_nonabelian())
    m = 3
    g = gmap([[1, 0, 0], [0, zeta(m), 0], [0, 0, 1]])
    p = fixed_cyclic_reflection(A, g)
    assert p.polynomial
    assert sorted(str(e) for e in p.expressions) == ["x1", "x2^3", "z"]
    ix1 = p.expressions.index(A.ring.parse("x1"))
    ix2m = p.expressions.index(A.ring.parse("x2^3"))
    iz = p.expressions.index(A.ring.parse("z"))
    R = p.generator_ring
    expect = R.monomial(tuple((1 if t == ix2m else 0) + (1 if t == iz else 0)
                              for t in range(3)), m)
    assert p.entry(ix1, ix2m) == expect  # {x1, x2^m} = m x2^m z
    assert p.entry(ix1, iz).is_zero() and p.entry(ix2m, iz).is_zero()


# -- character arithmetic for diagonal groups ----------------------------------


@st.composite
def diagonal_groups(draw, orders=(1, 2, 3, 4, 6), max_generators=2, conjugated=st.just(True)):
    """(n, generator matrices): one to `max_generators` commuting diagonalizable
    generators of orders from `orders` on n = 1..4 variables, diagonal in the
    basis of a random rational S, or in the standard basis where `conjugated`
    draws False."""
    n = draw(st.integers(1, 4))
    diagonals = []
    for _ in range(draw(st.integers(1, max_generators))):
        order = draw(st.sampled_from(orders))
        diagonals.append([zeta(order, draw(st.integers(0, order - 1))) for _ in range(n)])
    if not draw(conjugated):
        return n, [Matrix.diagonal(d) for d in diagonals]
    entry = st.sampled_from([-1, 0, 1, 2])
    # unit lower times invertible upper triangular: always invertible
    lower = Matrix([[1 if i == j else draw(entry) if j < i else 0 for j in range(n)]
                    for i in range(n)])
    upper = Matrix([[draw(st.sampled_from([1, -1, 2])) if i == j else draw(entry) if j > i
                     else 0 for j in range(n)] for i in range(n)])
    S = lower * upper
    return n, [S * Matrix.diagonal(d) * S.inverse() for d in diagonals]


def _largest_diagonal_group():
    """Two commuting generators of orders 6 and 4 with independent characters
    on four variables (24 elements, exponent 12), in a rational base change:
    the largest group `diagonal_groups` draws."""
    S = (Matrix([[1, 0, 0, 0], [2, 1, 0, 0], [-1, 0, 1, 0], [0, 1, 2, 1]])
         * Matrix([[1, -1, 0, 2], [0, 2, 1, 0], [0, 0, -1, 1], [0, 0, 0, 1]]))
    return 4, [S * Matrix.diagonal(d) * S.inverse()
               for d in ([zeta(6), zeta(6, 5), zeta(3), 1], [zeta(4), 1, zeta(4, 3), -1])]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(diagonal_groups())
@example((3, [Matrix.identity(3)]))
@example(_largest_diagonal_group())
def test_character_molien_matches_charpoly_sum_and_brute_force(case):
    # the reference sums 1/det(1 - g t) over the oracle's own enumeration,
    # and the brute force reads the characters off T^-1 g T
    n, mats = case
    G = group_closure([GradedMap(m) for m in mats])
    diag = G.diagonal
    assert diag is not None
    T, logs = diag
    e = G.exponent
    T_inv = T.inverse()
    chars = []
    for m, row in zip(mats, logs):
        d = T_inv * m * T
        assert d == Matrix.diagonal([zeta(e, a) for a in row])
        chars.append([d.rows[j][j] for j in range(n)])
    series = _character_molien(logs, e)
    reference = oracle.molien_by_charpoly_sum([m.rows for m in mats])
    # the same normal form, so reports print the same series
    assert series.num == reference.num and series.den == reference.den
    degree = e + 2
    counts = oracle.invariant_monomial_counts(chars, n, degree)
    assert series.taylor(degree) == [Cyclo.of(c) for c in counts]


@st.composite
def character_column_groups(draw):
    """(n, generator matrices) on n = 1..5 variables whose character columns
    have order 1, order e and orders in between: column j gets an order o_j
    dividing e, with o_0 = e, and each generator the eigenvalue zeta_(o_j)^k
    there (the first generator k = 1 at every o_j > 1), conjugated by a
    random rational S unless it draws the standard basis."""
    e = draw(st.sampled_from((2, 4, 6, 12)))
    n = draw(st.integers(1, 5))
    divisors = [d for d in range(1, e + 1) if e % d == 0]
    orders = [e] + [draw(st.sampled_from(divisors)) for _ in range(n - 1)]
    diagonals = [[zeta(o) for o in orders]]
    for _ in range(draw(st.integers(0, 1))):
        diagonals.append([zeta(o, draw(st.integers(0, o - 1))) for o in orders])
    mats = [Matrix.diagonal(d) for d in diagonals]
    if draw(st.booleans()):
        return n, mats
    entry = st.sampled_from([-1, 0, 1, 2])
    lower = Matrix([[1 if i == j else draw(entry) if j < i else 0 for j in range(n)]
                    for i in range(n)])
    upper = Matrix([[draw(st.sampled_from([1, -1, 2])) if i == j else draw(entry) if j > i
                     else 0 for j in range(n)] for i in range(n)])
    S = lower * upper
    return n, [S * m * S.inverse() for m in mats]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(character_column_groups())
@example((5, [Matrix.diagonal([zeta(12), 1, zeta(4), zeta(6), zeta(12, 5)])]))
def test_character_molien_box_matches_the_charpoly_sum(case):
    # counted in the box prod [0, o_j) of the character orders: the same
    # normal form, and the same print, as counting in [0, e)^n and, for a
    # group of at most 48 elements, as summing 1/det(1 - g t) over them
    n, mats = case
    G = group_closure([GradedMap(m) for m in mats])
    T, logs = G.diagonal
    orders = symmetry._character_orders(logs, G.exponent)
    assert len(orders) == n and max(orders) == G.exponent
    series = _character_molien(logs, G.exponent)
    references = [oracle.cube_character_molien(logs, G.exponent, n)]
    if G.order <= 48:
        references.append(oracle.molien_by_charpoly_sum([m.rows for m in mats]))
    for reference in references:
        assert series.num == reference.num and series.den == reference.den
        assert str(series) == str(reference)


def test_character_column_groups_reach_every_column_order():
    # columns of order 1, of order e and in between all occur
    kinds = set()

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(character_column_groups())
    def record(case):
        G = group_closure([GradedMap(m) for m in case[1]])
        for o in symmetry._character_orders(G.diagonal[1], G.exponent):
            kinds.add("1" if o == 1 else "e" if o == G.exponent else "between")

    record()
    assert kinds == {"1", "e", "between"}


def test_abelian_certification_multiplies_no_upoly(monkeypatch):
    # the Molien series, the free product and their comparison run on ints
    # and on the normal form: no UPoly product in the whole fixed ring, free
    # or not
    from pwb.upoly import UPoly
    calls = []
    mul = UPoly.__mul__
    monkeypatch.setattr(UPoly, "__mul__", lambda p, q: calls.append(1) or mul(p, q))
    A = skew_symmetric(Matrix([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]))
    free = fixed_group(A, group_closure([gmap(Matrix.diagonal([zeta(4), 1, 1]).rows)]))
    signs = group_closure([gmap(Matrix.diagonal([-1, -1, 1]).rows)])
    relations = fixed_group(A, signs, bound=2, canonical=False, with_relations=False)
    assert free.polynomial and not relations.polynomial
    assert calls == []


def test_character_logs_reject_a_non_root_of_unity():
    from pwb.errors import InfiniteOrderError
    with pytest.raises(InfiniteOrderError, match="eigenvalue 2 is not a root of unity"):
        _character_logs([[Cyclo.of(1), Cyclo.of(2)]])


def test_diagonal_route_uses_only_character_arithmetic(monkeypatch):
    calls: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    A = skew_symmetric(Matrix([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]), names=["x", "y", "z"])
    S = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    diagonal = group_closure([gmap(Matrix.diagonal([zeta(6), 1, 1]).rows)])
    Z = PoissonAlgebra(PolyRing(["x", "y", "z"]), {})
    conjugated = group_closure([GradedMap(S * Matrix.diagonal([zeta(3), zeta(3, 2), 1])
                                          * S.inverse())])
    swap = group_closure([gmap([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                          gmap([[0, 0, 1], [0, 1, 0], [1, 0, 0]])])
    monkeypatch.setattr(symmetry, "trace_series", counted("trace", symmetry.trace_series))
    monkeypatch.setattr(Cyclo, "__pow__", counted("pow", Cyclo.__pow__))
    for canonical in (True, False):
        assert fixed_group(A, diagonal, canonical=canonical).polynomial
        assert not fixed_group(Z, conjugated, bound=3, canonical=canonical).polynomial
    assert calls == Counter()
    # the Reynolds route (S3 does not diagonalize) still takes the charpoly
    # sum, one trace series per element
    fixed_group(Z, swap, bound=3)
    assert calls["trace"] == 6


# -- generator selection against the Poly echelon ------------------------------


def _printed(chosen):
    return [(str(p), k) for p, k in chosen]


def _assert_generators_match_poly_echelon(bases, reference_bases, d):
    chosen = fixedrings._canonical_generators(bases)
    assert _printed(chosen) == _printed(oracle.poly_echelon_generators(reference_bases, d))
    for p, _ in chosen:
        assert p.leading()[1].is_one()


def _every_degree_reference(ring, G, d):
    """The generators the Poly echelon picks from every invariant eigenbasis
    monomial at every degree up to d."""
    T, logs = G.diagonal
    return oracle.poly_echelon_generators(oracle.diagonal_bases(ring, T, logs, G.exponent, d), d)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(diagonal_groups())
@example((3, [g.matrix for g in zeta3_zeta4_pair()]))
@example(_largest_diagonal_group())
def test_canonical_generators_match_the_poly_echelon(case):
    # in a rational or Q(zeta_3) eigenbasis, pwb reduces the expanded monoid
    # generators alone, at their degrees; the reference every invariant
    # monomial at every degree up to d
    n, mats = case
    G = group_closure([GradedMap(m) for m in mats])
    d = min(G.exponent, 6)
    Z = PoissonAlgebra(PolyRing([f"x{i}" for i in range(n)]), {})
    p = fixed_group(Z, G, bound=d, with_relations=False)
    assert list(zip(map(str, p.expressions), p.degrees)) == _printed(
        _every_degree_reference(Z.ring, G, d))
    assert all(g.leading()[1].is_one() for g in p.expressions)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(diagonal_groups())
@example((3, [g.matrix for g in zeta3_zeta4_pair()]))
@example(_largest_diagonal_group())
def test_canonical_fixed_ring_matches_the_every_degree_reference(case):
    # the report of a conjugated abelian group equals the one written on the
    # reference pipeline's generators: every invariant monomial at every
    # degree, reduced against the recursively formed products in a Poly echelon
    n, mats = case
    G = group_closure([GradedMap(m) for m in mats])
    d = min(2 * G.exponent, 6)
    Z = PoissonAlgebra(PolyRing([f"x{i}" for i in range(n)]), {})
    got = presented_json(fixed_group(Z, G, bound=d, with_relations=False))
    reference = _every_degree_reference(Z.ring, G, d)
    with patch.object(fixedrings, "_canonical_generators", lambda bases: reference):
        assert got == presented_json(fixed_group(Z, G, bound=d, with_relations=False))


def test_canonical_route_reduces_only_where_a_generator_is_new(monkeypatch):
    # diag(zeta6, 1, 1, 1, 1) at the default bound 12: the monoid generators
    # are y2..y5 and y1^6, so products of chosen generators (the weighted
    # monomials of the generator ring) are formed at degrees 1 and 6 only
    degrees = []
    monomials = PolyRing.monomials_of_degree

    def recorded(ring, k, weights=None):
        if weights is not None:
            degrees.append(k)
        return monomials(ring, k, weights)

    monkeypatch.setattr(PolyRing, "monomials_of_degree", recorded)
    G = group_closure([GradedMap(Matrix.diagonal([zeta(6), 1, 1, 1, 1]))])
    p = fixed_group(_skew5_with_two_zero_entries(), G)
    assert p.polynomial and sorted(p.degrees) == [1, 1, 1, 1, 6]
    assert degrees == [1, 6]


@pytest.mark.parametrize("rows", [
    # S3 permuting three variables, and S3 acting on Q(zeta_3)^2 by a swap and
    # diag(zeta_3, zeta_3^2): Reynolds averages, rational and cyclotomic
    [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]]],
    [[[0, 1], [1, 0]], [[zeta(3), 0], [0, zeta(3, 2)]]],
])
def test_canonical_generators_of_reynolds_bases_match_the_poly_echelon(rows):
    G = group_closure([gmap(r) for r in rows])
    ring = PolyRing([f"x{i}" for i in range(len(rows[0]))])
    bases = fixedrings._reynolds_bases(ring, G, 6)
    _assert_generators_match_poly_echelon(bases, bases, 6)


# -- the bounded invariant-monoid search against the full enumeration ----------


def test_monoid_generators_match_the_full_enumeration():
    # the oracle works degree by degree, so its list at d = 12 cut at degree d
    # is its list at d
    rng = random.Random(20260809)
    for n in range(1, 6):
        ring = PolyRing([f"x{i}" for i in range(n)])
        for e in (1, 2, 3, 4, 6, 12):
            for rows in (1, 2, 3):
                logs = [[rng.randrange(e) for _ in range(n)] for _ in range(rows)]
                every = oracle.enumerated_monoid_generators(ring, logs, e, 12)
                for d in range(13):
                    assert (fixedrings._monoid_generators(ring, logs, e, d)
                            == [x for x in every if sum(x) <= d]), (n, e, logs, d)


def test_monoid_generators_enumerate_no_monomials(monkeypatch):
    # diag(zeta6, 1, 1, 1, 1) at d = 12: only the box x_1 < 6 and y1^6 are searched
    def refused(*args):
        raise AssertionError("monomials_of_degree called")

    monkeypatch.setattr(PolyRing, "monomials_of_degree", refused)
    ring = PolyRing([f"x{i}" for i in range(5)])
    e, logs = _character_logs([[zeta(6), Cyclo.of(1), Cyclo.of(1), Cyclo.of(1), Cyclo.of(1)]])
    assert fixedrings._monoid_generators(ring, logs, e, 12) == [
        (0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 0, 1, 0, 0), (0, 1, 0, 0, 0), (6, 0, 0, 0, 0)]


def test_a_profile_finds_its_minimal_primes_once(monkeypatch):
    # derived_components and component_summary share one components() call
    calls = []
    primes = DerivedIdeal.minimal_primes
    monkeypatch.setattr(DerivedIdeal, "minimal_primes",
                        lambda self: calls.append(self) or primes(self))
    q = Matrix([[0, 1, 2, -1, 3], [-1, 0, 1, 2, -2], [-2, -1, 0, 1, 1],
                [1, -2, -1, 0, 2], [-3, 2, -1, -2, 0]])
    A = skew_symmetric(q)
    rep = rigidity_report(A, group_closure([GradedMap(Matrix.diagonal([-1, 1, 1, 1, 1]))]))
    assert rep.ambient.derived_monomial and rep.fixed.derived_monomial
    assert len(calls) == 2
