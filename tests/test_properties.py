"""Cross-module property tests tied to the structural invariants."""
import random

import oracle
from pwb.families import homogenized_weyl, jacobian_pq, quantum_matrices, skew_symmetric
from pwb.fixedrings import fixed_cyclic_reflection, fixed_group
from pwb.linalg import Matrix
from pwb.rings import PolyRing
from pwb.scalars import Cyclo, zeta
from pwb.series import RationalSeries, hilbert_weighted
from pwb.solver import (SUBSPACE, groebner_basis, normal_form, subalgebra_member,
                        solve_projective)
from pwb.symmetry import (REFLECTION, GradedMap, block_decomposition, classify,
                          find_reflections, group_closure, is_poisson_automorphism,
                          molien_series, trace_series)


def test_solve_projective_matches_gaussian_on_linear_systems():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        ring = PolyRing([f"m{i+1}" for i in range(n)])
        rows = [[rng.choice([-2, -1, 0, 1, 2]) for _ in range(n)]
                for _ in range(rng.choice([1, 2, 3]))]
        gens = [ring.linear_form(r) for r in rows]
        gens = [g for g in gens if not g.is_zero()]
        res = solve_projective(gens, ring)
        kernel = Matrix([[Cyclo.of(x) for x in r] for r in rows]).kernel_basis() \
            if rows else []
        dim = len(kernel)
        if not gens:
            assert res.kind == SUBSPACE and len(res.basis) == n
        elif dim == 0:
            assert res.kind == "empty"
        else:
            assert res.kind == SUBSPACE and len(res.basis) == dim


def test_reflection_trace_shape():
    # classify == reflection implies the trace series has the reflection shape
    cases = [
        GradedMap(Matrix.diagonal([zeta(3), 1, 1])),
        GradedMap(Matrix([[1, 0, 0], [0, 0, 2], [0, Cyclo.of(1) / 2, 0]])),
        GradedMap(Matrix([[1, 0, 0], [0, 1, 0], [3, 0, -1]])),
    ]
    Z = skew_symmetric(Matrix.zero(3, 3), names=["x", "y", "z"])
    for g in cases:
        cls = classify(Z, g)
        assert cls.kind == REFLECTION
        expect = RationalSeries.one_over([cls.xi, Cyclo.of(1), Cyclo.of(1)])
        assert trace_series(g) == expect


def test_found_reflections_have_normal_eigenvectors():
    for A in [quantum_matrices(2), homogenized_weyl(1), jacobian_pq(0, 1)]:
        rep = find_reflections(A)
        for fam in rep.families:
            for g in fam.samples:
                cls = classify(A, g)
                assert cls.kind == REFLECTION
                u = A.ring.linear_form(list(cls.eigenvector))
                assert oracle.normal_check(A, u) is not None


def test_skew_reflections_respect_blocks():
    # a Poisson reflection of a skew algebra acts inside one block
    q = Matrix([[0, 0, 1], [0, 0, 1], [-1, -1, 0]])
    A = skew_symmetric(q)
    blocks = block_decomposition(q)
    assert blocks == [[0, 1], [2]]
    rep = find_reflections(A)
    for fam in rep.families:
        for g in fam.samples:
            delta = g.matrix - Matrix.identity(3)
            moved = {i for i in range(3)
                     if any(not delta.rows[j][i].is_zero() for j in range(3))
                     or any(not delta.rows[i][j].is_zero() for j in range(3))}
            assert any(moved <= set(b) for b in blocks)
    # mixing the blocks breaks the bracket: swap x1 and x3
    mix = GradedMap(Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]]))
    ok, _ = is_poisson_automorphism(A, mix)
    assert not ok


def test_molien_of_eigenbasis_reflection_is_weighted_free_series():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.choice([2, 3])
        m = rng.choice([2, 3, 4])
        Z = skew_symmetric(Matrix.zero(n, n))
        S = None
        while S is None or S.det().is_zero():
            S = Matrix([[rng.choice([-1, 0, 1, 2]) for _ in range(n)] for _ in range(n)])
        g = GradedMap(S * Matrix.diagonal([zeta(m)] + [1] * (n - 1)) * S.inverse())
        assert classify(Z, g).kind == REFLECTION
        G = group_closure([g])
        assert molien_series(G) == hilbert_weighted([m] + [1] * (n - 1))


def test_cyclic_fixed_ring_agrees_with_group_fixed_ring():
    A = quantum_matrices(2)
    g = GradedMap(Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]))
    p1 = fixed_cyclic_reflection(A, g)
    p2 = fixed_group(A, group_closure([g]), bound=2)
    assert sorted(p1.degrees) == sorted(p2.degrees)
    assert p1.molien == p2.molien
    # same subalgebra: each generator set expresses the other
    for e in p1.expressions:
        assert subalgebra_member(e, list(p2.expressions)) is not None
    for e in p2.expressions:
        assert subalgebra_member(e, list(p1.expressions)) is not None


def test_irrational_normal_directions_reported_honestly():
    # {x,y} = x^2 - 2y^2: the normal lines are x + sqrt(2) y and x - sqrt(2) y,
    # which are not cyclotomic; the solver must refuse to enumerate them
    from pwb.brackets import PoissonAlgebra
    from pwb.symmetry import INCONCLUSIVE
    ring = PolyRing(["x", "y"])
    A = PoissonAlgebra(ring, {(0, 1): ring.parse("x^2 - 2*y^2")}, check_jacobi=False)
    res = A.normal_find_deg1()
    assert res.kind == "ideal"
    assert res.generators  # the unresolved conditions are carried along
    assert find_reflections(A).status == INCONCLUSIVE


def test_normal_find_matches_pointwise_normal_check():
    # random degree-one directions: membership in the solution set agrees with
    # the direct divisibility test
    rng = random.Random(23)
    algebras = [jacobian_pq(-1, 1), quantum_matrices(2), homogenized_weyl(1)]
    values = [Cyclo.of(0), Cyclo.of(1), Cyclo.of(-1), Cyclo.of(2), zeta(3)]
    for A in algebras:
        res = A.normal_find_deg1()
        for _ in range(12):
            vec = [values[rng.randrange(len(values))] for _ in range(A.nvars)]
            if all(c.is_zero() for c in vec):
                continue
            u = A.ring.linear_form(vec)
            direct = oracle.normal_check(A, u) is not None
            if res.kind == "points":
                member = any(_proportional(vec, list(p)) for p in res.points)
            elif res.kind == "subspace":
                rows = [list(b) for b in res.basis] + [vec]
                member = Matrix(rows).rank() == len(res.basis)
            else:
                continue
            assert direct == member, f"{A.ring.names}: {u}"


def _proportional(a, b):
    # a = c * b for some nonzero scalar c
    pivot = next((i for i, x in enumerate(b) if not x.is_zero()), None)
    if pivot is None or a[pivot].is_zero():
        return all(x.is_zero() for x in a) and all(x.is_zero() for x in b)
    c = a[pivot] * b[pivot].inverse()
    return all(x == c * y for x, y in zip(a, b))


def test_normal_check_derivations_are_poisson():
    for A in [jacobian_pq(0, 1), quantum_matrices(2), homogenized_weyl(2)]:
        res = A.normal_find_deg1()
        vectors = [list(p) for p in res.points] if res.kind == "points" \
            else [list(b) for b in res.basis]
        for v in vectors:
            pi = oracle.normal_check(A, A.ring.linear_form(v))
            assert pi is not None and oracle.derivation_is_poisson(pi)


def test_fixed_ring_brackets_evaluate_back_to_ambient():
    # evaluating the induced table at the generator expressions reproduces
    # the ambient bracket of the expressions
    A = quantum_matrices(2)
    g = GradedMap(Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]))
    p = fixed_group(A, group_closure([g]), bound=2)
    exprs = list(p.expressions)
    for (i, j), entry in p.table.items():
        evaluated = entry.substitute(exprs, A.ring)
        assert evaluated == A.bracket(exprs[i], exprs[j])


def test_quadratic_only_guards():
    import pytest
    from pwb.errors import NotQuadraticError
    from pwb.families import weyl
    P = weyl(1)
    with pytest.raises(NotQuadraticError):
        P.normal_find_deg1()
    with pytest.raises(NotQuadraticError):
        find_reflections(P)


def test_group_closure_bound_guard():
    import pytest
    from pwb.errors import BoundExceededError
    shear = GradedMap(Matrix([[1, 1], [0, 1]]))
    with pytest.raises(BoundExceededError):
        group_closure([shear], bound=16)


def test_envelope_extension_of_shear_reflection():
    from pwb.envelope import envelope_extend
    H = homogenized_weyl(1)
    g = GradedMap(Matrix([[1, 0, 0], [0, 1, 0], [4, 0, -1]]))  # x -> x + 4z, z -> -z
    assert classify(H, g).kind == REFLECTION
    ext = envelope_extend(H, g)
    assert ext.relations_preserved


def test_jacobi_identity_on_random_polynomials():
    # the extended bracket must satisfy Jacobi on arbitrary elements, not just
    # generators, whenever the generator check passes
    rng = random.Random(31)
    algebras = [jacobian_pq(-1, 1), quantum_matrices(2), homogenized_weyl(1),
                skew_symmetric(Matrix([[0, zeta(3)], [-zeta(3), 0]]))]
    for A in algebras:
        ring = A.ring
        monos = ring.monomials_of_degree(1) + ring.monomials_of_degree(2)

        def random_poly():
            out = ring.zero()
            for _ in range(rng.randrange(1, 4)):
                c = rng.choice([-2, -1, 1, 2])
                out = out + ring.monomial(monos[rng.randrange(len(monos))], c)
            return out

        for _ in range(6):
            f, g, h = random_poly(), random_poly(), random_poly()
            total = (A.bracket(f, A.bracket(g, h))
                     + A.bracket(g, A.bracket(h, f))
                     + A.bracket(h, A.bracket(f, g)))
            assert total.is_zero()


def test_fixed_ring_two_generator_group_consistency():
    # order-four abelian group on the matrix algebra: no frozen values, only
    # structural consistency of the output
    A = quantum_matrices(2)
    swap = GradedMap(Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]))
    signs = GradedMap(Matrix.diagonal([1, -1, -1, 1]))
    ok, _ = is_poisson_automorphism(A, signs)
    assert ok
    G = group_closure([swap, signs])
    assert G.order == 4
    p = fixed_group(A, G, bound=4)
    assert p.polynomial == (p.molien == hilbert_weighted(p.degrees))
    for e in p.expressions:
        for h in G.generators:
            assert e.apply_linear(h.matrix) == e
    for (i, j), entry in p.table.items():
        assert entry.substitute(list(p.expressions), A.ring) == \
            A.bracket(p.expressions[i], p.expressions[j])


def test_groebner_membership_matches_degreewise_linear_algebra():
    # homogeneous membership is decidable by plain linear algebra; the
    # Groebner answer must agree on random small instances
    rng = random.Random(41)
    ring = PolyRing(["x", "y", "z"])

    def random_homogeneous(deg):
        monos = ring.monomials_of_degree(deg)
        out = ring.zero()
        for _ in range(rng.randrange(1, 4)):
            out = out + ring.monomial(monos[rng.randrange(len(monos))],
                                      rng.choice([-2, -1, 1, 2, 3]))
        return out

    for _ in range(20):
        gens = [random_homogeneous(rng.choice([1, 2])) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        d = rng.choice([2, 3])
        f = random_homogeneous(d)
        monos = ring.monomials_of_degree(d)
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for g in gens:
            gdeg = g.total_degree()
            if gdeg > d:
                continue
            for m in ring.monomials_of_degree(d - gdeg):
                prod = ring.monomial(m) * g
                row = [Cyclo.of(0)] * len(monos)
                for e, c in prod.terms.items():
                    row[index[e]] = c
                rows.append(row)
        frow = [Cyclo.of(0)] * len(monos)
        for e, c in f.terms.items():
            frow[index[e]] = c
        base_rank = Matrix(rows).rank() if rows else 0
        with_f = Matrix(rows + [frow]).rank() if rows else Matrix([frow]).rank()
        la_member = with_f == base_rank
        assert normal_form(f, groebner_basis(gens)).is_zero() == la_member


def test_trace_series_matches_direct_monomial_traces():
    # trace on the degree-k component, summed directly over the monomial basis
    ring = PolyRing(["x", "y", "z"])
    maps = [
        GradedMap(Matrix.diagonal([zeta(3), 1, -1])),
        GradedMap(Matrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])),
        GradedMap(Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])),
        GradedMap(Matrix([[1, 0, 0], [2, 1, 0], [0, 0, -1]])),
    ]
    for g in maps:
        taylor = trace_series(g).taylor(4)
        for k in range(5):
            total = Cyclo.of(0)
            for m in ring.monomials_of_degree(k):
                image = ring.monomial(m).apply_linear(g.matrix)
                total = total + image.coefficient(m)
            assert total == taylor[k], f"degree {k} of {g.matrix!r}"


def test_reports_are_deterministic():
    reports = []
    for _ in range(2):
        A = quantum_matrices(2)
        rep = find_reflections(A)
        reports.append((rep.status,
                        tuple((str(f.xi), f.xi_free, f.relations and
                               tuple(str(r) for r in f.relations)) for f in rep.families),
                        tuple(str(g.matrix) for f in rep.families for g in f.samples)))
    assert reports[0] == reports[1]
