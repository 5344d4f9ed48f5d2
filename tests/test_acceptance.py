"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each test prints one pass line; run with `pytest tests/test_acceptance.py -v -s`
to see the table.  All comparisons are exact (symbolic arithmetic).
"""
from __future__ import annotations

import random
from fractions import Fraction

from pwb.brackets import PoissonAlgebra
from pwb.envelope import envelope_dims, envelope_trace
from pwb.families import (homogenized_weyl, jacobian_pq, lie_one_dim_ideals,
                          lie_two_dim_nonabelian, ph_lie, quantum_matrices,
                          skew_symmetric, sl2)
from pwb.fixedrings import (DISTINGUISHED, fixed_cyclic_reflection,
                            fixed_group, is_skew_presentation, presented_from_linear_basis,
                            rigidity_report)
from pwb.linalg import Matrix
from pwb.rings import PolyRing
from pwb.scalars import Cyclo, zeta
from pwb.series import hilbert_free, hilbert_weighted
from pwb.solver import EMPTY, POINTS, SUBSPACE
from pwb.symmetry import (FOUND, NO_REFLECTIONS, REFLECTION, GradedMap, classify,
                          find_reflections, group_closure, trace_series)

import oracle


def _passed(n: int, label: str):
    print(f"ACCEPTANCE {n:>2} ({label}): PASS")


def _gmap(rows) -> GradedMap:
    return GradedMap(Matrix(rows))


def _mono(ring: PolyRing, idx_counts: dict, coeff=1):
    e = [0] * ring.nvars
    for i, k in idx_counts.items():
        e[i] += k
    return ring.monomial(tuple(e), coeff)


# -- criterion 1 ----------------------------------------------------------------


def test_criterion_1_cubic_p_only():
    A = jacobian_pq(1, 0)
    assert A.normal_find_deg1().kind == EMPTY
    assert find_reflections(A).status == NO_REFLECTIONS
    _passed(1, "cubic potential p-term only: no normal lines, no reflections")


# -- criterion 2 ----------------------------------------------------------------


def test_criterion_2_cubic_q_only_fixed_ring():
    A = jacobian_pq(0, 1)
    g = _gmap(Matrix.diagonal([zeta(3), 1, 1]).rows)
    p = fixed_cyclic_reflection(A, g)
    iX = p.degrees.index(3)
    iy = p.expressions.index(A.ring.parse("y"))
    iz = p.expressions.index(A.ring.parse("z"))
    R = p.generator_ring
    assert p.entry(iX, iy) == _mono(R, {iX: 1, iy: 1}, 3)
    assert p.entry(iy, iz) == _mono(R, {iy: 1, iz: 1}, 1)
    assert p.entry(iz, iX) == _mono(R, {iz: 1, iX: 1}, 3)
    B = p.as_algebra()
    phi = B.modular_derivation()
    assert phi.images[iX].is_zero()
    assert phi.images[iy] == -2 * R.var(iy)
    assert phi.images[iz] == 2 * R.var(iz)
    assert A.is_unimodular() and not B.is_unimodular()
    _passed(2, "cyclic fixed ring brackets, modular derivation, unimodularity flip")


# -- criterion 3 ----------------------------------------------------------------


def test_criterion_3_normal_lines_and_diagonalization():
    g3 = zeta(3)
    res = jacobian_pq(-1, 1).normal_find_deg1()
    assert res.kind == POINTS and len(res.points) == 3
    expected = [(1, 1, 1), (1, g3, g3 * g3), (1, g3 * g3, g3)]
    for want in expected:
        assert any(all(Cyclo.of(a) == b for a, b in zip(want, p)) for p in res.points)
    om = zeta(3)
    res = jacobian_pq(-om, 1).normal_find_deg1()
    assert res.kind == POINTS and len(res.points) == 3
    expected = [(1, om, om), (1, 1, om * om), (1, om * om, 1)]
    for want in expected:
        assert any(all(Cyclo.of(a) == b for a, b in zip(want, p)) for p in res.points)
    # change of basis to u, v, w: skew presentation with rho = gamma q (1 - gamma)
    for q in (1, 2):
        A = jacobian_pq(-q, q)
        p = presented_from_linear_basis(
            A, [[1, 1, 1], [1, g3, g3 * g3], [1, g3 * g3, g3]], ["u", "v", "w"])
        skew = is_skew_presentation(p)
        assert skew is not None
        rho = g3 * q * (1 - g3)
        assert skew.rows[0][1] == rho
        assert skew.rows[1][2] == rho
        assert skew.rows[2][0] == rho
    _passed(3, "cubic normal lines exact; u,v,w diagonalization is skew with rho")


# -- criterion 4 ----------------------------------------------------------------


def test_criterion_4_matrix_normal_and_reflections():
    A2 = quantum_matrices(2)
    r2 = A2.normal_find_deg1()
    assert r2.kind == SUBSPACE
    assert [[str(c) for c in b] for b in r2.basis] == \
        [["0", "1", "0", "0"], ["0", "0", "1", "0"]]
    A3 = quantum_matrices(3)
    r3 = A3.normal_find_deg1()
    corner = {A3.ring.index("x1_3"), A3.ring.index("x3_1")}
    # every normal element has the corner form; here exactly the two corner lines survive
    assert r3.kind == POINTS and len(r3.points) == 2
    for p in r3.points:
        support = {i for i, c in enumerate(p) if not c.is_zero()}
        assert support <= corner and len(support) == 1
    assert find_reflections(A3).status == NO_REFLECTIONS
    rep = find_reflections(A2)
    assert rep.status == FOUND
    fams = [f for f in rep.families if f.samples]
    assert fams and all(f.xi == -1 and not f.xi_free for f in fams)
    ib, ic = A2.ring.index("b"), A2.ring.index("c")
    for fam in fams:
        for g in fam.samples:
            cls = classify(A2, g)
            assert cls.kind == REFLECTION and cls.xi == -1
            m = g.matrix
            assert m.column(0) == Matrix.identity(4).column(0)
            assert m.column(3) == Matrix.identity(4).column(3)
            # b -> mu c and c -> mu^{-1} b
            bcol, ccol = m.column(ib), m.column(ic)
            mu = bcol[ic]
            assert not mu.is_zero() and bcol[ib].is_zero()
            assert ccol[ib] == mu.inverse() and ccol[ic].is_zero()
    _passed(4, "matrix algebra normal elements (n=2,3); reflections: none for n=3, swap family for n=2")


# -- criterion 5 ----------------------------------------------------------------


def test_criterion_5_matrix_fixed_ring_and_rigidity():
    A = quantum_matrices(2)
    for mu_val in (1, 3):
        mu = Cyclo.of(mu_val)
        g = _gmap([[1, 0, 0, 0],
                   [0, 0, mu.inverse(), 0],
                   [0, mu, 0, 0],
                   [0, 0, 0, 1]])
        G = group_closure([g])
        p = fixed_group(A, G, bound=2)
        assert p.polynomial and list(p.degrees) == [1, 1, 1, 2]
        assert p.expressions[0] == A.ring.parse("a")
        assert p.expressions[1] == A.ring.parse(f"b + {mu_val}*c") if mu_val != 1 \
            else p.expressions[1] == A.ring.parse("b + c")
        assert p.expressions[2] == A.ring.parse("d")
        assert p.expressions[3] == A.ring.parse("b*c")
        R = p.generator_ring
        a_, s_, d_, w_ = R.gens()
        assert p.entry(0, 1) == a_ * s_
        assert p.entry(0, 3) == 2 * a_ * w_
        assert p.entry(0, 2) == 2 * w_
        assert p.entry(1, 2) == s_ * d_
        assert p.entry(3, 2) == 2 * w_ * d_
        assert p.entry(1, 3).is_zero()
        rep = rigidity_report(A, G, bound=2)
        assert rep.verdict == DISTINGUISHED
        assert rep.ambient.derived_components == 3
        assert rep.fixed.derived_components == 2
    _passed(5, "matrix n=2 fixed ring generators/brackets; rigidity 3 vs 2 components")


# -- criterion 6 ----------------------------------------------------------------


def test_criterion_6_homogenized_weyl():
    for n in (1, 2):
        H = homogenized_weyl(n)
        center = H.center_truncated(3)
        assert [len(b) for b in center] == [1, 1, 1, 1]
        zvar = H.ring.var(2 * n)
        assert center[1][0] == zvar
        assert center[2][0] == H.ring.monomial((0,) * (2 * n) + (2,))
        assert center[3][0] == H.ring.monomial((0,) * (2 * n) + (3,))
        rep = find_reflections(H)
        assert rep.status == FOUND and len(rep.families) == 1
        fam = rep.families[0]
        assert fam.xi == -1 and not fam.xi_free
        direction = [Cyclo.of(0)] * (2 * n) + [Cyclo.of(1)]
        assert [str(d) for d in fam.direction] == [str(c) for c in direction]
        for g in fam.samples:
            assert g.matrix.column(2 * n)[2 * n] == -1  # g(z) = -z
        g = _gmap(Matrix.diagonal([1] * (2 * n) + [-1]).rows)
        p = fixed_cyclic_reflection(H, g)
        iw = p.degrees.index(2)
        assert p.expressions[iw] == H.ring.parse("z^2")
        R = p.generator_ring
        for i in range(n):
            ix = p.expressions.index(H.ring.parse(f"x{i+1}"))
            for j in range(n):
                iy = p.expressions.index(H.ring.parse(f"y{j+1}"))
                expected = R.var(iw) if i == j else R.zero()
                assert p.entry(ix, iy) == expected
        rep = rigidity_report(H, group_closure([g]), bound=2)
        assert rep.verdict == DISTINGUISHED and rep.witness == "center_gen_in_derived"
    _passed(6, "homogenized Weyl center, reflections g(z)=-z, fixed bracket, rigidity")


# -- criterion 7 ----------------------------------------------------------------

_SCALARS = [0, 1, -1, None, None]  # None slots filled with zeta(3) values lazily


def _random_skew(rng: random.Random, n: int) -> Matrix:
    vals = [Cyclo.of(0), Cyclo.of(1), Cyclo.of(-1), zeta(3), -zeta(3)]
    rows = [[Cyclo.of(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = vals[rng.randrange(len(vals))]
            rows[i][j] = v
            rows[j][i] = -v
    return Matrix(rows)


def _random_invertible(rng: random.Random, k: int) -> Matrix:
    while True:
        rows = [[Cyclo.of(rng.choice([-1, 0, 1, 2])) for _ in range(k)] for _ in range(k)]
        m = Matrix(rows)
        if not m.det().is_zero():
            return m


def _block_reflection(n: int, block: list[int], S: Matrix, pos: int, order: int) -> GradedMap:
    k = len(block)
    d = Matrix.diagonal([zeta(order) if t == pos else 1 for t in range(k)])
    local = S * d * S.inverse()
    rows = [[Cyclo.of(1) if r == c else Cyclo.of(0) for c in range(n)] for r in range(n)]
    for a, ia in enumerate(block):
        for b, ib in enumerate(block):
            rows[ia][ib] = local.rows[a][b]
    return GradedMap(Matrix(rows))


def test_criterion_7_skew_fixed_ring_property():
    rng = random.Random(20260809)
    positive = 0
    while positive < 200:
        n = rng.choice([2, 3, 4])
        q = _random_skew(rng, n)
        A = skew_symmetric(q)
        from pwb.symmetry import block_decomposition
        blocks = block_decomposition(q)
        block = blocks[rng.randrange(len(blocks))]
        S = _random_invertible(rng, len(block))
        nrefl = rng.choice([1, 2])
        gens = []
        for _ in range(nrefl):
            pos = rng.randrange(len(block))
            order = rng.choice([2, 3, 4])
            g = _block_reflection(n, block, S, pos, order)
            assert classify(A, g).kind == REFLECTION
            gens.append(g)
        G = group_closure(gens)
        p = fixed_group(A, G, bound=max(2, G.exponent), canonical=False,
                        with_relations=False)
        assert p.polynomial, "reflection-generated fixed ring must be free"
        assert p.molien == hilbert_weighted(p.degrees)
        assert is_skew_presentation(p) is not None
        positive += 1
    negative = 0
    while negative < 50:
        n = rng.choice([2, 3, 4])
        q = _random_skew(rng, n)
        if all(c.is_zero() for row in q.rows for c in row):
            continue
        A = skew_symmetric(q)
        i, j = rng.sample(range(n), 2)
        diag = [Cyclo.of(-1) if t in (i, j) else Cyclo.of(1) for t in range(n)]
        g = GradedMap(Matrix.diagonal(diag))
        cls = classify(A, g)
        assert cls.kind == "finite_non_reflection"
        G = group_closure([g])
        p = fixed_group(A, G, bound=max(2, G.exponent), canonical=False,
                        with_relations=False)
        assert (not p.polynomial) or is_skew_presentation(p) is None
        negative += 1
    _passed(7, "200 reflection trials skew-presentable with free Molien; 50 non-reflection trials fail")


# -- criterion 8 ----------------------------------------------------------------


def test_criterion_8_homogenized_lie():
    assert lie_one_dim_ideals(sl2()).kind == EMPTY
    assert find_reflections(ph_lie(sl2())).status == NO_REFLECTIONS
    lie = lie_two_dim_nonabelian()
    ideals = lie_one_dim_ideals(lie)
    assert ideals.kind == POINTS and len(ideals.points) == 1
    A = ph_lie(lie)
    rep = find_reflections(A)
    assert rep.status == FOUND
    assert any(f.samples for f in rep.families)
    for m in (2, 3):
        g = _gmap([[1, 0, 0], [0, zeta(m), 0], [0, 0, 1]])
        p = fixed_cyclic_reflection(A, g)
        assert sorted(str(e) for e in p.expressions) == ["x1", f"x2^{m}", "z"]
        ix1 = p.expressions.index(A.ring.parse("x1"))
        ixm = p.expressions.index(A.ring.parse(f"x2^{m}"))
        iz = p.expressions.index(A.ring.parse("z"))
        R = p.generator_ring
        assert p.entry(ix1, ixm) == _mono(R, {ixm: 1, iz: 1}, m)  # {x1, X} = m X z
        assert p.entry(ix1, iz).is_zero() and p.entry(ixm, iz).is_zero()
    _passed(8, "sl2 homogenization has no reflections; 2-dim family fixed ring k[x1, x2^m, z]")


# -- criterion 9 ----------------------------------------------------------------


def test_criterion_9_envelope():
    ring1 = PolyRing(["x"])
    cases = [
        (PoissonAlgebra(ring1, {}), 1, 3),
        (skew_symmetric(Matrix([[0, 0], [0, 0]]), names=["x", "y"]), 2, 3),
        (skew_symmetric(Matrix([[0, 1], [-1, 0]]), names=["x", "y"]), 2, 3),
        (skew_symmetric(Matrix([[0, 2], [-2, 0]]), names=["x", "y"]), 2, 3),
        (jacobian_pq(0, 1), 3, 3),
        (homogenized_weyl(1), 3, 3),
    ]
    for A, n, d in cases:
        dims = envelope_dims(A, d, cap=4)
        expect = [c.as_fraction() for c in hilbert_free(2 * n).taylor(d)]
        assert dims == expect
    # every reflection in the suite: trace squared, never a quasi-reflection
    suite = [
        (skew_symmetric(Matrix([[0, 1], [-1, 0]]), names=["x", "y"]),
         _gmap(Matrix.diagonal([zeta(3), 1]).rows)),
        (quantum_matrices(2),
         _gmap([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])),
        (homogenized_weyl(1), _gmap(Matrix.diagonal([1, 1, -1]).rows)),
        (jacobian_pq(0, 1), _gmap(Matrix.diagonal([zeta(3), 1, 1]).rows)),
        (ph_lie(lie_two_dim_nonabelian()),
         _gmap([[1, 0, 0], [0, -1, 0], [0, 0, 1]])),
    ]
    for A, g in suite:
        tr = envelope_trace(A, g)
        base = trace_series(g)
        assert tr.series == base * base
        assert tr.series == tr.factored
        assert not tr.quasi_reflection
    _passed(9, "enveloping dims equal (1-t)^(-2n) coefficients; trace squares; quasi test negative")


# -- criterion 10 ---------------------------------------------------------------


def test_criterion_10_two_variable_consequences():
    ring = PolyRing(["x", "y"])
    B = PoissonAlgebra(ring, {(0, 1): ring.parse("x^2")}, check_jacobi=False)
    rep = find_reflections(B)
    assert rep.status == NO_REFLECTIONS
    for p in (1, 2):
        A = skew_symmetric(Matrix([[0, p], [-p, 0]]), names=["x", "y"])
        for m in (2, 3):
            g = _gmap(Matrix.diagonal([zeta(m), 1]).rows)
            pr = fixed_cyclic_reflection(A, g)
            i_pow = pr.degrees.index(m)
            i_lin = pr.degrees.index(1)
            R = pr.generator_ring
            assert pr.entry(i_pow, i_lin) == _mono(R, {i_pow: 1, i_lin: 1}, p * m)
            assert p * m != p
    _passed(10, "x^2 bracket admits no reflections; pxy fixed rings have constant pm")


# -- criterion 11: independent oracle ---------------------------------------------


def _oracle_chart_solutions(table: dict, nvars: int, chart: int):
    """Brute-force normal-direction search in one chart via dense remainders.

    Returns 'empty', or a list of forced parameter assignments with the
    remaining free parameter count: ('solutions', free_count).
    """
    nparams = nvars - chart - 1
    total = nvars + nparams
    lifted = {}
    for (i, j), p in table.items():
        lifted[(i, j)] = oracle.DensePoly(total, {e + (0,) * nparams: c
                                                  for e, c in p.table.items()})
    br = oracle.OracleBracket(total, lifted)
    # u = x_chart + sum params * x_tail
    replacement = oracle.DensePoly(total)
    for t in range(nparams):
        e = [0] * total
        e[chart + 1 + t] = 1
        e[nvars + t] = 1
        replacement = replacement.add(oracle.DensePoly(total, {tuple(e): Cyclo.of(-1)}))
    equations = []
    for j in range(nvars):
        w = br.pair(chart, j)
        for t in range(nparams):
            e_var = oracle.DensePoly.variable(total, nvars + t)
            w = w.add(e_var.mul(br.pair(chart + 1 + t, j)))
        rem = w.substitute_var(chart, replacement)
        grouped: dict = {}
        for e, c in rem.table.items():
            if c.is_zero():
                continue
            xpart, ppart = e[:nvars], e[nvars:]
            grouped.setdefault(xpart, {})[ppart] = c
        for _, terms in grouped.items():
            equations.append(dict(terms))
    # propagation: nonzero constants kill the chart; single-variable monomial
    # equations force zeros
    assigned = {}
    changed = True
    while changed:
        changed = False
        new_eqs = []
        for eq in equations:
            eq = {e: c for e, c in eq.items() if not c.is_zero()}
            if not eq:
                continue
            if all(sum(e) == 0 for e in eq):
                return "empty"
            if len(eq) == 1:
                e = next(iter(eq))
                on = [t for t, k in enumerate(e) if k]
                if len(on) == 1:
                    var = on[0]
                    if var not in assigned:
                        assigned[var] = Cyclo.of(0)
                        changed = True
                    continue
            new_eqs.append(eq)
        if changed:
            substituted = []
            for eq in new_eqs:
                out: dict = {}
                for e, c in eq.items():
                    if any(e[v] for v in assigned):
                        continue  # zero assignment kills the term
                    out[e] = out.get(e, Cyclo.of(0)) + c
                substituted.append(out)
            equations = substituted
        else:
            equations = new_eqs
    if equations:
        return "stuck"
    free = nparams - len(assigned)
    return ("solutions", free)


def test_criterion_11_oracle_cross_checks():
    # criterion 1: the p-only cubic has no degree-one normal directions
    ring3 = PolyRing(["x", "y", "z"])
    table_p = {(0, 1): oracle.DensePoly(3, {(0, 0, 2): Cyclo.of(1)}),
               (1, 2): oracle.DensePoly(3, {(2, 0, 0): Cyclo.of(1)}),
               (2, 0): oracle.DensePoly(3, {(0, 2, 0): Cyclo.of(1)})}
    for chart in range(3):
        assert _oracle_chart_solutions(table_p, 3, chart) == "empty"
    # matches the main path
    assert jacobian_pq(1, 0).normal_find_deg1().kind == EMPTY

    # criterion 2: fixed-ring brackets and modular derivation, recomputed densely
    q_table = {(0, 1): oracle.DensePoly(3, {(1, 1, 0): Cyclo.of(1)}),
               (1, 2): oracle.DensePoly(3, {(0, 1, 1): Cyclo.of(1)}),
               (2, 0): oracle.DensePoly(3, {(1, 0, 1): Cyclo.of(1)})}
    br = oracle.OracleBracket(3, q_table)
    X = oracle.DensePoly(3, {(3, 0, 0): Cyclo.of(1)})
    y = oracle.DensePoly.variable(3, 1)
    z = oracle.DensePoly.variable(3, 2)
    assert br.bracket(X, y).equals(X.mul(y).scale(3))
    assert br.bracket(y, z).equals(y.mul(z))
    assert br.bracket(z, X).equals(X.mul(z).scale(3))
    # modular derivation of the ambient vanishes; of the fixed table it does not
    assert all(img.is_zero() for img in br.modular_images())
    fixed_table = {(0, 1): oracle.DensePoly(3, {(1, 1, 0): Cyclo.of(3)}),
                   (1, 2): oracle.DensePoly(3, {(0, 1, 1): Cyclo.of(1)}),
                   (2, 0): oracle.DensePoly(3, {(1, 0, 1): Cyclo.of(3)})}
    fix = oracle.OracleBracket(3, fixed_table)
    images = fix.modular_images()
    assert images[0].is_zero()
    assert images[1].equals(oracle.DensePoly.variable(3, 1).scale(-2))
    assert images[2].equals(oracle.DensePoly.variable(3, 2).scale(2))

    # criterion 4 (n = 2): normality of the whole (b, c) plane, symbolically
    n = 4
    total = n + 2  # parameters beta, gamma
    a_i, b_i, c_i, d_i, be, ga = range(6)
    m2 = {}

    def dp(idx_counts, coeff=1):
        e = [0] * total
        for t, k in idx_counts.items():
            e[t] += k
        return oracle.DensePoly(total, {tuple(e): Cyclo.of(coeff)})

    m2[(a_i, b_i)] = dp({a_i: 1, b_i: 1})
    m2[(a_i, c_i)] = dp({a_i: 1, c_i: 1})
    m2[(a_i, d_i)] = dp({b_i: 1, c_i: 1}, 2)
    m2[(b_i, d_i)] = dp({b_i: 1, d_i: 1})
    m2[(c_i, d_i)] = dp({c_i: 1, d_i: 1})
    br2 = oracle.OracleBracket(total, m2)
    u = dp({b_i: 1, be: 1}).add(dp({c_i: 1, ga: 1}))
    # {u, a} = -a u and {u, d} = u d, identically in beta and gamma
    assert br2.bracket(u, dp({a_i: 1})).equals(dp({a_i: 1}).mul(u).scale(-1))
    assert br2.bracket(u, dp({d_i: 1})).equals(u.mul(dp({d_i: 1})))
    assert br2.bracket(u, dp({b_i: 1})).is_zero()
    assert br2.bracket(u, dp({c_i: 1})).is_zero()
    # chart scan: a-chart and d-chart die, b-chart keeps one free parameter,
    # c-chart pins to the single axis point
    m2_plain = {k: oracle.DensePoly(4, {e[:4]: c for e, c in v.table.items()})
                for k, v in m2.items()}
    assert _oracle_chart_solutions(m2_plain, 4, 0) == "empty"
    assert _oracle_chart_solutions(m2_plain, 4, 1) == ("solutions", 1)
    assert _oracle_chart_solutions(m2_plain, 4, 2) == ("solutions", 0)
    assert _oracle_chart_solutions(m2_plain, 4, 3) == "empty"
    # reflections: the swap family members are automorphisms of order two
    for mu in (Cyclo.of(1), Cyclo.of(2), zeta(3)):
        rows = [[Cyclo.of(1), Cyclo.of(0), Cyclo.of(0), Cyclo.of(0)],
                [Cyclo.of(0), Cyclo.of(0), mu.inverse(), Cyclo.of(0)],
                [Cyclo.of(0), mu, Cyclo.of(0), Cyclo.of(0)],
                [Cyclo.of(0), Cyclo.of(0), Cyclo.of(0), Cyclo.of(1)]]
        assert oracle.matrix_order_by_iteration(rows) == 2
        # automorphism check on the generator table, dense path
        imgs = [dp({a_i: 1}), dp({c_i: 1}).scale(mu), dp({b_i: 1}).scale(mu.inverse()),
                dp({d_i: 1}), dp({be: 1}), dp({ga: 1})]
        for (i, j), p in m2.items():
            lhs = br2.bracket(imgs[i], imgs[j])
            rhs = p.substitute_all(imgs)
            assert lhs.equals(rhs)
        # g fixes b + mu c and negates b - mu c: eigenvalues (1, 1, 1, -1)
        plus = dp({b_i: 1}).add(dp({c_i: 1}).scale(mu))
        minus = dp({b_i: 1}).add(dp({c_i: 1}).scale(-mu))
        assert plus.substitute_all(imgs).equals(plus)
        assert minus.substitute_all(imgs).equals(minus.scale(-1))

    # criterion 9 (n = 1): dims of the two-generator algebra with [h, m] = 0
    for k, expect in ((2, 3), (3, 4)):
        words = [tuple(w) for w in _all_words(2, k)]
        index = {w: i for i, w in enumerate(words)}
        rows = []
        rel = {(1, 0): Fraction(1), (0, 1): Fraction(-1)}  # hm - mh
        for a in range(k - 1):
            for uw in _all_words(2, a):
                for vw in _all_words(2, k - 2 - a):
                    row = [Fraction(0)] * len(words)
                    for w, c in rel.items():
                        row[index[tuple(uw) + w + tuple(vw)]] += c
                    rows.append(row)
        rank = oracle.dense_rank(rows)
        assert 2 ** k - rank == expect
    assert envelope_dims(PoissonAlgebra(PolyRing(["x"]), {}), 3) == [1, 2, 3, 4]
    _passed(11, "independent dense oracle agrees on criteria 1, 2, 4 (n=2), 9 (n=1)")


def _all_words(g: int, length: int):
    if length == 0:
        return [()]
    return [w + (a,) for w in _all_words(g, length - 1) for a in range(g)]
