"""The integer elimination kernel (rank, rref, kernel, inverse, solve), the
determinant and the minimal polynomial against Cyclo elimination, dense
Gauss-Jordan, dense Fractions and sympy."""
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from pwb.errors import SingularMatrixError
from pwb.linalg import Echelon, Matrix, hermite_normal_form, realify, solve_linear
from pwb.scalars import Cyclo, conductor, euler_phi, zeta
from test_fixedrings import diagonal_groups

COEFFS = st.sampled_from([0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
NCOLS = 5


@st.composite
def sparse_rows(draw):
    """Rows (column -> Cyclo) over Q, Q(zeta_3), Q(zeta_4) or both of the last two,
    with some rows drawn as combinations of earlier ones so that ranks drop."""
    conductors = draw(st.sampled_from([(1,), (3,), (4,), (3, 4)]))

    def scalar():
        n = draw(st.sampled_from(conductors))
        return Cyclo(n, [draw(COEFFS) for _ in range(euler_phi(n))])

    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if len(rows) >= 2 and draw(st.booleans()):
            i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2))
            a, b = scalar(), scalar()
            cols = set(rows[i]) | set(rows[j])
            row = {k: a * rows[i].get(k, Cyclo.of(0)) + b * rows[j].get(k, Cyclo.of(0))
                   for k in cols}
        else:
            row = {k: scalar() for k in range(NCOLS) if draw(st.booleans())}
        rows.append({k: c for k, c in row.items() if not c.is_zero()})
    return rows


def echelon_rank(rows) -> int:
    n = conductor(c for r in rows for c in r.values())
    span = Echelon()
    for r in rows:
        for real in realify(r, n):
            span.insert(real)
    assert span.rank % euler_phi(n) == 0
    for lead, piv in span.pivots.items():
        assert lead == min(piv) and piv[lead] > 0
    return span.rank // euler_phi(n)


@settings(max_examples=80, deadline=None)
@given(sparse_rows())
def test_echelon_rank_matches_cyclo_elimination(rows):
    rank = echelon_rank(rows)
    assert rank == oracle.cyclo_sparse_rank(rows)
    if all(c.n == 1 for r in rows for c in r.values()):
        dense = [[r[k].as_fraction() if k in r else Fraction(0) for k in range(NCOLS)]
                 for r in rows]
        assert rank == oracle.dense_rank(dense)


@settings(max_examples=40, deadline=None)
@given(sparse_rows())
def test_echelon_reduce_is_span_membership(rows):
    n = 12  # a field larger than the entries need
    span = Echelon()
    for r in rows:
        for real in realify(r, n):
            span.insert(real)
    # every Q(zeta_n)-combination of the rows lies in the span; a new column does not
    combo = {}
    for t, r in enumerate(rows):
        for k, c in r.items():
            combo[k] = combo.get(k, Cyclo.of(0)) + c * Cyclo.of(t + 1)
    combo = {k: c for k, c in combo.items() if not c.is_zero()}
    assert not span.reduce(realify(combo, n)[0])
    assert not span.insert(realify(combo, n)[-1])
    outside = dict(combo)
    outside[NCOLS] = Cyclo.of(1)
    assert span.reduce(realify(outside, n)[0])


def test_realify_multiplies_by_zeta():
    # cleared by 2; zeta_3 * zeta_3 = -1 - zeta_3 in the power basis (1, zeta_3)
    rows = realify({0: Cyclo(3, [0, 1]), 1: Cyclo(3, [Fraction(1, 2), 0])}, 3)
    assert rows == [{1: 2, 2: 1}, {0: -2, 1: -2, 3: 1}]


@st.composite
def square_matrices(draw):
    """Rational matrices, S * diag(roots of unity) * S^-1, and Jordan blocks; n <= 4."""
    kind = draw(st.sampled_from(["rational", "diagonalizable", "jordan"]))
    if kind == "diagonalizable":
        return draw(diagonal_groups())[1][0]
    n = draw(st.integers(1, 4))
    if kind == "rational":
        return Matrix([[draw(COEFFS) for _ in range(n)] for _ in range(n)])
    lam = draw(st.sampled_from([Cyclo.of(1), Cyclo.of(-2), zeta(3)]))
    return Matrix([[lam if j == i else 1 if j == i + 1 else 0 for j in range(n)]
                   for i in range(n)])


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_minpoly_is_monic_annihilating_of_least_degree(m):
    coeffs = m.minpoly_coeffs()
    n = m.nrows
    assert coeffs[-1].is_one()
    value, power = Matrix.zero(n, n), Matrix.identity(n)
    for c in coeffs:
        value = value + power * c
        power = power * m
    assert value == Matrix.zero(n, n)
    powers = [Matrix.identity(n)]
    for _ in range(n):
        powers.append(powers[-1] * m)
    vecs = [[x for row in p.rows for x in row] for p in powers]
    if all(x.is_rational() for vec in vecs for x in vec):
        rank = oracle.dense_rank([[x.as_fraction() for x in vec] for vec in vecs])
    else:
        rank = oracle.cyclo_sparse_rank([dict(enumerate(vec)) for vec in vecs])
    # I, m, ..., m^(d-1) are independent and every higher power lies in their span
    assert len(coeffs) - 1 == rank


@st.composite
def rational_matrices(draw):
    """Rational n x n matrices, n <= 4: dense, or upper triangular with a
    repeated diagonal, whose minimal polynomial is often a proper divisor of
    the characteristic one."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return Matrix([[draw(COEFFS) for _ in range(n)] for _ in range(n)])
    diagonal = st.sampled_from([1, -2])
    return Matrix([[draw(diagonal) if j == i else draw(COEFFS) if j > i else 0
                    for j in range(n)] for i in range(n)])


def _fractions(coeffs) -> list[Fraction]:
    return [Fraction(str(c)) for c in coeffs]


@settings(max_examples=40, deadline=None)
@given(rational_matrices())
@example(Matrix.identity(3))
@example(Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
def test_charpoly_and_minpoly_match_sympy(m):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    M = sympy.Matrix([[sympy.Rational(x.as_fraction()) for x in row] for row in m.rows])
    chi = M.charpoly(t)
    assert [c.as_fraction() for c in m.charpoly_coeffs()] + [1] == \
        _fractions(chi.all_coeffs()[::-1])
    # the minimal polynomial is chi over the gcd of the (n-1)-minors of tI - M,
    # which are the entries of its adjugate
    g = sympy.Integer(0)
    for entry in (t * sympy.eye(m.nrows) - M).adjugate():
        g = sympy.gcd(g, entry)
    mu = sympy.Poly(sympy.cancel(chi.as_expr() / g), t).monic()
    assert [c.as_fraction() for c in m.minpoly_coeffs()] == _fractions(mu.all_coeffs()[::-1])


# -- the elimination kernel against dense Gauss-Jordan over Cyclo --------------

MIXES = [(1,), (2,), (3,), (4,), (12,), (1, 3), (2, 3), (3, 4), (1, 4, 12), (1, 3, 4, 12)]


@st.composite
def cyclo_matrices(draw, square=False):
    """Dense matrices with entries over Q(zeta_n), n drawn from a mix of 1, 2, 3,
    4 and 12: empty, zero (zeros stored at those conductors) and rank-deficient
    ones (rows drawn as combinations of earlier rows) included."""
    conductors = draw(st.sampled_from(MIXES))

    def scalar(zero=False):
        n = draw(st.sampled_from(conductors))
        return Cyclo(n, [0 if zero else draw(COEFFS) for _ in range(euler_phi(n))])

    nrows = draw(st.integers(0, 4))
    ncols = nrows if square else draw(st.integers(0, 5)) if nrows else 0
    zero = draw(st.integers(0, 9)) == 0
    rows: list[list[Cyclo]] = []
    for _ in range(nrows):
        if len(rows) >= 2 and not zero and draw(st.booleans()):
            i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2))
            a, b = scalar(), scalar()
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        else:
            rows.append([scalar(zero) for _ in range(ncols)])
    return Matrix(rows)


def stored_at(n: int, values) -> bool:
    return all(x.n == n for x in values)


@settings(max_examples=150, deadline=None)
@given(cyclo_matrices())
def test_rref_rank_and_kernel_match_dense_gauss_jordan(m):
    n = conductor(x for r in m.rows for x in r)
    reduced, pivots = m.rref()
    expect, expect_pivots = oracle.dense_rref(m.rows)
    assert pivots == expect_pivots
    assert reduced == Matrix(expect)
    assert stored_at(n, (x for r in reduced.rows for x in r))
    assert m.rank() == len(expect_pivots)
    kernel = m.kernel_basis()
    assert kernel == oracle.dense_kernel(m.rows, m.ncols)
    assert stored_at(n, (x for v in kernel for x in v))
    assert all(not any(m.apply(v)) for v in kernel)


@settings(max_examples=100, deadline=None)
@given(cyclo_matrices(square=True))
def test_inverse_matches_dense_gauss_jordan(m):
    n = conductor(x for r in m.rows for x in r)
    try:
        expect = oracle.dense_inverse(m.rows)
    except oracle.SingularOracleMatrix:
        with pytest.raises(SingularMatrixError):
            m.inverse()
        return
    inv = m.inverse()
    assert inv == Matrix(expect)
    assert stored_at(n, (x for r in inv.rows for x in r))
    assert inv * m == Matrix.identity(m.nrows)


@settings(max_examples=100, deadline=None)
@given(cyclo_matrices(square=True))
@example(Matrix([]))
@example(Matrix([[0]]))
@example(Matrix([[zeta(3)]]))
@example(Matrix([[1, zeta(3)], [zeta(3, 2), 1]]))
@example(Matrix([[Cyclo(12, [0, 0, 0, 0]), 1], [1, 0]]))
def test_det_matches_dense_elimination(m):
    det = m.det()
    assert det == oracle.dense_det(m.rows)
    assert det.is_zero() == (m.rank() < m.nrows)


@pytest.mark.parametrize("rows", [[[1, 2]], [[1], [zeta(3)]], [[0, 0, 0], [0, 0, 0]]])
def test_det_of_a_non_square_matrix_raises(rows):
    with pytest.raises(SingularMatrixError, match="not square"):
        Matrix(rows).det()


@settings(max_examples=100, deadline=None)
@given(cyclo_matrices(), st.data())
def test_solve_linear_matches_dense_gauss_jordan(m, data):
    conductors = data.draw(st.sampled_from(MIXES))
    b = [Cyclo(k, [data.draw(COEFFS) for _ in range(euler_phi(k))])
         for k in data.draw(st.lists(st.sampled_from(conductors),
                                     min_size=m.nrows, max_size=m.nrows))]
    if m.nrows and data.draw(st.booleans()):
        # a consistent right-hand side: A times a drawn vector
        b = m.apply([data.draw(COEFFS) for _ in range(m.ncols)])
    n = conductor([x for r in m.rows for x in r] + b)
    x = solve_linear(m, b)
    expect = oracle.dense_solve(m.rows, m.ncols, b)
    if expect is None:
        assert x is None
        return
    assert x == expect
    assert stored_at(n, x)
    assert m.apply(x) == b


def test_kernel_results_are_stored_at_the_lcm_conductor():
    # a rational system with one zero stored at conductor 12: results at 12
    z12 = Cyclo(12, [0, 0, 0, 0])
    m = Matrix([[1, 2, z12], [2, 4, 1]])
    reduced, pivots = m.rref()
    assert pivots == [0, 2] and stored_at(12, (x for r in reduced.rows for x in r))
    assert [[str(x) for x in v] for v in m.kernel_basis()] == [["-2", "1", "0"]]
    assert m.kernel_basis()[0][0].n == 12
    assert Matrix([]).rref() == (Matrix([]), []) and Matrix([]).kernel_basis() == []
    assert Matrix([[0, 0]]).kernel_basis() == [[1, 0], [0, 1]]
    # phi(2) = 1, but -1 stored at conductor 2 keeps every result at 2
    kernel = Matrix([[1, Cyclo(2, [-1])]]).kernel_basis()
    assert kernel == [[1, 1]] and stored_at(2, kernel[0])


@settings(max_examples=40, deadline=None)
@given(cyclo_matrices())
def test_rank_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    # every conductor drawn divides 12: work in Q(zeta_12), whose power basis is Cyclo's at 12
    K = sympy.QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / 12))
    gen = K.from_sympy(sympy.exp(2 * sympy.pi * sympy.I / 12))

    def element(c):
        acc = K.zero
        for k, q in enumerate(c.lift_to(12).c):
            acc += K.from_sympy(sympy.Rational(q.numerator, q.denominator)) * gen ** k
        return acc

    if not m.nrows or not m.ncols:
        assert m.rank() == 0
        return
    dm = DomainMatrix([[element(x) for x in r] for r in m.rows], (m.nrows, m.ncols), K)
    assert m.rank() == dm.rank()


# -- integer lattices ---------------------------------------------------------------


def test_hermite_normal_form_examples():
    assert hermite_normal_form([]) == []
    assert hermite_normal_form([[0, 0]]) == []
    assert hermite_normal_form([[2, 4], [3, 5]]) == [[1, 1], [0, 2]]
    # rank-deficient lattices, and a negative pivot made positive
    assert hermite_normal_form([[2, 4], [1, 2]]) == [[1, 2]]
    assert hermite_normal_form([[0, -3, 5], [0, 6, 1]]) == [[0, 3, 6], [0, 0, 11]]


def _leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        total += (-1) ** inversions * prod(rows[i][p] for i, p in enumerate(perm))
    return total


@st.composite
def lattices(draw):
    """n, integer rows with n columns, and e: the lattice of the rows and e * I_n
    has full rank, as the character lattice of an abelian group does."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=4))
    return n, rows, draw(st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@given(lattices())
@example((2, [[3, 1], [1, 3]], 6))
def test_hermite_normal_form_of_a_full_rank_lattice(case):
    n, rows, e = case
    rows = rows + [[e if i == j else 0 for j in range(n)] for i in range(n)]
    hnf = hermite_normal_form(rows)
    assert len(hnf) == n
    for i, row in enumerate(hnf):
        assert row[:i] == [0] * i and row[i] > 0
        assert all(0 <= hnf[k][i] < row[i] for k in range(i))
    # every input row lies in the lattice of the HNF rows ...
    for row in rows:
        for i, h in enumerate(hnf):
            q, r = divmod(row[i], h[i])
            assert r == 0
            row = [a - q * b for a, b in zip(row, h)]
        assert not any(row)
    # ... which is no larger: its index in Z^n is the gcd of the maximal minors
    index = 0
    for sub in combinations(rows, n):
        index = gcd(index, _leibniz_det(sub))
    assert prod(h[i] for i, h in enumerate(hnf)) == index
