"""The sparse integer elimination kernel and the minimal polynomial against Cyclo
elimination and dense Fractions."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pwb.linalg import Echelon, Matrix, realify
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
