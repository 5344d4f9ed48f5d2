import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import cyclotomic_upoly
from pwb.envelope import envelope_trace
from pwb.errors import SingularMatrixError
from pwb.families import skew_symmetric
from pwb.linalg import Matrix
from pwb.scalars import Cyclo, lcm, zeta
from pwb.series import RationalSeries, hilbert_free, hilbert_weighted
from pwb.symmetry import GradedMap, _character_molien, trace_series
from pwb.upoly import UPoly, extract_roots, gcd_upoly


def t_minus(c) -> UPoly:
    return UPoly.linear_root(Cyclo.of(c))


def test_upoly_divmod_and_gcd():
    p = t_minus(1) * t_minus(2)
    q, r = p.divmod(t_minus(1))
    assert r.is_zero() and q == t_minus(2)
    g = gcd_upoly(p, t_minus(2))
    assert g == t_minus(2).monic()


def test_extract_roots_rational_and_cyclotomic():
    x = UPoly.x()
    p = t_minus(2) * cyclotomic_upoly(3)
    roots, rem = extract_roots(p)
    assert rem.degree() == 0
    assert any(r == 2 for r in roots)
    assert any(r == zeta(3) for r in roots)
    assert any(r == zeta(3, 2) for r in roots)

    # x^3 - 1 splits into the three cube roots of unity
    roots, rem = extract_roots(x ** 3 - UPoly.one())
    assert rem.degree() == 0 and len(roots) == 3

    # 2*zeta(3) is no trial root, but the linear remainder it leaves splits
    p = UPoly.linear_root(zeta(3) * 2) * UPoly.linear_root(Cyclo.of(1))
    roots, rem = extract_roots(p)
    assert roots == [Cyclo.of(1), zeta(3) * 2] and rem.degree() == 0

    # +-2*zeta(3) are not recognized; remainder left honest
    p = UPoly.linear_root(zeta(3) * 2) * UPoly.linear_root(zeta(3) * -2)
    roots, rem = extract_roots(p * UPoly.linear_root(Cyclo.of(1)))
    assert roots == [Cyclo.of(1)] and rem == p


ROOTS = ([Cyclo.of(c) for c in (0, 1, -1, 2, -3)]
         + [Cyclo.of(1) / 2, zeta(3), zeta(4), zeta(12, 5), -zeta(3), zeta(3) * 2,
            zeta(3) - zeta(4)])
# irreducible over Q or over Q(zeta_3), Q(zeta_4): no root of unity among their roots
NON_CYCLOTOMIC = [UPoly([-2, 0, 1]), UPoly([2, 1, 1]), UPoly([3, -zeta(3), 1]),
                  UPoly([3, zeta(4), 1])]
FACTORS = ([UPoly.linear_root(r) for r in ROOTS] + NON_CYCLOTOMIC
           + [UPoly([zeta(4), 0, 1])]  # roots zeta_8^3 and zeta_8^7, outside Q(zeta_4)
           + [cyclotomic_upoly(d) for d in (3, 4, 5, 8, 12)])


@st.composite
def products_of_factors(draw):
    """A scaled product of drawn factors of degree at most 5, every coefficient
    stored at one conductor: 1, 3, 4 or 12 where the values allow it."""
    p = UPoly([draw(st.sampled_from([Cyclo.of(1), Cyclo.of(-2), zeta(3), zeta(12)]))])
    for f in draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=5)):
        if p.degree() + f.degree() <= 5:
            p = p * f
    n = lcm(draw(st.sampled_from([1, 3, 4, 12])), p.conductor())
    return UPoly([c.lift_to(n) for c in p.coeffs])


@settings(max_examples=60, deadline=None)
@given(products_of_factors())
def test_extract_roots_matches_the_trial_division(p):
    roots, rem = extract_roots(p)
    expected_roots, expected_rem = oracle.extract_roots_with_trial_division(p)
    assert roots == expected_roots and rem == expected_rem


def test_taylor_binomial():
    s = hilbert_free(2)
    assert [c.as_fraction() for c in s.taylor(3)] == [1, 2, 3, 4]


def test_taylor_with_zeta():
    s = RationalSeries.one_over([Cyclo.of(1), zeta(3)])
    t = s.taylor(2)
    assert t[0] == 1
    assert t[1] == 1 + zeta(3)
    assert t[2].is_zero()  # 1 + zeta_3 + zeta_3^2 = 0


def test_taylor_quadratic_free():
    # 1/(1-t)^(2n) at n = 1
    assert [c.as_fraction() for c in hilbert_free(2).taylor(2)] == [1, 2, 3]


def test_series_arithmetic_cauchy_product():
    a = hilbert_free(1)
    b = RationalSeries.one_over([Cyclo.of(-1)])
    prod = a * b
    ta, tb, tp = a.taylor(6), b.taylor(6), prod.taylor(6)
    for k in range(7):
        acc = Cyclo.of(0)
        for j in range(k + 1):
            acc = acc + ta[j] * tb[k - j]
        assert acc == tp[k]


def test_series_equality_and_sum():
    # 1/(1-t) + 1/(1+t) = 2/(1-t^2)
    s = hilbert_free(1) + RationalSeries.one_over([Cyclo.of(-1)])
    t = hilbert_weighted([2]) * 2
    assert s == t


def test_hilbert_weighted():
    s = hilbert_weighted([1, 2])
    assert [c.as_fraction() for c in s.taylor(4)] == [1, 1, 2, 2, 3]


def test_hilbert_series_are_stored_as_the_general_constructor_stores_them():
    # 1 over a denominator with den(0) = 1 is already in normal form, so the
    # constructor's gcd and scaling would change no stored coefficient
    def stored(p):
        return [(c.n, c.num, c.den) for c in p.coeffs]

    for s in (hilbert_weighted([1, 1, 2, 6]), hilbert_free(3),
              RationalSeries.one_over([zeta(3), zeta(4), 1, zeta(12, 5)])):
        general = RationalSeries(s.num, s.den)
        assert stored(s.num) == stored(general.num) and stored(s.den) == stored(general.den)


def _drawn_upoly(draw, max_degree=3):
    values = st.sampled_from((0, 1, -1, 2, zeta(3), -zeta(4), zeta(12, 5)))
    return UPoly([Cyclo.of(draw(values)) for _ in range(draw(st.integers(0, max_degree)) + 1)])


@st.composite
def series_pairs(draw):
    """(s, t): two series by the general constructor, equal about half the
    time, the second then written over a common factor and rescaled."""
    num = _drawn_upoly(draw)
    den = _drawn_upoly(draw)
    if den[0].is_zero():
        den = den + UPoly.one()
    s = RationalSeries(num, den)
    if draw(st.booleans()):
        factor = _drawn_upoly(draw, 2)
        if factor.is_zero():
            factor = UPoly.one()
        scale = Cyclo.of(draw(st.sampled_from((1, -2, zeta(3)))))
        if factor[0].is_zero():
            factor = factor + UPoly.one_minus(zeta(4))
        return s, RationalSeries(num * factor * scale, den * factor * scale)
    other_num = _drawn_upoly(draw)
    return s, RationalSeries(other_num, den * UPoly.one_minus(draw(st.sampled_from((1, zeta(3))))))


@settings(max_examples=150, deadline=None)
@given(series_pairs())
def test_series_equality_matches_cross_multiplication(pair):
    # equality on the unique normal form against the cross-multiplied check
    s, t = pair
    assert (s == t) == oracle.cross_multiplied_equal(s, t) == (t == s)
    assert s == RationalSeries(s.num, s.den)


def test_series_pairs_include_equal_and_unequal_series():
    verdicts = []

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(series_pairs())
    def record(pair):
        verdicts.append(oracle.cross_multiplied_equal(*pair))

    record()
    assert True in verdicts and False in verdicts


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 7), max_size=6))
def test_hilbert_weighted_matches_the_upoly_product(degrees):
    # the denominator multiplied on ints against the product of UPoly factors,
    # value and stored form
    s, ref = hilbert_weighted(degrees), oracle.hilbert_weighted_by_products(degrees)
    assert s == ref and str(s) == str(ref)
    assert [(c.n, c.num, c.den) for c in s.den.coeffs] == [
        (c.n, c.num, c.den) for c in ref.den.coeffs]


ROOTS = (1, -1, 2, zeta(3), zeta(4, 3), zeta(12, 5), -zeta(3))


def _reduced_series(site, data):
    """Series from one `RationalSeries.reduced` call site, on drawn input."""
    if site == "one_over":
        return [RationalSeries.one_over(data.draw(st.lists(st.sampled_from(ROOTS), max_size=5)))]
    if site == "hilbert_weighted":
        return [hilbert_weighted(data.draw(st.lists(st.integers(1, 8), max_size=5)))]
    if site == "trace_series":
        n = data.draw(st.integers(1, 3))
        rows = [[Cyclo.of(data.draw(st.sampled_from((0,) + ROOTS))) for _ in range(n)]
                for _ in range(n)]
        try:
            return [trace_series(GradedMap(Matrix(rows)))]
        except SingularMatrixError:
            return [trace_series(GradedMap(Matrix.identity(n)))]
    if site == "_character_molien":
        e = data.draw(st.sampled_from((1, 2, 3, 4, 6, 12)))
        n = data.draw(st.integers(1, 4))
        logs = data.draw(st.lists(st.lists(st.integers(0, e - 1), min_size=n, max_size=n),
                                  min_size=1, max_size=2))
        return [_character_molien(logs, e)]
    # envelope_trace's squared and factored series, on a diagonal reflection
    n = data.draw(st.integers(2, 3))
    q = [[Cyclo.of(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q[i][j] = Cyclo.of(data.draw(st.sampled_from((0, 1, -2, zeta(3)))))
            q[j][i] = -q[i][j]
    m = data.draw(st.sampled_from((2, 3, 4, 6)))
    pos = data.draw(st.integers(0, n - 1))
    g = GradedMap(Matrix.diagonal([zeta(m) if t == pos else 1 for t in range(n)]))
    trace = envelope_trace(skew_symmetric(Matrix(q)), g)
    return [trace.series, trace.factored]


@pytest.mark.parametrize("site", ["one_over", "hilbert_weighted", "trace_series",
                                  "_character_molien", "envelope_trace"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_reduced_call_site_gives_the_normal_form(site, data):
    # series equality compares num and den, so each series taken as reduced
    # must be coprime with den(0) = 1
    for s in _reduced_series(site, data):
        assert gcd_upoly(s.num, s.den).degree() == 0
        assert s.den[0].is_one()
