from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import cyclotomic_upoly
from pwb.scalars import Cyclo, lcm, zeta
from pwb.series import RationalSeries, hilbert_free, hilbert_weighted
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
