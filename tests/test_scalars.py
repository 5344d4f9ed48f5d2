from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pwb.errors import ZeroElementError
from pwb.scalars import Cyclo, cyclotomic_polynomial, euler_phi, rational, zeta


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert len(cyclotomic_polynomial(105)) == euler_phi(105) + 1


def test_zeta_constructor_identity():
    assert zeta(1, 0) == 1
    assert zeta(4, 2) == -1  # i^2
    assert zeta(3, 1) + zeta(3, 2) == -1  # forced by Phi_3


def test_zeta_powers_wrap():
    assert zeta(3, 4) == zeta(3, 1)
    assert zeta(5, 5) == 1
    assert zeta(2) == -1


def test_mixed_conductor_arithmetic():
    a = zeta(3)
    b = zeta(4)
    s = a + b
    assert s - b == a
    assert (a * b) == zeta(12, 4 + 3)  # zeta_12^4 = zeta_3, zeta_12^3 = zeta_4


def test_inverse_and_division():
    a = zeta(5) + 2
    assert (a * a.inverse()).is_one()
    assert (a / a).is_one()
    with pytest.raises(ZeroElementError):
        Cyclo.of(0).inverse()


def test_root_of_unity_orders():
    assert Cyclo.of(1).root_of_unity_order() == 1
    assert Cyclo.of(-1).root_of_unity_order() == 2
    assert zeta(3).root_of_unity_order() == 3
    assert zeta(12, 2).root_of_unity_order() == 6
    assert rational(1, 2).root_of_unity_order() is None
    assert (zeta(3) + 1).root_of_unity_order() == 6  # 1 + zeta_3 = -zeta_3^2
    with pytest.raises(ZeroElementError):
        Cyclo.of(0).root_of_unity_order()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 23), st.sampled_from([1, 2, 3, 4, 5]),
       st.sampled_from([0, 1, 2, Fraction(1, 2)]))
def test_root_of_unity_log_matches_powers(n, k, lift, shift):
    # zeta_n^k stored at a larger conductor, plus a shift that is usually not
    # a root of unity; the order is checked against plain repeated products
    c = (zeta(n, k) + shift).lift_to(n * lift) if shift else zeta(n, k).lift_to(n * lift)
    assume(not c.is_zero())
    power, order = c, 1
    while not power.is_one() and order <= 2 * n * lift:
        power, order = power * c, order + 1
    expected = order if power.is_one() else None
    log = c.root_of_unity_log()
    if expected is None:
        assert log is None and c.root_of_unity_order() is None
    else:
        a, m = log
        assert zeta(m, a) == c and c.root_of_unity_order() == expected


def test_rational_detection():
    assert (zeta(3) + zeta(3, 2)).as_fraction() == -1
    assert rational(3, 6).as_fraction() == Fraction(1, 2)


scalar_samples = st.sampled_from([
    Cyclo.of(0), Cyclo.of(1), Cyclo.of(-2), rational(1, 2), rational(-3, 7),
    zeta(3), zeta(4), zeta(3) + 1, zeta(6) - rational(1, 3), zeta(8, 3) * 2,
])


@settings(max_examples=60, deadline=None)
@given(scalar_samples, scalar_samples, scalar_samples)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    if not a.is_zero():
        assert (a * a.inverse()).is_one()


@settings(max_examples=40, deadline=None)
@given(scalar_samples, scalar_samples)
def test_conductor_lifting_is_homomorphism(a, b):
    m = 12
    if 12 % a.n or 12 % b.n:
        return
    assert a.lift_to(m) + b.lift_to(m) == (a + b).lift_to(m)
    assert a.lift_to(m) * b.lift_to(m) == (a * b).lift_to(m)
