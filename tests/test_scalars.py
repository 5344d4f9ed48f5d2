from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pwb.errors import ScalarError, ZeroElementError
from pwb.formats import cyclo_json
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


# -- differential test against the Fraction-tuple reference -------------------

CONDUCTOR_PAIRS = [(n, n) for n in (1, 2, 3, 4, 6, 12)] + [(2, 3), (3, 12), (4, 6)]
SMALL_FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def coefficient_lists(draw, n):
    """Coefficients at conductor n: random small fractions, or +-1 times a
    power of zeta_n, so that roots of unity are drawn too."""
    if draw(st.booleans()):
        return [draw(SMALL_FRACTIONS) for _ in range(euler_phi(n))]
    return [draw(st.sampled_from([1, -1])) * x for x in zeta(n, draw(st.integers(0, 2 * n))).c]


def same(new, old):
    # stored alike, and printed as the reference prints at the least conductor
    from oracle import least_conductor
    assert new.n == old.n, (new, old)
    assert new.c == old.c, (new, old)
    assert str(new) == str(least_conductor(old))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CONDUCTOR_PAIRS).flatmap(
    lambda nm: st.tuples(coefficient_lists(nm[0]).map(lambda c: (nm[0], c)),
                         coefficient_lists(nm[1]).map(lambda c: (nm[1], c)))),
       SMALL_FRACTIONS, st.integers(-3, 4), st.sampled_from([1, 2, 3]))
def test_cyclo_matches_fraction_reference(operands, r, k, stretch):
    from oracle import OracleCyclo
    (n, ca), (m, cb) = operands
    a, b = Cyclo(n, ca), Cyclo(m, cb)
    oa, ob = OracleCyclo(n, ca), OracleCyclo(m, cb)
    same(a, oa)
    same(b, ob)
    same(a + b, oa + ob)
    same(a - b, oa - ob)
    same(a * b, oa * ob)
    same(-a, -oa)
    for x, ox in ((a, oa), (b, ob)):
        same(x + r, ox + r)
        same(r - x, r - ox)
        same(x * r, ox * r)
        same(r * x, r * ox)
        assert x.is_rational() == ox.is_rational()
        assert x.is_zero() == ox.is_zero() and x.is_one() == ox.is_one()
        assert (x == r) == (ox == r)
        if r:
            same(x / r, ox / r)
        lift = x.n * stretch
        same(x.lift_to(lift), ox.lift_to(lift))
        if x.is_zero():
            with pytest.raises(ZeroElementError):
                x.inverse()
            if k >= 0:
                same(x ** k, ox ** k)
            continue
        same(x.inverse(), ox.inverse())
        same(r / x, r / ox)
        same(x ** k, ox ** k)
        assert x.root_of_unity_log() == ox.root_of_unity_log()
        assert x.root_of_unity_order() == ox.root_of_unity_order()
    assert (a == b) == (oa == ob)
    if not b.is_zero():
        same(a / b, oa / ob)


def test_inverse_stays_at_the_stored_conductor():
    # -2 + 2*zeta(6) = 2*zeta(3); its inverse at conductor 6 stays there, and
    # both print at conductor 3
    x = Cyclo(2, [3])
    assert x.inverse().n == 2 and str(x.inverse()) == "1/3"
    y = zeta(6) * 2 - 2
    assert y == 2 * zeta(3) and str(y) == "2*zeta(3)"
    assert y.inverse().n == 6 and y * y.inverse() == 1
    assert y.inverse() == zeta(3, 2) / 2 and str(y.inverse()) == "-1/2 - 1/2*zeta(3)"


# -- one value, one print ------------------------------------------------------

LEAST_BASES = (1, 3, 4, 5, 8, 9, 12)


@st.composite
def stored_values(draw):
    """(x, k): x a value drawn at conductor 1, 3, 4, 5, 8, 9 or 12, plus one
    time in two a value drawn at 1, 3 or 4 (so it may need the lcm), and k a
    stretch with N k <= 120, N the conductor of x.  The test lifts x to N k
    and 2 N k, which is 2 (mod 4) when N k is odd."""
    n = draw(st.sampled_from(LEAST_BASES))
    x = Cyclo(n, draw(coefficient_lists(n)))
    if draw(st.booleans()):
        m = draw(st.sampled_from((1, 3, 4)))
        x = x + Cyclo(m, draw(coefficient_lists(m)))
    return x, draw(st.sampled_from([k for k in (1, 2, 3, 5, 6) if x.n * k <= 120]))


def printed(x):
    return str(x), cyclo_json(x)


@settings(max_examples=120, deadline=None)
@given(stored_values())
def test_a_value_prints_at_its_least_conductor_however_it_is_stored(case):
    from oracle import OracleCyclo, least_conductor
    x, stretch = case
    ref = least_conductor(OracleCyclo(x.n, x.c))
    expected = (str(ref), {"conductor": ref.n, "coeffs": [str(c) for c in ref.c],
                           "str": str(ref)})
    for y in (x, x.lift_to(x.n * stretch), x.lift_to(2 * x.n * stretch)):
        assert y == x and printed(y) == expected
        least = y.least()
        assert least == x and least.n == ref.n and least.least() is least


def test_a_root_prints_alike_at_conductor_1_or_2():
    # extract_roots stores the root -1 of a rational polynomial at conductor
    # 1, and of (t + 1)(t + zeta_4) at conductor 2
    from pwb.upoly import UPoly, extract_roots
    found = [r for p in (UPoly([1, 1]), UPoly([zeta(4), 1]) * UPoly([1, 1]))
             for r in extract_roots(p)[0] if r == -1]
    assert [r.n for r in found] == [1, 2]
    assert [printed(r) for r in found] == [("-1", {"conductor": 1, "coeffs": ["-1"],
                                                   "str": "-1"})] * 2


# -- scalar contract --------------------------------------------------------


def test_cyclotomic_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 61):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in expected), n


def test_constructor_rejects_bad_conductor_and_length():
    with pytest.raises(ScalarError):
        Cyclo(0, [])
    with pytest.raises(ScalarError):
        Cyclo(-3, [1, 2])
    with pytest.raises(ScalarError):
        Cyclo(3, [1])
    with pytest.raises(ScalarError):
        Cyclo(12, [1, 2, 3])
    with pytest.raises(ScalarError):
        zeta(0)


def test_cyclo_is_immutable():
    x = zeta(3)
    for name in ("n", "num", "den", "c", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    assert x == zeta(3)


def test_numerators_share_no_factor_with_the_denominator():
    x = Cyclo(6, [Fraction(2, 4), Fraction(-3, 6)])
    assert x == Cyclo(6, [1, -1]) / 2
    assert (x.num, x.den) == ((1, -1), 2)
    # (1 - zeta_6) / 2 = -zeta_3 / 2, printed at conductor 3
    assert x == -zeta(3) / 2 and str(x) == "-1/2*zeta(3)"
    assert x.c == (Fraction(1, 2), Fraction(-1, 2))
    zero = x - x
    assert (zero.n, zero.num, zero.den) == (6, (0, 0), 1)
    assert ((x * 2).num, (x * 2).den) == ((1, -1), 1)
