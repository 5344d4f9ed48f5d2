from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pwb.errors import DivisorZeroError, ParseError, PwbError, UnknownVariableError
from pwb.linalg import Matrix
from pwb.rings import MAX_CONDUCTOR, Poly, PolyRing, embed
from pwb.scalars import Cyclo, zeta

R3 = PolyRing(["x", "y", "z"])


def P(src: str) -> Poly:
    return R3.parse(src)


def test_parse_basic():
    f = P("x^2 - y*z/3")
    assert f.coefficient((2, 0, 0)) == 1
    assert f.coefficient((0, 1, 1)) == Fraction(-1, 3)
    assert len(f.terms) == 2


def test_parse_zeta_coefficient():
    f = P("zeta(3)*x*y")
    assert f.coefficient((1, 1, 0)) == zeta(3)


def test_parse_expansion():
    assert P("(x+y)^2") == P("x^2 + 2*x*y + y^2")


def test_parse_errors():
    with pytest.raises(UnknownVariableError):
        P("x + w")
    with pytest.raises(ParseError) as e:
        P("x + ")
    assert e.value.position == 4
    with pytest.raises(ParseError):
        P("x/(y)")


def test_parse_caps_the_conductor():
    assert P(f"zeta({MAX_CONDUCTOR})*x").coefficient((1, 0, 0)) == zeta(MAX_CONDUCTOR)
    with pytest.raises(ParseError) as e:
        P("x + zeta(100000)^2*y")
    assert e.value.position == 9 and "100000" in str(e.value)


def test_print_parse_roundtrip():
    samples = [
        "x^2 - y*z/3", "zeta(3)*x*y", "(x+y)^2", "0", "7",
        "-x + y - 1/2", "(1+zeta(4))*x^3*z - 2*y",
        "x^2*y^2*z^2 + zeta(8)^3*x",
    ]
    for s in samples:
        f = P(s)
        assert R3.parse(str(f)) == f


def test_partial_derivatives():
    fpq = P("1/3*(x^3+y^3+z^3) + x*y*z")  # p = q = 1
    assert fpq.partial(2) == P("z^2 + x*y")
    assert R3.scalar(5).partial(0).is_zero()
    assert P("x^3*y").partial(0) == P("3*x^2*y")


def test_partials_commute():
    f = P("(x+2*y+3*z)^3 - x*y*z + z^2")
    for i in range(3):
        for j in range(3):
            assert f.partial(i).partial(j) == f.partial(j).partial(i)


def test_divides():
    u, f = P("x"), P("x^2*y + x*z")
    assert oracle.divides_into(u, f) == P("x*y + z")
    assert oracle.divides_into(P("x+y"), P("x^2 - y^2")) == P("x - y")
    assert oracle.divides_into(P("x+y"), P("x^2 + y^2")) is None
    with pytest.raises(DivisorZeroError):
        oracle.divides_into(R3.zero(), f)


def test_divides_reconstructs():
    u = P("x + 2*y - z")
    q = P("x^2 - y*z + 3")
    f = u * q
    assert oracle.divides_into(u, f) == q


def test_divides_normal_line_of_cubic_bracket():
    # with {x,y} = xy - z^2 etc. (the p = -q cubic), the bracket of x with the
    # line u = x + g y + g^2 z is exactly divisible by u
    from pwb.families import jacobian_pq
    A = jacobian_pq(-1, 1)
    g = zeta(3)
    u = A.ring.linear_form([1, g, g * g])
    br = A.bracket(A.ring.var(0), u)
    assert oracle.divides_into(u, br) is not None


def test_linear_coefficients_invert_linear_form():
    coeffs = [Cyclo.of(2), Cyclo.of(0), -zeta(3)]
    assert R3.linear_form(coeffs).linear_coefficients() == coeffs
    assert [str(c) for c in P("3 - y + 1/2*z").linear_coefficients()] == ["0", "-1", "1/2"]
    assert R3.zero().linear_coefficients() == [0, 0, 0]
    with pytest.raises(PwbError, match="degree above one"):
        P("x + y*z").linear_coefficients()


def test_apply_linear_identity_and_diag():
    f = P("x^2*y")
    assert f.apply_linear(Matrix.identity(3)) == f
    g = Matrix.diagonal([zeta(3), 1, 1])
    assert f.apply_linear(g) == f * zeta(3, 2)


def test_apply_linear_swap():
    # swap y and z, fix x; y*z is fixed
    g = Matrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert P("y*z").apply_linear(g) == P("y*z")
    assert P("y^2").apply_linear(g) == P("z^2")


def test_apply_linear_composition():
    # T_{g1*g2} = T_{g1} . T_{g2}: the inner map g2 is applied to f's image under g1... i.e.
    # substituting with g1*g2 equals substituting with g2 first, then g1 on the result.
    g1 = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    g2 = Matrix([[2, 0, 0], [0, 1, 1], [0, 0, 1]])
    f = P("x*y + z^2 - x^2")
    assert f.apply_linear(g1 * g2) == f.apply_linear(g2).apply_linear(g1)


def test_column_convention():
    # g(x) = x + 2y means column 0 is (1, 2, 0)
    g = Matrix([[1, 0, 0], [2, 1, 0], [0, 0, 1]])
    assert P("x").apply_linear(g) == P("x + 2*y")


def test_embed():
    target = PolyRing(["t", "x", "y", "z"])
    f = P("x*y - z")
    g = embed(f, target)
    assert g == target.parse("x*y - z")


poly_samples = st.sampled_from([
    "0", "1", "x", "x+y", "x*y - z^2", "(x+y+z)^2", "zeta(3)*x - y",
    "x^2*y", "z^3 - 1/2*x", "2*x*z + 7",
])


@settings(max_examples=50, deadline=None)
@given(poly_samples, poly_samples, poly_samples)
def test_ring_axioms(a, b, c):
    f, g, h = P(a), P(b), P(c)
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f


def test_monomials_of_degree():
    ms = R3.monomials_of_degree(2)
    assert len(ms) == 6
    assert ms[0] == (2, 0, 0)  # grlex-descending
    ws = PolyRing(["a", "w"]).monomials_of_degree(4, weights=[1, 2])
    assert set(ws) == {(4, 0), (2, 1), (0, 2)}


def test_signed_sums_print_alike():
    # Cyclo, UPoly, Poly and enveloping relations share one signed-sum printer:
    # a coefficient printed as a sum or a difference is parenthesised before a
    # monomial, 1 and -1 print as a sign, and a leading '-' is subtracted
    from pwb.envelope import envelope_presentation
    from pwb.families import skew_symmetric
    from pwb.scalars import Cyclo
    from pwb.upoly import UPoly
    w = zeta(3)
    d = -1 - w
    assert str(d) == "-1 - zeta(3)"
    assert str(Cyclo(5, [0, -1, Fraction(1, 2), 1])) == "-zeta(5) + 1/2*zeta(5)^2 + zeta(5)^3"
    assert (str(UPoly([d, 1, -1, w + 2, d, Fraction(-1, 2)]))
            == "-1/2*t^5 + (-1 - zeta(3))*t^4 + (2 + zeta(3))*t^3 - t^2 + t - 1 - zeta(3)")
    R = PolyRing(["x", "y"])
    p = (R.parse("x^2") * d + R.parse("x*y") * (w + 1) - R.parse("y^2")
         + R.parse("x") * Cyclo.of(Fraction(-2, 3)) + R.scalar(d))
    assert str(p) == "(-1 - zeta(3))*x^2 + (1 + zeta(3))*x*y - y^2 - 2/3*x + (-1 - zeta(3))"
    assert str(R.parse("y - 3")) == "y - 3"
    relations = envelope_presentation(skew_symmetric(Matrix([[0, d], [-d, 0]]))).relation_strings()
    assert relations[1:4] == ["-m_x1*h_x1 + h_x1*m_x1 = 0",
                              "(1 + zeta(3))*m_x1*m_x2 - m_x2*h_x1 + h_x1*m_x2 = 0",
                              "(-1 - zeta(3))*m_x1*m_x2 - m_x1*h_x2 + h_x2*m_x1 = 0"]
