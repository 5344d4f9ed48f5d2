import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwb.errors import FileFormatError, PwbError
from pwb.families import quantum_matrices
from pwb.formats import (emit_algebra, emit_map, parse_algebra, parse_lie, parse_map,
                         parse_matrix)
from pwb.linalg import Matrix
from pwb.rings import PolyRing
from pwb.scalars import zeta

ALGEBRA_SRC = """
algebra A {
  vars: x, y, z;
  bracket{x,y} = "z^2";
  bracket{y,z} = x^2;   # bare expressions work too
  bracket{z,x} = y^2;
}
"""


def test_parse_algebra():
    name, A = parse_algebra(ALGEBRA_SRC)
    assert name == "A"
    assert A.ring.names == ("x", "y", "z")
    assert A.pair(0, 1) == A.ring.parse("z^2")
    assert A.pair(2, 0) == A.ring.parse("y^2")
    assert A.quadratic


def test_algebra_roundtrip():
    _, A = parse_algebra(ALGEBRA_SRC)
    text = emit_algebra("A", A)
    name2, B = parse_algebra(text)
    assert B.table.keys() == A.table.keys()
    for k in A.table:
        assert A.table[k] == B.table[k]
    # and a second emission is byte-identical
    assert emit_algebra(name2, B) == text


def test_qmatrix_roundtrip():
    A = quantum_matrices(2)
    text = emit_algebra("m2", A)
    _, B = parse_algebra(text)
    for k in A.table:
        assert A.table[k] == B.table[k]


def test_parse_algebra_errors():
    with pytest.raises(FileFormatError):
        parse_algebra("algebra A { bracket{x,y} = x; }")
    with pytest.raises(FileFormatError):
        parse_algebra("nonsense")
    with pytest.raises(FileFormatError):
        parse_algebra("algebra A { vars: x, y; bracket{x,x} = x^2; }")


@pytest.mark.parametrize("text, name", [
    ("algebra A { vars: x y, z; }", "x y"),
    ("algebra A { vars: 1, z; bracket{1,z} = 1*z; }", "1"),
])
def test_parse_algebra_rejects_a_variable_name_that_is_not_an_identifier(text, name):
    with pytest.raises(FileFormatError, match=f"'{name}'"):
        parse_algebra(text)


MAP_SRC = """
map g on A {
  x -> zeta(3)*x;
  y -> y;
  z -> z;
}
"""


def test_parse_map():
    ring = PolyRing(["x", "y", "z"])
    name, on, g = parse_map(MAP_SRC, ring)
    assert (name, on) == ("g", "A")
    assert g.matrix.rows[0][0] == zeta(3)
    assert g.matrix.rows[1][1].is_one()


def test_map_defaults_identity():
    ring = PolyRing(["x", "y"])
    _, _, g = parse_map("map s on A { x -> y; y -> x; }", ring)
    assert g.matrix == Matrix([[0, 1], [1, 0]])
    _, _, h = parse_map("map t on A { x -> 2*x; }", ring)
    assert h.matrix == Matrix([[2, 0], [0, 1]])


def test_map_roundtrip():
    ring = PolyRing(["x", "y", "z"])
    _, _, g = parse_map(MAP_SRC, ring)
    text = emit_map("g", "A", g, ring)
    _, _, h = parse_map(text, ring)
    assert g.matrix == h.matrix


def test_map_degree_guard():
    ring = PolyRing(["x", "y"])
    with pytest.raises(FileFormatError):
        parse_map("map g on A { x -> x^2; }", ring)


LIE_SRC = """
lie g {
  dim: 3;
  bracket{1,2} = x2;
  bracket{1,3} = 2*x2 - zeta(3)*x3;
}
"""


def test_parse_lie_roundtrip():
    name, lie = parse_lie(LIE_SRC)
    assert name == "g" and lie.dimension == 3
    assert {k: [str(c) for c in v] for k, v in lie.brackets.items()} == {
        (0, 1): ["0", "1", "0"], (0, 2): ["0", "2", "-zeta(3)"]}


def test_parse_matrix_roundtrip():
    text = "0 1/2 zeta(3)\n-1/2 0 2\n-1 -2 0\n"
    m = parse_matrix(text)
    assert m.rows[0][2] == zeta(3)
    assert [[str(x) for x in row] for row in m.rows] == [
        ["0", "1/2", "zeta(3)"], ["-1/2", "0", "2"], ["-1", "-2", "0"]]


def test_all_families_roundtrip_through_pois_files():
    from pwb.families import (homogenized_weyl, jacobian_pq, lie_two_dim_nonabelian,
                              ph_lie, quantum_matrices, skew_symmetric, weyl)
    algebras = [
        skew_symmetric(Matrix([[0, zeta(3)], [-zeta(3), 0]])),
        jacobian_pq(-1, 1), jacobian_pq(1, 0),
        quantum_matrices(2), quantum_matrices(3),
        weyl(2), homogenized_weyl(2), ph_lie(lie_two_dim_nonabelian()),
    ]
    for A in algebras:
        text = emit_algebra("A", A)
        _, B = parse_algebra(text, check_jacobi=False)
        assert B.ring.names == A.ring.names
        assert B.table.keys() == A.table.keys()
        for k in A.table:
            assert A.table[k] == B.table[k]


# Parser fuzzing.  Integers come from a small alphabet and tokens are always
# separated by whitespace, so no example can spell a large dimension, index,
# exponent or conductor.
_VALUES = ["-1", "0", "1", "2", "3", "two", "a", "1/2"]
_EXPR_TOKENS = ["x1", "x2", "x3", "zeta(3)", "+", "-", "*", "^", "/", "(", ")"] + _VALUES
_LIE_TOKENS = (["lie", "g", "{", "}", ";", ":", "=", ",", "dim", "bracket", "bracket{1,2}",
                "#", "\n"] + _EXPR_TOKENS)
_MATRIX_TOKENS = ["zeta(4)", "zeta(0)", "zeta", "x", "1/0", "0^0", "2^3", "(1+zeta(3))^2",
                  "-zeta(12)", "+", "-", "*", "/", "^", "(", ")", "#", "."] + _VALUES


def _token_texts(tokens, separators=(" ",)):
    pairs = st.tuples(st.sampled_from(tokens), st.sampled_from(separators))
    return st.lists(pairs, max_size=24).map(lambda ps: "".join(t + s for t, s in ps))


_LIE_TEXTS = st.one_of(
    _token_texts(_LIE_TOKENS),
    st.builds("lie g {{ dim: {}; bracket{{{},{}}} = {}; }}".format,
              st.sampled_from(_VALUES + [""]), st.sampled_from(_VALUES), st.sampled_from(_VALUES),
              _token_texts(_EXPR_TOKENS)))


def _parses_or_pwb_error(parse, text):
    try:
        parse(text)
    except PwbError:
        pass


@settings(max_examples=150, deadline=None)
@given(_LIE_TEXTS)
def test_parse_lie_fuzz(text):
    _parses_or_pwb_error(parse_lie, text)


@settings(max_examples=150, deadline=None)
@given(_token_texts(_MATRIX_TOKENS, separators=(" ", "\n")))
def test_parse_matrix_fuzz(text):
    _parses_or_pwb_error(parse_matrix, text)


_ALG_EXPR_TOKENS = ["x", "y", "z", "w", "zeta(3)", "+", "-", "*", "^", "/", "(", ")"] + _VALUES
_ALGEBRA_TOKENS = (["algebra", "A", "{", "}", ";", ":", "=", ",", "vars", "vars:", "bracket",
                    "bracket{x,y}", "bracket{y,z}", "bracket{x,x}", "bracket{x,w}", '"', "#",
                    "\n"] + _ALG_EXPR_TOKENS)
_VAR_LISTS = ["x, y", "x, y, z", "x", "", "x, x", "x y", "1", "x,, y", "zeta(3), y"]
_ALGEBRA_TEXTS = st.one_of(
    _token_texts(_ALGEBRA_TOKENS),
    st.builds("algebra A {{ vars: {}; bracket{{{},{}}} = {}; }}".format,
              st.sampled_from(_VAR_LISTS), st.sampled_from(["x", "y", "z", "w", "1", ""]),
              st.sampled_from(["x", "y", "z", "w", "1", ""]), _token_texts(_ALG_EXPR_TOKENS)))
_MAP_TOKENS = (["map", "g", "on", "A", "{", "}", ";", "->", "=", ",", "#", "\n"]
               + _ALG_EXPR_TOKENS)
_MAP_TEXTS = st.one_of(
    _token_texts(_MAP_TOKENS),
    st.builds("map g on A {{ {} -> {}; }}".format,
              st.sampled_from(["x", "y", "z", "w", "1", "", "x y"]),
              _token_texts(_ALG_EXPR_TOKENS)))


@settings(max_examples=150, deadline=None)
@given(_ALGEBRA_TEXTS)
def test_parse_algebra_fuzz(text):
    _parses_or_pwb_error(parse_algebra, text)


@settings(max_examples=150, deadline=None)
@given(_MAP_TEXTS)
def test_parse_map_fuzz(text):
    _parses_or_pwb_error(lambda t: parse_map(t, PolyRing(["x", "y", "z"])), text)
