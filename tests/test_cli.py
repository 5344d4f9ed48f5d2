import hashlib
import json
from collections import Counter

import pytest

import oracle
from pwb import fixedrings, symmetry
from pwb.cli import main
from pwb.formats import parse_map, series_json
from pwb.rings import PolyRing

JAC10 = """
algebra jac {
  vars: x, y, z;
  bracket{x,y} = z^2;
  bracket{y,z} = x^2;
  bracket{z,x} = y^2;
}
"""

SKEW = """
algebra S {
  vars: x, y;
  bracket{x,y} = 2*x*y;
}
"""

BAD = """
algebra bad {
  vars: x, y, z;
  bracket{x,y} = x^2;
  bracket{z,x} = z^2;
}
"""

ZETA3_MAP = """
map g on S {
  x -> zeta(3)*x;
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def test_check_ok(tmp_path, capsys):
    f = tmp_path / "jac.pois"
    f.write_text(JAC10)
    code, report = run(capsys, "check", "--algebra", str(f))
    assert code == 0 and report["result"]["jacobi"] is True
    assert report["schema"] == "pwb/1"
    assert str(f) in report["inputs"]


def test_check_bad_exit2(tmp_path, capsys):
    f = tmp_path / "bad.pois"
    f.write_text(BAD)
    # no --defer-jacobi needed: check reports the violation as its finding
    code, report = run(capsys, "check", "--algebra", str(f))
    assert code == 2
    assert report["result"]["failing_triple"] == ["x", "y", "z"]


def test_other_commands_fail_fast_on_bad_algebra(tmp_path, capsys):
    f = tmp_path / "bad.pois"
    f.write_text(BAD)
    code, report = run(capsys, "normal", "--algebra", str(f))
    assert code == 1
    code, report = run(capsys, "normal", "--algebra", str(f), "--defer-jacobi")
    assert code == 0


def test_check_map_not_automorphism(tmp_path, capsys):
    f = tmp_path / "bad.pois"
    f.write_text(BAD)
    m = tmp_path / "g.map"
    m.write_text("map g on bad { y -> zeta(3)*y; }")
    code, report = run(capsys, "check", "--algebra", str(f), "--defer-jacobi",
                       "--map", str(m))
    assert code == 2
    assert report["result"]["maps"][0]["classification"]["kind"] == "not_automorphism"


def test_reflections_none(tmp_path, capsys):
    f = tmp_path / "jac.pois"
    f.write_text(JAC10)
    code, report = run(capsys, "reflections", "--algebra", str(f))
    assert code == 0
    assert report["result"]["status"] == "no_reflections"
    assert report["result"]["reflections"] == "none"


def test_normal_and_trace_and_molien(tmp_path, capsys):
    f = tmp_path / "s.pois"
    f.write_text(SKEW)
    code, report = run(capsys, "normal", "--algebra", str(f))
    assert code == 0
    assert report["result"]["normal_elements"]["kind"] == "points"

    m = tmp_path / "g.map"
    m.write_text(ZETA3_MAP)
    code, report = run(capsys, "trace", "--algebra", str(f), "--map", str(m))
    assert code == 0
    assert report["result"]["classification"]["kind"] == "reflection"

    code, report = run(capsys, "molien", "--algebra", str(f), "--group", str(m))
    assert code == 0
    assert report["result"]["group_order"] == 3
    taylor = [c["str"] for c in report["result"]["taylor"]]
    assert taylor[:4] == ["1", "1", "1", "2"]


@pytest.mark.parametrize("command", ["molien", "fixed", "report"])
def test_group_commands_reject_a_map_that_is_not_an_automorphism(tmp_path, capsys, command):
    f = tmp_path / "s.pois"
    f.write_text(SKEW)
    m = tmp_path / "swap.map"
    m.write_text("map swap on S { x -> y; y -> x; }")
    code, report = run(capsys, command, "--algebra", str(f), "--group", str(m))
    assert code == 1 and report["result"] is None
    assert report["diagnostics"] == [
        "NotAutomorphismError: map 'swap' is not a Poisson automorphism of S: "
        "it breaks the bracket of x and y"]


@pytest.mark.parametrize("command", ["molien", "fixed", "report"])
def test_infinite_order_map_fails_before_the_closure(tmp_path, capsys, command):
    f = tmp_path / "s.pois"
    f.write_text(SKEW)
    g = tmp_path / "g.map"
    g.write_text(ZETA3_MAP)
    m = tmp_path / "scale.map"
    m.write_text("map scale on S { x -> 2*x; }")
    code, report = run(capsys, command, "--algebra", str(f), "--group", f"{g},{m}")
    assert code == 1 and report["result"] is None
    assert report["diagnostics"] == ["InfiniteOrderError: map 'scale' has infinite order"]


def test_fixed_and_report(tmp_path, capsys):
    f = tmp_path / "s.pois"
    f.write_text(SKEW)
    m = tmp_path / "g.map"
    m.write_text(ZETA3_MAP)
    code, report = run(capsys, "fixed", "--algebra", str(f), "--group", str(m))
    assert code == 0
    fixed = report["result"]["fixed_ring"]
    assert fixed["polynomial"] is True
    exprs = {g["expression"] for g in fixed["generators"]}
    assert exprs == {"x^3", "y"}
    assert fixed["skew_presentation"] is not None

    code, report = run(capsys, "report", "--algebra", str(f), "--group", str(m))
    assert code == 0
    assert report["result"]["verdict"] in ("distinguished", "not_distinguished")
    assert "unimodular" in report["result"]


def test_family_roundtrip(tmp_path, capsys):
    out = tmp_path / "m2.pois"
    code, report = run(capsys, "family", "qmatrix", "--n", "2", "--out", str(out))
    assert code == 0 and out.exists()
    code, report = run(capsys, "normal", "--algebra", str(out))
    assert code == 0
    assert report["result"]["normal_elements"]["kind"] == "subspace"


def test_family_jacobian_args(tmp_path, capsys):
    code, report = run(capsys, "family", "jacobian", "--p", "-1", "--q", "1")
    assert code == 0
    assert "bracket{x,y}" in report["result"]["algebra_file"]


def test_family_skew_from_matrix_file(tmp_path, capsys):
    mat = tmp_path / "q.mat"
    mat.write_text("0 zeta(3)\n-1*zeta(3) 0\n")
    out = tmp_path / "s.pois"
    code, report = run(capsys, "family", "skew", "--matrix", str(mat), "--out", str(out))
    assert code == 0
    code, report = run(capsys, "check", "--algebra", str(out))
    assert code == 0 and report["result"]["jacobi"] is True


def test_family_skew_ragged_matrix_file(tmp_path, capsys):
    mat = tmp_path / "q.mat"
    mat.write_text("1 0\n0\n")
    code, report = run(capsys, "family", "skew", "--matrix", str(mat))
    assert code == 1 and report["result"] is None
    assert report["diagnostics"][0].startswith("FileFormatError: ragged matrix")


@pytest.mark.parametrize("body, message", [
    ("dim: two;", "dim must be an integer, found 'two'"),
    ("dim", "dim must be an integer, found ''"),
    ("dim: 2; bracket{a,b} = x1;", "bracket index must be an integer, found 'a'"),
    ("dim: -1;", "dim must be non-negative, found -1"),
    ("dim: 2; bracket{3,1} = x1;", "bracket{3,1} index outside 1..2"),
])
def test_family_ph_lie_bad_lie_file(tmp_path, capsys, body, message):
    lie = tmp_path / "g.lie"
    lie.write_text(f"lie g {{ {body} }}\n")
    code, report = run(capsys, "family", "ph-lie", "--lie", str(lie))
    assert code == 1 and report["result"] is None
    assert report["diagnostics"] == [f"FileFormatError: {message}"]


def test_family_ph_lie_zero_dim(tmp_path, capsys):
    lie = tmp_path / "g.lie"
    lie.write_text("lie g { dim: 0; }\n")
    code, report = run(capsys, "family", "ph-lie", "--lie", str(lie))
    assert code == 0


def test_family_ph_lie_large_abelian(tmp_path, capsys):
    # the Jacobi check visits only triples with a nonzero bracket
    lie = tmp_path / "g.lie"
    lie.write_text("lie g { dim: 60; }\n")
    code, report = run(capsys, "family", "ph-lie", "--lie", str(lie))
    assert code == 0
    assert len(report["result"]["vars"]) == 61


def test_fixed_with_two_generators(tmp_path, capsys):
    f = tmp_path / "m2.pois"
    run(capsys, "family", "qmatrix", "--n", "2", "--out", str(f))
    g1 = tmp_path / "swap.map"
    g1.write_text("map s on m2 { b -> c; c -> b; }")
    g2 = tmp_path / "signs.map"
    g2.write_text("map t on m2 { b -> -1*b; c -> -1*c; }")
    code, report = run(capsys, "fixed", "--algebra", str(f),
                       "--group", f"{g1},{g2}", "--degree", "4")
    assert code == 0
    assert report["result"]["group_order"] == 4


def test_envelope(tmp_path, capsys):
    f = tmp_path / "s.pois"
    f.write_text(SKEW)
    m = tmp_path / "g.map"
    m.write_text(ZETA3_MAP)
    code, report = run(capsys, "envelope", "--algebra", str(f), "--dims", "3",
                       "--extend", str(m), "--trace", str(m))
    assert code == 0
    r = report["result"]
    assert r["dims"] == [1, 4, 10, 20]
    assert r["extension"]["relations_preserved"] is True
    assert r["trace"]["quasi_reflection"] is False
    assert any("m_x" in s for s in r["relations"])


def test_envelope_trace_bytes_of_the_readme_swap(tmp_path, capsys):
    # the b <-> c swap of quantum_matrices(2): 1/((1 + t)^2 (1 - t)^6)
    f = tmp_path / "m2.pois"
    run(capsys, "family", "qmatrix", "--n", "2", "--out", str(f))
    m = tmp_path / "swap.map"
    m.write_text("map s on m2 {\n  b -> c;\n  c -> b;\n}\n")
    code, report = run(capsys, "envelope", "--algebra", str(f), "--trace", str(m))
    assert code == 0
    den = "t^8 - 4*t^7 + 4*t^6 + 4*t^5 - 10*t^4 + 4*t^3 + 4*t^2 - 4*t + 1"
    series = {"den": den, "num": "1", "str": f"1/({den})"}
    assert json.dumps(report["result"]["trace"], sort_keys=True) == json.dumps(
        {"map": "s", "series": series, "factored": series, "quasi_reflection": False},
        sort_keys=True)


JACOBI_FAILING = """
algebra bad {
  vars: x, y, z;
  bracket{x,y} = x^2;
  bracket{y,z} = x*y;
  bracket{x,z} = y^2;
}
"""


def test_envelope_of_a_jacobi_failing_table(tmp_path, capsys):
    # deferred, the table is no Groebner basis and degrees 3 and 4 are
    # eliminated; checked at load, the file is refused
    f = tmp_path / "bad.pois"
    f.write_text(JACOBI_FAILING)
    code, report = run(capsys, "envelope", "--algebra", str(f), "--defer-jacobi", "--dims", "4")
    assert code == 0
    assert report["result"]["dims"] == [1, 6, 21, 54, 108]
    code, report = run(capsys, "envelope", "--algebra", str(f), "--dims", "4")
    assert code == 1 and report["result"] is None
    assert report["diagnostics"] == ["JacobiFailsError: Jacobi identity fails on (x, y, z)"]


WEYL1 = """
algebra weyl1 {
  vars: x1, y1;
  bracket{x1,y1} = 1;
}
"""


@pytest.mark.parametrize("algebra, map_text, code, diagnostics", [
    (SKEW, ZETA3_MAP, 0, []),
    (SKEW, "map swap on S { x -> y; y -> x; }", 1,
     ["NotAutomorphismError: map does not preserve the bracket on ('x', 'y')"]),
    (WEYL1, "map t on weyl1 { x1 -> 2*x1; y1 -> 1/2*y1; }", 1,
     ["NotQuadraticError: enveloping presentation needs a quadratic bracket"]),
])
def test_envelope_extend_outcomes(tmp_path, capsys, algebra, map_text, code, diagnostics):
    f = tmp_path / "a.pois"
    f.write_text(algebra)
    m = tmp_path / "g.map"
    m.write_text(map_text)
    got, report = run(capsys, "envelope", "--algebra", str(f), "--extend", str(m))
    assert got == report["exit_code"] == code
    assert report["diagnostics"] == diagnostics
    if code == 0:
        assert report["result"]["extension"]["relations_preserved"] is True
    else:
        assert report["result"] is None


def test_envelope_negative_dims(tmp_path, capsys):
    f = tmp_path / "s.pois"
    f.write_text(SKEW)
    code, report = run(capsys, "envelope", "--algebra", str(f), "--dims", "-1")
    assert code == 1 and report["result"] is None
    assert report["diagnostics"][0].startswith("InvalidDegreeError")


@pytest.mark.parametrize("argv, message", [
    (["trace", "--map", "{m},{m}"], "--map names one map file, not 2"),
    (["envelope", "--extend", "{m},{m}"], "--extend names one map file, not 2"),
    (["envelope", "--trace", "{m},{m}"], "--trace names one map file, not 2"),
    (["family", "skew"], "family skew needs --matrix"),
    (["family", "ph-lie"], "family ph-lie needs --lie"),
])
def test_a_missing_option_or_a_second_map_file_is_a_usage_error(tmp_path, capsys, argv,
                                                                 message):
    f = tmp_path / "s.pois"
    f.write_text(SKEW)
    m = tmp_path / "g.map"
    m.write_text(ZETA3_MAP)
    argv = [a.format(m=m) for a in argv]
    if argv[0] != "family":
        argv += ["--algebra", str(f)]
    code, report = run(capsys, *argv)
    assert code == 1 and report["result"] is None and report["exit_code"] == 1
    assert report["diagnostics"] == [f"UsageError: {message}"]


@pytest.mark.parametrize("argv, message", [
    (["molien", "--group", "{m},"], "--group entry 2 of '{m},' is empty"),
    (["trace", "--map", ""], "--map entry 1 of '' is empty"),
])
def test_an_empty_map_file_entry_is_a_usage_error(tmp_path, capsys, argv, message):
    f = tmp_path / "s.pois"
    f.write_text(SKEW)
    m = tmp_path / "g.map"
    m.write_text(ZETA3_MAP)
    argv = [a.format(m=m) for a in argv] + ["--algebra", str(f), "--json"]
    code, report = run(capsys, *argv)
    assert code == 1 and report["result"] is None and report["exit_code"] == 1
    assert report["diagnostics"] == [f"UsageError: {message.format(m=m)}"]


SINGULAR_MAP = """
map s on S {
  x -> x + y;
  y -> 2*x + 2*y;
}
"""


@pytest.mark.parametrize("argv", [["check", "--map"], ["fixed", "--group"],
                                  ["envelope", "--extend"]])
def test_singular_map_is_reported(tmp_path, capsys, argv):
    f = tmp_path / "s.pois"
    f.write_text(SKEW)
    m = tmp_path / "s.map"
    m.write_text(SINGULAR_MAP)
    code, report = run(capsys, argv[0], "--algebra", str(f), argv[1], str(m))
    assert code == 1 and report["result"] is None and report["exit_code"] == 1
    assert report["diagnostics"] == ["SingularMatrixError: graded map must be invertible"]


@pytest.mark.parametrize("argv", [["molien", "--group", "--order", "-1"],
                                  ["fixed", "--group", "--degree", "-1"],
                                  ["report", "--group", "--degree", "-2"],
                                  ["fixed", "--group", "--budget", "-1"],
                                  ["normal", "--budget", "-3"],
                                  ["fixed", "--group", "--bound", "-1"],
                                  ["molien", "--group", "--bound", "-2"],
                                  ["envelope", "--dims", "3", "--cap", "-1"]])
def test_negative_order_or_degree_is_rejected_before_the_group(tmp_path, capsys, argv):
    f = tmp_path / "s.pois"
    f.write_text(SKEW)
    m = tmp_path / "g.map"
    m.write_text(ZETA3_MAP)
    argv = [a for arg in argv for a in ([arg, str(m)] if arg == "--group" else [arg])]
    code, report = run(capsys, argv[0], "--algebra", str(f), *argv[1:])
    assert code == 1 and report["result"] is None
    assert report["diagnostics"] == [f"InvalidDegreeError: {argv[-2][2:]} {argv[-1]} is negative"]
    assert report["inputs"] == {}


@pytest.mark.parametrize("argv", [["molien", "--order", "0"], ["fixed", "--degree", "0"],
                                  ["report", "--degree", "0"]])
def test_zero_order_or_degree_is_accepted(tmp_path, capsys, argv):
    f = tmp_path / "s.pois"
    f.write_text(SKEW)
    m = tmp_path / "g.map"
    m.write_text(ZETA3_MAP)
    code, report = run(capsys, argv[0], "--algebra", str(f), "--group", str(m), *argv[1:])
    assert str(m) in report["inputs"]
    if argv[0] == "molien":
        # coefficients of degrees 0 to --order
        assert code == 0 and [c["str"] for c in report["result"]["taylor"]] == ["1"]
    else:
        # degree 1 is already past the bound: an honest gap, not a rejected input
        assert code == 1 and report["diagnostics"][0].startswith("DegreeBoundTooSmallError")


def test_envelope_aliases(tmp_path, capsys):
    f = tmp_path / "s.pois"
    f.write_text(SKEW)
    code, report = run(capsys, "envelope", "--algebra", str(f), "--aliases-paper")
    assert code == 0
    assert report["result"]["generators"] == ["x1", "y1", "x2", "y2"]


# sha256 of the `pwb paper-suite --json` stdout.  The report holds no volatile
# field, so a change to its bytes is a change to a reproduced answer or to how
# one prints; update the digest only together with such an intended change.
PAPER_SUITE_SHA256 = "7b1854ace2317db1c332edd15d5f7aed3f5f2d1c2dda85215055f225233f15aa"


def test_paper_suite(capsys):
    code = main(["paper-suite", "--json"])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 0
    assert report["result"]["passed"] == report["result"]["total"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PAPER_SUITE_SHA256


def test_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.pois"
    f.write_text("not an algebra file")
    code, report = run(capsys, "normal", "--algebra", str(f))
    assert code == 1 and report["result"] is None


def test_non_utf8_input_is_a_file_format_error(tmp_path, capsys):
    f = tmp_path / "f.pois"
    f.write_bytes(b"\xff\xfe\x00")
    code, report = run(capsys, "check", "--algebra", str(f))
    assert code == 1 and report["result"] is None
    assert report["diagnostics"] == [
        f"FileFormatError: {f}: not UTF-8 text (byte 0: invalid start byte)"]


def test_missing_input_file_is_reported(tmp_path, capsys):
    f = tmp_path / "missing.pois"
    assert main(["check", "--algebra", str(f)]) == 1
    captured = capsys.readouterr()
    message = f"[Errno 2] No such file or directory: '{f}'"
    assert json.loads(captured.out) == {"schema": "pwb/1", "command": "check", "inputs": {},
                                        "result": None, "diagnostics": [message],
                                        "exit_code": 1}
    assert captured.err == f"error: {message}\n"


def test_determinism(tmp_path, capsys):
    f = tmp_path / "s.pois"
    f.write_text(SKEW)
    code1, report1 = run(capsys, "normal", "--algebra", str(f), "--json")
    code2, report2 = run(capsys, "normal", "--algebra", str(f), "--json")
    assert report1 == report2


def test_repeated_calls_print_the_same_bytes(tmp_path, capsys):
    # the parser is built once per process; later calls print what the first did
    f = tmp_path / "s.pois"
    f.write_text(SKEW)
    m = tmp_path / "g.map"
    m.write_text(ZETA3_MAP)
    calls = [["molien", "--algebra", str(f), "--group", str(m)],
             ["fixed", "--algebra", str(f), "--group", str(m), "--degree", "3", "--json"],
             ["normal", "--algebra", str(f)]]
    first = []
    for argv in calls:
        code = main(argv)
        first.append((code, capsys.readouterr()))
    for argv, (code, captured) in zip(calls * 2, first * 2):
        assert main(argv) == code
        again = capsys.readouterr()
        assert (again.out, again.err) == (captured.out, captured.err)


SKEW5 = "algebra skew5 {\n  vars: x1, x2, x3, x4, x5;\n" + "".join(
    f"  bracket{{x{i},x{j}}} = x{i}*x{j};\n" for i in range(1, 6) for j in range(i + 1, 6)) + "}\n"


def c6_power(tmp_path) -> list[str]:
    """--algebra and --group for (C6)^5 = <diag(zeta_6) on each x_i> on skew5."""
    f = tmp_path / "skew5.pois"
    f.write_text(SKEW5)
    maps = []
    for i in range(1, 6):
        m = tmp_path / f"c6_{i}.map"
        m.write_text(f"map c{i} on skew5 {{ x{i} -> zeta(6)*x{i}; }}")
        maps.append(str(m))
    return ["--algebra", str(f), "--group", ",".join(maps)]


def test_fixed_on_a_group_past_the_enumeration_bound(tmp_path, capsys):
    # (C6)^5 has 7776 elements: the default --bound 512 caps generator orders
    # and enumerations, not the order computed from the characters
    code, report = run(capsys, "fixed", *c6_power(tmp_path))
    assert code == 0 and report["result"]["group_order"] == 7776
    fixed = report["result"]["fixed_ring"]
    assert fixed["polynomial"] is True
    assert [(g["expression"], g["degree"]) for g in fixed["generators"]] == [
        (f"x{i}^6", 6) for i in range(1, 6)]


def z_group(tmp_path, maps) -> list[str]:
    """--algebra and --group for the group generated by `maps` on Q[x, y, z]."""
    f = tmp_path / "z.pois"
    f.write_text("algebra Z {\n  vars: x, y, z;\n}\n")
    paths = []
    for k, text in enumerate(maps):
        m = tmp_path / f"g{k}.map"
        m.write_text(text)
        paths.append(str(m))
    return ["--algebra", str(f), "--group", ",".join(paths)]


@pytest.mark.parametrize("maps", [
    ["map s on Z { x -> y; y -> x; }", "map m on Z { x -> -x; y -> -y; z -> -z; }"],
    # an eigenbasis over Q(zeta_3) for a rational rotation of order 3
    ["map r on Z { y -> z; z -> -y - z; }", "map m on Z { x -> -x; }"],
    ["map g on Z { x -> zeta(4)*x; y -> zeta(6)*y; }", "map h on Z { z -> -z; }"],
])
def test_molien_of_a_diagonal_group_prints_the_charpoly_sum(tmp_path, capsys, monkeypatch,
                                                           maps):
    # the character count prints the series and Taylor values of the oracle's
    # sum of 1/det(1 - g t) over its own enumeration, every Taylor value at
    # conductor 1; within the default --bound, the closure computes the
    # character logs once and nothing enumerates the group
    calls = Counter()
    for name in ("_enumerate", "trace_series", "_character_logs"):
        def call(*args, _name=name, _fn=getattr(symmetry, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(symmetry, name, call)
    code, report = run(capsys, "molien", *z_group(tmp_path, maps), "--order", "8")
    assert code == 0 and calls == Counter(_character_logs=1)
    result = report["result"]
    ring = PolyRing(("x", "y", "z"))
    mats = [parse_map(text, ring)[2].matrix.rows for text in maps]
    reference = oracle.molien_by_charpoly_sum(mats)
    assert result["molien_series"] == series_json(reference)
    assert [c["str"] for c in result["taylor"]] == [str(c) for c in reference.taylor(8)]
    assert {c["conductor"] for c in result["taylor"]} == {1}


@pytest.mark.parametrize("maps, bound", [
    (["map a on Z { x -> -x; }", "map b on Z { y -> -y; }", "map c on Z { z -> -z; }"], 2),
    (["map g on Z { x -> zeta(4)*x; y -> zeta(6)*y; }", "map h on Z { z -> -z; }"], 12),
])
def test_molien_past_the_bound_counts_characters_to_the_same_series(tmp_path, capsys,
                                                                   maps, bound):
    # a bound at the largest generator order is below the group order; the
    # bound caps generator orders only, and an abelian form is counted by its
    # characters at any bound
    argv = ["molien", *z_group(tmp_path, maps), "--order", "8"]
    reports = []
    for extra in (["--bound", str(bound)], []):
        code, report = run(capsys, *argv, *extra)
        assert code == 0
        result = report["result"]
        reports.append((result["group_order"], result["exponent"],
                        result["molien_series"]["str"], [c["str"] for c in result["taylor"]]))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command, text, maps", [
    # each helper ring joins names with one of these prefixes to the user's:
    # the normal-element charts (_m), the reflection search (_t, _k) and the
    # subalgebra tags (_tag)
    ("normal", "algebra R {\n  vars: _m1, x, y;\n  bracket{x,y} = x*y;\n}\n", []),
    ("reflections", "algebra R {\n  vars: _k1, x, y;\n  bracket{_k1,x} = 2*_k1*x;\n"
                    "  bracket{x,y} = 3*x*y;\n  bracket{_k1,y} = -_k1*y;\n}\n", []),
    ("fixed", "algebra R {\n  vars: _tag1, y;\n  bracket{_tag1,y} = _tag1*y;\n}\n",
     ["map g on R { _tag1 -> -_tag1; }"]),
], ids=["normal", "reflections", "fixed"])
def test_a_variable_name_with_the_internal_prefix_is_refused(tmp_path, capsys, command,
                                                            text, maps):
    f = tmp_path / "r.pois"
    f.write_text(text)
    argv = [command, "--algebra", str(f)]
    if maps:
        m = tmp_path / "g.map"
        m.write_text(maps[0])
        argv += ["--group", str(m)]
    code, report = run(capsys, *argv)
    name = text.split("vars: ")[1].split(",")[0]
    assert code == 1
    assert report["diagnostics"] == [
        f"FileFormatError: variable name '{name}' starts with '_', a prefix reserved "
        "for internal names"]


def test_molien_prints_the_same_bytes_within_and_past_the_bound(tmp_path, capsys):
    # a swap times zeta3 on z, and diag(-1, -1, 1): a group of order 12 whose
    # largest generator order is 6; both runs count the characters, so every
    # Taylor value prints at conductor 1
    maps = ["map s on Z { x -> y; y -> x; z -> zeta(3)*z; }",
            "map m on Z { x -> -x; y -> -y; }"]
    argv = ["molien", *z_group(tmp_path, maps), "--order", "8"]
    printed = []
    for extra in (["--bound", "6"], []):
        assert main(argv + extra) == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]
    result = json.loads(printed[1].out)["result"]
    assert result["group_order"] == 12
    assert {c["conductor"] for c in result["taylor"]} == {1}


@pytest.mark.parametrize("command", ["fixed", "report", "molien"])
def test_an_abelian_form_past_the_character_limit_fails_before_any_work(tmp_path, capsys,
                                                                        monkeypatch, command):
    # (C64)^4: every generator within the default bound, 64^4 = 16777216 characters
    f = tmp_path / "w.pois"
    f.write_text("algebra W {\n  vars: x1, x2, x3, x4;\n}\n")
    maps = []
    for i in range(1, 5):
        m = tmp_path / f"c64_{i}.map"
        m.write_text(f"map c{i} on W {{ x{i} -> zeta(64)*x{i}; }}")
        maps.append(str(m))
    work = []
    monkeypatch.setattr(fixedrings, "_fixed", lambda *a: work.append("_fixed"))
    monkeypatch.setattr(symmetry, "_character_molien",
                        lambda *a: work.append("_character_molien"))
    code, report = run(capsys, command, "--algebra", str(f), "--group", ",".join(maps))
    assert code == 1 and work == []
    assert report["diagnostics"] == [
        "BoundExceededError: group of order 16777216 has more than "
        f"{symmetry.CHARACTER_LIMIT} characters to count"]


def test_molien_on_a_group_past_the_enumeration_bound(tmp_path, capsys):
    code, report = run(capsys, "molien", *c6_power(tmp_path))
    assert code == 0
    result = report["result"]
    assert (result["group_order"], result["exponent"]) == (7776, 6)
    assert result["molien_series"]["str"] == "1/(-t^30 + 5*t^24 - 10*t^18 + 10*t^12 - 5*t^6 + 1)"
    assert [c["str"] for c in result["taylor"]] == ["1", "0", "0", "0", "0", "0", "5"]
