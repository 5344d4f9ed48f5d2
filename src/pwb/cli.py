"""Command-line front end.

Every command prints a JSON report (schema pwb/1) to stdout and a short
human summary to stderr.  Exit codes: 0 success, 1 error, 2 a computed
negative finding (failed verification or failed suite vectors).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .brackets import PoissonAlgebra
from .envelope import envelope_dims, envelope_extend, envelope_presentation, envelope_trace
from .errors import (FileFormatError, InfiniteOrderError, InvalidDegreeError,
                     NotAutomorphismError, PwbError, UsageError)
from .families import (jacobian, jacobian_pq, homogenized_weyl, ph_lie,
                       quantum_matrices, skew_symmetric, weyl)
from .fixedrings import fixed_group, is_skew_presentation, rigidity_report
from .formats import (classification_json, cyclo_json, emit_algebra,
                      matrix_json, parse_algebra, parse_lie, parse_map, parse_matrix,
                      presented_json, reflections_json, rigidity_json, series_json,
                      sha256_of, solution_set_json)
from .rings import PolyRing
from .solver import DEFAULT_BUDGET
from .suite import run_suite
from .symmetry import (PoissonGroup, classify, find_reflections, group_closure,
                       is_poisson_automorphism, molien_series, trace_series)

SCHEMA = "pwb/1"


class CommandResult:
    def __init__(self, result, exit_code: int = 0, diagnostics=None, summary: str = ""):
        self.result = result
        self.exit_code = exit_code
        self.diagnostics = diagnostics or []
        self.summary = summary


def _read(path: str, inputs: dict) -> str:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    inputs[path] = sha256_of(text)
    return text


def _load_algebra(path: str, inputs: dict, defer_jacobi: bool) -> tuple[str, PoissonAlgebra]:
    return parse_algebra(_read(path, inputs), check_jacobi=not defer_jacobi)


def _load_maps(value: str, ring, inputs: dict, option: str, single: bool = False):
    """The maps of the comma-separated files `option` names; `single` when it
    takes one."""
    paths = [path.strip() for path in value.split(",")]
    if single and len(paths) > 1:
        raise UsageError(f"{option} names one map file, not {len(paths)}")
    out = []
    for k, path in enumerate(paths, 1):
        if not path:
            raise UsageError(f"{option} entry {k} of '{value}' is empty")
        name, on, g = parse_map(_read(path, inputs), ring)
        out.append((name, g))
    return out


def _required(value: Optional[str], flag: str, command: str) -> str:
    if value is None:
        raise UsageError(f"{command} needs {flag}")
    return value


def _require_non_negative(name: str, value: Optional[int]) -> None:
    if value is not None and value < 0:
        raise InvalidDegreeError(f"{name} {value} is negative")


def _load_group(args, A: PoissonAlgebra, name: str, inputs: dict) -> PoissonGroup:
    """Group closure of the --group maps.  A map that is not a Poisson
    automorphism of A, or has infinite order, is reported by name."""
    maps = _load_maps(args.group, A.ring, inputs, "--group")
    for mname, g in maps:
        ok, witness = is_poisson_automorphism(A, g)
        if not ok:
            raise NotAutomorphismError(f"map '{mname}' is not a Poisson automorphism of "
                                       f"{name}: it breaks the bracket of {witness[0]} "
                                       f"and {witness[1]}")
    try:
        return group_closure([g for _, g in maps], bound=args.bound)
    except InfiniteOrderError as exc:
        raise InfiniteOrderError(f"map '{maps[exc.index][0]}' has infinite order",
                                 exc.index) from exc


def cmd_check(args, inputs) -> CommandResult:
    # the check command always defers the load-time Jacobi check: a violation
    # is this command's negative finding, not a load error
    name, A = _load_algebra(args.algebra, inputs, defer_jacobi=True)
    if args.map:
        maps = _load_maps(args.map, A.ring, inputs, "--map")
        results = []
        all_ok = True
        for mname, g in maps:
            cls = classify(A, g)
            ok = cls.kind not in ("not_automorphism",)
            all_ok = all_ok and ok
            results.append({"map": mname, "classification": classification_json(cls)})
        return CommandResult({"algebra": name, "maps": results},
                             exit_code=0 if all_ok else 2,
                             summary=f"checked {len(results)} map(s) on {name}")
    ok, triple = A.jacobi_check()
    result = {"algebra": name, "jacobi": ok,
              "failing_triple": list(triple) if triple else None,
              "quadratic": A.quadratic}
    return CommandResult(result, exit_code=0 if ok else 2,
                         summary=f"Jacobi {'holds' if ok else 'FAILS'} on {name}")


def cmd_normal(args, inputs) -> CommandResult:
    name, A = _load_algebra(args.algebra, inputs, args.defer_jacobi)
    res = A.normal_find_deg1(budget=args.budget)
    return CommandResult({"algebra": name, "normal_elements": solution_set_json(res)},
                         summary=f"{name}: degree-one normal elements: {res.describe()}")


def cmd_reflections(args, inputs) -> CommandResult:
    name, A = _load_algebra(args.algebra, inputs, args.defer_jacobi)
    rep = find_reflections(A, budget=args.budget)
    return CommandResult({"algebra": name, **reflections_json(rep, A)},
                         summary=f"{name}: {rep.status}")


def cmd_trace(args, inputs) -> CommandResult:
    name, A = _load_algebra(args.algebra, inputs, args.defer_jacobi)
    (mname, g), = _load_maps(args.map, A.ring, inputs, "--map", single=True)
    cls = classify(A, g)
    series = trace_series(g)
    return CommandResult({
        "algebra": name, "map": mname,
        "classification": classification_json(cls),
        "trace_series": series_json(series),
    }, summary=f"trace series of {mname} on {name}: {series}")


def cmd_molien(args, inputs) -> CommandResult:
    name, A = _load_algebra(args.algebra, inputs, args.defer_jacobi)
    group = _load_group(args, A, name, inputs)
    series = molien_series(group)
    return CommandResult({
        "algebra": name,
        "group_order": group.order,
        "exponent": group.exponent,
        "molien_series": series_json(series),
        "taylor": [cyclo_json(c) for c in series.taylor(args.order)],
    }, summary=f"group of order {group.order}; Molien series {series}")


def cmd_fixed(args, inputs) -> CommandResult:
    name, A = _load_algebra(args.algebra, inputs, args.defer_jacobi)
    group = _load_group(args, A, name, inputs)
    presented = fixed_group(A, group, bound=args.degree, budget=args.budget)
    skew = is_skew_presentation(presented)
    payload = presented_json(presented)
    payload["skew_presentation"] = matrix_json(skew) if skew is not None else None
    return CommandResult({"algebra": name, "group_order": group.order,
                          "fixed_ring": payload},
                         summary=f"fixed ring of {name}: {len(presented.names)} generators, "
                                 f"polynomial={presented.polynomial}")


def cmd_report(args, inputs) -> CommandResult:
    name, A = _load_algebra(args.algebra, inputs, args.defer_jacobi)
    group = _load_group(args, A, name, inputs)
    rep = rigidity_report(A, group, bound=args.degree, budget=args.budget)
    return CommandResult({"algebra": name, "group_order": group.order,
                          **rigidity_json(rep)},
                         summary=f"{name}: {rep.verdict}"
                                 + (f" (witness: {rep.witness})" if rep.witness else ""))


def cmd_family(args, inputs) -> CommandResult:
    kind = args.family
    if kind == "skew":
        m = parse_matrix(_read(_required(args.matrix, "--matrix", "family skew"), inputs))
        A = skew_symmetric(m)
        name = "skew"
    elif kind == "jacobian":
        if args.potential:
            ring = PolyRing(("x", "y", "z"))
            A = jacobian(ring.parse(args.potential))
        else:
            scratch = PolyRing(())
            p = scratch.parse(args.p).as_scalar() if args.p else 0
            q = scratch.parse(args.q).as_scalar() if args.q else 0
            A = jacobian_pq(p, q)
        name = "jac"
    elif kind == "qmatrix":
        A = quantum_matrices(args.n)
        name = f"qmatrix{args.n}"
    elif kind == "weyl":
        A = homogenized_weyl(args.n) if args.homogenized else weyl(args.n)
        name = ("h" if args.homogenized else "") + f"weyl{args.n}"
    elif kind == "ph-lie":
        _, lie = parse_lie(_read(_required(args.lie, "--lie", "family ph-lie"), inputs))
        A = ph_lie(lie)
        name = "ph_lie"
    else:
        raise PwbError(f"unknown family '{kind}'")
    text = emit_algebra(name, A)
    if args.out:
        Path(args.out).write_text(text)
    return CommandResult({
        "name": name,
        "vars": list(A.ring.names),
        "quadratic": A.quadratic,
        "algebra_file": text,
    }, summary=f"built {name} on {A.nvars} variables" + (f" -> {args.out}" if args.out else ""))


def cmd_envelope(args, inputs) -> CommandResult:
    name, A = _load_algebra(args.algebra, inputs, args.defer_jacobi)
    pres = envelope_presentation(A, aliases=args.aliases_paper)
    result = {
        "algebra": name,
        "generators": list(pres.names),
        "relations": pres.relation_strings(),
    }
    if args.dims is not None:
        dims = envelope_dims(A, args.dims, cap=args.cap)
        result["dims"] = dims
    if args.extend:
        (mname, g), = _load_maps(args.extend, A.ring, inputs, "--extend", single=True)
        ext = envelope_extend(A, g)
        result["extension"] = {"map": mname, "matrix": matrix_json(ext.map.matrix),
                               "relations_preserved": ext.relations_preserved}
    if args.trace:
        (mname, g), = _load_maps(args.trace, A.ring, inputs, "--trace", single=True)
        tr = envelope_trace(A, g)
        result["trace"] = {"map": mname, "series": series_json(tr.series),
                           "factored": series_json(tr.factored),
                           "quasi_reflection": tr.quasi_reflection}
    return CommandResult(result,
                         summary=f"enveloping presentation of {name}: "
                                 f"{len(pres.relations)} relations")


def cmd_paper_suite(args, inputs) -> CommandResult:
    results = run_suite()
    table = [{"key": r.key, "status": "pass" if r.passed else "FAIL", "detail": r.detail}
             for r in results]
    passed = sum(r.passed for r in results)
    ok = passed == len(results)
    return CommandResult({"vectors": table, "passed": passed, "total": len(results)},
                         exit_code=0 if ok else 2,
                         summary=f"reproduction suite: {passed}/{len(results)} vectors pass")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwb",
        description="Exact workbench for quadratic Poisson structures: normal elements, "
                    "reflections, fixed subrings, trace/Molien series, enveloping "
                    "presentations.")
    parser.add_argument("--version", action="version", version=f"pwb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group=False):
        p.add_argument("--algebra", required=True, help="algebra definition file (.pois)")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="Groebner S-polynomial degree cap")
        p.add_argument("--defer-jacobi", action="store_true",
                       help="skip the Jacobi check when loading")
        p.add_argument("--json", action="store_true", help="suppress the stderr summary")
        if group:
            p.add_argument("--group", required=True,
                           help="comma-separated map files generating the group")
            p.add_argument("--bound", type=int, default=512,
                           help="cap on each generator's order and on the enumeration of "
                                "a group without a common eigenbasis (an abelian group "
                                "with one is never enumerated)")

    p = sub.add_parser("check", help="verify the Jacobi identity or map compatibility")
    common(p)
    p.add_argument("--map", help="verify these maps are Poisson automorphisms")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("normal", help="degree-one Poisson normal elements")
    common(p)
    p.set_defaults(handler=cmd_normal)

    p = sub.add_parser("reflections", help="search for Poisson reflections")
    common(p)
    p.set_defaults(handler=cmd_reflections)

    p = sub.add_parser("trace", help="trace series of a graded map")
    common(p)
    p.add_argument("--map", required=True)
    p.set_defaults(handler=cmd_trace)

    p = sub.add_parser("molien", help="Molien series of a finite group")
    common(p, group=True)
    p.add_argument("--order", type=int, default=6,
                   help="print the Taylor coefficients of degrees 0 to this")
    p.set_defaults(handler=cmd_molien)

    p = sub.add_parser("fixed", help="fixed subring with induced brackets")
    common(p, group=True)
    p.add_argument("--degree", type=int, default=None, help="invariant degree bound")
    p.set_defaults(handler=cmd_fixed)

    p = sub.add_parser("report", help="rigidity report comparing A with A^G")
    common(p, group=True)
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("family", help="emit a built-in algebra family")
    p.add_argument("family", choices=["skew", "jacobian", "qmatrix", "weyl", "ph-lie"])
    p.add_argument("--matrix", help="skew matrix file (.mat)")
    p.add_argument("--p", help="cubic potential coefficient p")
    p.add_argument("--q", help="cubic potential coefficient q")
    p.add_argument("--potential", help="explicit potential in x, y, z")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--homogenized", action="store_true")
    p.add_argument("--lie", help="Lie data file (.lie)")
    p.add_argument("--out", help="write the .pois file here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_family)

    p = sub.add_parser("envelope", help="enveloping presentation, dims, extension, trace")
    common(p)
    p.add_argument("--dims", type=int, default=None, help="graded dimensions up to here")
    p.add_argument("--cap", type=int, default=4, help="hard cap on the dims degree")
    p.add_argument("--extend", help="extend this automorphism to the 2n generators")
    p.add_argument("--trace", help="trace series of the extension of this reflection")
    p.add_argument("--aliases-paper", action="store_true",
                   help="name generators v1/v2 per variable instead of m_v/h_v")
    p.set_defaults(handler=cmd_envelope)

    p = sub.add_parser("paper-suite", help="run the bundled reproduction vectors")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_paper_suite)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser`, once per process: parsing leaves the parser unchanged."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    inputs: dict = {}
    try:
        # integer options are bounds and counts: rejected before any file is read
        for option in ("order", "degree", "budget", "bound", "cap"):
            _require_non_negative(option, getattr(args, option, None))
        out: CommandResult = args.handler(args, inputs)
    except PwbError as exc:
        out = CommandResult(None, 1, [f"{type(exc).__name__}: {exc}"], f"error: {exc}")
    except OSError as exc:
        out = CommandResult(None, 1, [str(exc)], f"error: {exc}")
    report = {"schema": SCHEMA, "command": args.command, "inputs": inputs,
              "result": out.result, "diagnostics": out.diagnostics, "exit_code": out.exit_code}
    print(json.dumps(report, indent=2, sort_keys=True))
    if not getattr(args, "json", False):
        print(out.summary, file=sys.stderr)
    return out.exit_code


if __name__ == "__main__":
    sys.exit(main())
