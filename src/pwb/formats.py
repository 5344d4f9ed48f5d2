"""Text file formats (.pois, .map, .lie, .mat) and JSON serialization.

Emitted text re-parses to an equal object; JSON output is deterministic for
identical inputs (sorted keys, no timestamps).
"""
from __future__ import annotations

import hashlib
import re
from typing import Optional, Sequence

from .brackets import PoissonAlgebra
from .errors import FileFormatError
from .families import LieData
from .fixedrings import AlgebraProfile, PresentedPoisson, RigidityReport
from .linalg import Matrix
from .rings import PolyRing
from .scalars import Cyclo
from .series import RationalSeries
from .solver import SolutionSet
from .symmetry import Classification, GradedMap, ReflectionFamily, ReflectionsReport

_WS = re.compile(r"\s+")


def sha256_of(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def _block(text: str, keyword: str) -> tuple[str, str]:
    """Parse 'keyword NAME ... { body }' and return (name_part, body)."""
    text = _strip_comments(text).strip()
    if not text.startswith(keyword):
        raise FileFormatError(f"expected a '{keyword}' block")
    head, _, rest = text.partition("{")
    if not rest.rstrip().endswith("}"):
        raise FileFormatError("missing closing brace")
    body = rest.rstrip()[:-1]
    name_part = head[len(keyword):].strip()
    return name_part, body


def _statements(body: str) -> list[str]:
    return [s.strip() for s in body.split(";") if s.strip()]


_BRACKET_KEY = re.compile(r"^bracket\s*\{\s*([^,}]+)\s*,\s*([^,}]+)\s*\}\s*$")


def _is_identifier(name: str) -> bool:
    """Whether the expression parser reads name as one variable token."""
    return ((name[0].isalpha() or name[0] == "_")
            and all(ch.isalnum() or ch == "_" for ch in name))


def parse_algebra(text: str, check_jacobi: bool = True) -> tuple[str, PoissonAlgebra]:
    """Parse an algebra definition block; unlisted bracket pairs default to 0."""
    name, body = _block(text, "algebra")
    if not name:
        raise FileFormatError("algebra needs a name")
    vars_decl: Optional[list[str]] = None
    brackets: list[tuple[str, str, str]] = []
    for stmt in _statements(body):
        key, _, value = stmt.partition("=")
        key = key.strip()
        if key.startswith("vars"):
            after = key.partition(":")[2] if ":" in key else value
            vars_decl = [v.strip() for v in after.split(",") if v.strip()]
            continue
        m = _BRACKET_KEY.match(key)
        if not m:
            raise FileFormatError(f"cannot parse statement '{stmt}'")
        expr = value.strip()
        if expr.startswith('"') and expr.endswith('"'):
            expr = expr[1:-1]
        brackets.append((m.group(1).strip(), m.group(2).strip(), expr))
    if not vars_decl:
        raise FileFormatError("missing vars declaration")
    for v in vars_decl:
        if not _is_identifier(v):
            raise FileFormatError(f"variable name '{v}' is not an identifier")
        if v.startswith("_"):
            # helper rings join names such as _m1, _k1 and _tag1 to the user's
            raise FileFormatError(f"variable name '{v}' starts with '_', a prefix reserved "
                                  "for internal names")
    ring = PolyRing(tuple(vars_decl))
    table: dict = {}
    for a, b, expr in brackets:
        i, j = ring.index(a), ring.index(b)
        if i == j:
            raise FileFormatError(f"bracket{{{a},{b}}} is diagonal")
        p = ring.parse(expr)
        if i > j:
            i, j, p = j, i, -p
        if (i, j) in table:
            raise FileFormatError(f"duplicate bracket pair ({a}, {b})")
        table[(i, j)] = p
    return name, PoissonAlgebra(ring, table, check_jacobi=check_jacobi, name=name)


def emit_algebra(name: str, A: PoissonAlgebra) -> str:
    lines = [f"algebra {name} {{", f"  vars: {', '.join(A.ring.names)};"]
    for (i, j), p in sorted(A.table.items()):
        lines.append(f"  bracket{{{A.ring.names[i]},{A.ring.names[j]}}} = {p};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_map(text: str, ring: PolyRing) -> tuple[str, str, GradedMap]:
    """Parse 'map g on A { x -> expr; ... }'; right sides must be degree one."""
    name_part, body = _block(text, "map")
    parts = name_part.split()
    if len(parts) == 3 and parts[1] == "on":
        name, on = parts[0], parts[2]
    elif len(parts) == 1:
        name, on = parts[0], ""
    else:
        raise FileFormatError(f"cannot parse map header '{name_part}'")
    n = ring.nvars
    columns: dict[int, list[Cyclo]] = {}
    for stmt in _statements(body):
        lhs, arrow, rhs = stmt.partition("->")
        if not arrow:
            raise FileFormatError(f"expected 'var -> expression' in '{stmt}'")
        var = lhs.strip()
        i = ring.index(var)
        img = ring.parse(rhs.strip())
        if img.is_zero() or img.homogeneous_degree() != 1:
            raise FileFormatError(f"image of {var} must have degree one")
        columns[i] = img.linear_coefficients()
    for i in range(n):
        if i not in columns:
            col = [Cyclo.of(0)] * n
            col[i] = Cyclo.of(1)
            columns[i] = col
    rows = [[columns[j][r] for j in range(n)] for r in range(n)]
    return name, on, GradedMap(Matrix(rows))


def emit_map(name: str, on: str, g: GradedMap, ring: PolyRing) -> str:
    lines = [f"map {name} on {on or 'A'} {{"]
    for i in range(ring.nvars):
        lines.append(f"  {ring.names[i]} -> {ring.linear_form(g.matrix.column(i))};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FileFormatError(f"{what} must be an integer, found '{text.strip()}'") from None


def parse_lie(text: str) -> tuple[str, LieData]:
    name, body = _block(text, "lie")
    dim: Optional[int] = None
    entries: list[tuple[int, int, str]] = []
    for stmt in _statements(body):
        key, _, value = stmt.partition("=")
        key = key.strip()
        if key.startswith("dim"):
            dim = _integer(key.partition(":")[2] or value, "dim")
            if dim < 0:
                raise FileFormatError(f"dim must be non-negative, found {dim}")
            continue
        m = _BRACKET_KEY.match(key)
        if not m:
            raise FileFormatError(f"cannot parse statement '{stmt}'")
        entries.append((_integer(m.group(1), "bracket index"),
                        _integer(m.group(2), "bracket index"), value.strip()))
    if dim is None:
        raise FileFormatError("missing dim declaration")
    ring = PolyRing(tuple(f"x{k+1}" for k in range(dim)))
    brackets: dict = {}
    for i, j, expr in entries:
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise FileFormatError(f"bracket{{{i},{j}}} index outside 1..{dim}")
        p = ring.parse(expr)
        if not p.is_zero() and p.homogeneous_degree() != 1:
            raise FileFormatError(f"bracket{{{i},{j}}} must be linear")
        brackets[(i - 1, j - 1)] = tuple(p.linear_coefficients())
    return name, LieData.of(dim, brackets)


def parse_matrix(text: str) -> Matrix:
    """Whitespace-separated scalar entries, one row per line."""
    scratch = PolyRing(())
    rows = []
    for line in _strip_comments(text).splitlines():
        line = line.strip()
        if not line:
            continue
        entries = []
        for token in _WS.split(line):
            p = scratch.parse(token)
            entries.append(p.as_scalar())
        rows.append(entries)
    if not rows:
        raise FileFormatError("empty matrix file")
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise FileFormatError(f"ragged matrix: row {i + 1} has {len(row)} entries, "
                                  f"row 1 has {len(rows[0])}")
    return Matrix(rows)


# -- JSON value encoding -------------------------------------------------------


def cyclo_json(c: Cyclo) -> dict:
    """The value at its least conductor, as it prints."""
    c = c.least()
    return {"conductor": c.n, "coeffs": [str(x) for x in c.c], "str": str(c)}


def series_json(s: RationalSeries) -> dict:
    return {"num": str(s.num), "den": str(s.den), "str": str(s)}


def solution_set_json(s: SolutionSet) -> dict:
    out: dict = {"kind": s.kind, "description": s.describe()}
    if s.kind == "subspace":
        out["basis"] = [[str(c) for c in row] for row in s.basis]
        out["dimension"] = len(s.basis)
    elif s.kind == "points":
        out["points"] = [[str(c) for c in p] for p in s.points]
    elif s.kind == "ideal":
        out["generators"] = [str(g) for g in s.generators]
    return out


def matrix_json(m: Matrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.rows]


def classification_json(cls: Classification) -> dict:
    out: dict = {"kind": cls.kind}
    if cls.order is not None:
        out["order"] = cls.order
    if cls.xi is not None:
        out["xi"] = cyclo_json(cls.xi)
    if cls.eigenvector is not None:
        out["eigenvector"] = [str(c) for c in cls.eigenvector]
    if cls.witness_pair is not None:
        out["failing_pair"] = list(cls.witness_pair)
    return out


def reflection_family_json(f: ReflectionFamily, names: Sequence[str]) -> dict:
    return {
        "chart": f.chart,
        "direction": [str(d) for d in f.direction],
        "xi": None if f.xi is None else cyclo_json(f.xi),
        "xi_is_free_root_of_unity": f.xi_free,
        "constraints": [str(r) for r in f.relations],
        "parameter_assignments": [list(a) for a in f.assignments],
        "samples": [matrix_json(g.matrix) for g in f.samples],
    }


def reflections_json(rep: ReflectionsReport, algebra: PoissonAlgebra) -> dict:
    out: dict = {"status": rep.status, "diagnostics": rep.diagnostics}
    if rep.status == "found":
        out["reflections"] = [reflection_family_json(f, algebra.ring.names)
                              for f in rep.families]
    else:
        out["reflections"] = "none" if rep.status == "no_reflections" else "inconclusive"
    if rep.normal_set is not None:
        out["normal_elements"] = solution_set_json(rep.normal_set)
    return out


def presented_json(p: PresentedPoisson) -> dict:
    table = []
    for (i, j), poly in sorted(p.table.items()):
        table.append({"left": p.names[i], "right": p.names[j], "bracket": str(poly)})
    return {
        "generators": [{"name": n, "degree": d, "expression": str(e)}
                       for n, d, e in zip(p.names, p.degrees, p.expressions)],
        "table": table,
        "polynomial": p.polynomial,
        "relations": None if p.relations is None else [str(r) for r in p.relations],
        "molien": series_json(p.molien) if p.molien is not None else None,
        "degree_bound": p.bound,
        "diagnostics": list(p.diagnostics),
    }


def profile_json(prof: AlgebraProfile) -> dict:
    return {
        "polynomial": prof.polynomial,
        "skew": prof.skew,
        "unimodular": prof.unimodular,
        "center_dims": prof.center_dims,
        "center_generator": prof.center_generator,
        "center_gen_in_derived": prof.center_gen_in_derived,
        "derived_dims": prof.derived_dims,
        "derived_monomial": prof.derived_monomial,
        "derived_components": prof.derived_components,
        "components": prof.component_summary,
        "notes": prof.notes,
    }


def rigidity_json(rep: RigidityReport) -> dict:
    return {
        "unimodular": {"A": rep.ambient.unimodular, "AG": rep.fixed.unimodular},
        "center_dims": {"A": rep.ambient.center_dims, "AG": rep.fixed.center_dims},
        "derived_dims": {"A": rep.ambient.derived_dims, "AG": rep.fixed.derived_dims},
        "skew": {"A": rep.ambient.skew, "AG": rep.fixed.skew},
        "verdict": rep.verdict,
        "witness": rep.witness,
        "profiles": {"A": profile_json(rep.ambient), "AG": profile_json(rep.fixed)},
        "fixed_ring": presented_json(rep.presented),
        "notes": rep.notes,
    }
