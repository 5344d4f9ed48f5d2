"""Span tracing around pwb's public functions, patched in from outside `src/`.

Spans (name, start, end, parent, task id) are kept in flat arrays while the
traced loop runs and written to a file when it ends; the per-layer metrics
are derived from that file. A layer's inclusive time is the union of its
spans (a span nested in one of the same name is not counted twice); its self
time is each span's duration minus the durations of its direct children.

Cyclo methods only ever get call counters, never spans: a span per scalar
operation would cost more than the operation.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# span name -> "module:function" or "module:Class.method" targets
SPANS = {
    "upoly.gcd_upoly": ["pwb.upoly:gcd_upoly"],
    "linalg.rref": ["pwb.linalg:Matrix.rref"],
    "linalg.det": ["pwb.linalg:Matrix.det"],
    "linalg.inverse": ["pwb.linalg:Matrix.inverse"],
    "linalg.charpoly": ["pwb.linalg:Matrix.charpoly_coeffs"],
    "linalg.minpoly": ["pwb.linalg:Matrix.minpoly_coeffs"],
    "linalg.kernel": ["pwb.linalg:Matrix.kernel_basis"],
    "rings.substitute": ["pwb.rings:Poly.substitute"],
    "rings.apply_linear": ["pwb.rings:Poly.apply_linear"],
    "rings.parse": ["pwb.rings:PolyRing.parse"],
    "solver.groebner_basis": ["pwb.solver:groebner_basis"],
    "solver.solve_projective": ["pwb.solver:solve_projective"],
    "solver.subalgebra_member": ["pwb.solver:subalgebra_member"],
    "brackets.jacobi_check": ["pwb.brackets:PoissonAlgebra.jacobi_check"],
    "brackets.normal_find_deg1": ["pwb.brackets:PoissonAlgebra.normal_find_deg1"],
    "brackets.center_truncated": ["pwb.brackets:PoissonAlgebra.center_truncated"],
    "brackets.derived_ideal": ["pwb.brackets:PoissonAlgebra.derived_ideal"],
    "families.build": ["pwb.families:" + f for f in (
        "skew_symmetric", "jacobian", "jacobian_pq", "quantum_matrices", "weyl",
        "homogenized_weyl", "ph_lie")],
    "symmetry.classify": ["pwb.symmetry:classify"],
    "symmetry.group_closure": ["pwb.symmetry:group_closure"],
    "symmetry.molien_series": ["pwb.symmetry:molien_series"],
    "symmetry.find_reflections": ["pwb.symmetry:find_reflections"],
    "fixedrings.fixed_group": ["pwb.fixedrings:fixed_group"],
    "fixedrings.is_skew_presentation": ["pwb.fixedrings:is_skew_presentation"],
    "fixedrings.rigidity_report": ["pwb.fixedrings:rigidity_report"],
    "envelope.envelope_presentation": ["pwb.envelope:envelope_presentation"],
    "envelope.envelope_extend": ["pwb.envelope:envelope_extend"],
    "envelope.envelope_trace": ["pwb.envelope:envelope_trace"],
    "envelope.envelope_dims": ["pwb.envelope:envelope_dims"],
    "formats.parse_algebra": ["pwb.formats:parse_algebra"],
    "formats.parse_map": ["pwb.formats:parse_map"],
    # the report emitters the CLI commands call
    "formats.report_json": ["pwb.formats:" + f for f in (
        "classification_json", "solution_set_json", "reflections_json", "presented_json",
        "rigidity_json", "matrix_json")],
    "cli.main": ["pwb.cli:main"],
}

# counter name -> targets (call counts only, no spans)
COUNTS = {
    "rings.poly_mul": ["pwb.rings:Poly.__mul__"],
    "series.add": ["pwb.series:RationalSeries.__add__"],
    "solver.normal_form": ["pwb.solver:normal_form"],
    "scalars.inverse": ["pwb.scalars:Cyclo.inverse"],
}

# Cyclo binary operations counted by operand conductors
SCALAR_OPS = {"scalars.mul": "__mul__", "scalars.add": "__add__"}

TASK = "task"
BUILD = "pool.build"


class Tracer:
    """Span store plus counters. Records only while a task (or a named call) is open."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.stack: list[int] = []
        self.task_id = -1
        self.active = False
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.task.append(self.task_id)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def run_task(self, task_id: int, fn):
        """Run fn as one traced task; returns (result, exception)."""
        self.task_id = task_id
        self.active = True
        idx = self.open(self.name_id(TASK))
        try:
            return fn(), None
        except Exception as exc:  # a failing task is counted, not fatal
            return None, exc
        finally:
            self.close(idx)
            self.active = False

    def record_call(self, name: str, task_id: int, fn, traced: bool = False):
        """One named span around a single call; the layer wrappers record inside
        it only if `traced`."""
        self.task_id = task_id
        self.active = traced
        idx = self.open(self.name_id(name))
        try:
            return fn()
        finally:
            self.close(idx)
            self.active = False

    # -- instrumentation --------------------------------------------------------

    def _span_wrapper(self, fn, nid: int, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _count_wrapper(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _scalar_wrapper(self, fn, prefix: str, cyclo):
        tracer = self
        keys = {k: f"{prefix}.{k}" for k in ("rational", "cyclotomic", "mixed")}

        @functools.wraps(fn)
        def wrapper(self, other):
            if tracer.active:
                # an int or Fraction operand scales within self's field
                on = other.n if type(other) is cyclo else self.n
                if on != self.n:
                    kind = "mixed"
                else:
                    kind = "rational" if on == 1 else "cyclotomic"
                tracer.counts[keys[kind]] += 1
            return fn(self, other)
        return wrapper

    def _patch(self, target: str, make, modules) -> None:
        """Replace the target everywhere it is bound: its class, or every one of
        `modules` that imported the function by name."""
        modname, qual = target.split(":")
        module = importlib.import_module(modname)
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            wrapped = make(original)
            for name, value in list(cls.__dict__.items()):
                if value is original:  # aliases such as __rmul__ = __mul__
                    self._patches.append((cls, name, original))
                    setattr(cls, name, wrapped)
            return
        original = getattr(module, qual)
        wrapped = make(original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def install(self, root: Path) -> None:
        """Wrap every target in the modules loaded from files under `root`."""
        from pwb.scalars import Cyclo

        modules = [mod for mod in list(sys.modules.values())
                   if getattr(mod, "__file__", None)
                   and Path(mod.__file__).resolve().is_relative_to(root)]

        def order_sum(group):
            self.counts["symmetry.group_order.sum"] += group.order

        for name, targets in SPANS.items():
            nid = self.name_id(name)
            after = order_sum if name == "symmetry.group_closure" else None
            for target in targets:
                self._patch(target, lambda fn, nid=nid, after=after:
                            self._span_wrapper(fn, nid, after), modules)
        for key, targets in COUNTS.items():
            for target in targets:
                self._patch(target, lambda fn, key=key: self._count_wrapper(fn, key), modules)
        for prefix, attr in SCALAR_OPS.items():
            self._patch(f"pwb.scalars:Cyclo.{attr}",
                        lambda fn, prefix=prefix: self._scalar_wrapper(fn, prefix, Cyclo), modules)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------------

    def write(self, path: Path, meta: dict) -> None:
        """One JSON header line, then one tab-separated line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "counts": dict(self.counts),
                  "fields": ["name", "start", "end", "parent", "task"], **meta}
        with path.open("w") as f:
            f.write(json.dumps(header) + "\n")
            for i in range(len(self.name)):
                f.write(f"{self.name[i]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                        f"{self.parent[i]}\t{self.task[i]}\n")


def read_trace(path: Path):
    with path.open() as f:
        header = json.loads(f.readline())
        rows = [line.split("\t") for line in f]
    spans = [(int(n), float(s), float(e), int(p), int(t)) for n, s, e, p, t in rows]
    return header, spans


def _ancestor_names(spans) -> list[frozenset]:
    """Per span, the set of name ids of its ancestors (parents precede children)."""
    ancestors: list[frozenset] = [frozenset()] * len(spans)
    interned: dict = {}
    for i, (_, _, _, p, _) in enumerate(spans):
        if p >= 0:
            key = (ancestors[p], spans[p][0])
            anc = interned.get(key)
            if anc is None:
                anc = interned[key] = key[0] | {key[1]}
            ancestors[i] = anc
    return ancestors


def layer_times(header: dict, spans) -> dict[str, dict]:
    """Per span name, over spans of non-negative task ids: calls, inclusive
    seconds (union over same-name nesting) and self seconds."""
    names = header["names"]
    child_time = [0.0] * len(spans)
    for _, s, e, p, _ in spans:
        if p >= 0:
            child_time[p] += e - s
    ancestors = _ancestor_names(spans)
    out: dict[str, dict] = {}
    for i, (n, s, e, _, t) in enumerate(spans):
        if t < 0:
            continue
        entry = out.setdefault(names[n], {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (e - s) - child_time[i]
        if n not in ancestors[i]:
            entry["s"] += e - s
    return out


def covered_time(header: dict, spans, names) -> float:
    """Seconds covered by the union of spans with any of the given names."""
    ids = {i for i, name in enumerate(header["names"]) if name in names}
    ancestors = _ancestor_names(spans)
    return sum(e - s for i, (n, s, e, _, t) in enumerate(spans)
               if t >= 0 and n in ids and not (ancestors[i] & ids))
