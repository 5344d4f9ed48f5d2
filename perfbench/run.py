"""pwb benchmark harness.

    python3 perfbench/run.py --workload fixed_rings --seed 20260809 --seconds 5 --trace 0

Run from anywhere inside a checkout: pwb is imported from the checkout's
`src/`, the answer oracle from its `tests/`. One caller in one process on one
thread runs the workload's task pool back to back (a closed loop), in whole
passes, until there are MIN_RUNS task runs and the timed task time reaches
--seconds. Every task's answer is
checked outside the timed region. The last line of stdout is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

See perfbench/README.md for the workloads, metrics and recorded baseline.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "pwb" / "__init__.py").is_file():
    sys.exit(f"perfbench: no pwb sources at {ROOT / 'src' / 'pwb'}")
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

import calibration  # noqa: E402
from microbench import roadmap_calls, scalar_microbench  # noqa: E402
from tracing import BUILD, TASK, Tracer, covered_time, layer_times, read_trace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_DIR = HERE / "_run"
SETUP_REPEATS = 9
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# timed task runs at least: ten runs beyond p90 on every pool, beyond p95 on
# pools of 100 tasks or more
MIN_RUNS = 180
WALL_LIMIT_S = 120.0  # no new pass starts after this much wall time
META = json.loads((HERE / "workloads.json").read_text())

# (name, unit); the traced run reports exactly these
PER_LAYER = [
    *[(f"scalars.{op}.{kind}.calls", "count") for op in ("mul", "add")
      for kind in ("rational", "cyclotomic", "mixed")],
    ("scalars.inverse.calls", "count"),
    *[(f"scalars.mul_ns.{c}", "ns") for c in ("c1", "c3", "c4", "c12", "mixed_3_12")],
    *[(f"scalars.{op}_ns.{c}", "ns") for op in ("add", "inverse") for c in ("c1", "c12")],
    ("upoly.gcd_upoly.calls", "count"), ("upoly.gcd_upoly.s", "s"), ("series.add.calls", "count"),
    *[(f"linalg.{f}.s", "s") for f in ("rref", "det", "inverse", "charpoly", "minpoly", "kernel")],
    ("linalg.rref.calls", "count"),
    ("rings.poly_mul.calls", "count"),
    *[(f"rings.{f}.s", "s") for f in ("substitute", "apply_linear", "parse")],
    ("solver.groebner_basis.calls", "count"), ("solver.groebner_basis.s", "s"),
    ("solver.groebner_basis.self_s", "s"), ("solver.normal_form.calls", "count"),
    ("solver.solve_projective.s", "s"), ("solver.subalgebra_member.s", "s"),
    ("brackets.jacobi_check.s", "s"), ("brackets.normal_find_deg1.s", "s"),
    ("brackets.normal_find_deg1.self_s", "s"), ("brackets.center_truncated.s", "s"),
    ("brackets.derived_ideal.s", "s"),
    ("families.build.s", "s"),
    ("symmetry.classify.s", "s"), ("symmetry.group_closure.s", "s"),
    ("symmetry.group_order.sum", "count"),
    ("symmetry.molien_series.s", "s"), ("symmetry.molien_series.self_s", "s"),
    ("symmetry.find_reflections.s", "s"), ("symmetry.find_reflections.self_s", "s"),
    ("fixedrings.fixed_group.s", "s"), ("fixedrings.fixed_group.self_s", "s"),
    ("fixedrings.is_skew_presentation.s", "s"),
    ("fixedrings.rigidity_report.s", "s"), ("fixedrings.rigidity_report.self_s", "s"),
    *[(f"envelope.{f}.s", "s") for f in ("envelope_presentation", "envelope_extend",
                                          "envelope_trace")],
    ("envelope.envelope_dims.s", "s"), ("envelope.envelope_dims.self_s", "s"),
    ("formats.parse_algebra.s", "s"), ("formats.parse_algebra.self_s", "s"),
    ("formats.parse_map.s", "s"), ("formats.report_json.s", "s"),
    ("cli.main.s", "s"), ("cli.main.self_s", "s"),
    ("task.calls", "count"), ("task.s", "s"),
    ("share.envelope_dims", "ratio"), ("share.groebner_basis", "ratio"),
    ("share.cli_core", "ratio"), ("share.scalars_mul_nonrational", "ratio"),
    ("baseline.skew5_c6_fixed_group.s", "s"), ("baseline.envelope_dims_qm2_4.s", "s"),
    ("baseline.quantum_matrices_3.s", "s"), ("baseline.run_suite.s", "s"),
    ("baseline.reynolds_fallback.s", "s"),
    ("trace.overhead_ratio", "ratio"),
]
CLI_CORE = ("brackets.normal_find_deg1", "symmetry.find_reflections", "fixedrings.rigidity_report")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="pwb benchmark harness")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's seed in workloads.json)")
    p.add_argument("--seconds", type=float, default=5.0,
                   help="timed task time to reach, after MIN_RUNS task runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once (import, inputs, one warm-up task) and exit")
    args = p.parse_args(argv)
    if args.seed is None:
        args.seed = META[args.workload]["seed"]
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def build_pool(workload: str, seed: int, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(seed), workdir)


def setup_once(args) -> None:
    workdir = RUN_DIR / f"setup-{os.getpid()}"
    try:
        build_pool(args.workload, args.seed, workdir)[0].run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args) -> list[float]:
    """Wall time of fresh interpreters that import pwb, build the inputs and run
    one warm-up task, each scaled by the calibration kernel run around it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibration.gap()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=150)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
        times += calibration.scale([wall], [before, calibration.gap()])
    return times


def warm_up(pool):
    """Run and check every pool task once; returns per-task (digest, failure)."""
    refs = []
    for task in pool:
        try:
            ans = task.run()
        except Exception as exc:  # a raising task is a failed task
            refs.append((None, f"raised {type(exc).__name__}: {exc}"))
            continue
        try:
            task.check(ans)
            refs.append((task.digest(ans), None))
        except Exception as exc:  # includes malformed reports, not only CheckFailed
            refs.append((None, f"check failed: {type(exc).__name__}: {exc}"))
    return refs


class Timings:
    """Task times of whole passes over a pool: raw, and calibrated by the
    kernel samples that bracket each task."""

    def __init__(self, size: int):
        self.size = size
        self.raw: list[float] = []
        self.scaled: list[float] = []  # in run order, pass by pass
        self.failures: list[tuple[str, str]] = []
        self.passes = 0

    def per_task(self) -> list[float]:
        """Each pool task's median calibrated time over the passes."""
        return [statistics.median(self.scaled[i::self.size]) for i in range(self.size)]


def run_pass(pool, refs, timings: Timings, tracer=None) -> None:
    """One timed pass over the pool; traced tasks get ids from 1 on."""
    timings.passes += 1
    raw, gaps = [], []
    for task, (ref, why) in zip(pool, refs):
        gaps.append(calibration.gap())
        t0 = time.perf_counter()
        if tracer is None:
            try:
                ans, err = task.run(), None
            except Exception as exc:  # a raising task is a failed task
                ans, err = None, exc
        else:
            ans, err = tracer.run_task(1 + len(timings.raw) + len(raw), task.run)
        raw.append(time.perf_counter() - t0)
        if err is not None:
            timings.failures.append((task.label, f"raised {type(err).__name__}: {err}"))
        elif ref is None:
            timings.failures.append((task.label, why))
        elif task.digest(ans) != ref:
            timings.failures.append((task.label, "answer differs from the warm-up answer"))
    gaps.append(calibration.gap())
    timings.raw += raw
    timings.scaled += calibration.scale(raw, gaps)


def more_passes(timings: Timings, seconds: float, started: float) -> bool:
    """Whole passes until there are MIN_RUNS task runs and the timed task time
    reaches `seconds`; none starts after WALL_LIMIT_S."""
    if timings.passes and time.monotonic() - started >= WALL_LIMIT_S:
        return False
    return len(timings.raw) < MIN_RUNS or sum(timings.raw) < seconds


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile of TAIL_GRID with at least ten values beyond it,
    as its Harrell-Davis estimate: the mean of the order statistics weighted by
    the Beta((n+1)p, (n+1)(1-p)) mass of each one's rank interval. A single
    order statistic jumps when the percentile falls in a gap between two task
    classes; the weighted mean moves smoothly."""
    s = sorted(values)
    n = len(s)
    pct = next((p for p in TAIL_GRID if n - math.ceil(p / 100 * n) >= 10), 50.0)
    a, b = pct / 100 * (n + 1), (1 - pct / 100) * (n + 1)
    mode = (a - 1) / (a + b - 2)

    def log_density(x):
        return (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)

    top = log_density(mode)
    # each rank interval ((i - 1)/n, i/n] integrated by the midpoint rule
    points = 16
    weights = [sum(math.exp(log_density((i + (j + 0.5) / points) / n) - top)
                   for j in range(points)) for i in range(n)]
    return pct, sum(w * x for w, x in zip(weights, s)) / sum(weights)


def end_to_end(args, started: float) -> tuple[dict, list, dict]:
    pool = build_pool(args.workload, args.seed, RUN_DIR / f"work-{os.getpid()}")
    refs = warm_up(pool)
    timings = Timings(len(pool))
    while more_passes(timings, args.seconds, started):
        run_pass(pool, refs, timings)
    setup = measure_setup(args)
    per_task = timings.per_task()
    samples = timings.scaled
    pct, tail_s = tail(samples)
    metrics = {
        "task_p50_ms": (statistics.median(per_task) * 1e3, "ms"),
        "task_tail_ms": (tail_s * 1e3, "ms"),
        "tasks_per_s": (len(per_task) / sum(per_task), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    passes = timings.passes
    notes = {"task_p50_ms": f"of {len(pool)} tasks, median of {passes} passes each",
             "task_tail_ms": f"p{pct:g} of {len(samples)} task runs ({len(pool)} tasks x "
                             f"{passes} passes)",
             "tasks_per_s": f"{len(pool)} tasks, median of {passes} passes each",
             "setup_s": f"median of {len(setup)} fresh interpreters"}
    return metrics, timings.failures, {"attempted": len(samples), "notes": notes}


def calibrated_call(tracer: Tracer, name: str, call):
    """One named span around a single untraced call; returns (result, calibrated s)."""
    before = calibration.gap()
    t0 = time.perf_counter()
    result = tracer.record_call(name, -1, call)
    raw = time.perf_counter() - t0
    return result, calibration.scale([raw], [before, calibration.gap()])[0]


def per_layer(args, started: float) -> tuple[dict, list, dict]:
    tracer = Tracer()
    failures = []
    # the pool build is traced too (task 0), so families.build is measured
    workdir = RUN_DIR / f"work-{os.getpid()}"
    tracer.install(ROOT)
    try:
        pool = tracer.record_call(BUILD, 0, lambda: build_pool(args.workload, args.seed, workdir),
                                  traced=True)
    finally:
        tracer.uninstall()
    refs = warm_up(pool)
    derived = scalar_microbench(args.seed)
    for name, call, ok in roadmap_calls():
        result, derived[name] = calibrated_call(tracer, name, call)
        if not ok(result):
            failures.append((name, "baseline call returned a wrong answer"))
    # untraced and traced passes alternate, so both see the same machine phases
    untraced, traced = Timings(len(pool)), Timings(len(pool))
    while more_passes(traced, args.seconds, started):
        run_pass(pool, refs, untraced)
        tracer.install(ROOT)
        try:
            run_pass(pool, refs, traced, tracer)
        finally:
            tracer.uninstall()
    failures += untraced.failures + traced.failures
    path = RUN_DIR / f"trace-{args.workload}.tsv"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "clock": "perf_counter"})
    header, spans = read_trace(path)
    layers = layer_times(header, spans)
    counts = header["counts"]

    def span(name, field):
        return layers.get(name, {}).get(field, 0)

    task_s = span(TASK, "s")
    muls = [counts.get(f"scalars.mul.{k}", 0) for k in ("rational", "cyclotomic", "mixed")]
    derived.update({
        "share.envelope_dims": span("envelope.envelope_dims", "s") / task_s,
        "share.groebner_basis": span("solver.groebner_basis", "s") / task_s,
        "share.cli_core": covered_time(header, spans, CLI_CORE) / task_s,
        "share.scalars_mul_nonrational": (muls[1] + muls[2]) / max(1, sum(muls)),
        "trace.overhead_ratio": sum(traced.per_task()) / sum(untraced.per_task()),
    })
    metrics = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        else:
            base, _, field = name.rpartition(".")
            if field in ("s", "self_s"):
                value = span(base, field)
            elif base in layers:
                value = span(base, "calls")
            else:
                value = counts.get(name if field == "sum" else base, 0)
        metrics[name] = (value, unit)
    notes = {"task.calls": f"{traced.passes} traced passes, alternating with as many "
                           f"untraced; spans in {path.relative_to(ROOT)}"}
    attempted = len(untraced.raw) + len(traced.raw)
    return metrics, failures, {"attempted": attempted, "notes": notes}


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if args.setup_only:
        setup_once(args)
        return 0
    try:
        if args.trace:
            metrics, failures, info = per_layer(args, started)
        else:
            metrics, failures, info = end_to_end(args, started)
    finally:
        shutil.rmtree(RUN_DIR / f"work-{os.getpid()}", ignore_errors=True)
    attempted = info["attempted"]
    failed_tasks = sum(1 for label, _ in failures if not label.startswith("baseline."))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"tasks {attempted}  failed {failed_tasks}")
    for name, (value, unit) in metrics.items():
        note = info["notes"].get(name)
        print(f"  {name:<36} {value:>14.6g} {unit:<6}" + (f"  ({note})" if note else ""))
    if not args.trace:
        print(f"  {'fail_ratio':<36} {failed_tasks / attempted:>14.6g} {'ratio':<6}"
              f"  ({failed_tasks} of {attempted} tasks)")
    for label, why in failures[:20]:
        print(f"FAILED {label}: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_tasks,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
