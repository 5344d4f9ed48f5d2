"""Scalar-layer microbenchmark, the ROADMAP baseline calls and named calls of
paths too rare for a workload's task mix.

Both run untraced (no layer wrappers) inside the traced run, so their figures
are comparable with untraced timings; both are calibrated like task times.
"""
from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

import calibration
from checks import CheckFailed, envelope_dim_reference
from pwb.envelope import envelope_dims
from pwb.families import quantum_matrices, skew_symmetric
from pwb.fixedrings import fixed_group
from pwb.linalg import Matrix
from pwb.scalars import Cyclo, euler_phi, zeta
from pwb.suite import run_suite
from pwb.symmetry import GradedMap, group_closure
from workloads import _block_reflection

OPERANDS = 64
ROUNDS = 16  # operations per repeat: OPERANDS * ROUNDS
REPEATS = 5


def _random_cyclo(rng: random.Random, n: int) -> Cyclo:
    while True:
        c = Cyclo(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(euler_phi(n))])
        if not c.is_zero():
            return c


def _per_op_ns(op, pairs) -> float:
    """Median over repeats of the calibrated time per operation, in nanoseconds."""
    samples = []
    for _ in range(REPEATS):
        speed = statistics.median(calibration.sample() for _ in range(3))
        t0 = perf_counter()
        for _ in range(ROUNDS):
            for a, b in pairs:
                op(a, b)
        per_op = (perf_counter() - t0) / (ROUNDS * len(pairs))
        samples.append(per_op * calibration.REF_S / speed * 1e9)
    return statistics.median(samples)


def scalar_microbench(seed: int) -> dict[str, float]:
    """ns per Cyclo add, mul and inverse; every result is verified exactly."""
    rng = random.Random(seed)

    def pairs(n, m):
        return [(_random_cyclo(rng, n), _random_cyclo(rng, m)) for _ in range(OPERANDS)]

    out = {}
    for label, n, m in (("c1", 1, 1), ("c3", 3, 3), ("c4", 4, 4), ("c12", 12, 12),
                        ("mixed_3_12", 3, 12)):
        ps = pairs(n, m)
        if not all((a * b) * b.inverse() == a for a, b in ps):
            raise CheckFailed(f"(a*b)/b != a at {label}")
        out[f"scalars.mul_ns.{label}"] = _per_op_ns(lambda a, b: a * b, ps)
    for label, n in (("c1", 1), ("c12", 12)):
        ps = pairs(n, n)
        if not all((a + b) - b == a for a, b in ps):
            raise CheckFailed(f"(a+b)-b != a at {label}")
        out[f"scalars.add_ns.{label}"] = _per_op_ns(lambda a, b: a + b, ps)
        if not all((a * a.inverse()).is_one() for a, _ in ps):
            raise CheckFailed(f"a * a^-1 != 1 at {label}")
        out[f"scalars.inverse_ns.{label}"] = _per_op_ns(lambda a, b: a.inverse(), ps)
    return out


def roadmap_calls() -> list[tuple[str, object, object]]:
    """(metric name, call, answer check) for the baseline figures ROADMAP quotes,
    and for the Reynolds fallback of fixed_group: two commuting reflections, of
    orders 2 and 4, at distinct positions of a three-variable block, a criterion-7
    draw too rare (under 0.1%) to have a slot in the fixed_rings schedule."""
    skew5 = skew_symmetric(Matrix([[0 if i == j else (1 if i < j else -1) for j in range(5)]
                                   for i in range(5)]))
    c6 = group_closure([GradedMap(Matrix.diagonal([zeta(6), 1, 1, 1, 1]))])
    m2 = quantum_matrices(2)
    flat3 = skew_symmetric(Matrix([[0] * 3 for _ in range(3)]))
    base = Matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    g24 = group_closure([_block_reflection(3, [0, 1, 2], base, pos, order)
                         for pos, order in ((0, 2), (1, 4))])

    def fixed_ok(p):
        return p.polynomial and sorted(p.degrees) == [1, 1, 1, 1, 6]

    return [
        ("baseline.skew5_c6_fixed_group.s", lambda: fixed_group(skew5, c6), fixed_ok),
        ("baseline.envelope_dims_qm2_4.s", lambda: envelope_dims(m2, 4),
         lambda dims: dims == envelope_dim_reference(4, 4)),
        ("baseline.quantum_matrices_3.s", lambda: quantum_matrices(3),
         lambda A: A.nvars == 9),
        ("baseline.run_suite.s", run_suite, lambda results: all(r.passed for r in results)),
        ("baseline.reynolds_fallback.s",
         lambda: fixed_group(flat3, g24, bound=4, canonical=False, with_relations=False),
         lambda p: p.polynomial and sorted(p.degrees) == [1, 2, 4]),
    ]
