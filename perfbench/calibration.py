"""Machine-speed calibration for task times.

On a shared machine the CPU itself runs slower for seconds or minutes at a
time (CPU time and wall time rise together, so this is not stolen time):
a fixed pure-Python loop has been seen to take anywhere from 16 to 25 ms
within one minute. Such phases move wall-clock figures by more than any
bound worth setting.

The harness therefore runs a short fixed kernel twice before every task and
twice after the last one, and scales each task's wall time by REF_S over the
mean of the four kernel times that bracket it. The speed changes from one
task to the next, so the samples just before and just after a task track it
better than a wider window does. Every
timing metric is a wall time expressed at the speed where the kernel takes
REF_S seconds. The kernel does what pwb's inner loops do: Fraction arithmetic,
tuple keys and dict updates. It never calls pwb, so a change to pwb cannot
move it.
"""
from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# kernel time on a 2-vCPU VM with CPython 3.11, in its faster phases
REF_S = 2.4e-3
GAP_SAMPLES = 2  # kernel runs between two tasks


def kernel() -> Fraction:
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 400):
        f = Fraction(i, i + 7) * Fraction(3 * i + 1, 2 * i + 5)
        acc += f
        table[(i, i % 7)] = f
    return acc


def sample() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def gap() -> list[float]:
    """The kernel samples taken between two tasks."""
    return [sample() for _ in range(GAP_SAMPLES)]


def scale(raw: list[float], gaps: list[list[float]]) -> list[float]:
    """Scale raw[k] by REF_S over the mean of gaps[k] and gaps[k + 1], the
    samples taken just before and just after it."""
    return [t * REF_S / statistics.fmean(gaps[k] + gaps[k + 1]) for k, t in enumerate(raw)]
