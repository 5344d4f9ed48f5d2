"""Class shares of the criterion-7 reflection-trial generator.

    python3 perfbench/generator_shares.py [--seed 1] [--draws 60000]

Replays the draws of `test_criterion_7_skew_fixed_ring_property` in
tests/test_acceptance.py (n, skew matrix, block, base change, number of
reflections, their positions and orders) without solving anything, and prints
the share of each (n, block size, reflection count, distinct positions)
class, first over the test's own 200 trials, then over `--draws` trials of
`--seed`. The fixed_rings schedule in workloads.py takes its block-size
counts from these shares.
"""
from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

from pwb.symmetry import block_decomposition  # noqa: E402
from workloads import _random_invertible, _random_skew  # noqa: E402

TEST_SEED = 20260809


def draws(seed: int, count: int):
    """(n, block size, reflections, distinct positions, orders) per trial."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice([2, 3, 4])
        q = _random_skew(rng, n)
        blocks = block_decomposition(q)
        k = len(blocks[rng.randrange(len(blocks))])
        _random_invertible(rng, k)
        nrefl = rng.choice([1, 2])
        positions, orders = [], []
        for _ in range(nrefl):
            positions.append(rng.randrange(k))
            orders.append(rng.choice([2, 3, 4]))
        yield n, k, nrefl, len(set(positions)) > 1, tuple(orders)


def report(seed: int, count: int) -> None:
    classes = Counter(d[:4] for d in draws(seed, count))
    print(f"seed {seed}, {count} reflection trials")
    for (n, k, nrefl, distinct), c in sorted(classes.items()):
        print(f"  n={n} block={k} reflections={nrefl} distinct_positions={int(distinct)}"
              f"  {c:>6}  {c / count:.4f}")
    for i, what in ((0, "n"), (2, "reflections")):
        values = sorted({key[i] for key in classes})
        print(f"  {what} shares: " + ", ".join(
            f"{v}: {sum(c for key, c in classes.items() if key[i] == v) / count:.4f}"
            for v in values))
    for n in (2, 3, 4):
        of_n = sum(c for key, c in classes.items() if key[0] == n)
        shares = {k: sum(c for key, c in classes.items() if key[:2] == (n, k)) / of_n
                  for k in sorted({key[1] for key in classes if key[0] == n})}
        print(f"  n={n}: block-size shares " + ", ".join(f"{k}: {s:.4f}" for k, s in shares.items()))
    three = sum(c for key, c in classes.items() if key[1] >= 3)
    reynolds = sum(c for key, c in classes.items() if key[1] >= 3 and key[3])
    print(f"  block >= 3: {three / count:.4f}")
    print(f"  block >= 3 with distinct positions (Reynolds fallback): {reynolds / count:.4f}")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--draws", type=int, default=60000)
    args = p.parse_args()
    report(TEST_SEED, 200)
    report(args.seed, args.draws)


if __name__ == "__main__":
    main()
