"""The three seeded workloads.

Each workload turns a seed into a pool of tasks: one cycle of a stratified
schedule. The task classes and their counts are fixed; the seed draws the
content of each task (matrix entries, block choices, coefficients) and, on
fixed_rings, which slots get two-variable blocks and the n of each
non-reflection trial. The timed loop repeats the pool, so every pass
measures the same mix. pwb receives only the generated inputs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
from checks import require
from pwb import cli
from pwb.envelope import envelope_dims, envelope_extend, envelope_trace
from pwb.families import (homogenized_weyl, jacobian_pq, lie_two_dim_nonabelian, ph_lie,
                          quantum_matrices, skew_symmetric, sl2)
from pwb.fixedrings import fixed_group, is_skew_presentation
from pwb.formats import emit_algebra, emit_map, presented_json
from pwb.linalg import Matrix
from pwb.scalars import Cyclo, zeta
from pwb.symmetry import GradedMap, block_decomposition, classify, group_closure


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]  # raises checks.CheckFailed; run once per pool task
    digest: Callable[[object], str]  # compared between the warm-up and every timed run


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _matrix_strs(m) -> list:
    return None if m is None else [[str(x) for x in row] for row in m.rows]


def _diag(entries) -> list[list]:
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


# -- fixed_rings -----------------------------------------------------------------
#
# The criterion-7 trial generator of tests/test_acceptance.py, stratified on the
# draws that set a trial's cost, with class counts taken from the generator's
# own distribution (generator_shares.py measures it; README.md lists it):
#
# * n, the number of reflections (one or two, independently placed) and their
#   orders are uniform in the generator, so each of the two copies of the
#   schedule holds, for each n in {2, 3, 4}, every order three times as a
#   single reflection and every ordered pair of orders once (18 trials);
# * the block the reflections act on has two variables in 20.3% of the
#   generator's n = 2 draws, 4.6% at n = 3 and 1.7% at n = 4. Over the 36
#   slots of each n that rounds to 7, 2 and 1 two-variable blocks; the seed
#   picks which slots get them and draws everything else as the generator does.
#   Three-variable blocks are 0.28% of draws (0.09% with two reflections at
#   distinct positions, where fixed_group takes the Reynolds fallback) and
#   round to none; the traced run times that fallback as a named call;
# * 27 non-reflection trials (the 4:1 ratio), drawn as the generator draws
#   them, and one 5-variable skew algebra under diag(zeta_m, 1, 1, 1, 1) for
#   m = 4 and m = 6 at the default degree bound.

SKEW_VALUES = (Cyclo.of(0), Cyclo.of(1), Cyclo.of(-1), zeta(3), -zeta(3))
TRIAL_ORDERS = (*[(o,) for o in (2, 3, 4) for _ in range(3)],
                *[(a, b) for a in (2, 3, 4) for b in (2, 3, 4)])
COPIES = 2
# n -> two-variable block slots out of the COPIES * len(TRIAL_ORDERS) trials of that n
TWO_BLOCKS = {2: 7, 3: 2, 4: 1}
NON_REFLECTION_TRIALS = 27


def _random_skew(rng: random.Random, n: int, values=SKEW_VALUES) -> Matrix:
    rows = [[Cyclo.of(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Cyclo.of(values[rng.randrange(len(values))])
            rows[i][j] = v
            rows[j][i] = -v
    return Matrix(rows)


def _placed_skew(n: int, entries) -> Matrix:
    """Skew matrix with the given upper-triangle entries in row order."""
    rows = [[Cyclo.of(0)] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i + 1, n):
            v = Cyclo.of(next(it))
            rows[i][j] = v
            rows[j][i] = -v
    return Matrix(rows)


def _random_invertible(rng: random.Random, k: int) -> Matrix:
    while True:
        m = Matrix([[Cyclo.of(rng.choice([-1, 0, 1, 2])) for _ in range(k)] for _ in range(k)])
        if not m.det().is_zero():
            return m


def _block_reflection(n: int, block: list[int], S: Matrix, pos: int, order: int) -> GradedMap:
    k = len(block)
    local = S * Matrix.diagonal([zeta(order) if t == pos else 1 for t in range(k)]) * S.inverse()
    rows = [[Cyclo.of(1) if r == c else Cyclo.of(0) for c in range(n)] for r in range(n)]
    for a, ia in enumerate(block):
        for b, ib in enumerate(block):
            rows[ia][ib] = local.rows[a][b]
    return GradedMap(Matrix(rows))


@dataclass
class FixedRingAnswer:
    kinds: list
    order: int
    presented: object
    skew: object


def _fixed_digest(ans: FixedRingAnswer) -> str:
    return _sha(json.dumps([ans.kinds, ans.order, presented_json(ans.presented),
                            _matrix_strs(ans.skew)], sort_keys=True))


def _trial_task(label: str, A, gens: list[GradedMap], expect_reflection: bool,
                orders) -> Task:
    def run() -> FixedRingAnswer:
        kinds = [classify(A, g).kind for g in gens]
        G = group_closure(gens)
        p = fixed_group(A, G, bound=max(2, G.exponent), canonical=False,
                        with_relations=False)
        return FixedRingAnswer(kinds, G.order, p, is_skew_presentation(p))

    def check(ans: FixedRingAnswer) -> None:
        ob = checks.oracle_bracket(A)
        mats = [g.matrix.rows for g in gens]
        p = ans.presented
        if expect_reflection:
            require(ans.kinds == ["reflection"] * len(gens), f"classified as {ans.kinds}")
            for rows, order in zip(mats, orders):
                checks.require_reflection(ob, rows, order)
        else:
            require(ans.kinds == ["finite_non_reflection"], f"classified as {ans.kinds}")
            checks.require_automorphism(ob, mats[0])
            require(checks.rank_minus_identity(mats[0]) == 2, "sign change is not rank 2")
        group_order = checks.closure_order(mats)
        require(ans.order == group_order, f"group order {ans.order}, expected {group_order}")
        checks.require_fixed_ring(A, ob, mats, p.expressions, p.entry, p.polynomial, p.degrees)
        if expect_reflection:
            # Chevalley-Shephard-Todd: a reflection group has a free invariant ring
            # whose degrees multiply to the group order
            require(p.polynomial, "reflection-generated fixed ring is not free")
            require(math.prod(p.degrees) == group_order, "degree product is not |G|")
            checks.require_skew_form(ob, p.expressions, ans.skew)
        else:
            require(not p.polynomial, "a group without reflections has a free fixed ring")

    return Task(label, run, check, _fixed_digest)


def _diagonal_task(label: str, A, m: int) -> Task:
    n = A.nvars
    g = GradedMap(Matrix.diagonal([zeta(m)] + [1] * (n - 1)))

    def run() -> FixedRingAnswer:
        kind = classify(A, g).kind
        G = group_closure([g])
        p = fixed_group(A, G)
        return FixedRingAnswer([kind], G.order, p, is_skew_presentation(p))

    def check(ans: FixedRingAnswer) -> None:
        ob = checks.oracle_bracket(A)
        rows = g.matrix.rows
        p = ans.presented
        require(ans.kinds == ["reflection"], f"classified as {ans.kinds}")
        checks.require_reflection(ob, rows, m)
        require(ans.order == m, f"group order {ans.order}, expected {m}")
        require(p.polynomial and p.relations == (), "diagonal reflection fixed ring is not free")
        require(sorted(p.degrees) == [1] * (n - 1) + [m], f"degrees {p.degrees}")
        checks.require_fixed_ring(A, ob, [rows], p.expressions, p.entry, p.polynomial, p.degrees)
        checks.require_skew_form(ob, p.expressions, ans.skew)
        want = checks.free_molien_coefficients(n, m, m + 1)
        got = p.molien.taylor(m + 1)
        require(got == [Cyclo.of(c) for c in want], "Molien series coefficients are wrong")

    return Task(label, run, check, _fixed_digest)


def _reflection_trial(rng: random.Random, n: int, orders, k: int) -> Task:
    """The generator's draws for n, conditioned on a block of k variables."""
    while True:
        q = _random_skew(rng, n)
        blocks = block_decomposition(q)
        block = blocks[rng.randrange(len(blocks))]
        if len(block) == k:
            break
    S = _random_invertible(rng, k)
    positions = [rng.randrange(k) for _ in orders]
    gens = [_block_reflection(n, block, S, pos, o) for pos, o in zip(positions, orders)]
    return _trial_task(f"reflection n={n} orders={orders} block={k}", skew_symmetric(q),
                       gens, True, orders)


def fixed_rings(rng: random.Random, workdir: Path) -> list[Task]:
    slots = []
    for n in (2, 3, 4):
        of_n = TRIAL_ORDERS * COPIES
        two = set(rng.sample(range(len(of_n)), TWO_BLOCKS[n]))
        slots += [(n, orders, 2 if s in two else 1) for s, orders in enumerate(of_n)]
    # the first task fills the conductor 3, 4 and 12 scalar tables during set-up
    first = next(s for s in slots if s[:2] == (3, (3, 4)))
    slots.remove(first)
    slots.insert(0, first)
    tasks = [_reflection_trial(rng, *slot) for slot in slots]
    negatives = 0
    while negatives < NON_REFLECTION_TRIALS:
        n = rng.choice([2, 3, 4])
        q = _random_skew(rng, n)
        if all(c.is_zero() for row in q.rows for c in row):
            continue
        A = skew_symmetric(q)
        i, j = rng.sample(range(n), 2)
        g = GradedMap(Matrix.diagonal([-1 if t in (i, j) else 1 for t in range(n)]))
        tasks.append(_trial_task(f"non-reflection n={n}", A, [g], False, None))
        negatives += 1
    for m in (4, 6):
        tasks.append(_diagonal_task(f"diagonal n=5 m={m}", skew_symmetric(_random_skew(rng, 5)), m))
    return tasks


# -- envelope_dims -----------------------------------------------------------------
#
# Rational quadratic algebras on 2-4 variables. Per cycle (64 tasks): 56 cheap
# ones (2-variable skew at d = 4; jacobian_pq, quantum_matrices(2) and 3- and
# 4-variable skew at d = 3), three of homogenized_weyl(1) and four 3-variable
# skew algebras at d = 4, and quantum_matrices(2) at d = 4, which alone takes a
# third of the time. The class counts put the median of the 64 task times
# inside a class (2-variable skew at d = 4) and the p90 tail of the timed
# runs inside the seven 3-variable algebras at d = 4, not on a boundary
# between two. Skew entries are nonzero, because the number of zero entries
# sets the cost.
# Every algebra also has envelope_extend run on one automorphism and
# envelope_trace on one reflection (x_1 -> -x_1, z -> -z, the swap b <-> c);
# jacobian_pq with p != 0 has no reflection, so it extends the cyclic
# permutation x -> y -> z -> x and skips the trace.

NONZERO_RATIONALS = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3))
SWAP_BC = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
CYCLE_XYZ = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


@dataclass
class EnvelopeAnswer:
    dims: list
    extension: object
    trace: object


def _envelope_task(label: str, A, d: int, map_rows, reflection: bool) -> Task:
    g = GradedMap(Matrix(map_rows))
    n = A.nvars

    def run() -> EnvelopeAnswer:
        dims = envelope_dims(A, d)
        ext = envelope_extend(A, g)
        tr = envelope_trace(A, g) if reflection else None
        return EnvelopeAnswer(dims, ext, tr)

    def digest(ans: EnvelopeAnswer) -> str:
        tr = ans.trace
        return _sha(json.dumps([ans.dims, _matrix_strs(ans.extension.map.matrix),
                                ans.extension.relations_preserved,
                                None if tr is None else [str(tr.series), str(tr.factored),
                                                         tr.quasi_reflection]]))

    def check(ans: EnvelopeAnswer) -> None:
        require(ans.dims == checks.envelope_dim_reference(n, d), f"dims {ans.dims}")
        ob = checks.oracle_bracket(A)
        checks.require_automorphism(ob, map_rows)
        require(ans.extension.relations_preserved, "extension of an automorphism breaks relations")
        big = ans.extension.map.matrix.rows
        for r in range(2 * n):
            for c in range(2 * n):
                want = map_rows[r % n][c % n] if (r < n) == (c < n) else 0
                require(big[r][c] == Cyclo.of(want), "extension is not diag(g, g)")
        if reflection:
            checks.require_reflection(ob, map_rows, 2)
            tr = ans.trace
            want = [Cyclo.of(c) for c in checks.squared_reflection_trace(n, 6)]
            require(tr.series.taylor(6) == want, "trace series of the extension is wrong")
            require(tr.series == tr.factored, "factored trace differs from the trace")
            require(not tr.quasi_reflection, "squared reflection trace has quasi-reflection shape")

    return Task(label, run, check, digest)


def envelope(rng: random.Random, workdir: Path) -> list[Task]:
    tasks = []

    def skew(n, d):
        A = skew_symmetric(_random_skew(rng, n, NONZERO_RATIONALS))
        tasks.append(_envelope_task(f"skew n={n} d={d}", A, d, _diag([-1] + [1] * (n - 1)), True))

    def jac(p, d):
        A = jacobian_pq(p, rng.choice(NONZERO_RATIONALS))
        if p == 0:
            tasks.append(_envelope_task(f"jacobian_pq(0, q) d={d}", A, d, _diag([-1, 1, 1]), True))
        else:
            tasks.append(_envelope_task(f"jacobian_pq(p, q) d={d}", A, d, CYCLE_XYZ, False))

    def qmatrix(d):
        tasks.append(_envelope_task(f"quantum_matrices(2) d={d}", quantum_matrices(2), d,
                                    SWAP_BC, True))

    for _ in range(6):
        qmatrix(3)
        skew(3, 3)
    for _ in range(4):
        skew(4, 3)
    for _ in range(8):
        jac(0, 3)
        jac(rng.choice(NONZERO_RATIONALS), 3)
        skew(4, 3)
        skew(2, 4)
        skew(2, 4)
    for _ in range(3):
        tasks.append(_envelope_task("homogenized_weyl(1) d=4", homogenized_weyl(1), 4,
                                    _diag([1, 1, -1]), True))
    for _ in range(4):
        skew(3, 4)
    qmatrix(4)
    return tasks


# -- solve_cli -----------------------------------------------------------------------
#
# Algebras from the quadratic families, written as .pois files, run through
# pwb.cli.main in-process: check, normal and reflections on each, plus fixed and
# report where a group file exists (x_1 -> -x_1, the swap b <-> c, z -> -z).

# Upper-triangle entries of the skew matrices on 3, 4 and 5 variables: a fixed
# multiset per size, placed in a seeded order, because the number of zero and
# non-rational entries sets the cost of every command.
CLI_SKEW_ENTRIES = {
    3: (0, 1, zeta(3)),
    4: (0, 1, -1, 2, zeta(3), -zeta(3)),
    5: (0, 0, 1, 1, -1, 2, 2, zeta(3), zeta(3), -zeta(3)),
}
JAC_PAPER = ((1, 0), (-1, 1), (-zeta(3), 1))
JAC_P = (Cyclo.of(1), Cyclo.of(-1), Cyclo.of(2), Cyclo.of(Fraction(1, 2)), zeta(3), -zeta(3))
JAC_Q = (Cyclo.of(0), Cyclo.of(1), Cyclo.of(-1), Cyclo.of(2), Cyclo.of(Fraction(1, 2)))


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_task(label: str, argv: list[str], check_report: Callable[[dict], None]) -> Task:
    def run():
        return run_cli(argv)

    def check(ans) -> None:
        code, text = ans
        report = json.loads(text)
        require(code == 0 and report["exit_code"] == 0,
                f"exit code {code}: {report.get('diagnostics')}")
        check_report(report["result"])

    return Task(label, run, check, lambda ans: _sha(f"{ans[0]}\n{ans[1]}"))


def _cli_tasks(workdir: Path, name: str, A, key, map_rows=None) -> list[Task]:
    path = workdir / f"{name}.pois"
    path.write_text(emit_algebra(name, A))
    paper = checks.PAPER.get(key, {})
    n = A.nvars
    is_skew = key[0] == "skew"

    def check_jacobi(res):
        require(res["jacobi"] is True and res["failing_triple"] is None, "Jacobi reported false")
        ob = checks.oracle_bracket(A)
        x = [checks.DensePoly.variable(n, i) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    s = ob.bracket(x[i], ob.bracket(x[j], x[k])) \
                        .add(ob.bracket(x[j], ob.bracket(x[k], x[i]))) \
                        .add(ob.bracket(x[k], ob.bracket(x[i], x[j])))
                    require(s.is_zero(), f"oracle Jacobi fails on ({i}, {j}, {k})")

    def check_normal(res):
        sol = res["normal_elements"]
        checks.require_normal_report(checks.oracle_bracket(A), sol)
        if "normal_kind" in paper:
            require(sol["kind"] == paper["normal_kind"], f"normal set is {sol['kind']}")
        if "normal_count" in paper:
            require(len(sol["points"]) == paper["normal_count"], "wrong number of normal lines")
        if "normal_basis" in paper:
            require(sol["basis"] == paper["normal_basis"], "wrong normal subspace")
        if is_skew:
            checks.require_spans_coordinates(sol, n)

    def check_reflections(res):
        samples = checks.require_reflection_samples(checks.oracle_bracket(A), res)
        if "reflections" in paper:
            require(res["status"] == paper["reflections"], f"reflection status {res['status']}")
        if map_rows is not None:
            # the group file holds a reflection, so the search must find one
            require(res["status"] == "found" and samples > 0, "known reflection not found")
        fams = res["reflections"] if res["status"] == "found" else []
        if "families" in paper:
            require(len(fams) == paper["families"], f"{len(fams)} reflection families")
        if "xi" in paper:
            sampled = [f for f in fams if f["samples"]]
            require(sampled and all(f["xi"] is not None and f["xi"]["str"] == paper["xi"]
                                    and not f["xi_is_free_root_of_unity"] for f in sampled),
                    "reflection eigenvalue differs from the paper")

    tasks = [_cli_task(f"{name} check", ["check", "--algebra", str(path), "--json"], check_jacobi),
             _cli_task(f"{name} normal", ["normal", "--algebra", str(path), "--json"],
                       check_normal),
             _cli_task(f"{name} reflections", ["reflections", "--algebra", str(path), "--json"],
                       check_reflections)]
    if map_rows is None:
        return tasks
    mpath = workdir / f"{name}.map"
    mpath.write_text(emit_map("g", name, GradedMap(Matrix(map_rows)), A.ring))

    def check_fixed_ring(payload):
        exprs = checks.require_fixed_report(A, checks.oracle_bracket(A), payload, map_rows)
        if "fixed" in paper:
            require(exprs == paper["fixed"], f"fixed ring generators {exprs}")
        if key[0] == "hweyl":
            want = sorted(list(A.ring.names[:-1]) + ["z^2"])
            require(sorted(exprs) == want, f"fixed ring generators {exprs}")

    def check_fixed(res):
        require(res["group_order"] == checks.matrix_order(map_rows), "wrong group order")
        check_fixed_ring(res["fixed_ring"])

    def check_report(res):
        check_fixed_ring(res["fixed_ring"])
        require(res["verdict"] in ("distinguished", "not_distinguished"), "unknown verdict")
        if "verdict" in paper:
            verdict, witness, comps_a, comps_g = paper["verdict"]
            require((res["verdict"], res["witness"]) == (verdict, witness),
                    f"verdict {res['verdict']} by {res['witness']}")
            if comps_a is not None:
                prof = res["profiles"]
                require((prof["A"]["derived_components"], prof["AG"]["derived_components"])
                        == (comps_a, comps_g), "derived ideal component counts differ")

    group = ["--group", str(mpath)]
    return tasks + [
        _cli_task(f"{name} fixed", ["fixed", "--algebra", str(path), *group, "--json"],
                  check_fixed),
        _cli_task(f"{name} report", ["report", "--algebra", str(path), *group, "--json"],
                  check_report)]


def solve_cli(rng: random.Random, workdir: Path) -> list[Task]:
    tasks = []
    for k, (p, q) in enumerate(JAC_PAPER):
        tasks += _cli_tasks(workdir, f"jac_paper{k}", jacobian_pq(p, q),
                            ("jac_pq", str(p), str(q)))
    # p = -omega q (omega^3 = 1) has three normal lines and a costly reflection
    # search; the paper instances cover that class, the random draw the rest
    while True:
        p, q = rng.choice(JAC_P), rng.choice(JAC_Q)
        if not (p ** 3 + q ** 3).is_zero():
            break
    tasks += _cli_tasks(workdir, "jac_random", jacobian_pq(p, q), ("jac_pq", str(p), str(q)))
    q = rng.choice(JAC_Q[1:])
    tasks += _cli_tasks(workdir, "jac_q_only", jacobian_pq(0, q), ("jac_pq", "0", str(q)),
                        _diag([-1, 1, 1]))
    for n in (3, 4, 5):
        entries = list(CLI_SKEW_ENTRIES[n])
        rng.shuffle(entries)
        tasks += _cli_tasks(workdir, f"skew{n}", skew_symmetric(_placed_skew(n, entries)),
                            ("skew", n), _diag([-1] + [1] * (n - 1)))
    tasks += _cli_tasks(workdir, "qmatrix2", quantum_matrices(2), ("qmatrix", 2), SWAP_BC)
    tasks += _cli_tasks(workdir, "qmatrix3", quantum_matrices(3), ("qmatrix", 3))
    for n in (1, 2, 3):
        tasks += _cli_tasks(workdir, f"hweyl{n}", homogenized_weyl(n), ("hweyl", n),
                            _diag([1] * (2 * n) + [-1]))
    tasks += _cli_tasks(workdir, "ph_sl2", ph_lie(sl2()), ("ph_lie", "sl2"))
    tasks += _cli_tasks(workdir, "ph_aff2", ph_lie(lie_two_dim_nonabelian()), ("ph_lie", "aff2"),
                        _diag([1, -1, 1]))
    return tasks


WORKLOADS: dict[str, Callable[[random.Random, Path], list[Task]]] = {
    "fixed_rings": fixed_rings,
    "solve_cli": solve_cli,
    "envelope_dims": envelope,
}
