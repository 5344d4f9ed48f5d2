"""Independent brute-force implementations used to cross-check expected values.

Deliberately naive and separate from the main library: dense exponent-table
polynomials, a recursive Leibniz bracket (no biderivation formula), plain
Gaussian elimination over Fractions, and direct power iteration for orders.
Only the exact scalar type is shared.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

from pwb.scalars import Cyclo

ZERO = Cyclo.of(0)
ONE = Cyclo.of(1)


class DensePoly:
    """Coefficient table over all exponent tuples (kept explicitly, zeros too)."""

    def __init__(self, nvars: int, table=None):
        self.nvars = nvars
        self.table = dict(table or {})

    @staticmethod
    def variable(nvars: int, i: int) -> "DensePoly":
        e = [0] * nvars
        e[i] = 1
        return DensePoly(nvars, {tuple(e): ONE})

    @staticmethod
    def scalar(nvars: int, c) -> "DensePoly":
        return DensePoly(nvars, {(0,) * nvars: Cyclo.of(c)})

    def clean(self) -> "DensePoly":
        return DensePoly(self.nvars, {e: c for e, c in self.table.items() if not c.is_zero()})

    def add(self, other: "DensePoly") -> "DensePoly":
        out = dict(self.table)
        for e, c in other.table.items():
            out[e] = out.get(e, ZERO) + c
        return DensePoly(self.nvars, out).clean()

    def scale(self, c) -> "DensePoly":
        c = Cyclo.of(c)
        return DensePoly(self.nvars, {e: v * c for e, v in self.table.items()}).clean()

    def mul(self, other: "DensePoly") -> "DensePoly":
        out: dict = {}
        for e1, c1 in self.table.items():
            for e2, c2 in other.table.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, ZERO) + c1 * c2
        return DensePoly(self.nvars, out).clean()

    def power(self, k: int) -> "DensePoly":
        acc = DensePoly.scalar(self.nvars, 1)
        for _ in range(k):
            acc = acc.mul(self)
        return acc

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.table.values())

    def equals(self, other: "DensePoly") -> bool:
        return self.add(other.scale(-1)).is_zero()

    def derivative(self, i: int) -> "DensePoly":
        out: dict = {}
        for e, c in self.table.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = out.get(tuple(ne), ZERO) + c * e[i]
        return DensePoly(self.nvars, out).clean()

    def substitute_var(self, i: int, replacement: "DensePoly") -> "DensePoly":
        acc = DensePoly(self.nvars)
        for e, c in self.table.items():
            term = DensePoly.scalar(self.nvars, c)
            for j, k in enumerate(e):
                base = replacement if j == i else DensePoly.variable(self.nvars, j)
                term = term.mul(base.power(k))
            acc = acc.add(term)
        return acc

    def substitute_all(self, images: list) -> "DensePoly":
        """Simultaneous substitution x_i -> images[i]."""
        acc = DensePoly(self.nvars)
        for e, c in self.table.items():
            term = DensePoly.scalar(self.nvars, c)
            for j, k in enumerate(e):
                if k:
                    term = term.mul(images[j].power(k))
            acc = acc.add(term)
        return acc


class OracleBracket:
    """Bracket from a generator table, extended by recursive Leibniz only."""

    def __init__(self, nvars: int, table: dict):
        self.nvars = nvars
        self.table = {}
        for (i, j), p in table.items():
            self.table[(i, j)] = p
            self.table[(j, i)] = p.scale(-1)

    def pair(self, i: int, j: int) -> DensePoly:
        return self.table.get((i, j), DensePoly(self.nvars))

    def mono_bracket(self, e1: tuple, e2: tuple) -> DensePoly:
        """{x^e1, x^e2} by peeling one variable at a time (Leibniz)."""
        n = self.nvars
        if sum(e1) == 0 or sum(e2) == 0:
            return DensePoly(n)
        if sum(e1) == 1 and sum(e2) == 1:
            return self.pair(e1.index(1), e2.index(1))
        if sum(e1) > 1:
            i = next(t for t, k in enumerate(e1) if k)
            rest = list(e1)
            rest[i] -= 1
            rest = tuple(rest)
            xi = (0,) * i + (1,) + (0,) * (n - i - 1)
            # {x_i * r, g} = x_i {r, g} + {x_i, g} r
            a = DensePoly.variable(n, i).mul(self.mono_bracket(rest, e2))
            b = self.mono_bracket(xi, e2).mul(DensePoly(n, {rest: ONE}))
            return a.add(b)
        # sum(e1) == 1 < sum(e2): use antisymmetry
        return self.mono_bracket(e2, e1).scale(-1)

    def bracket(self, f: DensePoly, g: DensePoly) -> DensePoly:
        acc = DensePoly(self.nvars)
        for e1, c1 in f.table.items():
            for e2, c2 in g.table.items():
                acc = acc.add(self.mono_bracket(e1, e2).scale(c1 * c2))
        return acc

    def modular_images(self) -> list[DensePoly]:
        """phi(x_i) = sum_j d{x_i, x_j}/dx_j from the definition."""
        out = []
        for i in range(self.nvars):
            acc = DensePoly(self.nvars)
            for j in range(self.nvars):
                acc = acc.add(self.pair(i, j).derivative(j))
            out.append(acc)
        return out


def dense_rank(rows: list[list[Fraction]]) -> int:
    """Plain Gaussian elimination over Fractions."""
    rows = [list(r) for r in rows if any(x != 0 for x in r)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def cyclo_sparse_rank(rows: list[dict]) -> int:
    """Rank of sparse rows (column -> Cyclo) by elimination over Q(zeta_N) itself."""
    pivots: dict[int, dict] = {}
    for row in rows:
        row = {k: v for k, v in row.items() if not v.is_zero()}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = row[lead].inverse()
                pivots[lead] = {k: v * inv for k, v in row.items()}
                break
            f = row[lead]
            for k, v in piv.items():
                acc = row.get(k, ZERO) - f * v
                if acc.is_zero():
                    row.pop(k, None)
                else:
                    row[k] = acc
    return len(pivots)


def matrix_order_by_iteration(rows, cap: int = 64):
    """Multiplicative order by direct power iteration, or None past the cap."""
    n = len(rows)
    rows = [[Cyclo.of(x) for x in row] for row in rows]

    def mul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(n)), ZERO) for j in range(n)]
                for i in range(n)]

    def is_identity(m):
        return all((m[i][j].is_one() if i == j else m[i][j].is_zero())
                   for i in range(n) for j in range(n))

    power = rows
    for k in range(1, cap + 1):
        if is_identity(power):
            return k
        power = mul(power, rows)
    return None


def monomial_is_invariant(exps, chars_per_gen) -> bool:
    """The eigenbasis monomial y^exps is fixed by every generator: the product
    of its characters, taken with Cyclo powers, is 1."""
    for chars in chars_per_gen:
        acc = ONE
        for j, e in enumerate(exps):
            if e:
                acc = acc * chars[j] ** e
        if not acc.is_one():
            return False
    return True


def exponents_up_to(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Every exponent tuple of total degree at most `degree`."""
    return [e for e in product(range(degree + 1), repeat=nvars) if sum(e) <= degree]


def invariant_monomial_counts(chars_per_gen, nvars: int, degree: int) -> list[int]:
    """Invariant eigenbasis monomials of each degree 0..degree, one by one."""
    counts = [0] * (degree + 1)
    for e in exponents_up_to(nvars, degree):
        if monomial_is_invariant(e, chars_per_gen):
            counts[sum(e)] += 1
    return counts
