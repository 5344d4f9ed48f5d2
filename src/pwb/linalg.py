"""Exact linear algebra over Q(zeta_N): dense matrices and a sparse integer echelon."""
from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping, Optional, Sequence

from .errors import SingularMatrixError
from .scalars import Cyclo, cyclotomic_polynomial, euler_phi, lcm

_ZERO = Cyclo.of(0)
_ONE = Cyclo.of(1)


def _c(x) -> Cyclo:
    return x if isinstance(x, Cyclo) else Cyclo.of(x)


class Matrix:
    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable]):
        rs = [[_c(x) for x in row] for row in rows]
        if rs and any(len(r) != len(rs[0]) for r in rs):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", rs)
        object.__setattr__(self, "nrows", len(rs))
        object.__setattr__(self, "ncols", len(rs[0]) if rs else 0)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Matrix":
        return Matrix([[_ZERO] * ncols for _ in range(nrows)])

    @staticmethod
    def diagonal(entries: Sequence) -> "Matrix":
        n = len(entries)
        return Matrix([[_c(entries[i]) if i == j else _ZERO for j in range(n)]
                       for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> Cyclo:
        return self.rows[ij[0]][ij[1]]

    def row(self, i: int) -> list[Cyclo]:
        return list(self.rows[i])

    def column(self, j: int) -> list[Cyclo]:
        return [r[j] for r in self.rows]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    __hash__ = None

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("dimension mismatch")
            cols = [other.column(j) for j in range(other.ncols)]
            return Matrix([[_dot(r, col) for col in cols] for r in self.rows])
        return Matrix([[a * _c(other) for a in r] for r in self.rows])

    def __pow__(self, k: int) -> "Matrix":
        if k < 0:
            return self.inverse() ** (-k)
        result, base = Matrix.identity(self.nrows), self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def apply(self, vec: Sequence) -> list[Cyclo]:
        v = [_c(x) for x in vec]
        return [_dot(r, v) for r in self.rows]

    def transpose(self) -> "Matrix":
        return Matrix([[self.rows[i][j] for i in range(self.nrows)]
                       for j in range(self.ncols)])

    def trace(self) -> Cyclo:
        acc = _ZERO
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def is_identity(self) -> bool:
        return self == Matrix.identity(self.nrows)

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and pivot columns."""
        work = [list(r) for r in self.rows]
        pivots: list[int] = []
        row_at = 0
        for col in range(self.ncols):
            pr = next((r for r in range(row_at, len(work)) if not work[r][col].is_zero()), None)
            if pr is None:
                continue
            work[row_at], work[pr] = work[pr], work[row_at]
            inv = work[row_at][col].inverse()
            work[row_at] = [x * inv for x in work[row_at]]
            lead = work[row_at]
            for r in range(len(work)):
                if r != row_at and not work[r][col].is_zero():
                    f = work[r][col]
                    work[r] = [x - f * y for x, y in zip(work[r], lead)]
            pivots.append(col)
            row_at += 1
            if row_at == len(work):
                break
        return Matrix(work), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[list[Cyclo]]:
        """Basis of the right nullspace, in reduced echelon shape."""
        reduced, pivots = self.rref()
        free = [j for j in range(self.ncols) if j not in pivots]
        basis = []
        for f in free:
            vec = [_ZERO] * self.ncols
            vec[f] = _ONE
            for i, p in enumerate(pivots):
                vec[p] = -reduced.rows[i][f]
            basis.append(vec)
        return basis

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise SingularMatrixError("not square")
        n = self.nrows
        aug = Matrix([list(self.rows[i]) + Matrix.identity(n).rows[i] for i in range(n)])
        reduced, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return Matrix([r[n:] for r in reduced.rows])

    def det(self) -> Cyclo:
        if self.nrows != self.ncols:
            raise SingularMatrixError("not square")
        work = [list(r) for r in self.rows]
        n = self.nrows
        acc = _ONE
        for col in range(n):
            pr = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
            if pr is None:
                return _ZERO
            if pr != col:
                work[col], work[pr] = work[pr], work[col]
                acc = -acc
            pivot = work[col][col]
            acc = acc * pivot
            inv = pivot.inverse()
            for r in range(col + 1, n):
                if not work[r][col].is_zero():
                    f = work[r][col] * inv
                    work[r] = [x - f * y for x, y in zip(work[r], work[col])]
        return acc

    def charpoly_coeffs(self) -> list[Cyclo]:
        """[a_0, ..., a_{n-1}] with det(tI - M) = t^n + a_{n-1} t^{n-1} + ... + a_0.

        Faddeev-LeVerrier; exact over characteristic zero.
        """
        n = self.nrows
        coeffs = [_ZERO] * n
        b = Matrix.identity(n)
        a = _ONE
        for k in range(1, n + 1):
            b = self * b
            a = -(b.trace()) / k
            coeffs[n - k] = a
            if k < n:
                b = b + Matrix.diagonal([a] * n)
        return coeffs

    def minpoly_coeffs(self) -> list[Cyclo]:
        """Ascending coefficients of the monic minimal polynomial.

        The columns of the n^2 x (n+1) matrix are the entries of I, M, ...,
        M^n; its first free column k is the least power dependent on the
        lower ones, so the first kernel vector, cut after its entry k (a 1),
        is the minimal polynomial.
        """
        powers = [Matrix.identity(self.nrows)]
        for _ in range(self.nrows):
            powers.append(powers[-1] * self)
        stacked = Matrix([[x for row in p.rows for x in row] for p in powers]).transpose()
        coeffs = stacked.kernel_basis()[0]
        while coeffs[-1].is_zero():
            coeffs.pop()
        return coeffs

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in r) for r in self.rows)

    def __repr__(self):
        return f"Matrix([{'; '.join(', '.join(str(x) for x in r) for r in self.rows)}])"


def _dot(a: Sequence[Cyclo], b: Sequence[Cyclo]) -> Cyclo:
    acc = _ZERO
    for x, y in zip(a, b):
        if not (x.is_zero() or y.is_zero()):
            acc = acc + x * y
    return acc


def solve_linear(a: Matrix, b: Sequence) -> Optional[list[Cyclo]]:
    """One solution of A x = b, or None if inconsistent."""
    bv = [_c(x) for x in b]
    aug = Matrix([list(a.rows[i]) + [bv[i]] for i in range(a.nrows)])
    reduced, pivots = aug.rref()
    if a.ncols in pivots:
        return None
    x = [_ZERO] * a.ncols
    for i, p in enumerate(pivots):
        x[p] = reduced.rows[i][a.ncols]
    return x


# -- sparse exact elimination ---------------------------------------------------


class Echelon:
    """Incremental echelon form of sparse integer rows; the rank is exact over Q.

    A row maps a column index to a nonzero int.  Each pivot row is primitive
    (its content divided out) with a positive entry at its least column, and
    it is stored under that column.  Eliminating a pivot from a row is the
    fraction-free step a*row - b*pivot with a, b coprime (Bareiss), after
    which the row's content is divided out, so entries stay small integers.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Mapping[int, int]) -> dict[int, int]:
        """row reduced until its least column holds no pivot; {} iff row is in the span.

        A nonempty result is a nonzero rational multiple of row minus a
        combination of pivot rows.
        """
        row = dict(row)
        pivots = self.pivots
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                break
            a, b = piv[lead], row[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in piv.items():
                x = row.get(k, 0) - b * v
                if x:
                    row[k] = x
                else:
                    del row[k]
            c = gcd(*row.values())
            if c > 1:
                row = {k: v // c for k, v in row.items()}
        return row

    def insert(self, row: Mapping[int, int]) -> bool:
        """Add row to the span; True iff it raised the rank."""
        row = self.reduce(row)
        if not row:
            return False
        lead = min(row)
        c = gcd(*row.values())
        if row[lead] < 0:
            c = -c
        if c != 1:
            row = {k: v // c for k, v in row.items()}
        self.pivots[lead] = row
        return True


def realify(row: Mapping[int, Cyclo], n: int) -> list[dict[int, int]]:
    """Integer rows whose Q-span is the Q(zeta_n)-span of a sparse row.

    Entry c at column k becomes columns k*phi(n) + t, t < phi(n), holding the
    power-basis coordinates of zeta_n^j * c in Q[x]/Phi_n; row j < phi(n) is
    that image cleared of denominators.  Hence rank over Q(zeta_n) of a set
    of rows is the Q-rank of their realified rows divided by phi(n).  Every
    entry must lie in Q(zeta_n).
    """
    phi = euler_phi(n)
    poly = cyclotomic_polynomial(n)
    lifted = {k: c.lift_to(n) for k, c in row.items()}
    den = 1
    for c in lifted.values():
        den = lcm(den, c.den)
    vecs = {k: [x * (den // c.den) for x in c.num] for k, c in lifted.items()}
    out = []
    for j in range(phi):
        if j:
            # multiply by zeta_n: shift up, then x^phi = -(Phi_n - x^phi)
            for k, vec in vecs.items():
                top = vec[-1]
                vec = [0] + vec[:-1]
                if top:
                    vec = [x - top * p for x, p in zip(vec, poly)]
                vecs[k] = vec
        out.append({k * phi + t: x for k, vec in vecs.items() for t, x in enumerate(vec) if x})
    return out
