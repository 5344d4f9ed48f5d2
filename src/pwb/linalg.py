"""Exact linear algebra over Q(zeta_N): dense matrices on one elimination kernel.

`Echelon` (sparse integer rows, fraction-free Bareiss steps) is the only
elimination; `Matrix.det` reads the characteristic polynomial instead, and
invertibility is a rank.  Rows over Q(zeta_N), N the lcm conductor of their
entries, reach it through `realify`: phi(N) integer rows each, so a rank
over Q(zeta_N) is a rank over Q divided by phi(N).  `rref`, `rank` and `kernel`
take sparse rows; the `Matrix` methods and `solve_linear` read them.  Results
are stored at N, rationals and zeros included; each prints at its least
conductor all the same.  Integer lattices have their own small kernel,
`hermite_normal_form`.
"""
from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping, Optional, Sequence

from .errors import SingularMatrixError
from .scalars import Cyclo, _new, conductor, cyclotomic_polynomial, euler_phi, lcm, zeta

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

    def _sparse_rows(self) -> list[dict[int, Cyclo]]:
        return [dict(enumerate(r)) for r in self.rows]

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and pivot columns, stored as by `rref`."""
        rows, pivots, zero = rref(self._sparse_rows(), self.ncols)
        return Matrix(rows + [[zero] * self.ncols] * (self.nrows - len(rows))), pivots

    def rank(self) -> int:
        return rank(self._sparse_rows())

    def kernel_basis(self) -> list[list[Cyclo]]:
        """Basis of the right nullspace, in reduced echelon shape."""
        return kernel(self._sparse_rows(), self.ncols)

    def inverse(self) -> "Matrix":
        n = self.nrows
        if n != self.ncols:
            raise SingularMatrixError("not square")
        aug = [{**row, n + i: _ONE} for i, row in enumerate(self._sparse_rows())]
        rows, pivots, _ = rref(aug, 2 * n)
        if pivots[:n] != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return Matrix([r[n:] for r in rows])

    def det(self) -> Cyclo:
        """(-1)^n times the constant term of the characteristic polynomial."""
        if self.nrows != self.ncols:
            raise SingularMatrixError("not square")
        if not self.nrows:
            return _ONE
        a0 = self.charpoly_coeffs()[0]
        return -a0 if self.nrows % 2 else a0

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
    m = a.ncols
    aug = [{**row, m: _c(b[i])} for i, row in enumerate(a._sparse_rows())]
    rows, pivots, zero = rref(aug, m + 1)
    if m in pivots:
        return None
    x = [zero] * m
    for row, p in zip(rows, pivots):
        x[p] = row[m]
    return x


# -- the elimination kernel -------------------------------------------------------


class Echelon:
    """Incremental echelon form of sparse integer rows; the rank is exact over Q.

    A row maps a column index to a nonzero int.  Each pivot row is primitive
    (its content divided out) with a positive entry at its least column, and
    it is stored under that column.  Eliminating a pivot from a row is the
    fraction-free step a*row - b*pivot with a, b coprime (Bareiss), after
    which the row's content is divided out, so entries stay small integers.
    `clear` back-substitutes one pivot row; clearing every pivot row gives the
    reduced echelon form.
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
        return self._eliminate(dict(row), None)

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

    def clear(self, lead: int) -> dict[int, int]:
        """Back-substitution: the pivot row at lead, stored back with every other
        pivot column cleared."""
        row = self.pivots[lead] = self._eliminate(self.pivots[lead], lead)
        return row

    def _eliminate(self, row: dict[int, int], keep: Optional[int]) -> dict[int, int]:
        """Bareiss steps on row, at its least column while that holds a pivot, or
        with keep given, at every pivot column other than keep."""
        pivots = self.pivots
        while row:
            if keep is None:
                col = min(row)
                if col not in pivots:
                    break
            else:
                col = min((k for k in row if k != keep and k in pivots), default=None)
                if col is None:
                    break
            piv = pivots[col]
            a, b = piv[col], row[col]
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


def realify(row: Mapping[int, Cyclo], n: int) -> list[dict[int, int]]:
    """Integer rows whose Q-span is the Q(zeta_n)-span of a sparse row.

    Entry c at column k becomes columns k*phi(n) + t, t < phi(n), holding the
    power-basis coordinates of zeta_n^j * c in Q[x]/Phi_n; row j < phi(n) is
    that image cleared of denominators.  Hence rank over Q(zeta_n) of a set
    of rows is the Q-rank of their realified rows divided by phi(n).  Every
    entry must lie in Q(zeta_n).
    """
    phi = euler_phi(n)
    lifted = [(k, c.lift_to(n)) for k, c in row.items() if any(c.num)]
    den = 1
    for _, c in lifted:
        if den % c.den:
            den = lcm(den, c.den)
    if phi == 1:
        return [{k: c.num[0] * (den // c.den) for k, c in lifted}]
    poly = cyclotomic_polynomial(n)
    vecs = {k: [x * (den // c.den) for x in c.num] for k, c in lifted}
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


def unrealify(row: Mapping[int, int], n: int) -> dict[int, Cyclo]:
    """Block k (of phi(n) columns) of an integer row as the entry at column k,
    over the row's value at its least column; 1 there for a pivot row cleared
    of the other columns of its block."""
    phi, a = euler_phi(n), row[min(row)]
    if phi == 1:
        return {k: _new(n, (x,), a) for k, x in sorted(row.items())}
    blocks: dict[int, list[int]] = {}
    for col, x in sorted(row.items()):
        blocks.setdefault(col // phi, [0] * phi)[col % phi] = x
    return {k: _new(n, tuple(vec), a) for k, vec in blocks.items()}


def _realified(rows: Sequence[Mapping[int, Cyclo]]) -> tuple[Echelon, int]:
    """The echelon of the rows realified at N, the lcm of every entry's conductor."""
    n = conductor(c for r in rows for c in r.values())
    span = Echelon()
    for r in rows:
        for real in realify(r, n):
            span.insert(real)
    return span, n


def rank(rows: Sequence[Mapping[int, Cyclo]]) -> int:
    """Rank over Q(zeta_N) of sparse rows (column -> Cyclo)."""
    span, n = _realified(rows)
    return span.rank // euler_phi(n)


def rref(rows: Sequence[Mapping[int, Cyclo]], ncols: int
         ) -> tuple[list[list[Cyclo]], list[int], Cyclo]:
    """The nonzero rows of the reduced row echelon form over Q(zeta_N) of sparse
    rows (column -> Cyclo) with ncols columns, their pivot columns, and zero.

    N is the lcm of the conductors of every input entry, zeros included, and
    every entry returned (zero too) is stored at N.  The realified rows are
    fully reduced over Q; a pivot row whose lead opens a block of phi(N)
    columns is a reduced row over Q(zeta_N).
    """
    span, n = _realified(rows)
    for lead in sorted(span.pivots, reverse=True):  # each row cleared by cleared rows
        span.clear(lead)
    phi, zero = euler_phi(n), zeta(n, 0) * 0
    leads = [lead for lead in sorted(span.pivots) if lead % phi == 0]
    reduced = [unrealify(span.pivots[lead], n) for lead in leads]
    dense = [[r.get(j, zero) for j in range(ncols)] for r in reduced]
    return dense, [lead // phi for lead in leads], zero


def kernel(rows: Sequence[Mapping[int, Cyclo]], ncols: int) -> list[list[Cyclo]]:
    """Basis of the right nullspace of sparse rows with ncols columns, one vector
    per free column in reduced echelon shape; entries stored as by `rref`."""
    reduced, pivots, zero = rref(rows, ncols)
    one = zeta(zero.n, 0)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        vec = [zero] * ncols
        vec[f] = one
        for row, p in zip(reduced, pivots):
            if row[f]:
                vec[p] = -row[f]
        basis.append(vec)
    return basis


# -- integer lattices --------------------------------------------------------------


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The nonzero rows of the row Hermite normal form of an integer matrix: the
    one basis of its row lattice in echelon form with positive pivots and every
    entry above a pivot reduced into [0, pivot) (Cohen, GTM 138, section 2.4).
    Each pivot is the gcd of its column over the remaining rows, reached by
    Euclid's algorithm on whole rows, so every step is unimodular."""
    work = [list(r) for r in rows if any(r)]
    ncols = len(work[0]) if work else 0
    out: list[list[int]] = []
    for col in range(ncols):
        active = [r for r in work if r[col]]
        while len(active) > 1:
            pivot = min(active, key=lambda r: abs(r[col]))
            for r in active:
                if r is not pivot:
                    q = r[col] // pivot[col]
                    r[col:] = [a - q * b for a, b in zip(r[col:], pivot[col:])]
            active = [r for r in active if r[col]]
        if not active:
            continue
        pivot = active[0]
        if pivot[col] < 0:
            pivot[:] = [-a for a in pivot]
        for r in out:
            q = r[col] // pivot[col]
            if q:
                r[col:] = [a - q * b for a, b in zip(r[col:], pivot[col:])]
        out.append(pivot)
        work = [r for r in work if r is not pivot and any(r)]
    return out
