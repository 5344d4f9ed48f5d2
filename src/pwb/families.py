"""Constructors for the built-in quadratic Poisson algebra families."""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from .brackets import PoissonAlgebra
from .errors import LieJacobiFailsError, NotSkewError, PwbError, ZeroPotentialError
from .linalg import Matrix
from .rings import Poly, PolyRing
from .scalars import Cyclo
from .solver import DEFAULT_BUDGET, SolutionSet, solve_projective

_ZERO = Cyclo.of(0)
_ONE = Cyclo.of(1)


def skew_symmetric(q: Matrix, names: Optional[Sequence[str]] = None) -> PoissonAlgebra:
    """{x_i, x_j} = q_ij x_i x_j for a skew-symmetric scalar matrix q."""
    n = q.nrows
    if q.ncols != n:
        raise NotSkewError("matrix is not square")
    for i in range(n):
        for j in range(n):
            if not (q.rows[i][j] + q.rows[j][i]).is_zero():
                raise NotSkewError(f"q[{i}][{j}] != -q[{j}][{i}]")
    if names is None:
        names = [f"x{i+1}" for i in range(n)]
    ring = PolyRing(tuple(names))
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            if not q.rows[i][j].is_zero():
                e = [0] * n
                e[i] += 1
                e[j] += 1
                table[(i, j)] = Poly(ring, {tuple(e): q.rows[i][j]})
    # Jacobi is automatic for diagonal brackets
    return PoissonAlgebra(ring, table, check_jacobi=False)


def jacobian(f: Poly) -> PoissonAlgebra:
    """{x,y} = df/dz, {y,z} = df/dx, {z,x} = df/dy on a three-variable ring."""
    if f.is_zero():
        raise ZeroPotentialError("zero potential")
    ring = f.ring
    if ring.nvars != 3:
        raise PwbError("Jacobian brackets need exactly three variables")
    table = {
        (0, 1): f.partial(2),
        (1, 2): f.partial(0),
        (2, 0): f.partial(1),
    }
    # exact brackets satisfy Jacobi for every potential
    return PoissonAlgebra(ring, table, check_jacobi=False)


def cubic_potential(p, q, names: Sequence[str] = ("x", "y", "z")) -> Poly:
    """(p/3)(x^3 + y^3 + z^3) + q xyz."""
    ring = PolyRing(tuple(names))
    p, q = Cyclo.of(p), Cyclo.of(q)
    f = ring.zero()
    third = p / 3
    if not third.is_zero():
        f = f + ring.monomial((3, 0, 0), third) + ring.monomial((0, 3, 0), third) \
            + ring.monomial((0, 0, 3), third)
    if not q.is_zero():
        f = f + ring.monomial((1, 1, 1), q)
    return f


def jacobian_pq(p, q, names: Sequence[str] = ("x", "y", "z")) -> PoissonAlgebra:
    """Jacobian algebra of the cubic potential with parameters (p, q)."""
    return jacobian(cubic_potential(p, q, names))


def quantum_matrices(n: int) -> PoissonAlgebra:
    """Semiclassical coordinate ring of n x n matrices.

    Variables x_i_j in row-major order; for i < j and l < m:
      same row      {x_il, x_im} = x_il x_im
      same column   {x_il, x_jl} = x_il x_jl
      antidiagonal  {x_im, x_jl} = 0
      diagonal      {x_il, x_jm} = 2 x_im x_jl
    For n = 2 the aliases a, b, c, d are used.
    """
    if n < 2:
        raise PwbError("need n >= 2")
    if n == 2:
        names = ("a", "b", "c", "d")
    else:
        names = tuple(f"x{i+1}_{j+1}" for i in range(n) for j in range(n))
    ring = PolyRing(names)
    idx = lambda i, j: i * n + j  # noqa: E731

    def mono(i1, j1, i2, j2, coeff=1):
        e = [0] * (n * n)
        e[idx(i1, j1)] += 1
        e[idx(i2, j2)] += 1
        return Poly(ring, {tuple(e): Cyclo.of(coeff)})

    table = {}
    for r in range(n * n):
        for s in range(r + 1, n * n):
            i, l = divmod(r, n)
            j, m = divmod(s, n)
            if i == j and l < m:
                table[(r, s)] = mono(i, l, i, m)
            elif l == m and i < j:
                table[(r, s)] = mono(i, l, j, l)
            elif i < j and l < m:
                table[(r, s)] = mono(i, m, j, l, 2)
            elif i < j and m < l:
                pass  # antidiagonal pairs commute
    return PoissonAlgebra(ring, table, check_jacobi=True)


def weyl(n: int) -> PoissonAlgebra:
    """{x_i, y_j} = delta_ij on 2n variables (not quadratic)."""
    if n < 1:
        raise PwbError("need n >= 1")
    names = tuple(f"x{i+1}" for i in range(n)) + tuple(f"y{i+1}" for i in range(n))
    ring = PolyRing(names)
    table = {(i, n + i): ring.one() for i in range(n)}
    return PoissonAlgebra(ring, table, check_jacobi=False)


def homogenized_weyl(n: int) -> PoissonAlgebra:
    """{x_i, y_j} = delta_ij z^2, z central, on 2n+1 variables (quadratic)."""
    if n < 1:
        raise PwbError("need n >= 1")
    names = tuple(f"x{i+1}" for i in range(n)) + tuple(f"y{i+1}" for i in range(n)) + ("z",)
    ring = PolyRing(names)
    zz = {(0,) * (2 * n) + (2,): _ONE}
    table = {(i, n + i): Poly(ring, dict(zz)) for i in range(n)}
    return PoissonAlgebra(ring, table, check_jacobi=False)


@dataclass(frozen=True)
class LieData:
    """Structure constants [x_i, x_j] = sum_k c[i][j][k] x_k (i < j stored).
    `LieData.of` sets `jacobi_checked` once the Jacobi identity holds."""

    dimension: int
    brackets: dict  # (i, j) with i < j -> tuple of Cyclo, length = dimension
    jacobi_checked: bool = field(default=False, compare=False, repr=False)

    @staticmethod
    def of(dimension: int, brackets: dict) -> "LieData":
        clean = {}
        for (i, j), vec in brackets.items():
            vec = tuple(Cyclo.of(c) for c in vec)
            if len(vec) != dimension:
                raise PwbError("structure-constant vector has wrong length")
            if i == j:
                raise PwbError("diagonal structure constants must vanish")
            if i > j:
                i, j, vec = j, i, tuple(-c for c in vec)
            if any(not c.is_zero() for c in vec):
                clean[(i, j)] = vec
        data = LieData(dimension, clean)
        ok, triple = data.jacobi_holds()
        if not ok:
            raise LieJacobiFailsError(triple)
        return replace(data, jacobi_checked=True)

    def ad(self, i: int, j: int) -> tuple:
        if i == j:
            return (ZERO_VEC(self.dimension))
        if i < j:
            return self.brackets.get((i, j), ZERO_VEC(self.dimension))
        vec = self.brackets.get((j, i), ZERO_VEC(self.dimension))
        return tuple(-c for c in vec)

    def jacobi_holds(self) -> tuple[bool, Optional[tuple[int, int, int]]]:
        """Jacobi on every triple i < j < k, or the first failing triple, by
        the Jacobi check of the homogenized bracket: z is central, so no
        triple holding z fails, and the Jacobiator of x_i, x_j, x_k is z^2
        times the Lie one."""
        ring = PolyRing(tuple(f"x{k}" for k in range(self.dimension + 1)))
        ok, names = PoissonAlgebra(ring, _lie_table(self, ring), check_jacobi=False).jacobi_check()
        return ok, names and tuple(map(ring.index, names))


def ZERO_VEC(n: int) -> tuple:
    return tuple([_ZERO] * n)


def _lie_table(lie: LieData, ring: PolyRing) -> dict:
    """{x_i, x_j} = [x_i, x_j] z on `ring`, z its last variable."""
    n = lie.dimension
    unit = [tuple(int(t == k) for t in range(n)) for k in range(n)]
    return {pair: Poly(ring, {unit[k] + (1,): c for k, c in enumerate(vec) if c})
            for pair, vec in lie.brackets.items()}


def ph_lie(lie: LieData, names: Optional[Sequence[str]] = None) -> PoissonAlgebra:
    """Homogenized Kostant-Kirillov bracket: {x_i, x_j} = [x_i, x_j] z, z central,
    its Jacobi identity checked unless `LieData.of` checked the Lie one."""
    n = lie.dimension
    if names is None:
        names = tuple(f"x{i+1}" for i in range(n)) + ("z",)
    ring = PolyRing(tuple(names))
    return PoissonAlgebra(ring, _lie_table(lie, ring), check_jacobi=not lie.jacobi_checked)


def sl2() -> LieData:
    """Basis (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    z3 = lambda *vals: tuple(Cyclo.of(v) for v in vals)  # noqa: E731
    return LieData.of(3, {
        (0, 1): z3(0, 0, 1),    # [e, f] = h
        (0, 2): z3(-2, 0, 0),   # [e, h] = -2e
        (1, 2): z3(0, 2, 0),    # [f, h] = 2f
    })


def lie_two_dim_nonabelian() -> LieData:
    """[x1, x2] = x2."""
    return LieData.of(2, {(0, 1): (Cyclo.of(0), Cyclo.of(1))})


def lie_one_dim_ideals(lie: LieData, budget: int = DEFAULT_BUDGET) -> SolutionSet:
    """Directions b with [x_i, b] always proportional to b (common eigenvectors)."""
    n = lie.dimension
    ring = PolyRing(tuple(f"b{k+1}" for k in range(n)))
    bs = ring.gens()
    equations = []
    for i in range(n):
        # ad_i(b) as a vector of linear forms in the b's
        img = [ring.zero() for _ in range(n)]
        for j in range(n):
            vec = lie.ad(i, j)
            for k in range(n):
                if not vec[k].is_zero():
                    img[k] = img[k] + bs[j] * vec[k]
        # 2x2 minors of (ad_i(b) | b) must vanish
        for r in range(n):
            for s in range(r + 1, n):
                eq = img[r] * bs[s] - img[s] * bs[r]
                if not eq.is_zero():
                    equations.append(eq)
    return solve_projective(equations, ring, budget)
