"""Dense linear-operator kernels.

All matrix computations in the package funnel through the SVD helpers here,
so surjectivity decisions and regularity constants come from a single source.
Vectors are 1-D float64 arrays, operators are 2-D float64 arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericBreakdownError, RegularityError, ShapeError

# Relative singular-value cutoff below which an operator is treated as
# non-surjective. SvdFactorization reads it; convex.Halfspaces's vertex and
# recession tests take it as their slack.
SURJECTIVITY_RTOL = 1e-10

# Residual slack for least-norm solves: ||op x - rhs|| <= RESIDUAL_RTOL*(1+||rhs||).
RESIDUAL_RTOL = 1e-9

# np.vdot reports no floating-point overflow, unlike ndarray.dot. Its
# implementation without the __array_function__ dispatch (NEP 18) costs what
# ndarray.dot does on a short vector; the dispatch would add about 40 %.
_vdot = getattr(np.vdot, "_implementation", np.vdot)


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and convert to a finite 1-D float64 array."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ShapeError(f"expected a vector, got array of shape {v.shape}")
    if v.size == 0:
        raise ShapeError("expected a nonempty vector")
    # a finite sum of squares implies finite entries and is cheaper to test;
    # only a vector whose squares overflow (or that is not finite) is scanned,
    # and without a RuntimeWarning, since the sum is taken by _vdot
    if not (math.isfinite(_vdot(v, v)) or np.isfinite(v).all()):
        raise ShapeError("vector has non-finite entries")
    if dim is not None and v.size != dim:
        raise ShapeError(f"expected a vector of length {dim}, got {v.size}")
    return v


def as_matrix(a) -> np.ndarray:
    """Validate and convert to a finite 2-D float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got array of shape {m.shape}")
    if m.size == 0:
        raise ShapeError("expected a nonempty matrix")
    if not np.isfinite(m).all():
        raise ShapeError("matrix has non-finite entries")
    return m


@dataclass(frozen=True)
class SvdFactorization:
    """Full SVD ``a = u @ diag(s) @ vt`` with singular values descending.

    The one place where singular values meet SURJECTIVITY_RTOL: the
    numerical rank, the surjectivity verdict, the row-relevant sigma_min,
    the least-norm right inverse and least-norm solutions are all read from
    here.
    """

    a: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray

    @cached_property
    def rank(self) -> int:
        """Number of singular values above SURJECTIVITY_RTOL * s[0]."""
        return int(np.count_nonzero(self.s > SURJECTIVITY_RTOL * self.s[0]))

    @property
    def surjective(self) -> bool:
        """True when the rank equals the row count."""
        return self.rank == self.u.shape[0]

    @property
    def sigma_min(self) -> float:
        """s[rows-1], the singular value that decides surjectivity; 0 for an
        operator with more rows than columns."""
        rows = self.u.shape[0]
        return float(self.s[rows - 1]) if rows <= self.s.size else 0.0

    def right_inverse(self) -> np.ndarray:
        """V_r diag(1/s_r) U_r^T on the numerical row space (r = rank).

        For a surjective operator this is the least-norm right inverse
        a^T (a a^T)^{-1}; otherwise it still maps each right-hand side in
        the range to the least-norm solution.
        """
        r = self.rank
        return self.vt[:r].T @ (self.u[:, :r].T / self.s[:r, None])

    def least_norm(self, rhs) -> np.ndarray:
        """Minimum-norm solution of ``a @ x = rhs``.

        Raises RegularityError when ``a`` is not numerically surjective,
        NumericBreakdownError when the residual check fails.
        """
        rows, cols = self.a.shape
        b = as_vector(rhs, dim=rows).reshape(rows, 1)
        if rows > cols:
            raise RegularityError("operator has more rows than columns; not surjective")
        if not self.surjective:
            raise RegularityError(
                f"operator numerically non-surjective: sigma_min={self.s[rows - 1]:.3e} "
                f"vs sigma_max={self.s[0]:.3e}")
        # x = V_r diag(1/s) U^T b lies in the row space, hence has minimal
        # norm; b stays a column so x keeps the bits of the matrix products
        x = self.vt[:rows].T @ ((self.u.T @ b) / self.s[:rows, None])
        resid = float(np.linalg.norm(self.a @ x - b))
        if resid > RESIDUAL_RTOL * (1.0 + np.linalg.norm(b)):
            raise NumericBreakdownError(
                f"least-norm residual {resid:.3e} exceeds tolerance")
        return x[:, 0]


def svd(a) -> SvdFactorization:
    """Full SVD of a matrix; raises NumericBreakdownError if LAPACK fails."""
    m = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericBreakdownError(f"SVD failed: {exc}") from exc
    return SvdFactorization(a=m, u=u, s=s, vt=vt)


def norm(v: np.ndarray) -> float:
    """Euclidean norm of a contiguous 1-D float64 vector, as a float.

    np.linalg.norm computes sqrt(v.dot(v)) for such a vector, so this gives
    the same bits (inf when the squares overflow, +0.0 for any zero vector)
    without its argument handling. Pass a strided view as ``v.ravel()``:
    BLAS sums a strided dot product in another order, while np.linalg.norm
    ravels its argument first.
    """
    return math.sqrt(v.dot(v))


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, with the bits np.linalg.norm gives that
    row alone: matmul's 1x1 core goes through the same dot kernel, while
    (rows**2).sum(axis=1) differs from it in the last bit on many rows.
    OpenBLAS's Prescott kernel sums a vector off a 16-byte boundary in
    another order, and every other row of odd length starts off it, so a
    block of such rows is copied to an even stride first (not a lone row).
    Rows of width 1 take sqrt(x*x): a one-term dot is that product, rounded
    once, on every kernel."""
    if rows.shape[1] == 1:
        return np.sqrt(rows[:, 0] * rows[:, 0])
    if rows.shape[1] % 2 and rows.shape[0] > 1:
        padded = np.empty((rows.shape[0], rows.shape[1] + 1))
        padded[:, :-1] = rows
        rows = padded[:, :-1]
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def stack_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for one vector x, or for stacked vectors as the columns of x.

    The products with a's columns are added one by one, in column order, so
    a stacked column has the bits of the same vector alone; ``@`` does not
    promise that, because BLAS sums one vector and many in different orders.
    """
    cols = a.reshape(a.shape + (1,) * (x.ndim - 1))
    out = cols[:, 0] * x[0]
    for j in range(1, a.shape[1]):
        out += cols[:, j] * x[j]
    return out


def operator_norm(a) -> float:
    """Largest singular value."""
    return float(svd(a).s[0])


def least_norm_solve(a, rhs) -> np.ndarray:
    """Minimum-norm solution of ``a @ x = rhs`` for surjective ``a`` and a
    vector ``rhs``; see SvdFactorization.least_norm."""
    return svd(a).least_norm(rhs)
