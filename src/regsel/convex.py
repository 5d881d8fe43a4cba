"""Closed convex sets with metric projections.

The catalogue is deliberately small: affine solution sets, boxes, balls,
halfspace systems, and finite intersections of those. Every set answers
project / distance / gap, and ``project_gap``, which returns a projection
and its gap together. The selection iteration calls ``_project_within``
on its own vectors, taken as given (the policy in ``linalg``): the same
projection, with a gap that a proved affine set may bound instead of
measuring (below). An intersection takes the gap of its projection from
``_dykstra``'s exit, so each member is measured at most once per point. Boxes
and halfspace systems, the two kinds of control set, also answer
``support`` for the steering application's interior test, taking
directions as rows (a halfspace system from its vertices, so on a bounded
system only), and ``violation``, their membership rule. Projections onto
intersections run Dykstra's alternating scheme, which converges to the
metric projection for closed convex members, after an exact exit: an
affine fibre met with an inactive constraint costs one projection. An
affine set checks that its right-hand side is consistent once per operator
when its factorization proves every right-hand side consistent (a
floating-point bound on the computed residual), and on every construction
and shift otherwise. Such a proved set also bounds the gap of each
projection it makes, so the selection's corrector measures a gap only
where the bound does not settle its check (``_project_within``). It
multiplies by a large sparse operator's nonzeros. A shift copies a set's
attributes and sets the new right-hand side (an intersection's, its
affine first member's), with no construction; ``dykstra`` copies its start.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import ContractError, InfeasibilitySuspectedError, ShapeError
from .linalg import (RESIDUAL_RTOL, SURJECTIVITY_RTOL, _vdot, as_matrix, as_vector, norm,
                     row_norms, stack_matvec, svd)

DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_ROUNDS = 10000

# AffineSet caches the factors of operators of at most CACHED_OP_ENTRIES
# entries, 512 operators at most (``_cached_factors``): a key and a right
# inverse of op.size float64 entries each, so 2**16 entries (512 KiB) in all.
CACHED_OP_ENTRIES = 64

# _rhs_always_consistent reads an operator, its right inverse and op P - I,
# with the terms that form op P, in row blocks, and _projector_norm reads
# P op with the terms that form it in column blocks, of at most 2**14
# float64 entries (128 KiB), or of one row or column where its terms alone
# have more, and neither keeps any.
CERT_BLOCK_ENTRIES = 2 ** 14

# AffineSet multiplies an operator of more than SPARSE_OP_ENTRIES entries, at
# most one in SPARSE_FILL of them nonzero, by its nonzeros (_sparse_product),
# and any other operator with ndarray.dot. Measured with numpy 2.4.6 on a
# 2-core host: below 2**15 entries the dense product is the faster even at
# 1/43 density, and at 99,072 entries the two meet near 1/32 density.
SPARSE_OP_ENTRIES = 2 ** 15
SPARSE_FILL = 32

# The vertex and recession-ray enumerations of a halfspace system take one
# SVD per row subset, stacked: subsets x dim x dim float64 entries, a few
# arrays of them. 2**18 entries is 2 MiB per array and about 0.2 s of SVDs
# on one core; a system with more subsets is refused, not enumerated.
MAX_SUBSET_ENTRIES = 2 ** 18


class ConvexSet:
    """Base interface; concrete sets override ``project`` and may override
    the other queries with a closed form, a distance through ``_distance``.
    ``support`` lives on ``Box`` and ``Halfspaces`` only."""

    dim: int

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def distance(self, x) -> float:
        return self._distance(as_vector(x, dim=self.dim))

    def _distance(self, v: np.ndarray) -> float:
        """``distance`` of a vector taken as given (the policy in ``linalg``)."""
        return norm(v - self.project(v))

    def gap(self, x) -> float:
        """Feasibility gap of x, zero on the set."""
        return self._gap(as_vector(x, dim=self.dim))

    def _gap(self, v: np.ndarray) -> float:
        """``gap`` of v, taken as given: the distance unless a set has a
        cheaper bound (``Intersection``)."""
        return self._distance(v)

    def project_gap(self, x) -> tuple[np.ndarray, float]:
        """The projection z of x and ``gap(z)``, in one call."""
        z = self.project(x)
        return z, self.gap(z)

    def _project_within(self, v: np.ndarray, slack: float) -> tuple[np.ndarray, float]:
        """The projection z of v, taken as ``_distance`` takes it, and a gap
        that exceeds ``slack`` exactly when ``gap(z)`` does: ``gap(z)`` as
        measured, or a proved bound on it that is at most ``slack`` (a proved
        ``AffineSet``, and an ``Intersection`` whose ``_dykstra`` leaves
        through its exact exit from one). A non-finite projection raises
        ShapeError, as ``gap`` does."""
        return self.project_gap(v)


def _factor(op: np.ndarray):
    """What an AffineSet keeps of its operator's SVD: the read-only right
    inverse, sigma_max, sigma_min, the surjectivity verdict, whether
    ``_rhs_always_consistent`` proves every right-hand side consistent, the
    ``_nonzeros`` listing of an operator that SPARSE_OP_ENTRIES and
    SPARSE_FILL call sparse (None for any other), and the ``_gap_proof``
    coefficients of a proved operator (None for any other)."""
    fac = svd(op)
    right_inverse = fac.right_inverse()
    right_inverse.flags.writeable = False
    nonzeros = _nonzeros(fac.a)
    rounding = fac.surjective and _rhs_always_consistent(fac.a, right_inverse, nonzeros)
    gap_proof = _gap_proof(fac.a, right_inverse, nonzeros, rounding) if rounding else None
    sparse = fac.a.size > SPARSE_OP_ENTRIES and SPARSE_FILL * nonzeros[0].size <= fac.a.size
    return (right_inverse, float(fac.s[0]), fac.sigma_min, fac.surjective, bool(rounding),
            nonzeros if sparse else None, gap_proof)


def _nonzeros(op: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """op's nonzeros row by row: their values, their columns and where each
    row starts among them. An all-zero row lists one explicit zero, so that
    every row has a start of its own and ``_sparse_product`` gives it 0."""
    listed = op != 0
    listed[~listed.any(axis=1), 0] = True
    rows, cols = np.nonzero(listed)
    return op[rows, cols], cols, np.searchsorted(rows, np.arange(op.shape[0]))


def _sparse_product(values: np.ndarray, cols: np.ndarray, starts: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """op @ x from ``_nonzeros(op)``: each row's products, added in column
    order."""
    return np.add.reduceat(values * x[cols], starts)


@lru_cache(maxsize=512)
def _cached_factors(shape: tuple[int, int], data: bytes):
    """``_factor`` of the operator with this shape and C-order bytes."""
    return _factor(np.frombuffer(data).reshape(shape))


# The unit roundoff of float64, and the smallest subnormal: a rounded
# product that underflows is off by at most ETA, not by U times itself.
U = 2.0 ** -53
ETA = 2.0 ** -1074


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2**-53: a computed sum of k
    nonzero rounded products, in any order, with or without FMA, is off by
    at most gamma_k times the sum of their magnitudes (zero products add
    exactly)."""
    return k * U / (1.0 - k * U)


class Rounding(NamedTuple):
    """What the consistency proof learns of an operator op and its right
    inverse P: a >= ||op||_2 and p >= ||P||_2 (bounds on the norms of |op|
    and |P|), e >= ||op P - I||_2, and the most nonzeros in a row of op
    and of P."""

    a: float
    p: float
    e: float
    k_op: int
    k_p: int


def _abs_norm(mat: np.ndarray) -> tuple[float, int]:
    """A bound on the spectral norm of |mat|, sqrt(||mat||_1 ||mat||_inf)
    with each computed sum inflated by its gamma, and the most nonzeros in
    a row; read in row blocks of at most CERT_BLOCK_ENTRIES entries."""
    rows, cols = mat.shape
    step = max(1, CERT_BLOCK_ENTRIES // cols)
    col_sums, row_sum, nonzeros = 0.0, 0.0, 0
    with np.errstate(over="ignore"):  # an infinite sum refuses the proof
        for i in range(0, rows, step):
            block = np.abs(mat[i:i + step])
            col_sums = col_sums + block.sum(axis=0)
            row_sum = max(row_sum, float(block.sum(axis=1).max()))
            nonzeros = max(nonzeros, int(np.count_nonzero(block, axis=1).max()))
    norm_1 = float(col_sums.max()) * (1 + 2 * _gamma(rows))
    return math.sqrt(norm_1 * row_sum * (1 + 2 * _gamma(cols))), nonzeros


def _rhs_always_consistent(op: np.ndarray, right_inverse: np.ndarray,
                           nonzeros: tuple[np.ndarray, np.ndarray, np.ndarray]):
    """``Rounding(a, p, e, k_op, k_p)`` when no vector that ``as_vector``
    admits can fail ``_set_rhs``'s residual check, so the check need not
    run, and None otherwise; ``nonzeros`` is ``_nonzeros(op)``.

    With P the right inverse, E = op P - I, a and p bounds on the spectral
    norms of |op| and |P| (``_abs_norm``) and k_op, k_p the most nonzeros in
    a row of each, the computed x0 = P rhs is off by at most
    gamma_{k_p} p ||rhs|| and the computed op x0 by gamma_{k_op} a ||x0||,
    so the computed residual is at most
    (||E|| + a p (gamma_{k_p} + gamma_{k_op} (1 + gamma_{k_p}))) ||rhs||,
    times a slack for the rounding of its norm, of the check's own bound
    and of this one, plus absolute terms of underflow. The gamma_{k_op}
    term holds whatever the order in which a row's nonzero products are
    added, so it covers ``ndarray.dot`` and ``_sparse_product`` alike.
    ||E|| is bounded through the computed E, formed row block by row block
    from the listed nonzeros, and its rounding, gamma_{k_op} a p. The cheap
    terms and the overflow guard come first: with p at most 2**500, and
    a p below 2**24 once the cheap terms pass, every product stays finite
    for ||rhs|| < 2**513, and a larger rhs has an infinite computed norm,
    which the check never exceeds.

    The constants returned are the ones ``_gap_proof`` reads: a, p, e, a
    bound on ||op P - I|| itself (the computed E's bound plus its rounding
    and underflow), k_op and k_p.
    """
    m, n = op.shape
    a, op_nonzeros = _abs_norm(op)
    p, p_nonzeros = _abs_norm(right_inverse)
    slack = 1 + 8 * _gamma(m + 64)
    cheap = (a * p * (_gamma(p_nonzeros) + _gamma(op_nonzeros) * (2 + _gamma(p_nonzeros)))
             + 2 * math.sqrt(m * ETA) + 2 * ETA * (a * n * p_nonzeros + 2 * m * op_nonzeros))
    if not (p <= 2.0 ** 500 and slack * cheap <= RESIDUAL_RTOL):
        return None
    values, cols, starts = nonzeros
    bounds = np.append(starts, values.size)
    # a row lists at most max(1, op_nonzeros) terms, each a row of P
    step = max(1, CERT_BLOCK_ENTRIES // (m * max(1, op_nonzeros)))
    col_sums, row_sum = 0.0, 0.0
    for start in range(0, m, step):
        stop = min(start + step, m)
        lo, hi = bounds[start], bounds[stop]
        e = np.add.reduceat(values[lo:hi, None] * right_inverse[cols[lo:hi]],
                            bounds[start:stop] - lo)
        diagonal = np.arange(stop - start)
        e[diagonal, start + diagonal] -= 1.0
        np.abs(e, out=e)
        col_sums = col_sums + e.sum(axis=0)
        row_sum = max(row_sum, float(e.sum(axis=1).max()))
    e_norm = math.sqrt(float(col_sums.max()) * row_sum) * (1 + 2 * _gamma(m))
    if not slack * (e_norm + cheap) <= RESIDUAL_RTOL:
        return None
    e = e_norm + _gamma(op_nonzeros) * a * p + 2 * ETA * m * op_nonzeros
    return Rounding(a, p, e, op_nonzeros, p_nonzeros)


def _projector_norm(op: np.ndarray, right_inverse: np.ndarray,
                    nonzeros: tuple[np.ndarray, np.ndarray, np.ndarray],
                    a: float, p: float) -> float:
    """A bound on ||P op||_2, P the n x m right inverse of op and
    ``nonzeros`` op's ``_nonzeros`` listing: sqrt(||C||_1 ||C||_inf) of the
    computed product C, each computed sum inflated by its gamma, plus C's
    rounding, gamma_k p a for k the most nonzeros in a column of op (the
    other products are zero and add exactly), and its underflow. C is
    formed CERT_BLOCK_ENTRIES // n columns at a time, each block the
    product of the columns of P and the rows of op that the block's
    nonzeros span, and kept nowhere; for a banded operator that span is a
    few rows. P op is a projector onto op's row space, so this is near 1
    (about 2 for the collocation operators), where p a is in the
    thousands."""
    _, cols, starts = nonzeros
    rows = np.repeat(np.arange(starts.size), np.diff(np.append(starts, cols.size)))
    order = np.argsort(cols, kind="stable")
    rows, cols = rows[order], cols[order]
    n = right_inverse.shape[0]
    step = max(1, CERT_BLOCK_ENTRIES // n)
    col_sum, row_sums = 0.0, 0.0
    for start in range(0, op.shape[1], step):
        lo, hi = np.searchsorted(cols, [start, start + step])
        if lo == hi:  # columns of zeros: zero columns of C
            continue
        span = slice(rows[lo:hi].min(), rows[lo:hi].max() + 1)
        block = right_inverse[:, span] @ op[span, start:start + step]
        np.abs(block, out=block)
        row_sums = row_sums + block.sum(axis=1)
        col_sum = max(col_sum, float(block.sum(axis=0).max()))
    k = int(np.bincount(cols).max())
    return (math.sqrt(col_sum * float(row_sums.max())) * (1 + 2 * _gamma(n))
            + _gamma(k) * p * a + 2 * ETA * n * k)


def _gap_proof(op: np.ndarray, right_inverse: np.ndarray,
               nonzeros: tuple[np.ndarray, np.ndarray, np.ndarray],
               rounding: Rounding) -> tuple[float, float, float] | None:
    """Coefficients (c_r, c_v, c_0) such that c_r |r| + c_v |v| + c_0, taken
    in floating point from the computed norms |r| and |v|, bounds the gap
    that ``AffineSet.project_gap`` measures on the projection z of any v
    (``AffineSet._gap_bound``); None for an operator with a > 2**500.

    The projection forms r = fl(op v - w), o = fl(P r) and z = fl(v - o);
    the gap is the computed norm of fl(P fl(op z - w)). With E = op P - I,
    op z - w is exactly -dr - E r - op do + op dz, for dr, do and dz the
    roundings of r, o and z, so P (op z - w) is at most
    p |dr| + p e |r| + q (|do| + |dz|), q = ``_projector_norm``. The
    gamma_k model bounds |dr| by gamma_{k_op} a |v| + u |r|, |do| by
    gamma_{k_p} p |r| and |dz| by u (|v| + |o|); the measurement adds its
    own products, gamma_{k_op} a |z| and gamma_{k_p} p |fl(op z - w)|, the
    subtraction and the norm. Each step holds for any summation order,
    with or without FMA, and carries its underflow terms; |r| and |v| are
    bounded through their computed norms, and a final slack covers the
    rounding of the coefficients and of their use. The terms are linear in
    |r| and |v|, so they are added as forms [|r|, |v|, 1].

    The model needs every quantity above finite. A bound of at most 1 has
    c_v |v| <= 1 and c_r |r| <= 1, so |v| <= 1/(2 gamma_{k_op} a p) <=
    2**53 (a p >= ||op P|| >= 1 - e) and p |r| <= 1/u; with a and p at most
    2**500 and a p below 2**24 (the consistency proof), no product
    overflows. ``AffineSet._project_within`` takes no bound above 1.
    """
    m, n = op.shape
    a, p, e, k_op, k_p = rounding
    if not a <= 2.0 ** 500:
        return None
    q = _projector_norm(op, right_inverse, nonzeros, a, p)
    g_op, g_p = _gamma(k_op), _gamma(k_p)
    h_op, h_p = 2 * ETA * k_op * math.sqrt(m), 2 * ETA * k_p * math.sqrt(n)
    r, v, one = np.eye(3)
    with np.errstate(under="ignore"):  # a term that underflows is below the slack
        # roundings of the projection's residual, offset and point
        d_r = g_op * a * v + U * r + h_op * one
        d_o = g_p * p * r + h_p * one
        d_z = U * (v + p * r + d_o)
        # |op z - w| and |P (op z - w)|
        t = d_r + e * r + a * (d_o + d_z)
        pt = p * (d_r + e * r) + q * (d_o + d_z)
        # the measurement: op z, its subtraction, the product with P, the norm
        z = (1 + U) * (v + p * r + d_o)
        d_m = g_op * a * z + h_op * one
        t_hat = (t + d_m) / (1 - U)
        g = pt + p * (d_m + U * t_hat) + g_p * p * t_hat + h_p * one
        gap = (1 + U) * math.sqrt(1 + _gamma(n)) * (g + math.sqrt(n * ETA) * one)
    # |r| <= (1 + 2 gamma_{m+2}) (computed |r| + sqrt(m eta)), and so for |v|
    c_r = float(gap[0]) * (1 + 2 * _gamma(m + 2))
    c_v = float(gap[1]) * (1 + 2 * _gamma(n + 2))
    c_0 = float(gap[2]) + c_r * math.sqrt(m * ETA) + c_v * math.sqrt(n * ETA)
    slack = 1 + _gamma(128)
    return c_r * slack, c_v * slack, c_0 * slack


class AffineSet(ConvexSet):
    """Solution set {x : op @ x = rhs}.

    The system must be consistent; rank-deficient rows are fine as long as
    the right-hand side lies in the range. One SVD of op gives the
    least-norm right inverse P of op on its numerical row space
    (``right_inverse``, read-only) together with the operator's largest
    singular value ``sigma_max``, its row-relevant ``sigma_min`` and its
    ``surjective`` verdict; the anchor is P @ rhs and the projection is
    x - P @ (op @ x - rhs).

    Construction looks these up, with the consistency proof below, in a
    process-wide LRU cache keyed on op's shape and C-order bytes, so
    ``AffineSet(M, w)`` called for many ``w`` factors M once per process,
    and an operator changed in place gets a fresh factorization. Only operators of at most CACHED_OP_ENTRIES
    entries are cached; a larger one (a fine collocation mesh) is factored
    on every construction, so hold one fibre of it and call ``shifted``,
    which copies the instance's attributes (sharing the read-only
    factors) and sets the new right-hand side, with no construction.

    The right-hand side's consistency check, ||op P rhs - rhs|| <=
    RESIDUAL_RTOL (1 + ||rhs||), is decided once per operator where the
    factorization proves that no finite rhs can fail it
    (``every_rhs_consistent``, from a rounding bound built of op P - I,
    the gamma_k terms of the two products, the norms of |op| and |P| and
    an overflow guard; see ``_rhs_always_consistent``). Such an operator
    takes no product on a construction or a shift. Any other operator (not
    onto, ill-conditioned, or a mesh too fine for the bound) runs the check
    on every construction and every shift.

    A proved operator also bounds the gap of its projections: the
    factorization keeps ``_gap_proof``'s coefficients, from the proof's
    bounds on |op|, |P| and op P - I and one more pass for ||P op||, and
    ``_project_within`` bounds the gap that ``project_gap`` would measure
    on a projection by the computed norms of the point and of the
    residual the projection formed, with no product. Where that bound is at
    most the caller's slack it stands for the gap; elsewhere, and for any
    operator without the proof, the gap is measured. ``project_gap``,
    ``gap`` and ``distance`` always measure.

    The ``svd`` that factors op refuses a misshaped, empty or non-finite
    operator with ShapeError; a cache hit has bytes that passed it, since
    the cache keeps no failed call.

    Every product with op (a projection's offset, a distance, a gap and
    the consistency check) goes through one product, fixed at
    factorization from op itself. An operator of more than
    SPARSE_OP_ENTRIES entries, at most one in SPARSE_FILL of them nonzero,
    is multiplied by its nonzeros (``_sparse_product``), listed once per
    factorization: 1,150 products in place of the 99,072 entries of a
    mesh-128 collocation operator. Any other operator, every
    cached one among them, takes ``ndarray.dot``, the BLAS gemv that ``@``
    calls for a C- or F-ordered operator, at less call overhead; for an
    operator view in neither order (``M[:, ::2]``) ``dot`` may multiply a
    copy where ``@`` loops over the view, so such a view may move a dense
    product's result in its last bit. Products with P take ``ndarray.dot``.
    """

    def __init__(self, op, rhs):
        self.op = np.asarray(op, dtype=float)
        if self.op.size <= CACHED_OP_ENTRIES:
            factors = _cached_factors(self.op.shape, self.op.tobytes())
        else:
            factors = _factor(self.op)
        self.dim = self.op.shape[1]
        (self.right_inverse, self.sigma_max, self.sigma_min, self.surjective,
         self.every_rhs_consistent, nonzeros, self._gap_proof) = factors
        self._product = (self.op.dot if nonzeros is None
                         else partial(_sparse_product, *nonzeros))
        self._set_rhs(rhs)

    def shifted(self, rhs) -> AffineSet:
        """The parallel fibre {x : op @ x = rhs}, without a new factorization."""
        other = object.__new__(type(self))
        other.__dict__ = self.__dict__.copy()
        other._set_rhs(rhs)
        return other

    def _set_rhs(self, rhs):
        self.rhs = rhs = as_vector(rhs, dim=self.op.shape[0])
        if self.every_rhs_consistent:
            return
        resid, scale = self._residual(rhs), 1.0
        # the bound is at least RESIDUAL_RTOL, so a smaller residual needs no
        # norm; the caller's rhs may be a strided view, which norm must not see
        if resid <= RESIDUAL_RTOL:
            return
        size = norm(rhs.ravel())
        if not math.isfinite(resid + size):
            # an overflow is judged on rhs / max|rhs|, not passed by inf <= inf
            scale = float(np.max(np.abs(rhs)))
            rhs = rhs / scale
            resid, size = self._residual(rhs), norm(rhs)
        if not resid <= RESIDUAL_RTOL * (1.0 + size):
            raise ContractError(
                f"inconsistent affine system, residual {resid * scale:.3e}")

    def _residual(self, rhs) -> float:
        """||op P rhs - rhs||, the consistency residual of rhs."""
        return norm(self._product(self.right_inverse.dot(rhs)) - rhs)

    def _offset(self, x):
        """x minus its projection: the row-space component of x - anchor."""
        return self.right_inverse.dot(self._product(x) - self.rhs)

    def project(self, x):
        x = as_vector(x, dim=self.dim)
        return x - self._offset(x)

    def _distance(self, v):
        return norm(self._offset(v))

    def project_gap(self, x) -> tuple[np.ndarray, float]:
        """``project`` and ``gap`` of the projection, bit for bit."""
        z = self.project(x)
        return z, self._measured_gap(z)

    def _project_within(self, v, slack):
        """The projection of v, bit for bit, with ``_gap_bound`` where that
        is at most ``slack`` and 1, and the measured gap otherwise."""
        resid = self._product(v) - self.rhs
        z = v - self.right_inverse.dot(resid)
        bound = self._gap_bound(resid, v)
        if bound <= min(slack, 1.0):
            return z, bound
        return z, self._measured_gap(z)

    def _gap_bound(self, resid, v) -> float:
        """A bound on the gap ``project_gap`` measures on the projection of
        v, wherever it is at most 1, from the computed norms of v and of its
        residual ``resid`` = op v - rhs (``_gap_proof``); inf for an
        operator without the proof. The norms take ``_vdot``, which reports
        no overflow."""
        if self._gap_proof is None:
            return math.inf
        c_r, c_v, c_0 = self._gap_proof
        return c_r * math.sqrt(_vdot(resid, resid)) + c_v * math.sqrt(_vdot(v, v)) + c_0

    def _measured_gap(self, z) -> float:
        """``gap(z)`` of a projection z, without validating z again: a
        non-finite projection has a non-finite offset, and only then is it
        passed to ``as_vector``, which refuses it with ShapeError as ``gap``
        does."""
        gap = self._distance(z)
        if not math.isfinite(gap):
            as_vector(z)
        return gap


class Box(ConvexSet):
    """Axis-aligned box {x : lower <= x <= upper}.

    A bound may be infinite (lower = -inf or upper = +inf), which leaves its
    coordinate free; the set is then unbounded but still closed, and its
    projection is still a clamp.
    """

    def __init__(self, lower, upper):
        self.lower = _bound_vector(lower)
        self.upper = _bound_vector(upper, dim=self.lower.size)
        if np.any(self.lower > self.upper):
            raise ContractError("box has lower > upper in some coordinate")
        if np.any(self.lower == np.inf) or np.any(self.upper == -np.inf):
            raise ContractError("box has an empty coordinate (lower = +inf or upper = -inf)")
        self.dim = self.lower.size

    def project(self, x):
        x = as_vector(x, dim=self.dim)
        return np.clip(x, self.lower, self.upper)

    def _excess(self, x):
        """How far each coordinate of x (or of each row of x) lies outside."""
        return np.maximum(0.0, np.maximum(self.lower - x, x - self.upper))

    def _distance(self, v):
        """The norm of the clamped excess: the bits ``violation`` gives v as
        a lone row, whose norm goes through the same dot kernel."""
        return norm(self._excess(v))

    def violation(self, points):
        """Distance of each row of the (k, dim) points to the box, the norm of
        its clamped excess."""
        return row_norms(self._excess(_point_rows(points, self.dim)))

    def support(self, directions):
        """Support value sup{<d, x> : x in box} of each row d of the (k, dim)
        directions; +inf along a free coordinate the direction sees."""
        d = _point_rows(directions, self.dim)
        bound = np.where(d >= 0, self.upper, self.lower)
        # a free coordinate the direction does not see adds 0, not inf * 0
        bound[(d == 0) & np.isinf(bound)] = 0.0
        return np.sum(bound * d, axis=1)


def _point_rows(points, dim: int) -> np.ndarray:
    """(k, dim) float64 array of points or directions, one per row;
    non-finite entries are kept, so a nan row fails every
    ``violation(...) <= tol`` test."""
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != dim:
        raise ShapeError(f"expected points as rows of length {dim}, got shape {p.shape}")
    return p


def _bound_vector(x, dim: int | None = None) -> np.ndarray:
    """as_vector for box bounds: the same shape checks, but +-inf allowed."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    as_vector(np.where(np.isinf(v), 0.0, v), dim=dim)
    return v


class Ball(ConvexSet):
    """Euclidean ball; radius zero gives the singleton {center}."""

    def __init__(self, center, radius):
        self.center = as_vector(center)
        self.radius = float(radius)
        if not np.isfinite(self.radius) or self.radius < 0:
            raise ContractError(f"ball radius must be finite and >= 0, got {radius}")
        self.dim = self.center.size

    def project(self, x):
        x = as_vector(x, dim=self.dim)
        delta = x - self.center
        length = norm(delta)
        if length <= self.radius or length == 0.0:
            return x.copy()
        return self.center + delta * (self.radius / length)

    def _distance(self, v):
        return max(0.0, norm(v - self.center) - self.radius)


class Halfspaces(ConvexSet):
    """Polyhedron {x : normals @ x <= offsets}; rows must be nonzero."""

    def __init__(self, normals, offsets):
        self.normals = as_matrix(normals)
        self.offsets = as_vector(offsets, dim=self.normals.shape[0])
        self.dim = self.normals.shape[1]
        norms = np.linalg.norm(self.normals, axis=1)
        if np.any(norms == 0.0):
            raise ContractError("halfspace normal row is zero")
        self._row_norms = norms
        # An axis-aligned system is the box of its bounds, which answers
        # project and support in closed form (a clamp, no Dykstra, no LP).
        self._box = None
        if np.all(np.count_nonzero(self.normals, axis=1) == 1):
            lo = np.full(self.dim, -np.inf)
            hi = np.full(self.dim, np.inf)
            for row, off in zip(self.normals, self.offsets):
                j = int(np.nonzero(row)[0][0])
                c = row[j]
                if c > 0:
                    hi[j] = min(hi[j], off / c)
                else:
                    lo[j] = max(lo[j], off / c)
            if np.any(lo > hi):
                raise ContractError("halfspace system is empty (bounds cross)")
            self._box = Box(lo, hi)
        self._rows = [_SingleHalfspace(row, off)
                      for row, off in zip(self.normals, self.offsets)]

    def project(self, x):
        if self._box is not None:
            return self._box.project(x)
        return dykstra(self._rows, x)[0]

    def _distance(self, v):
        """0.0 for a point every row holds, ``n_i . v - c_i <= 0`` with each
        product from the dot kernel of ``_SingleHalfspace.project``, so the
        verdict is that of the rows; otherwise the distance to the projection."""
        if self._box is None:
            # one ddot per row, as in the rows' own test, and on a copy of v
            # as dykstra makes: a kernel may sum a vector in an order that
            # depends on its alignment (Prescott)
            products = np.matmul(self.normals[:, None, :], np.array(v)[:, None])[:, 0, 0]
            if np.all(products - self.offsets <= 0):
                return 0.0
        return super()._distance(v)

    def violation(self, points):
        """Largest normalized excess ``(n_i . p - c_i) / |n_i|`` of each row
        ``p`` of the (k, dim) points, negative inside."""
        p = _point_rows(points, self.dim)
        # one (1, dim) @ (dim, rows) product per point, whatever their number,
        # so a point gets the same bits alone as in a batch
        products = np.matmul(p[:, None, :], self.normals.T)[:, 0, :]
        return np.max((products - self.offsets) / self._row_norms, axis=1)

    def support(self, directions):
        """Support value sup{<d, x> : normals @ x <= offsets} of each row d of
        the (k, dim) directions: the box's closed form for an axis-aligned
        system, else the largest <d, v> over the vertices v. A system that
        is not axis-aligned must be bounded and nonempty: ContractError
        names a recession direction, or the emptiness, otherwise."""
        if self._box is not None:
            return self._box.support(directions)
        d = _point_rows(directions, self.dim)
        return np.max(stack_matvec(self._vertices, d.T), axis=0)

    @cached_property
    def _vertices(self) -> np.ndarray:
        """Points holding every vertex of a bounded system, as rows.

        Boundedness is tested exactly, up to the rank rule's slack: each
        candidate recession direction d (normals @ d <= 0) is a null vector
        of dim - 1 rows (of all rows, if fewer), or its negative. Those hold
        an extreme ray of any pointed recession cone other than {0}, and a
        null vector of normals whose rank is below dim. The vertices are
        among the solutions (one stacked solve) of the dim-row subsystems
        that the rank rule calls nonsingular and that meet every row.
        ContractError names a recession direction, or emptiness.
        """
        unit = self.normals / self._row_norms[:, None]
        rays = np.linalg.svd(unit[_row_subsets(unit, min(self.dim - 1, len(unit)))])[2][:, -1]
        rays = np.concatenate([rays, -rays])
        inside = np.flatnonzero(np.all(unit @ rays.T <= SURJECTIVITY_RTOL, axis=0))
        if inside.size:
            raise ContractError(
                "halfspace system is unbounded along the direction "
                f"[{', '.join(f'{v:.12g}' for v in rays[inside[0]])}] "
                "(normals @ d <= 0); it must be compact")
        rows = _row_subsets(self.normals, self.dim)
        sigma = np.linalg.svd(self.normals[rows], compute_uv=False)
        rows = rows[sigma[:, -1] > SURJECTIVITY_RTOL * sigma[:, 0]]
        points = np.linalg.solve(self.normals[rows], self.offsets[rows][:, :, None])[:, :, 0]
        scale = 1.0 + np.max(np.abs(points), axis=1)
        points = points[self.violation(points) <= SURJECTIVITY_RTOL * scale]
        if not points.size:
            raise ContractError("halfspace system is empty")
        return points


def _row_subsets(rows: np.ndarray, size: int) -> np.ndarray:
    """Indices of every ``size``-row subset of ``rows``, one subset a row;
    ContractError when their dim x dim blocks exceed MAX_SUBSET_ENTRIES."""
    count, dim = math.comb(rows.shape[0], size), rows.shape[1]
    if count * dim * dim > MAX_SUBSET_ENTRIES:
        raise ContractError(
            f"halfspace system of {rows.shape[0]} rows in dimension {dim} has {count} "
            f"subsets of {size} rows; at most {MAX_SUBSET_ENTRIES // dim ** 2} are enumerated")
    return np.array(list(itertools.combinations(range(rows.shape[0]), size)))


class _SingleHalfspace(ConvexSet):
    """Internal helper for Dykstra on general halfspace systems."""

    def __init__(self, normal, offset):
        self.normal = normal
        self.offset = float(offset)
        self._nn = float(normal @ normal)
        self.dim = normal.size

    def project(self, x):
        viol = self.normal @ x - self.offset
        if viol <= 0:
            return np.asarray(x, dtype=float).copy()
        return x - (viol / self._nn) * self.normal


class Intersection(ConvexSet):
    """Finite intersection; members are flattened at construction."""

    def __init__(self, members):
        flat: list[ConvexSet] = []
        for m in members:
            if isinstance(m, Intersection):
                flat.extend(m.members)
            else:
                flat.append(m)
        if not flat:
            raise ContractError("intersection needs at least one member")
        dims = {m.dim for m in flat}
        if len(dims) != 1:
            raise ShapeError(f"intersection members disagree on dimension: {dims}")
        self.members = flat
        self.dim = flat[0].dim

    def project(self, x):
        return self.project_gap(x)[0]

    def _gap(self, v) -> float:
        """Worst member distance; a feasibility gap, not the true distance."""
        return max(m._distance(v) for m in self.members)

    def project_gap(self, x) -> tuple[np.ndarray, float]:
        """``project`` and ``gap`` of the projection, bit for bit: the gap
        ``dykstra`` measured is the worst member distance."""
        return dykstra(self.members, x)

    def _project_within(self, v, slack):
        """``dykstra``'s point, with the gap its exact exit may take from a
        proved first member's bound; v is not validated again."""
        return _dykstra(self.members, v, slack)

    def shifted(self, rhs) -> Intersection:
        """This intersection with its first member, an ``AffineSet``, shifted
        to rhs; the members, flattened and checked once, are not rechecked."""
        other = object.__new__(type(self))
        other.members = [self.members[0].shifted(rhs), *self.members[1:]]
        other.dim = self.dim
        return other


def dykstra(sets, start, slack: float = -math.inf) -> tuple[np.ndarray, float]:
    """Dykstra's alternating projections onto an intersection: the point and
    its gap, the worst member ``distance``, or at the exact exit a gap that
    exceeds ``slack`` exactly when the first member's distance does.

    ``start`` is validated once, against the first member's dimension, and
    copied (by ``_dykstra``, the body, which takes a start as given): it is
    never returned or changed, and a view off a 16-byte boundary, whose
    products OpenBLAS's Prescott kernel sums in another order, gets the
    bits of a fresh array. The first projection, onto the first member, is
    an exact exit: if it lies in every other member (each ``_distance``
    exactly 0.0), it is a point of the intersection nearest to ``start``
    among the points of a superset, so the metric projection
    onto the intersection, and is returned with the gap of the first
    member's ``_project_within``: its distance as measured, or a proved
    bound on it that is at most ``slack`` (never, at the default).
    Membership must be exact: a point 1e-12 outside a box runs the rounds
    below, whose first step reuses that projection.

    Stops when one full round moves the iterate by <= DYKSTRA_TOL AND the
    iterate is feasible; displacement alone is not enough, because the
    scheme can sit on a transient plateau while the correction terms still
    carry momentum. Unlike plain alternating projections this converges to
    the metric projection of ``start``. Raises InfeasibilitySuspectedError
    when DYKSTRA_MAX_ROUNDS rounds are exhausted (in particular for empty
    intersections, where the displacement vanishes but the gap stays put).
    """
    return _dykstra(sets, as_vector(start, dim=sets[0].dim), slack)


def _dykstra(sets, start: np.ndarray, slack: float = -math.inf) -> tuple[np.ndarray, float]:
    """``dykstra`` of a start of the sets' dimension, taken as given."""
    x = np.array(start)
    first, gap = sets[0]._project_within(x, slack)
    if all(s._distance(first) == 0.0 for s in sets[1:]):
        return first, gap
    corrections = [np.zeros_like(x) for _ in sets]
    gap_tol = max(1e-9, 10.0 * DYKSTRA_TOL)
    for _ in range(DYKSTRA_MAX_ROUNDS):
        x_prev = x.copy()
        for i, s in enumerate(sets):
            y = s.project(x + corrections[i]) if first is None else first
            first = None
            corrections[i] = x + corrections[i] - y
            x = y
        if norm(x - x_prev) <= DYKSTRA_TOL:
            gap = max(s.distance(x) for s in sets)
            if gap <= gap_tol:
                return x, gap
    gap = max(s.distance(x) for s in sets)
    raise InfeasibilitySuspectedError(
        f"alternating projections did not settle in {DYKSTRA_MAX_ROUNDS} rounds "
        f"(gap {gap:.3e}); the intersection may be empty", gap=gap)


def direction_grid(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic spread of unit directions: +-axes first, then seeded."""
    if count < 2 * dim:
        raise ContractError(f"need at least {2 * dim} directions in dimension {dim}")
    if seed < 0:
        raise ContractError(f"seed must be nonnegative, got {seed}")
    dirs = [np.eye(dim)[i] for i in range(dim)]
    dirs += [-np.eye(dim)[i] for i in range(dim)]
    rng = np.random.default_rng(seed)
    while len(dirs) < count:
        v = rng.standard_normal(dim)
        n = np.linalg.norm(v)
        if n > 1e-12:
            dirs.append(v / n)
    return np.array(dirs)


def set_from_json(data: dict) -> ConvexSet:
    """Build a set of the catalogue from its JSON description."""
    if not isinstance(data, dict) or "type" not in data:
        raise ContractError("convex set JSON needs a 'type' field")
    kind = data["type"]
    try:
        if kind == "affine":
            return AffineSet(data["matrix"], data["rhs"])
        if kind == "box":
            return Box(data["lower"], data["upper"])
        if kind == "ball":
            return Ball(data["center"], data["radius"])
        if kind == "halfspaces":
            return Halfspaces(data["normals"], data["offsets"])
        if kind == "intersection":
            return Intersection([set_from_json(m) for m in data["members"]])
    except KeyError as exc:
        raise ContractError(f"convex set JSON of type {kind!r} missing field {exc}") from exc
    raise ContractError(f"unknown convex set type {kind!r}")
