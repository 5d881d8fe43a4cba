"""Closed convex sets with metric projections.

The catalogue is deliberately small: affine solution sets, boxes, balls,
halfspace systems, and finite intersections of those. Every set answers
project / distance / gap, and ``project_gap``, which returns a projection
and its gap together: that is all the selection iteration needs. An
intersection takes the gap of its projection from what ``dykstra``
measured on the way, so each member is measured once per point. Boxes
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
and shift otherwise. It multiplies by a large sparse operator's nonzeros.
"""

from __future__ import annotations

import copy
import itertools
import math
from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import ContractError, InfeasibilitySuspectedError, ShapeError
from .linalg import (RESIDUAL_RTOL, SURJECTIVITY_RTOL, as_matrix, as_vector, norm,
                     row_norms, stack_matvec, svd)

DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_ROUNDS = 10000

# AffineSet caches the factors of operators of at most CACHED_OP_ENTRIES
# entries, 512 operators at most (``_cached_factors``): a key and a right
# inverse of op.size float64 entries each, so 2**16 entries (512 KiB) in all.
CACHED_OP_ENTRIES = 64

# _rhs_always_consistent reads an operator, its right inverse and op P - I,
# with the terms that form op P, in row blocks of at most 2**14 float64
# entries (128 KiB), or of one row where a row of terms alone has more, and
# keeps none.
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
        """``distance`` of a vector that ``as_vector`` already validated."""
        return norm(v - self.project(v))

    def gap(self, x) -> float:
        """Feasibility gap of x, zero on the set; the distance unless a set
        has a cheaper bound (``Intersection``)."""
        return self.distance(x)

    def project_gap(self, x) -> tuple[np.ndarray, float]:
        """The projection z of x and ``gap(z)``, in one call."""
        z = self.project(x)
        return z, self.gap(z)


def _factor(op: np.ndarray):
    """What an AffineSet keeps of its operator's SVD: the read-only right
    inverse, sigma_max, sigma_min, the surjectivity verdict, whether
    ``_rhs_always_consistent`` proves every right-hand side consistent, and
    the ``_nonzeros`` listing of an operator that SPARSE_OP_ENTRIES and
    SPARSE_FILL call sparse (None for any other)."""
    fac = svd(op)
    right_inverse = fac.right_inverse()
    right_inverse.flags.writeable = False
    nonzeros = _nonzeros(fac.a)
    proved = fac.surjective and _rhs_always_consistent(fac.a, right_inverse, nonzeros)
    sparse = fac.a.size > SPARSE_OP_ENTRIES and SPARSE_FILL * nonzeros[0].size <= fac.a.size
    return (right_inverse, float(fac.s[0]), fac.sigma_min, fac.surjective, proved,
            nonzeros if sparse else None)


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


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2**-53: a computed sum of k
    nonzero rounded products, in any order, with or without FMA, is off by
    at most gamma_k times the sum of their magnitudes (zero products add
    exactly)."""
    return k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)


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
                           nonzeros: tuple[np.ndarray, np.ndarray, np.ndarray]) -> bool:
    """True when no vector that ``as_vector`` admits can fail ``_set_rhs``'s
    residual check, so the check need not run; ``nonzeros`` is
    ``_nonzeros(op)``.

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
    """
    m, n = op.shape
    a, op_nonzeros = _abs_norm(op)
    p, p_nonzeros = _abs_norm(right_inverse)
    slack = 1 + 8 * _gamma(m + 64)
    eta = 2.0 ** -1074
    cheap = (a * p * (_gamma(p_nonzeros) + _gamma(op_nonzeros) * (2 + _gamma(p_nonzeros)))
             + 2 * math.sqrt(m * eta) + 2 * eta * (a * n * p_nonzeros + 2 * m * op_nonzeros))
    if not (p <= 2.0 ** 500 and slack * cheap <= RESIDUAL_RTOL):
        return False
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
    return slack * (e_norm + cheap) <= RESIDUAL_RTOL


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
    which moves the right-hand side without factoring op.

    The right-hand side's consistency check, ||op P rhs - rhs|| <=
    RESIDUAL_RTOL (1 + ||rhs||), is decided once per operator where the
    factorization proves that no finite rhs can fail it
    (``every_rhs_consistent``, from a rounding bound built of op P - I,
    the gamma_k terms of the two products, the norms of |op| and |P| and
    an overflow guard; see ``_rhs_always_consistent``). Such an operator
    takes no product on a construction or a shift. Any other operator (not
    onto, ill-conditioned, or a mesh too fine for the bound) runs the check
    on every construction and every shift.

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
        (self.right_inverse, self.sigma_max, self.sigma_min,
         self.surjective, self.every_rhs_consistent, nonzeros) = factors
        self._product = (self.op.dot if nonzeros is None
                         else partial(_sparse_product, *nonzeros))
        self._set_rhs(rhs)

    def shifted(self, rhs) -> AffineSet:
        """The parallel fibre {x : op @ x = rhs}, without a new factorization."""
        other = copy.copy(self)
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
        """``project`` and ``gap`` of the projection, bit for bit, without
        validating the projection again: a non-finite projection has a
        non-finite offset, and only then is it passed to ``as_vector``,
        which refuses it with ShapeError as ``gap`` does."""
        z = self.project(x)
        gap = self._distance(z)
        if not math.isfinite(gap):
            as_vector(z)
        return z, gap


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
        return dykstra(self._rows, as_vector(x, dim=self.dim))[0]

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

    def gap(self, x) -> float:
        """Worst member distance; a feasibility gap, not the true distance."""
        x = as_vector(x, dim=self.dim)
        return max(m._distance(x) for m in self.members)

    def project_gap(self, x) -> tuple[np.ndarray, float]:
        """``project`` and ``gap`` of the projection, bit for bit: the gap
        ``dykstra`` measured is the worst member distance."""
        return dykstra(self.members, as_vector(x, dim=self.dim))


def dykstra(sets, start) -> tuple[np.ndarray, float]:
    """Dykstra's alternating projections onto an intersection: the point and
    its gap, the worst member ``distance``.

    The first projection, onto the first member, is an exact exit: if it
    lies in every other member (each ``distance`` exactly 0.0), it is a
    point of the intersection nearest to ``start`` among the points of a
    superset, so the metric projection onto the intersection, and is
    returned with the first member's distance as its gap. Membership must
    be exact: a point 1e-12 outside a box runs the rounds below, whose
    first step reuses that projection.

    Stops when one full round moves the iterate by <= DYKSTRA_TOL AND the
    iterate is feasible; displacement alone is not enough, because the
    scheme can sit on a transient plateau while the correction terms still
    carry momentum. Unlike plain alternating projections this converges to
    the metric projection of ``start``. Raises InfeasibilitySuspectedError
    when DYKSTRA_MAX_ROUNDS rounds are exhausted (in particular for empty
    intersections, where the displacement vanishes but the gap stays put).
    """
    x = np.array(start, dtype=float)
    first = sets[0].project(x)
    if all(s.distance(first) == 0.0 for s in sets[1:]):
        return first, sets[0].distance(first)
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
