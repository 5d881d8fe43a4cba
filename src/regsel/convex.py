"""Closed convex sets with metric projections.

The catalogue is deliberately small: affine solution sets, boxes, balls,
halfspace systems, and finite intersections of those. Every set answers
project / distance / gap, which is all the selection iteration needs.
Boxes and halfspace systems, the two kinds of control set, also answer
``support`` for the steering application's interior test, taking
directions as rows, and ``violation``, their membership rule. Projections
onto intersections run Dykstra's alternating scheme, which converges to
the metric projection for closed convex members, after an exact exit: an
affine fibre met with an inactive constraint costs one projection.
"""

from __future__ import annotations

import copy
from functools import lru_cache

import numpy as np

from .errors import ContractError, InfeasibilitySuspectedError, ShapeError
from .linalg import as_matrix, as_vector, norm, row_norms, svd

DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_ROUNDS = 10000

# AffineSet caches the factors of operators of at most CACHED_OP_ENTRIES
# entries, 512 operators at most (``_cached_factors``): a key and a right
# inverse of op.size float64 entries each, so 2**16 entries (512 KiB) in all.
CACHED_OP_ENTRIES = 64


class ConvexSet:
    """Base interface; concrete sets override ``project`` and may override
    the other queries with a closed form. ``support`` lives on ``Box`` and
    ``Halfspaces`` only."""

    dim: int

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def distance(self, x) -> float:
        x = as_vector(x, dim=self.dim)
        return norm(x - self.project(x))

    def gap(self, x) -> float:
        """Feasibility gap of x, zero on the set; the distance unless a set
        has a cheaper bound (``Intersection``)."""
        return self.distance(x)


def _factor(op: np.ndarray) -> tuple[np.ndarray, float, float, bool]:
    """What an AffineSet keeps of its operator's SVD: the read-only right
    inverse, sigma_max, sigma_min and the surjectivity verdict."""
    fac = svd(op)
    right_inverse = fac.right_inverse()
    right_inverse.flags.writeable = False
    return right_inverse, float(fac.s[0]), fac.sigma_min, fac.surjective


@lru_cache(maxsize=512)
def _cached_factors(shape: tuple[int, int], data: bytes):
    """``_factor`` of the operator with this shape and C-order bytes."""
    return _factor(np.frombuffer(data).reshape(shape))


class AffineSet(ConvexSet):
    """Solution set {x : op @ x = rhs}.

    The system must be consistent; rank-deficient rows are fine as long as
    the right-hand side lies in the range. One SVD of op gives the
    least-norm right inverse P of op on its numerical row space
    (``right_inverse``, read-only) together with the operator's largest
    singular value ``sigma_max``, its row-relevant ``sigma_min`` and its
    ``surjective`` verdict; the anchor is P @ rhs and the projection is
    x - P @ (op @ x - rhs).

    Construction looks these four up in a process-wide LRU cache keyed on
    op's shape and C-order bytes, so ``AffineSet(M, w)`` called for many
    ``w`` factors M once per process, and an operator changed in place gets
    a fresh factorization. Only operators of at most CACHED_OP_ENTRIES
    entries are cached; a larger one (a fine collocation mesh) is factored
    on every construction, so hold one fibre of it and call ``shifted``,
    which moves the right-hand side without factoring op. The consistency
    check of the right-hand side runs on every construction and every shift.
    """

    def __init__(self, op, rhs):
        self.op = as_matrix(op)
        self.dim = self.op.shape[1]
        if self.op.size <= CACHED_OP_ENTRIES:
            factors = _cached_factors(self.op.shape, self.op.tobytes())
        else:
            factors = _factor(self.op)
        (self.right_inverse, self.sigma_max, self.sigma_min,
         self.surjective) = factors
        self._set_rhs(rhs)

    def shifted(self, rhs) -> AffineSet:
        """The parallel fibre {x : op @ x = rhs}, without a new factorization."""
        other = copy.copy(self)
        other._set_rhs(rhs)
        return other

    def _set_rhs(self, rhs):
        self.rhs = as_vector(rhs, dim=self.op.shape[0])
        x0 = self.right_inverse @ self.rhs
        resid = norm(self.op @ x0 - self.rhs)
        # the caller's rhs may be a strided view, which norm must not see
        if resid > 1e-9 * (1.0 + norm(self.rhs.ravel())):
            raise ContractError(
                f"inconsistent affine system, residual {resid:.3e}")

    def _offset(self, x):
        """x minus its projection: the row-space component of x - anchor."""
        return self.right_inverse @ (self.op @ x - self.rhs)

    def project(self, x):
        x = as_vector(x, dim=self.dim)
        return x - self._offset(x)

    def distance(self, x):
        x = as_vector(x, dim=self.dim)
        return norm(self._offset(x))


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

    def distance(self, x):
        x = as_vector(x, dim=self.dim)
        return float(self.violation(x[None, :])[0])

    def violation(self, points):
        """Distance of each row of the (k, dim) points to the box, the norm of
        its clamped excess."""
        p = _point_rows(points, self.dim)
        return row_norms(np.maximum(0.0, np.maximum(self.lower - p, p - self.upper)))

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

    def distance(self, x):
        x = as_vector(x, dim=self.dim)
        return max(0.0, norm(x - self.center) - self.radius)


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

    def project(self, x):
        if self._box is not None:
            return self._box.project(x)
        x = as_vector(x, dim=self.dim)
        sets = [_SingleHalfspace(self.normals[i], self.offsets[i])
                for i in range(self.normals.shape[0])]
        return dykstra(sets, x)

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
        system, else one linear program per row; +inf where the polyhedron
        is unbounded along d."""
        if self._box is not None:
            return self._box.support(directions)
        from scipy.optimize import linprog  # deferred: ~0.6 s to import

        d = _point_rows(directions, self.dim)
        values = np.empty(d.shape[0])
        for i, row in enumerate(d):
            res = linprog(-row, A_ub=self.normals, b_ub=self.offsets,
                          bounds=[(None, None)] * self.dim, method="highs")
            if res.status == 3:
                values[i] = np.inf
                continue
            if res.status == 2:
                raise InfeasibilitySuspectedError("halfspace system is empty")
            if not res.success:  # pragma: no cover - solver hiccup
                raise InfeasibilitySuspectedError(f"support LP failed: {res.message}")
            values[i] = -res.fun
        return values


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
        x = as_vector(x, dim=self.dim)
        return dykstra(self.members, x)

    def gap(self, x) -> float:
        """Worst member distance; a feasibility gap, not the true distance."""
        return max(m.distance(x) for m in self.members)


def dykstra(sets, start) -> np.ndarray:
    """Dykstra's alternating projections onto an intersection.

    The first projection, onto the first member, is an exact exit: if it
    lies in every other member (each ``distance`` exactly 0.0), it is a
    point of the intersection nearest to ``start`` among the points of a
    superset, so the metric projection onto the intersection, and is
    returned. Membership must be exact: a point 1e-12 outside a box runs
    the rounds below, whose first step reuses that projection.

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
        return first
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
                return x
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
