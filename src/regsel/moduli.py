"""Sampled moduli and regularity verifiers.

Three kinds of quantities live here:

* exact regularity constants for linear operators (from the SVD),
* sampled Lipschitz / calmness moduli for black-box function oracles,
* brute-force verifiers for the distance inequalities that define metric
  regularity and the Aubin property on grid-sampled graphs.

The sampled estimators draw proposals from one seeded stream in blocks of
SAMPLE_BLOCK. Block 0 is uniform in the ball; in each later block one third
of the proposals are uniform and two thirds are steps at the 28 scales of
the cycle from the incumbent the earlier blocks left, clipped to the ball
in bulk. Every block is drawn in full, so an estimate is the max over a
prefix of one stream: for a fixed seed it is nondecreasing in the sample
budget (to the bit when the map's stacked columns have the bits of each
point alone, as every map the library builds does), and on linear oracles
it approaches the operator norm, but only up to cancellation noise in the
quotients whose gaps sit near the gap floor: for d = 1 an estimate can
exceed ||A|| by about 5e-8 relative.

Every map the samplers evaluate keeps one stacked-oracle contract: a point
(d,) gives (m,), and k points as the columns of a (d, k) array give (m, k),
one column per point. Once per sampled stream, stacking_fault compares one
stacked call on probe_width(d, m) points with per-point calls within
STACK_RTOL. A map that passes is called once per end and block; one that
fails (a fixed-length vector added to W x, say) is called one point at a
time, to the same values. ControlProblem refuses dynamics that fail the
same probe.

Both verifiers read one scan of the graph, sampled once on a grid of at
least 2 points per axis, which works on blocked distance tables with no
Python loop per test value:

* Fibre membership for a block of consecutive test values y is one table
  of distances to every sampled value, reduced to d(y, F(x)) per grid point
  by np.minimum.reduceat; x lies in the fibre F^{-1}(y) when that distance
  is at most CHECK_RTOL * (1 + ||y||), and a point with no values is at
  distance +inf.
* The rows d(x, F^{-1}(y)) over all grid points x come from one table
  between the stacked members of the block's distinct fibres and the grid
  points, reduced per fibre by np.minimum.reduceat. A fibre equal to the
  one before it reuses its distances. The metric-regularity ratio divides
  them by d(y, F(x)); the Aubin excess gathers them at the members of
  every source fibre and divides each fibre's worst (np.maximum.reduceat)
  by the gaps ||y_a - y_b||, which form one more table.
* No table holds more than TABLE_ENTRIES float64 entries unless a single
  row is wider; blocks of test values and fibre members are cut to fit, so
  the tables do not grow with the grid.

Every table, gaps too, comes from _distances: it adds squared differences
in coordinate order, below 8 coordinates numpy's own summation order, and
min and max are exact. Every ratio, verdict and witness is thus that of a
scan of one test value at a time, ties included: the first pair in
test-value order attaining the worst ratio, with the first grid point.

Distances within a ball reach its diameter, so every sampler refuses a
radius whose diameter has no finite float64 square: beyond it the norm of a
difference overflows to inf and each quotient silently drops to 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import convex
from .errors import ContractError, ShapeError
from .linalg import SvdFactorization, as_matrix, as_vector, row_norms, svd

# Relative slack used when comparing sampled distances against kappa times
# sampled distances; absorbs roundoff in grid arithmetic.
CHECK_RTOL = 1e-9
CHECK_ATOL = 1e-15

# lsc_probe: the distance floor its converged tail must stay above, and how
# close the last approach step must come to the probed value
LSC_FLOOR = 1e-3
LSC_TAIL_TOL = 1e-6

# Float64 entries in any one table the graph verifiers build: blocks of test
# values and fibre members are cut to fit, so the tables of a scan do not
# grow with the grid. A table keeps at least one row, so a single row wider
# than this (one value against more points or values) exceeds it.
TABLE_ENTRIES = 1 << 14

# The largest diameter whose square is a finite float64.
_MAX_DIAMETER = float(np.sqrt(np.finfo(float).max))


def _check_radius(name: str, radius: float):
    """Refuse a ball whose squared diameter (2 radius)^2 overflows float64."""
    if not 2.0 * radius <= _MAX_DIAMETER:
        raise ContractError(
            f"{name} {radius:g} is too large: distances across its ball "
            f"overflow float64")


def fmt_float(x: float) -> str:
    """17 significant digits; round-trips float64 exactly."""
    return format(float(x), ".17g")


CSV_HEADER = "kind,value,radius,samples,seed,verdict,witness"


def csv_row(kind: str, value: float, radius: float, samples: int,
            seed: int | None, verdict: str, witness: tuple) -> str:
    """One row under CSV_HEADER; a radius that is not finite, zero samples
    and a seed of None leave their cells blank. The witness cell lists each
    point's coordinates, space separated, one point after another by ';'."""
    points = [" ".join(fmt_float(v) for v in np.atleast_1d(np.asarray(w, dtype=float)))
              for w in witness]
    return ",".join([kind, fmt_float(value),
                     fmt_float(radius) if np.isfinite(radius) else "",
                     str(samples) if samples else "",
                     "" if seed is None else str(seed), verdict, ";".join(points)])


@dataclass
class ModulusEstimate:
    """One sampled or exact modulus, serializable to a CSV row."""

    kind: str
    value: float
    radius: float = float("nan")
    samples: int = 0
    seed: int = 0
    witness: tuple = ()

    def csv_row(self) -> str:
        return csv_row(self.kind, self.value, self.radius, self.samples,
                       self.seed, "", self.witness)


@dataclass
class CheckReport:
    """Outcome of a distance-inequality verification."""

    kind: str
    ok: bool
    kappa: float
    worst_ratio: float
    witness: tuple = ()
    detail: str = ""

    def csv_row(self) -> str:
        return csv_row(self.kind, self.worst_ratio, np.nan, 0, None,
                       "pass" if self.ok else "fail", self.witness)


# ---------------------------------------------------------------------------
# exact linear moduli


def reg_linear(op) -> float:
    """Regularity modulus of a linear operator: 1/sigma_min, +inf if not onto.

    ``op`` is a matrix, or an AffineSet or SvdFactorization, which keeps its
    operator's sigma_min and is read without another SVD.
    """
    fac = op if isinstance(op, (convex.AffineSet, SvdFactorization)) else svd(op)
    if not fac.surjective:
        return float("inf")
    return 1.0 / fac.sigma_min


# ---------------------------------------------------------------------------
# sampled lip / clm


# Proposals per block of the sampled estimators: each block is drawn in full
# and evaluated with one stacked call per end.
SAMPLE_BLOCK = 64

# Refinement scales cycle through powers of two so there is always a batch of
# proposals at the length scale matching the incumbent's remaining error.
_SCALE_CYCLE = 28

# The proposals of a block that step from the incumbent, when there is one:
# two of every three; the others are uniform in the ball.
_STEP_COLUMNS = np.flatnonzero(np.arange(SAMPLE_BLOCK) % 3 != 0)

# Difference quotients over gaps below this fraction of the radius are
# dominated by cancellation noise in f(x) - f(x') and can overshoot the true
# modulus, so such pairs are skipped.
_MIN_GAP_FRAC = 1e-7

# A stacked call passes the probe when its columns lie within this fraction
# of 1 + the largest per-point value of the per-point calls.
STACK_RTOL = 1e-12


def probe_width(*dims: int) -> int:
    """The smallest k >= 2 equal to none of ``dims``: a k-point probe of a
    map between those dimensions has no square operand, so no fixed-length
    vector in the map broadcasts against it by accident."""
    k = 2
    while k in dims:
        k += 1
    return k


def stacking_fault(f: Callable, operands, rows: int) -> str | None:
    """Why ``f`` fails the stacking probe, or None when it passes.

    ``operands`` are 2-D arrays with one probe point per column. f passes
    when one call f(*operands) returns shape (rows, k) and every column lies
    within STACK_RTOL of the call on that point alone. A stacked call that
    raises TypeError, ValueError or IndexError, and per-point values that
    are not (rows,) vectors or not finite, fail it.
    """
    k = operands[0].shape[1]
    try:
        stacked = np.asarray(f(*operands), dtype=float)
    except (TypeError, ValueError, IndexError) as exc:
        return f"a {k}-point probe raised {type(exc).__name__}: {exc}"
    if stacked.shape != (rows, k):
        return f"a {k}-point probe returned shape {stacked.shape}"
    single = [np.asarray(f(*(o[:, j] for o in operands)), dtype=float)
              for j in range(k)]
    if any(v.size != rows for v in single):
        return (f"per-point calls of a {k}-point probe return sizes "
                f"{[v.size for v in single]}, not {rows}")
    single = np.column_stack([v.reshape(rows) for v in single])
    gap = float(np.max(np.abs(stacked - single)))
    if not gap <= STACK_RTOL * (1.0 + float(np.max(np.abs(single)))):
        return f"a {k}-point probe differs from per-point calls by {gap:.3e}"
    return None


def _block_values(f: Callable, center: np.ndarray, radius: float, rows: int):
    """The function that evaluates f on the rows of a (k, d) array of points
    and returns their values as the columns of a (rows, k) array.

    f is probed once (stacking_fault) on probe_width(d, rows) points at half
    the radius. A map that passes gets one stacked call on the points as
    columns; one that fails is called on one point at a time. A value that
    is misshaped or not finite raises ShapeError before any is returned.
    """
    d = center.size
    z = np.random.default_rng(0).standard_normal((d, probe_width(d, rows)))
    probe = center[:, None] + (0.5 * radius) * (z / np.linalg.norm(z, axis=0))
    stacks = stacking_fault(f, (probe,), rows) is None
    shapes = [(rows,)] if rows > 1 else [(rows,), ()]

    def values(points):
        k = len(points)
        if stacks:
            out = np.asarray(f(np.ascontiguousarray(points.T)), dtype=float)
            if out.shape != (rows, k):
                raise ShapeError(f"map returned shape {out.shape} for {k} "
                                 f"stacked points, expected {(rows, k)}")
        else:
            got = [f(x) for x in points]
            try:
                out = np.array(got, dtype=float)
            except (TypeError, ValueError):
                out = None
            if out is None or out.shape[1:] not in shapes:
                for v in got:  # names the first misshaped value
                    as_vector(v, dim=rows)
                raise ShapeError(f"map values do not stack to {(rows, k)}")
            out = out.reshape(k, rows).T
        finite = np.isfinite(out).all(axis=0)
        if not finite.all():
            raise ShapeError("map value has non-finite entries at "
                             f"{points[int(np.argmin(finite))].tolist()}")
        return out

    return values


def _clip_to_ball(points: np.ndarray, center: np.ndarray, radius: float):
    """Move each row of points that lies outside the ball radially onto it."""
    delta = points - center
    n = row_norms(delta)
    far = n > radius
    if far.any():
        points[far] = center + delta[far] * (radius / n[far])[:, None]
    return points


def _sup_quotient(f, center, radius, samples, seed, anchored):
    """sup ||f(x)-f(x')|| / ||x-x'|| over sampled pairs in a ball.

    With ``anchored`` the second point is always the center, whose value is
    evaluated once, and a proposal moves the first point only; otherwise
    both points are proposed. Proposals come from one seeded stream in
    blocks of SAMPLE_BLOCK. Block 0 is uniform in the ball. In each later
    block with an incumbent (the best pair of the blocks before it), the
    proposals at _STEP_COLUMNS are steps from the incumbent, the t-th of
    length radius * 2^-(t mod 28), clipped to the ball; the rest are
    uniform. Every block is drawn in full, so the first ``samples``
    proposals are a prefix of the same stream for every budget. The witness
    is the best pair, first in stream order, or the center alone (twice
    when not anchored) if every sample fell below the gap floor.
    """
    center = as_vector(center)
    if not radius > 0:
        raise ContractError(f"radius must be positive, got {radius}")
    _check_radius("radius", radius)
    if samples < 1:
        raise ContractError("samples must be >= 1")
    if seed < 0:
        raise ContractError(f"seed must be nonnegative, got {seed}")
    fc = as_vector(f(center))
    values = _block_values(f, center, radius, fc.size)
    rng = np.random.default_rng(seed)
    d = center.size
    ends = 1 if anchored else 2
    lengths = radius * 2.0 ** -(np.arange(_STEP_COLUMNS.size) % _SCALE_CYCLE)
    min_gap = _MIN_GAP_FRAC * radius
    best_q = -np.inf
    best = None
    for start in range(0, samples, SAMPLE_BLOCK):
        z = rng.standard_normal((ends * SAMPLE_BLOCK, d))
        r = rng.random(ends * SAMPLE_BLOCK) ** (1.0 / d)
        # a uniform point: a normal direction at radius * u^(1/d); a zero
        # draw points along the first axis
        n = row_norms(z)
        dirs = z / np.where(n > 0, n, 1.0)[:, None]
        dirs[n == 0, 0] = 1.0
        pts = center + (radius * r)[:, None] * dirs
        pts = pts.reshape(ends, SAMPLE_BLOCK, d)
        if best is not None:
            moved = (best[:, None] + lengths[:, None]
                     * z.reshape(ends, SAMPLE_BLOCK, d)[:, _STEP_COLUMNS])
            pts[:, _STEP_COLUMNS] = _clip_to_ball(
                moved.reshape(-1, d), center, radius).reshape(ends, -1, d)
        count = min(SAMPLE_BLOCK, samples - start)
        pts = pts[:, :count]
        if anchored:
            diff = values(pts[0]) - fc[:, None]
            gaps = row_norms(pts[0] - center)
        else:
            diff = values(pts[0]) - values(pts[1])
            gaps = row_norms(pts[0] - pts[1])
        q = np.divide(row_norms(np.ascontiguousarray(diff.T)), gaps,
                      out=np.full(count, -np.inf), where=gaps >= min_gap)
        j = int(np.argmax(q))
        if q[j] > best_q:
            best_q, best = q[j], pts[:, j].copy()
    if best is None:
        return 0.0, (center,) if anchored else (center, center)
    return float(best_q), (best[0], center) if anchored else (best[0], best[1])


def lip_estimate(f: Callable, center, radius: float, samples: int = 3000,
                 seed: int = 0) -> ModulusEstimate:
    """Sampled Lipschitz modulus of ``f`` on the closed ball around center.

    The pair sample always includes the center-anchored stream used by
    clm_estimate with the same seed, so lip_estimate(...) >= clm_estimate(...)
    holds exactly, not just in the limit.
    """
    q_pair, wit_pair = _sup_quotient(f, center, radius, samples, seed, anchored=False)
    q_clm, wit_clm = _sup_quotient(f, center, radius, samples, seed, anchored=True)
    if q_clm > q_pair:
        q_pair, wit_pair = q_clm, wit_clm
    return ModulusEstimate(kind="lip", value=q_pair, radius=radius,
                           samples=samples, seed=seed, witness=wit_pair)


def clm_estimate(f: Callable, center, radius: float, samples: int = 3000,
                 seed: int = 0) -> ModulusEstimate:
    """Sampled calmness modulus: difference quotients anchored at center."""
    q, wit = _sup_quotient(f, center, radius, samples, seed, anchored=True)
    return ModulusEstimate(kind="clm", value=q, radius=radius, samples=samples,
                           seed=seed, witness=wit)


# ---------------------------------------------------------------------------
# grid-sampled graphs and distance-inequality checks


@dataclass
class SampledMapping:
    """Set-valued mapping sampled on a grid around a base pair.

    ``forward`` maps a point to the list of its values (a single vector, a
    list of vectors, or a 2-D array of stacked rows). Any empty form (an
    empty list or tuple, an array with no entries) means F(x) is empty, that
    is x is outside dom F, as in lsc_probe; the base point must have values.
    ``radius_x`` bounds the sampled domain ball, ``radius_y`` the image ball
    used for test values.
    """

    forward: Callable
    x_base: np.ndarray
    y_base: np.ndarray
    radius_x: float
    radius_y: float

    def __post_init__(self):
        self.x_base = as_vector(self.x_base)
        self.y_base = as_vector(self.y_base)
        if not (self.radius_x > 0 and self.radius_y > 0):
            raise ContractError("sampled mapping needs positive radii")
        _check_radius("radius_x", self.radius_x)
        _check_radius("radius_y", self.radius_y)
        vals = self.values_at(self.x_base)
        if not vals:
            raise ContractError(
                f"forward oracle returned no values at the base point "
                f"{self.x_base.tolist()}")
        gap = min(np.linalg.norm(v - self.y_base) for v in vals)
        if gap > 1e-12:
            raise ContractError(
                f"base point is not on the graph (gap {gap:.3e})")

    def values_at(self, x) -> list[np.ndarray]:
        """The values F(x), an empty list when x is outside dom F."""
        out = self.forward(np.asarray(x, dtype=float))
        dim = self.y_base.size
        if isinstance(out, np.ndarray):
            if out.size == 0:
                return []
            if out.ndim <= 1:
                return [as_vector(out, dim=dim)]
            return [as_vector(row, dim=dim) for row in out]
        if np.isscalar(out):
            return [as_vector(out, dim=dim)]
        return [as_vector(v, dim=dim) for v in out]


def _sample_graph(mapping: SampledMapping, grid: int):
    """Graph of the mapping on ``grid`` points per axis of the domain ball.

    Returns the grid points, the sampled values as rows of gy, the index
    gx_idx of the point each value belongs to (nondecreasing; a point with
    no values has no row) and the distinct values inside the image ball,
    which are the test values.
    """
    if grid < 2:
        # One point per axis would be the corner x_base - radius_x alone, so
        # every verdict on it would be vacuous.
        raise ContractError(f"grid needs at least 2 points per axis, got {grid}")
    # An odd count keeps the base point on the grid.
    count = int(grid) + 1 - int(grid) % 2
    axes = [np.linspace(c - mapping.radius_x, c + mapping.radius_x, count)
            for c in mapping.x_base]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    keep = np.linalg.norm(pts - mapping.x_base, axis=1) <= mapping.radius_x + 1e-12
    pts = pts[keep]
    # Values are packed as they come: a list of one small array per value
    # would hold more memory than every later table of a scan.
    packed, counts = bytearray(), []
    for x in pts:
        vals = mapping.values_at(x)
        counts.append(len(vals))
        for v in vals:
            packed += v.tobytes()
    gy = np.frombuffer(packed).reshape(-1, mapping.y_base.size)
    gx_idx = np.repeat(np.arange(pts.shape[0]), counts)
    in_ball = np.linalg.norm(gy - mapping.y_base, axis=1) <= mapping.radius_y + 1e-12
    # return_counts takes the same sort path but skips np.ma.is_masked, whose
    # first call imports numpy.ma (about 1.1 MB held and 14 ms in a cold run)
    y_test = np.unique(gy[in_ball], axis=0, return_counts=True)[0]
    return pts, gy, gx_idx, y_test


def _distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of p and the rows of q.

    The squared coordinate differences are added into one len(p) x len(q)
    table one coordinate at a time, in coordinate order. Below 8
    coordinates numpy's pairwise sum adds in that order too, so the table
    has the bits of np.sqrt(((p[:, None] - q[None]) ** 2).sum(axis=2)); from
    8 coordinates on numpy keeps 8 partial sums and the last bit can differ.
    """
    out = np.subtract.outer(p[:, 0], q[:, 0])
    out *= out
    if p.shape[1] > 1:
        diff = np.empty_like(out)
        for j in range(1, p.shape[1]):
            np.subtract.outer(p[:, j], q[:, j], out=diff)
            diff *= diff
            out += diff
    return np.sqrt(out, out=out)


def _chunks(count: int, width: int):
    """Consecutive slices of range(count), each of at most
    TABLE_ENTRIES // width rows (at least one), so a table of that many rows
    and ``width`` columns stays within the cap."""
    step = max(1, TABLE_ENTRIES // max(1, width))
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def _run_starts(labels: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal labels."""
    change = np.empty(len(labels), dtype=bool)
    change[:1] = True
    np.not_equal(labels[1:], labels[:-1], out=change[1:])
    return np.flatnonzero(change)


def _fibre_blocks(pts, gy, gx_idx, y_test, width=0):
    """Yield (rows, d_y_fx, in_fibre, new) for blocks of consecutive test values.

    d_y_fx[r, i] is the distance from the test value y = y_test[rows][r] to
    the sampled values F(pts[i]), +inf when F(pts[i]) is empty, and pts[i]
    lies in the sampled fibre F^{-1}(y) when that distance is at most
    CHECK_RTOL * (1 + ||y||). Every test value is itself a graph value, so
    each fibre holds at least the point it came from. new[r] is False when
    the fibre of y equals that of the test value before it. A block is cut
    for tables as wide as the sampled values, the points or ``width``.
    """
    starts = _run_starts(gx_idx)
    owners = gx_idx[starts]
    last = None
    for rows in _chunks(len(y_test), max(len(gy), len(pts), width)):
        ys = y_test[rows]
        near = _distances(ys, gy)
        if starts.size < near.shape[1]:
            # a point with several values is as near as the nearest of them
            near = np.minimum.reduceat(near, starts, axis=1)
        if owners.size == len(pts):
            d_y_fx = near
        else:
            d_y_fx = np.full((len(ys), len(pts)), np.inf)
            d_y_fx[:, owners] = near
        in_fibre = d_y_fx <= (CHECK_RTOL * (1.0 + row_norms(ys)))[:, None]
        new = np.empty(len(ys), dtype=bool)
        new[0] = last is None or not np.array_equal(in_fibre[0], last)
        new[1:] = (in_fibre[1:] != in_fibre[:-1]).any(axis=1)
        last = in_fibre[-1].copy()
        yield rows, d_y_fx, in_fibre, new


def _fold_fibres(pts, labels, members, count):
    """d(x, fibre) for every grid point x and each of ``count`` fibres.

    ``members`` lists the members of consecutive fibres, fibre by fibre, and
    labels[k] is the fibre of members[k]. They are taken
    TABLE_ENTRIES // len(pts) at a time; the distances from each member to
    every point form one table whose rows are reduced per fibre by
    np.minimum and folded into that fibre's row. The minimum is exact, so
    the result does not depend on where a fibre is cut.
    """
    out = np.full((count, len(pts)), np.inf)
    for part in _chunks(len(members), len(pts)):
        lab = labels[part]
        starts = _run_starts(lab)
        rows = lab[starts]
        block = _distances(pts[members[part]], pts)
        if starts.size < block.shape[0]:
            block = np.minimum.reduceat(block, starts, axis=0)
        # only the first fibre of a part can have members in the part before
        if part.start and labels[part.start - 1] == rows[0]:
            np.minimum(block[0], out[rows[0]], out=block[0])
        out[rows] = block
    return out


def _first_max(ratios: np.ndarray) -> tuple[int, int, float]:
    """(row, column, value) of the first largest entry in row-major order,
    where a scan keeping each strict improvement ends; no ratio is NaN."""
    best = ratios.max(axis=1)
    r = int(np.argmax(best))
    return r, int(np.argmax(ratios[r])), float(best[r])


def _graph_scan(mapping: SampledMapping, grid, kappa=None):
    """One scan of the sampled graph for both verifiers: ((worst, witness),
    aubin).

    worst is the largest d(x, fib(y)) / d(y, F(x)), witness the first pair
    (x, y) in test-value order attaining it, with its first grid point. Test
    values come in blocks (_fibre_blocks); a fibre that repeats the one
    before it reuses its row of distances d(x, fib(y)), across a block
    boundary too, and _fold_fibres computes the others.

    aubin is None without ``kappa``. With it, a first pass lists the members
    of every fibre, blocks are cut so that the tables below fit the budget
    too, and far[b, a], the largest d(x, fib(y_b)) over the members x of
    fib(y_a), is read off each block's rows by np.maximum.reduceat. aubin is
    (ok, worst, witness): whether far[b, a] <= kappa ||y_a - y_b|| up to the
    check slack for all a != b, the largest such ratio, and (x, y_a, y_b)
    for the first pair in source-major (a, b) order attaining it, with the
    first member x of fib(y_a) that does.
    """
    pts, gy, gx_idx, y_test = _sample_graph(mapping, grid)
    n_test, dim = y_test.shape
    width = 0
    if kappa is not None:
        # fib(y_a) is members[bounds[a]:bounds[a + 1]]
        packed = bytearray()
        sizes = np.empty(n_test, dtype=np.intp)
        for rows, _, in_fibre, _ in _fibre_blocks(pts, gy, gx_idx, y_test):
            packed += (np.flatnonzero(in_fibre) % len(pts)).tobytes()
            sizes[rows] = in_fibre.sum(axis=1)
        members = np.frombuffer(packed, dtype=np.intp)
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        # n_test * dim, not n_test: a block's tables live at once, and cut at
        # n_test, grid 101 of linear.json peaks past the 2 MB memory test
        width = max(members.size, n_test * dim)
        ok, a_worst, a_witness, a_src = True, 0.0, (), n_test
    worst = 0.0
    witness = ()
    last = None
    for rows, d_y_fx, in_fibre, new in _fibre_blocks(pts, gy, gx_idx, y_test,
                                                     width):
        ys = y_test[rows]
        fib, fib_members = np.divmod(np.flatnonzero(in_fibre[new]), len(pts))
        dist = _fold_fibres(pts, fib, fib_members, int(new.sum()))
        if not new[0]:
            dist = np.concatenate([last[None], dist])
        d_x_fib = dist[np.cumsum(new) - new[0]]
        last = d_x_fib[-1].copy()
        # d(y, F(x)) = 0 puts x in the fibre, at distance 0 from it, so a
        # zero denominator never meets a positive numerator: its ratio is
        # d(x, fib(y)) / inf = 0.
        ratios = np.where(d_y_fx > 0, d_y_fx, np.inf)
        np.divide(d_x_fib, ratios, out=ratios)
        r, j, value = _first_max(ratios)
        if value > worst:
            worst = value
            witness = (pts[j], ys[r])
        if kappa is None:
            continue
        far = d_x_fib[:, members]
        if members.size > n_test:  # some fibre has several members
            far = np.maximum.reduceat(far, bounds[:-1], axis=1)
        gap = _distances(ys, y_test)
        # gap 0 only at y_b itself: the test values are distinct
        valid = gap > 0.0
        ratios = np.divide(far, gap, out=np.full(gap.shape, -np.inf),
                           where=valid)
        a, r, value = _first_max(ratios.T)
        # blocks run over y_b, so a tie goes to the earlier source
        if value > a_worst or (value == a_worst and a_witness and a < a_src):
            x = members[bounds[a]:bounds[a + 1]]
            a_worst, a_src = value, a
            a_witness = (pts[x[int(np.argmax(d_x_fib[r, x]))]], y_test[a], ys[r])
        if ok and np.any(valid & (far > kappa * gap * (1.0 + CHECK_RTOL)
                                  + CHECK_ATOL)):
            ok = False
    return (worst, witness), None if kappa is None else (ok, a_worst, a_witness)


def sampled_reg(mapping: SampledMapping, grid=11) -> ModulusEstimate:
    """Worst sampled regularity ratio over the grid graph."""
    (worst, witness), _ = _graph_scan(mapping, grid)
    return ModulusEstimate(kind="reg-sampled", value=worst,
                           radius=mapping.radius_x, witness=witness)


def _check_kappa(kappa: float):
    if not kappa > 0:
        raise ContractError(f"kappa must be positive, got {kappa}")
    if not np.isfinite(kappa):
        raise ContractError(f"kappa must be finite, got {kappa}")


def regularity_report(estimate: ModulusEstimate, kappa: float) -> CheckReport:
    """Metric-regularity verdict for kappa on a sampled_reg estimate.

    Lets a caller that derives kappa from the sampled modulus itself judge
    it without scanning the graph a second time.
    """
    _check_kappa(kappa)
    worst = estimate.value
    ok = worst <= kappa * (1.0 + CHECK_RTOL) + CHECK_ATOL
    return CheckReport(kind="metric-regularity", ok=bool(ok), kappa=kappa,
                       worst_ratio=worst, witness=estimate.witness,
                       detail=f"worst ratio {worst:.6g} vs kappa {kappa:.6g}")


def verify_metric_regularity(mapping: SampledMapping, kappa: float,
                             grid=11) -> CheckReport:
    """Check d(x, F^{-1}(y)) <= kappa d(y, F(x)) on the sampled graph.

    x runs over the domain grid ball, y over graph values inside the image
    ball; inverse images are reconstructed from the sampled graph. The
    comparison carries a 1e-9 relative slack for grid roundoff.
    """
    return regularity_report(sampled_reg(mapping, grid), kappa)


def verify_graph(mapping: SampledMapping, kappa: float,
                 grid=11) -> tuple[CheckReport, CheckReport]:
    """Metric regularity of F and the Aubin property of F^{-1} with the
    constant kappa, from one sampling and one scan of the graph.

    Returns the reports of verify_metric_regularity and verify_aubin, which
    read the same rows d(x, F^{-1}(y)) (_graph_scan). kappa is checked
    before the graph is sampled.
    """
    _check_kappa(kappa)
    (worst, witness), (ok, a_worst, a_witness) = _graph_scan(mapping, grid,
                                                             kappa)
    estimate = ModulusEstimate(kind="reg-sampled", value=worst,
                               radius=mapping.radius_x, witness=witness)
    aubin = CheckReport(kind="aubin", ok=bool(ok), kappa=kappa,
                        worst_ratio=a_worst, witness=a_witness,
                        detail=f"worst ratio {a_worst:.6g} vs kappa {kappa:.6g}")
    return regularity_report(estimate, kappa), aubin


def verify_aubin(mapping: SampledMapping, kappa: float, grid=11) -> CheckReport:
    """Check the Aubin inequality for the inverse of the sampled graph.

    For sampled values y, y' and x in F^{-1}(y') inside the domain ball,
    requires d(x, F^{-1}(y)) <= kappa ||y' - y||. Equivalent to
    verify_metric_regularity with the same constant on the same graph, and
    read off the same distance rows: the excess of fib(y') over fib(y) is
    the largest d(x, F^{-1}(y)) over the members x of fib(y')
    (_graph_scan, through verify_graph).

    Ties resolve as in a scan of the pairs (y', y) in the order of the test
    values: the witness (x, y', y) is the first pair attaining the worst
    ratio, with the first x of its source fibre attaining it. Gaps
    ||y' - y|| have the bits of _distances, as all distances of the scan, so
    ratios and witnesses are those of that pair scan bit for bit.
    """
    return verify_graph(mapping, kappa, grid)[1]


def lg_bound_check(op, g: Callable, center, kappa: float, lam: float,
                   radius: float = 0.5, grid=11, samples: int = 600,
                   seed: int = 0) -> tuple[CheckReport, ModulusEstimate]:
    """Perturbation bound check for a linear map plus a Lipschitz term.

    ``op`` is a matrix, or an AffineSet whose operator is read without
    another SVD. Preconditions: reg_linear(op) < kappa and sampled lip of
    g < lam < 1/kappa. Samples the regularity ratio of x -> op x + g(x)
    around the center and compares it against (1/kappa - lam)^{-1} + 1e-6.
    """
    if not isinstance(op, convex.AffineSet):
        rows = as_matrix(op).shape[0]
        op = convex.AffineSet(op, np.zeros(rows))
    m = op.op
    center = as_vector(center, dim=m.shape[1])
    reg0 = reg_linear(op)
    if not reg0 < kappa:
        raise ContractError(
            f"kappa: need reg_linear(op) < kappa, got {reg0:.6g} >= {kappa:.6g}")
    if not lam < 1.0 / kappa:
        raise ContractError(
            f"lambda: need lam < 1/kappa, got {lam:.6g} >= {1.0 / kappa:.6g}")
    lip = lip_estimate(g, center, radius, samples=samples, seed=seed)
    if not lip.value < lam:
        raise ContractError(
            f"lambda: sampled lip {lip.value:.6g} is not below lam {lam:.6g}")

    def forward(x):
        return m @ x + as_vector(g(x), dim=m.shape[0])

    y_center = forward(center)
    image_radius = (op.sigma_max + lam) * radius + 1e-9
    mapping = SampledMapping(forward=forward, x_base=center, y_base=y_center,
                             radius_x=radius, radius_y=image_radius)
    (measured, witness), _ = _graph_scan(mapping, grid)
    bound = 1.0 / (1.0 / kappa - lam)
    ok = measured <= bound + 1e-6
    report = CheckReport(
        kind="perturbation-bound", ok=bool(ok), kappa=kappa,
        worst_ratio=measured, witness=witness,
        detail=f"sampled reg {measured:.6g} vs bound {bound:.6g}")
    return report, lip


# ---------------------------------------------------------------------------
# lower-semicontinuity probes


def counterexample_mapping(y: float, k_max: int) -> np.ndarray:
    """Values {y} united with {y + 1/k : 0 < |k| <= k_max}, sorted."""
    if k_max < 1:
        raise ContractError(f"k_max must be >= 1, got {k_max}")
    ks = np.arange(1, k_max + 1, dtype=float)
    offsets = np.concatenate([[0.0], 1.0 / ks, -1.0 / ks])
    return np.sort(float(y) + offsets)


def truncated_counterexample() -> Callable:
    """Box truncation of the branch-union mapping, as a set map for probes.

    Returns a callable y -> 2-D array of value rows: the branches up to
    k = 40 with |x| <= 0.05, empty outside |y| <= 0.1. The truncation
    removes the branch that would provide nearby values, which kills lower
    semicontinuity at the top edge.
    """

    def set_map(y):
        yv = float(np.atleast_1d(np.asarray(y, dtype=float))[0])
        if abs(yv) > 0.1:
            return np.zeros((0, 1))
        vals = counterexample_mapping(yv, 40)
        vals = vals[np.abs(vals) <= 0.05]
        return vals.reshape(-1, 1)

    return set_map


@dataclass
class LscProbeReport:
    verdict: str
    witness_x: np.ndarray
    distances: list = field(default_factory=list)

    @property
    def violated(self) -> bool:
        return self.verdict == "lsc-violated"


def _set_distance(value_set, x: np.ndarray) -> float:
    if isinstance(value_set, convex.ConvexSet):
        return value_set.distance(x)
    arr = np.asarray(value_set, dtype=float)
    if arr.size == 0:
        return float("inf")
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1) if x.size == 1 else arr.reshape(1, -1)
    return float(np.linalg.norm(arr - x, axis=1).min())


def lsc_probe(set_map: Callable, at: tuple, approach: Sequence) -> LscProbeReport:
    """Probe lower semicontinuity of a set map along an approach sequence.

    ``at`` is a pair (y, x) with x in set_map(y) up to 1e-9. The verdict is
    lsc-violated when every distance beyond the first three steps stays above
    LSC_FLOOR while the sequence has converged (last step within
    LSC_TAIL_TOL of y); anything else is lsc-consistent. The probe reports
    distances either way and never raises on empty value sets (their
    distance is +inf).
    """
    y, x = at
    y = as_vector(y)
    x = as_vector(x)
    base_gap = _set_distance(set_map(y), x)
    if not base_gap <= 1e-9:
        raise ContractError(
            f"probe point is not in set_map(y): distance {base_gap:.3e}")
    approach = [as_vector(p, dim=y.size) for p in approach]
    if not approach:
        raise ContractError("approach sequence is empty")
    distances = [_set_distance(set_map(p), x) for p in approach]
    tail_converged = np.linalg.norm(approach[-1] - y) <= LSC_TAIL_TOL
    tail = distances[3:]
    violated = bool(tail) and tail_converged and all(d > LSC_FLOOR for d in tail)
    return LscProbeReport(
        verdict="lsc-violated" if violated else "lsc-consistent",
        witness_x=x, distances=distances)
