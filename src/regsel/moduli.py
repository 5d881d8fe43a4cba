"""Sampled moduli and regularity verifiers.

Three kinds of quantities live here:

* exact regularity constants for linear operators (from the SVD),
* sampled Lipschitz / calmness moduli for black-box function oracles,
* brute-force verifiers for the distance inequalities that define metric
  regularity and the Aubin property on grid-sampled graphs.

The sampled estimators interleave uniform exploration with shrinking-scale
refinement around the incumbent maximizer, so for a fixed seed the estimate
is nondecreasing in the sample budget and converges to the exact operator
norm on linear oracles.

Both verifiers sample the graph once on a grid of at least 2 points per
axis and work on blocked distance tables, with no Python loop per test
value:

* Fibre membership for a block of consecutive test values y is one table
  of distances to every sampled value, reduced to d(y, F(x)) per grid point
  by np.minimum.reduceat; x lies in the fibre F^{-1}(y) when that distance
  is at most CHECK_RTOL * (1 + ||y||), and a point with no values is at
  distance +inf.
* d(x, F^{-1}(y)) comes from one table between the stacked members of the
  block's distinct fibres and the grid points (metric regularity), or the
  points that lie in some fibre (Aubin), reduced per fibre by
  np.minimum.reduceat; the Aubin scan then takes the worst member of each
  source fibre with np.maximum.reduceat. A fibre equal to the one before it
  reuses its distances.
* No table holds more than TABLE_ENTRIES float64 entries unless a single
  row is wider; blocks of test values, source values and fibre members are
  cut to fit, so the tables do not grow with the grid.

_distances adds squared coordinate differences in coordinate order, which
below 8 coordinates is numpy's own summation order, and min and max are
exact. Every ratio, verdict and witness is therefore that of a scan of one
test value at a time, ties included: the first pair in test-value order
attaining the worst ratio, with the first grid point that attains it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import convex
from .errors import ContractError
from .linalg import SvdFactorization, as_matrix, as_vector, norm, row_norms, svd

# Relative slack used when comparing sampled distances against kappa times
# sampled distances; absorbs roundoff in grid arithmetic.
CHECK_RTOL = 1e-9
CHECK_ATOL = 1e-15

# lsc_probe: the distance floor its converged tail must stay above, and how
# close the last approach step must come to the probed value
LSC_FLOOR = 1e-3
LSC_TAIL_TOL = 1e-6

# Float64 entries in any one table the graph verifiers build: blocks of test
# values, source values and fibre members are cut to fit, so the tables of a
# scan do not grow with the grid. A table keeps at least one row, so a single
# row wider than this (one value against more points or values) exceeds it.
TABLE_ENTRIES = 1 << 14


def fmt_float(x: float) -> str:
    """17 significant digits; round-trips float64 exactly."""
    return format(float(x), ".17g")


def _fmt_witness(witness: tuple) -> str:
    groups = []
    for w in witness:
        arr = np.atleast_1d(np.asarray(w, dtype=float))
        groups.append(" ".join(fmt_float(v) for v in arr))
    return ";".join(groups)


CSV_HEADER = "kind,value,radius,samples,seed,verdict,witness"


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
        return ",".join([
            self.kind,
            fmt_float(self.value),
            fmt_float(self.radius) if np.isfinite(self.radius) else "",
            str(self.samples) if self.samples else "",
            str(self.seed),
            "",
            _fmt_witness(self.witness),
        ])


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
        return ",".join([
            self.kind,
            fmt_float(self.worst_ratio),
            "",
            "",
            "",
            "pass" if self.ok else "fail",
            _fmt_witness(self.witness),
        ])


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


# Refinement scales cycle through powers of two so there is always a batch of
# proposals at the length scale matching the incumbent's remaining error.
_SCALE_CYCLE = 28

# Difference quotients over gaps below this fraction of the radius are
# dominated by cancellation noise in f(x) - f(x') and can overshoot the true
# modulus, so such pairs are skipped.
_MIN_GAP_FRAC = 1e-7


def _refine_steps(radius: float) -> list[float]:
    """Proposal step lengths, radius * 2^-k for each k of the scale cycle."""
    return [2.0 ** (-k) * radius for k in range(_SCALE_CYCLE)]


def _sup_quotient(f, center, radius, samples, seed, anchored):
    """sup ||f(x)-f(x')|| / ||x-x'|| over sampled pairs in a ball.

    With ``anchored`` the second point is always the center, whose value is
    evaluated once, and a draw or refinement moves the first point only;
    otherwise both points are drawn and refined. The witness is the best
    pair, or the center alone (twice when not anchored) if every sample
    fell below the gap floor.
    """
    rng = np.random.default_rng(seed)
    normal, uniform = rng.standard_normal, rng.random
    fc = as_vector(f(center)) if anchored else None
    d = center.size
    inv_d = 1.0 / d
    axis = np.eye(d)[0]
    ends = range(1 if anchored else 2)
    steps = _refine_steps(radius)
    min_gap = _MIN_GAP_FRAC * radius
    best_q = -np.inf
    best_pair = None
    for i in range(samples):
        pair = [center, center]
        if i % 3 != 0 and best_pair is not None:
            # a step from the incumbent, clipped back onto the ball
            step = steps[(i // 3) % _SCALE_CYCLE]
            for k in ends:
                p = best_pair[k] + step * normal(d)
                delta = p - center
                n = norm(delta)
                pair[k] = p if n <= radius else center + delta * (radius / n)
        else:
            # a uniform point: a normal direction at radius * u^(1/d)
            for k in ends:
                v = normal(d)
                n = norm(v)
                pair[k] = center + radius * uniform() ** inv_d * (v / n if n > 0 else axis)
        x, xp = pair
        gap = norm(x - xp)
        if gap < min_gap:
            continue
        q = norm(as_vector(f(x)) - (fc if anchored else as_vector(f(xp)))) / gap
        if q > best_q:
            best_q, best_pair = q, (x, xp)
    if best_pair is None:
        return 0.0, (center,) if anchored else (center, center)
    return float(best_q), best_pair


def lip_estimate(f: Callable, center, radius: float, samples: int = 3000,
                 seed: int = 0) -> ModulusEstimate:
    """Sampled Lipschitz modulus of ``f`` on the closed ball around center.

    The pair sample always includes the center-anchored stream used by
    clm_estimate with the same seed, so lip_estimate(...) >= clm_estimate(...)
    holds exactly, not just in the limit.
    """
    center = as_vector(center)
    if not radius > 0:
        raise ContractError(f"radius must be positive, got {radius}")
    if samples < 1:
        raise ContractError("samples must be >= 1")
    q_pair, wit_pair = _sup_quotient(f, center, radius, samples, seed, anchored=False)
    q_clm, wit_clm = _sup_quotient(f, center, radius, samples, seed, anchored=True)
    if q_clm > q_pair:
        q_pair, wit_pair = q_clm, wit_clm
    return ModulusEstimate(kind="lip", value=q_pair, radius=radius,
                           samples=samples, seed=seed, witness=wit_pair)


def clm_estimate(f: Callable, center, radius: float, samples: int = 3000,
                 seed: int = 0) -> ModulusEstimate:
    """Sampled calmness modulus: difference quotients anchored at center."""
    center = as_vector(center)
    if not radius > 0:
        raise ContractError(f"radius must be positive, got {radius}")
    if samples < 1:
        raise ContractError("samples must be >= 1")
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
    y_test = np.unique(gy[in_ball], axis=0)
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


def _fibre_blocks(pts, gy, gx_idx, y_test):
    """Yield (rows, d_y_fx, in_fibre, new) for blocks of consecutive test values.

    d_y_fx[r, i] is the distance from the test value y = y_test[rows][r] to
    the sampled values F(pts[i]), +inf when F(pts[i]) is empty, and pts[i]
    lies in the sampled fibre F^{-1}(y) when that distance is at most
    CHECK_RTOL * (1 + ||y||). Every test value is itself a graph value, so
    each fibre holds at least the point it came from. new[r] is False when
    the fibre of y equals that of the test value before it.
    """
    starts = _run_starts(gx_idx)
    owners = gx_idx[starts]
    last = None
    for rows in _chunks(len(y_test), max(len(gy), len(pts))):
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


def _fold_fibres(out, labels, members, width, table, reduce):
    """Reduce a per-member table into one row per fibre of ``out``.

    ``members`` lists the members of consecutive fibres, fibre by fibre, and
    labels[k] is the fibre of members[k]. They are taken TABLE_ENTRIES //
    width at a time; table(members) gives one row per member, and each
    fibre's rows are reduced by ``reduce`` (np.minimum or np.maximum) and
    folded into its row of ``out``. Both reductions are exact, so the result
    does not depend on where a fibre is cut. Rows of ``out`` that no member
    reaches keep their values.
    """
    for part in _chunks(len(members), width):
        lab = labels[part]
        starts = _run_starts(lab)
        rows = lab[starts]
        block = table(members[part])
        if starts.size < block.shape[0]:
            block = reduce.reduceat(block, starts, axis=0)
        # only the first fibre of a part can have members in the part before
        if part.start and labels[part.start - 1] == rows[0]:
            reduce(block[0], out[rows[0]], out=block[0])
        out[rows] = block
    return out


def _first_max(ratios: np.ndarray) -> tuple[int, int, float]:
    """(row, column, value) that a row-by-row scan keeping the first strict
    improvement of each row's first maximum would end on.

    A row whose maximum is NaN is passed over, as ``value > worst`` passes
    it over.
    """
    cols = np.argmax(ratios, axis=1)
    best = ratios[np.arange(len(cols)), cols]
    best[np.isnan(best)] = -np.inf
    r = int(np.argmax(best))
    return r, int(cols[r]), float(best[r])


def _spans(starts: np.ndarray, sizes: np.ndarray):
    """The ranges [starts[k], starts[k] + sizes[k]) laid end to end: (the
    range each position comes from, the positions)."""
    labels = np.repeat(np.arange(sizes.size), sizes)
    offsets = starts - (np.cumsum(sizes) - sizes)
    return labels, np.arange(labels.size) + offsets[labels]


def _ratio_scan(mapping: SampledMapping, grid):
    """Worst d(x, fib(y)) / d(y, F(x)) over the sampled graph, with witness.

    Test values are taken in blocks (_fibre_blocks). A fibre that repeats
    the one before it, across a block boundary too, reuses its distances;
    the others are computed by _fold_fibres. The witness is the first pair
    in test-value order attaining the worst ratio, and its first grid point.
    """
    pts, gy, gx_idx, y_test = _sample_graph(mapping, grid)
    worst = 0.0
    witness = ()
    last = None
    for rows, d_y_fx, in_fibre, new in _fibre_blocks(pts, gy, gx_idx, y_test):
        ys = y_test[rows]
        fib, members = np.divmod(np.flatnonzero(in_fibre[new]), len(pts))
        dist = _fold_fibres(np.full((int(new.sum()), len(pts)), np.inf), fib,
                            members, len(pts), lambda m: _distances(pts[m], pts),
                            np.minimum)
        if not new[0]:
            dist = np.concatenate([last[None], dist])
        d_x_fib = dist[np.cumsum(new) - new[0]]
        last = d_x_fib[-1].copy()
        empty = ~in_fibre.any(axis=1)
        if empty.any():
            # y came from the graph, so this cannot happen; guard anyway.
            r = int(np.argmax(empty))
            d = d_y_fx[r]
            j = int(np.argmin(np.where(np.isfinite(d) & (d > 0), d, np.inf)))
            return float("inf"), (pts[j], ys[r])
        # d(y, F(x)) = 0 puts x in the fibre, at distance 0 from it, so a
        # zero denominator never meets a positive numerator: its ratio is
        # d(x, fib(y)) / inf = 0.
        ratios = np.where(d_y_fx > 0, d_y_fx, np.inf)
        np.divide(d_x_fib, ratios, out=ratios)
        r, j, value = _first_max(ratios)
        if value > worst:
            worst = value
            witness = (pts[j], ys[r])
    return worst, witness


def sampled_reg(mapping: SampledMapping, grid=11) -> ModulusEstimate:
    """Worst sampled regularity ratio over the grid graph."""
    worst, witness = _ratio_scan(mapping, grid)
    return ModulusEstimate(kind="reg-sampled", value=worst,
                           radius=mapping.radius_x, witness=witness)


def _check_kappa(kappa: float):
    if not kappa > 0:
        raise ContractError(f"kappa must be positive, got {kappa}")


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


def verify_aubin(mapping: SampledMapping, kappa: float, grid=11) -> CheckReport:
    """Check the Aubin inequality for the inverse of the sampled graph.

    For sampled values y, y' and x in F^{-1}(y') inside the domain ball,
    requires d(x, F^{-1}(y)) <= kappa ||y' - y||. Equivalent to
    verify_metric_regularity with the same constant on the same graph.

    Fibres come from the same membership rule as sampled_reg; a first pass
    over blocks of test values lists the members of every fibre. Source
    values y' are then taken in blocks. For the distinct fibres of a block,
    the distances from their members to every point that lies in some fibre
    form one table; it is gathered into target-fibre order, reduced to
    d(x, F^{-1}(y)) for every target y by np.minimum.reduceat, and reduced
    to the farthest x of each source fibre by np.maximum.reduceat over that
    fibre's rows (_fold_fibres). A source fibre equal to the one before it
    is not recomputed, and no table exceeds TABLE_ENTRIES entries.

    Ties resolve as in a scan of the pairs (y', y) in the order of the test
    values: the witness (x, y', y) is the first pair attaining the worst
    ratio, with the first x of its source fibre attaining it. Gaps
    ||y' - y|| go through the dot kernel of np.linalg.norm, so ratios and
    witnesses are those of that pair scan bit for bit.
    """
    _check_kappa(kappa)
    pts, gy, gx_idx, y_test = _sample_graph(mapping, grid)
    n_test, dim = y_test.shape
    # the fibre of test value a is members[bounds[a]:bounds[a + 1]]
    packed = bytearray()
    sizes = np.empty(n_test, dtype=np.int64)
    new = np.empty(n_test, dtype=bool)
    for rows, _, in_fibre, fresh in _fibre_blocks(pts, gy, gx_idx, y_test):
        cols = np.flatnonzero(in_fibre) % len(pts)
        packed += cols.astype(np.int64, copy=False).tobytes()
        sizes[rows] = in_fibre.sum(axis=1)
        new[rows] = fresh
    members = np.frombuffer(packed, dtype=np.int64)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    # Near-equal test values share members, so distances are taken to each
    # member point once and gathered into fibre order.
    used, member_cols = np.unique(members, return_inverse=True)
    used_pts = pts[used]

    def d_to_targets(sources):
        d = _distances(pts[sources], used_pts)[:, member_cols]
        if n_test < d.shape[1]:
            d = np.minimum.reduceat(d, bounds[:-1], axis=1)
        return d

    # test value a has the distinct fibre fibre_of[a], first seen at
    # test value first_of[fibre_of[a]]
    fibre_of = np.cumsum(new) - 1
    first_of = np.flatnonzero(new)
    worst = 0.0
    witness = ()
    ok = True
    last_id, last_far = -1, None
    for rows in _chunks(n_test, n_test * dim):
        ids = fibre_of[rows]
        reuse = ids[0] == last_id
        src = first_of[ids[0] + reuse:ids[-1] + 1]
        labels, pos = _spans(bounds[src], sizes[src])
        far = _fold_fibres(np.full((src.size, n_test), -np.inf), labels,
                           members[pos], len(members), d_to_targets, np.maximum)
        if reuse:
            far = np.concatenate([last_far[None], far])
        d_far = far[ids - ids[0]]
        last_id, last_far = ids[-1], d_far[-1].copy()
        ys = y_test[rows]
        gap_y = row_norms((ys[:, None, :] - y_test).reshape(-1, dim))
        gap_y = gap_y.reshape(len(ys), n_test)
        # gap 0 only at y' itself: the test values are distinct
        valid = gap_y > 0.0
        ratios = np.divide(d_far, gap_y, out=np.full(gap_y.shape, -np.inf),
                           where=valid)
        r, b, value = _first_max(ratios)
        if value > worst:
            # the witness x: the first member of the source fibre as far
            # from the target fibre as d_far says
            a = rows.start + r
            fib_from = pts[members[bounds[a]:bounds[a + 1]]]
            fib_to = pts[members[bounds[b]:bounds[b + 1]]]
            d_x = np.concatenate([_distances(fib_from[part], fib_to).min(axis=1)
                                  for part in _chunks(len(fib_from), len(fib_to))])
            worst = value
            witness = (fib_from[int(np.argmax(d_x))], ys[r], y_test[b])
        if ok and np.any(valid & (d_far > kappa * gap_y * (1.0 + CHECK_RTOL)
                                  + CHECK_ATOL)):
            ok = False
    return CheckReport(kind="aubin", ok=bool(ok), kappa=kappa,
                       worst_ratio=worst, witness=witness,
                       detail=f"worst ratio {worst:.6g} vs kappa {kappa:.6g}")


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
    measured, witness = _ratio_scan(mapping, grid)
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
