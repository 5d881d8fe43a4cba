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
axis and rebuild the fibres F^{-1}(y) with one membership rule (_fibres).
The metric-regularity scan takes one test value y at a time against every
grid point; consecutive test values with the same fibre share one distance
table. The Aubin scan takes one source fibre at a time against every
target fibre in a single vectorised step, so its Python loop runs over
fibres, not over pairs of values; its temporaries stay of the order of
|fibre| x (grid points) x dim, and it breaks ties as a pair-by-pair scan
would: the first pair in the order of the test values wins.
"""

from __future__ import annotations

import math
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


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real vector; the same bits as np.linalg.norm."""
    return math.sqrt(v.dot(v))


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
                n = _norm(delta)
                pair[k] = p if n <= radius else center + delta * (radius / n)
        else:
            # a uniform point: a normal direction at radius * u^(1/d)
            for k in ends:
                v = normal(d)
                n = _norm(v)
                pair[k] = center + radius * uniform() ** inv_d * (v / n if n > 0 else axis)
        x, xp = pair
        gap = _norm(x - xp)
        if gap < min_gap:
            continue
        q = _norm(as_vector(f(x)) - (fc if anchored else as_vector(f(xp)))) / gap
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
    list of vectors, or a 2-D array of stacked rows). ``radius_x`` bounds the
    sampled domain ball, ``radius_y`` the image ball used for test values.
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
        gap = min(np.linalg.norm(v - self.y_base) for v in vals)
        if gap > 1e-12:
            raise ContractError(
                f"base point is not on the graph (gap {gap:.3e})")

    def values_at(self, x) -> list[np.ndarray]:
        out = self.forward(np.asarray(x, dtype=float))
        if isinstance(out, np.ndarray):
            if out.ndim <= 1:
                return [as_vector(out, dim=self.y_base.size)]
            return [as_vector(row, dim=self.y_base.size) for row in out]
        if np.isscalar(out):
            return [as_vector(out, dim=self.y_base.size)]
        vals = [as_vector(v, dim=self.y_base.size) for v in out]
        if not vals:
            raise ShapeError("forward oracle returned no values")
        return vals


def _sample_graph(mapping: SampledMapping, grid: int):
    """Graph of the mapping on ``grid`` points per axis of the domain ball."""
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
    gx_idx, gy = [], []
    for i, x in enumerate(pts):
        for v in mapping.values_at(x):
            gx_idx.append(i)
            gy.append(v)
    gy = np.array(gy)
    gx_idx = np.array(gx_idx, dtype=int)
    in_ball = np.linalg.norm(gy - mapping.y_base, axis=1) <= mapping.radius_y + 1e-12
    y_test = np.unique(gy[in_ball], axis=0)
    return pts, gy, gx_idx, y_test


def _distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of p and the rows of q."""
    dists = ((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=2)
    return np.sqrt(dists, out=dists)


def _fibres(pts, gy, gx_idx, y_test):
    """Yield (y, d_y_fx, in_fibre) for each test value y, in order.

    d_y_fx[i] is the distance from y to the sampled values F(pts[i]), and
    pts[i] lies in the sampled fibre F^{-1}(y) when that distance is at most
    CHECK_RTOL * (1 + ||y||). Every test value is itself a graph value, so
    each fibre holds at least the point it came from.
    """
    n_pts = pts.shape[0]
    for y in y_test:
        dist_rows = np.linalg.norm(gy - y, axis=1)
        d_y_fx = np.full(n_pts, np.inf)
        np.minimum.at(d_y_fx, gx_idx, dist_rows)
        match_tol = CHECK_RTOL * (1.0 + np.linalg.norm(y))
        yield y, d_y_fx, d_y_fx <= match_tol


def _ratio_scan(mapping: SampledMapping, grid):
    """Worst d(x, fib(y)) / d(y, F(x)) over the sampled graph, with witness."""
    pts, gy, gx_idx, y_test = _sample_graph(mapping, grid)
    worst = 0.0
    witness = ()
    prev_fibre = None
    for y, d_y_fx, in_fibre in _fibres(pts, gy, gx_idx, y_test):
        if not in_fibre.any():
            # y came from the graph, so this cannot happen; guard anyway.
            finite = np.isfinite(d_y_fx) & (d_y_fx > 0)
            j = int(np.argmin(np.where(finite, d_y_fx, np.inf)))
            return float("inf"), (pts[j], y)
        # Near-equal test values sort next to each other and often have the
        # same fibre; its distance table is then that of the last one.
        if prev_fibre is None or not np.array_equal(in_fibre, prev_fibre):
            d_x_fib = _distances(pts, pts[in_fibre]).min(axis=1)
            prev_fibre = in_fibre
        denom = np.where(d_y_fx > 0, d_y_fx, np.inf)
        ratios = d_x_fib / denom
        bad_zero = (d_y_fx == 0) & (d_x_fib > 0)
        if np.any(bad_zero):
            j = int(np.argmax(bad_zero))
            return float("inf"), (pts[j], y)
        j = int(np.argmax(ratios))
        if ratios[j] > worst:
            worst = float(ratios[j])
            witness = (pts[j], y)
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

    Fibres come from the same membership rule as sampled_reg. The scan
    loops over source fibres F^{-1}(y') only and treats every target y at
    once: the distances from the source fibre to the points that lie in
    any fibre are gathered in fibre order and reduced to d(x, F^{-1}(y))
    for all y by one np.minimum.reduceat. A step holds |F^{-1}(y')| times
    (fibre points x dim, then fibre memberships) floats, the order of one
    sampled_reg step; no point-by-point or value-by-point table is built.

    Ties resolve as in a scan of the pairs (y', y) in the order of the test
    values: the witness (x, y', y) is the first pair attaining the worst
    ratio, with the first x of its source fibre attaining it. Gaps
    ||y' - y|| go through the dot kernel of np.linalg.norm, so ratios and
    witnesses are those of that pair scan bit for bit.
    """
    _check_kappa(kappa)
    pts, gy, gx_idx, y_test = _sample_graph(mapping, grid)
    members = [np.flatnonzero(in_fibre)
               for _, _, in_fibre in _fibres(pts, gy, gx_idx, y_test)]
    starts = np.cumsum([0] + [m.size for m in members[:-1]])
    # Near-equal test values share members, so distances are taken to each
    # member point once and gathered into fibre order.
    used, member_cols = np.unique(np.concatenate(members), return_inverse=True)
    used_pts = pts[used]
    worst = 0.0
    witness = ()
    ok = True
    prev_idx = None
    for y_from, idx in zip(y_test, members):
        fib_from = pts[idx]
        # Near-equal values sort next to each other and often have the same
        # fibre; its distances to the targets are then those of the last one.
        if prev_idx is None or not np.array_equal(idx, prev_idx):
            d_to = np.minimum.reduceat(
                _distances(fib_from, used_pts)[:, member_cols], starts, axis=1)
            j = np.argmax(d_to, axis=0)
            d_far = d_to.max(axis=0)
            prev_idx = idx
        gap_y = row_norms(y_from - y_test)
        # gap 0 only at y' itself: the test values are distinct
        valid = gap_y > 0.0
        ratios = np.divide(d_far, gap_y, out=np.full(gap_y.shape, -np.inf),
                           where=valid)
        b = int(np.argmax(ratios))
        if ratios[b] > worst:
            worst = float(ratios[b])
            witness = (fib_from[j[b]], y_from, y_test[b])
        if np.any(valid & (d_far > kappa * gap_y * (1.0 + CHECK_RTOL)
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
