"""Iterated truncated projections for generalized equations.

Solves y in g(x) + F(x) near a base pair, where F^{-1} is available as a
convex-set oracle and g is a Lipschitz perturbation. Each step projects the
current iterate onto the inverse image of the corrected target, truncated to
a ball around that iterate whose radius shrinks geometrically; the
truncation radii are what certify that the returned selection is calm with
an explicit constant.

Because the ball is centred at the point being projected, the truncated
projection needs no iteration against the ball: for a closed convex fibre A,
the projection of c onto A ∩ B(c, r) is P_A(c) when d(c, A) <= r, and the
intersection is empty otherwise. Each step therefore projects onto the
fibre and compares the measured distance with the allowed radius.

A base point with g(x_base) != 0 is handled by shifting the query, so the
solved inclusion is always stated at (x_base, y_base + g(x_base)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .convex import ConvexSet
from .errors import (ContractError, InfeasibilitySuspectedError, LocalityError,
                     NumericBreakdownError, RegularityError)
from .linalg import as_vector, norm

# Default margins of kappa over a regularity modulus, lambda over a sampled lip
KAPPA_MARGIN = 1.1
LAMBDA_MARGIN = 1.2


@dataclass
class IterationConfig:
    """Constants driving the iteration.

    kappa bounds the regularity modulus of the linear part, lam the
    Lipschitz modulus of the perturbation, alpha sits strictly between kappa
    and 1/lam. tol is the stopping threshold on step lengths.
    """

    kappa: float
    lam: float
    alpha: float
    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        for name, value in (("kappa", self.kappa), ("lambda", self.lam),
                            ("alpha", self.alpha), ("tol", self.tol)):
            if not np.isfinite(value):
                raise ContractError(f"{name} must be finite, got {value}")
        if not self.kappa > 0:
            raise ContractError(f"kappa must be positive, got {self.kappa}")
        if self.lam < 0:
            raise ContractError(f"lambda must be >= 0, got {self.lam}")
        if not self.alpha > self.kappa:
            raise ContractError(
                f"alpha must exceed kappa, got alpha={self.alpha} kappa={self.kappa}")
        if self.lam > 0 and not self.alpha < 1.0 / self.lam:
            raise ContractError(
                f"alpha must stay below 1/lambda, got alpha={self.alpha} "
                f"1/lambda={1.0 / self.lam}")
        if not self.kappa * self.lam < 1.0:
            raise ContractError(
                f"kappa*lambda must be < 1, got {self.kappa * self.lam}")
        if not self.alpha * self.lam < 1.0:
            raise ContractError(
                f"alpha*lambda must be < 1, got {self.alpha * self.lam}")
        if not self.tol > 0:
            raise ContractError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ContractError(f"max_iter must be >= 1, got {self.max_iter}")

    @property
    def contraction(self) -> float:
        return self.alpha * self.lam

    @property
    def gamma(self) -> float:
        """Calmness constant certified for the selection."""
        return 2.0 * self.kappa / (1.0 - self.contraction)


def default_config(reg_value: float, sampled_lip: float, tol: float = 1e-10,
                   max_iter: int = 200) -> IterationConfig:
    """Default constant schedule from a measured regularity modulus and lip.

    kappa gets a 10% margin over the modulus, lambda a 20% margin over the
    sampled lip; alpha is the midpoint of its admissible interval. Rejected
    when the resulting kappa*lambda reaches 0.9.
    """
    if not np.isfinite(reg_value) or reg_value <= 0:
        raise ContractError(f"regularity modulus must be finite positive, got {reg_value}")
    if sampled_lip < 0:
        raise ContractError(f"sampled lip must be >= 0, got {sampled_lip}")
    kappa = KAPPA_MARGIN * reg_value
    lam = LAMBDA_MARGIN * sampled_lip
    if kappa * lam >= 0.9:
        raise ContractError(
            f"kappa*lambda: default schedule rejected, {kappa * lam:.6g} >= 0.9")
    alpha = 0.5 * (kappa + 1.0 / lam) if lam > 0 else 2.0 * kappa
    return IterationConfig(kappa=kappa, lam=lam, alpha=alpha, tol=tol,
                           max_iter=max_iter)


@dataclass
class GeneralizedEquation:
    """Problem data: F^{-1} as a convex-set oracle plus a perturbation g.

    radius_x / radius_y bound the certified neighborhood of the base pair,
    radius_graph is the ambient graph-localization radius and must dominate
    both.
    """

    finv: Callable[[np.ndarray], ConvexSet]
    g: Callable | None
    x_base: np.ndarray
    y_base: np.ndarray
    radius_x: float
    radius_y: float
    radius_graph: float

    def __post_init__(self):
        self.x_base = as_vector(self.x_base)
        self.y_base = as_vector(self.y_base)
        for name in ("radius_x", "radius_y", "radius_graph"):
            if not getattr(self, name) > 0:
                raise ContractError(f"{name} must be positive")
        if max(self.radius_x, self.radius_y) > self.radius_graph:
            raise ContractError(
                "radius_graph must dominate radius_x and radius_y")
        base_set = self.finv(self.y_base)
        if not isinstance(base_set, ConvexSet):
            raise ContractError("finv must return ConvexSet instances")
        gap = base_set.gap(self.x_base)
        if gap > 1e-9:
            raise ContractError(
                f"x_base is not in finv(y_base): gap {gap:.3e}")

    def g_value(self, x) -> np.ndarray:
        if self.g is None:
            return np.zeros(self.y_base.size)
        return as_vector(self.g(x), dim=self.y_base.size)


@dataclass
class IterationCertificate:
    """A-posteriori record of one solve."""

    kappa: float
    lam: float
    alpha: float
    tau: float
    gamma: float
    increments: list = field(default_factory=list)
    residual: float = float("nan")
    calm_ok: bool = False
    iterate_count: int = 0
    tail_bound: float = 0.0


def compute_tau(cfg: IterationConfig, radii: tuple[float, float]) -> float:
    """Certified query radius around y_base + g(x_base)."""
    a, b = radii
    if not (a > 0 and b > 0):
        raise ContractError("radii must be positive")
    tau = (1.0 - cfg.contraction) * min(a / (2.0 * cfg.kappa),
                                        b / (1.0 + cfg.kappa * cfg.lam))
    if not tau > 0:
        raise ContractError(f"certified radius collapsed to {tau}")
    return tau


def _project_truncated(base_set: ConvexSet, center: np.ndarray, radius: float,
                       cfg: IterationConfig, what: str) -> np.ndarray:
    """Projection of ``center`` onto base_set truncated to B(center, radius).

    One ``project_gap`` call gives the fibre's projection and its gap, so an
    intersection's members measure the projection once (see
    ``Intersection.project_gap``). Raises RegularityError when the fibre is
    empty (no preimage under the constraint: Dykstra did not settle while
    projecting or measuring) or lies farther than ``radius`` from the centre
    (the truncated set is empty), NumericBreakdownError when the fibre's own
    projection misses it by more than 10*tol.
    """
    try:
        z, gap = base_set.project_gap(center)
    except InfeasibilitySuspectedError as exc:
        raise RegularityError(
            f"{what}: the corrected target has no preimage under the "
            f"constraint (Dykstra gap {exc.gap:.3e})") from exc
    if gap > 10.0 * cfg.tol:
        raise NumericBreakdownError(
            f"{what}: projection gap {gap:.3e} exceeds 10*tol")
    dist = norm(z - center)
    if dist > radius + 10.0 * cfg.tol:
        raise RegularityError(
            f"{what}: truncated inverse image is empty, distance {dist:.3g} > "
            f"allowed radius {radius:.3g}; kappa={cfg.kappa:.6g} may be below "
            f"the true regularity modulus or lambda={cfg.lam:.6g} misestimated")
    return z


def _corrector_step(problem: GeneralizedEquation, cfg: IterationConfig, w,
                    center: np.ndarray, radius: float, what: str) -> np.ndarray:
    """One step: project ``center`` onto the inverse image of the corrected
    target w = y - g(center), truncated to B(center, radius). Locality
    guards keep ``center`` in the domain ball and ``w`` in the image ball;
    ``what`` names the step in error messages."""
    drift = norm(center - problem.x_base)
    if drift > problem.radius_x + 1e-12:
        raise LocalityError(
            f"iterate drifted {drift:.6g} from x_base, outside the domain "
            f"ball {problem.radius_x:.6g}", bound=problem.radius_x)
    w_dev = norm(w - problem.y_base)
    if w_dev > problem.radius_y + 1e-12:
        raise LocalityError(
            f"corrected target is {w_dev:.6g} from y_base, outside the image "
            f"ball {problem.radius_y:.6g}", bound=problem.radius_y)
    return _project_truncated(problem.finv(w), center, radius, cfg, what)


def solve(problem: GeneralizedEquation, cfg: IterationConfig,
          y) -> tuple[np.ndarray, IterationCertificate]:
    """Solve y in g(x) + F(x) for a query in the certified tau-ball.

    Every step is one corrector step; only the truncation radius changes:
    kappa*dev around x_base (the initial selection, calm with constant kappa
    by construction), kappa*(1 + kappa*lambda)*dev for the first corrector
    step, then alpha*lambda times the last increment. Returns the selection
    value and a certificate with the step lengths, the final membership
    residual, and the calmness verdict against gamma = 2*kappa/(1 - alpha*lambda).
    """
    return _solve(problem, cfg, y, problem.g_value)


def _solve(problem: GeneralizedEquation, cfg: IterationConfig, y,
           g_value) -> tuple[np.ndarray, IterationCertificate]:
    """``solve`` with the perturbation evaluated by ``g_value``."""
    y = as_vector(y, dim=problem.y_base.size)
    tau = compute_tau(cfg, (problem.radius_x, problem.radius_y))
    g_base = g_value(problem.x_base)
    dev = norm(y - problem.y_base - g_base)
    if dev > tau + 1e-15:
        raise LocalityError(
            f"query is {dev:.6g} from the base output, outside the certified "
            f"radius tau={tau:.6g}", bound=tau)

    x = _corrector_step(problem, cfg, y - g_base, problem.x_base,
                        cfg.kappa * dev, "initial selection")
    radius = cfg.kappa * (1.0 + cfg.kappa * cfg.lam) * dev
    what = "first corrector step"
    increments: list[float] = []
    while not increments or increments[-1] > cfg.tol:
        if len(increments) >= cfg.max_iter:
            raise NumericBreakdownError(
                f"no convergence after {cfg.max_iter} steps; last increment "
                f"{increments[-1]:.3e}")
        w = y - g_value(x)
        z = _corrector_step(problem, cfg, w, x, radius, what)
        step = norm(z - x)
        if (increments and increments[-1] > 0
                and step > cfg.contraction * increments[-1] * (1 + 1e-6) + 1e-15):
            raise RegularityError(
                f"observed step ratio {step / increments[-1]:.6g} exceeds "
                f"alpha*lambda={cfg.contraction:.6g}; moduli misestimated")
        increments.append(step)
        x = z
        radius, what = cfg.contraction * step, "iterate step"

    final_set = problem.finv(y - g_value(x))
    residual = final_set.gap(x)
    if residual > 10.0 * cfg.tol:
        raise NumericBreakdownError(
            f"final membership residual {residual:.3e} exceeds 10*tol")
    gamma = cfg.gamma
    calm_ok = norm(x - problem.x_base) <= gamma * dev + 1e-9
    cert = IterationCertificate(
        kappa=cfg.kappa, lam=cfg.lam, alpha=cfg.alpha, tau=tau, gamma=gamma,
        increments=increments, residual=float(residual), calm_ok=calm_ok,
        iterate_count=len(increments),
        tail_bound=increments[-1] / (1.0 - cfg.contraction))
    return x, cert


def solve_implicit(problem: GeneralizedEquation, cfg: IterationConfig,
                   p) -> tuple[np.ndarray, IterationCertificate]:
    """Solve y_base + g(x_base) in g(x) + p + F(x) for a shift p of g.

    g + p has the Lipschitz modulus of g, so this is ``solve`` on the same
    equation with g shifted by p: the parameter moves the driving term by
    -p, whose norm must stay within tau; the locality error reports the
    parameter when it does not.
    """
    p = as_vector(p, dim=problem.y_base.size)
    target = problem.y_base + problem.g_value(problem.x_base)
    try:
        return _solve(problem, cfg, target,
                      lambda x: problem.g_value(x) + p)
    except LocalityError as exc:
        raise LocalityError(
            f"parameter p={np.array2string(p)} moves the driving term outside "
            f"the certified radius: {exc}", bound=exc.bound) from exc


@dataclass
class SweepRow:
    y: np.ndarray
    x: np.ndarray | None
    certificate: IterationCertificate | None
    error: str = ""


@dataclass
class SweepResult:
    rows: list
    tau: float
    gamma: float
    max_continuity_ratio: float
    jump_indices: list
    empirical_clm: float


def sweep(problem: GeneralizedEquation, cfg: IterationConfig,
          ys: Sequence) -> SweepResult:
    """Solve along a grid of queries and report continuity diagnostics.

    All grid points must lie in the certified tau-ball up front. Per-point
    solver failures are recorded in the rows; ratios between consecutive
    successful points feed the continuity report, and ratios above 10*gamma
    are flagged as jumps.
    """
    tau = compute_tau(cfg, (problem.radius_x, problem.radius_y))
    g_base = problem.g_value(problem.x_base)
    base_out = problem.y_base + g_base
    ys = [as_vector(y, dim=problem.y_base.size) for y in ys]
    if not ys:
        raise ContractError("sweep needs at least one grid point")
    for i, y in enumerate(ys):
        dev = float(np.linalg.norm(y - base_out))
        if dev > tau + 1e-15:
            raise LocalityError(
                f"grid point {i} is {dev:.6g} from the base output, outside "
                f"tau={tau:.6g}", bound=tau)
    rows: list[SweepRow] = []
    for y in ys:
        try:
            x, cert = solve(problem, cfg, y)
            rows.append(SweepRow(y=y, x=x, certificate=cert))
        except (RegularityError, NumericBreakdownError) as exc:
            rows.append(SweepRow(y=y, x=None, certificate=None, error=str(exc)))
    gamma = cfg.gamma
    max_ratio = 0.0
    jumps: list[int] = []
    for i in range(len(rows) - 1):
        r0, r1 = rows[i], rows[i + 1]
        if r0.x is None or r1.x is None:
            continue
        gap_y = float(np.linalg.norm(r0.y - r1.y))
        if gap_y == 0.0:
            continue
        ratio = float(np.linalg.norm(r0.x - r1.x)) / gap_y
        if ratio > max_ratio:
            max_ratio = ratio
        if ratio > 10.0 * gamma:
            jumps.append(i)
    emp_clm = 0.0
    for r in rows:
        if r.x is None:
            continue
        dev = float(np.linalg.norm(r.y - base_out))
        if dev > 0:
            emp_clm = max(emp_clm,
                          float(np.linalg.norm(r.x - problem.x_base)) / dev)
    return SweepResult(rows=rows, tau=tau, gamma=gamma,
                       max_continuity_ratio=max_ratio, jump_indices=jumps,
                       empirical_clm=emp_clm)
