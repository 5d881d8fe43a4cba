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
fibre and compares the distance moved, its increment, once with the
allowed distance: the truncation radius plus the step's slack.

A step also checks its projection's gap, how far the projection misses its
fibre, against the slack. Where the fibre's operator is proved (an
``AffineSet`` whose factorization bounds its rounding, alone or as the
first member of an intersection that ``dykstra`` leaves through its exact
exit), a rounding bound settles that check without measuring the gap;
where the bound exceeds the slack, or the operator has no proof, the gap
is measured. The final membership residual that a certificate prints is
always measured.

A base point with g(x_base) != 0 is handled by shifting the query, so the
solved inclusion is always stated at (x_base, y_base + g(x_base)), and
g(x_base) is read once per equation (``GeneralizedEquation.g_base``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .convex import ConvexSet
from .errors import (ContractError, InfeasibilitySuspectedError, LocalityError,
                     NumericBreakdownError, RegularityError)
from .linalg import as_vector, norm
from .moduli import fmt_float

# Default margins of kappa over a regularity modulus, lambda over a sampled lip
KAPPA_MARGIN = 1.1
LAMBDA_MARGIN = 1.2
# c, the absolute slack of the iterate step's check: a step may exceed
# step_ratio times the step before by c, the rounding of steps near zero
STEP_SLACK = 1e-15


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
        if not self.step_ratio < 1.0:  # so kappa*lambda < alpha*lambda < 1
            raise ContractError(
                f"alpha must stay below 1/lambda by the step check's slack: "
                f"step_ratio = {self.step_ratio} is not < 1")
        if not self.tol > 0:
            raise ContractError(f"tol must be positive, got {self.tol}")

    @property
    def contraction(self) -> float:
        return self.alpha * self.lam

    @property
    def step_ratio(self) -> float:
        """q, the largest ratio of consecutive steps that solve accepts."""
        return self.contraction * (1 + 1e-6)

    @property
    def step_floor(self) -> float:
        """c/(1 - q), the floor the steps approach for c = STEP_SLACK."""
        return STEP_SLACK / (1.0 - self.step_ratio)

    @property
    def slack(self) -> float:
        """10*tol: how far a projection may miss its fibre (a proved bound
        on that gap, or the gap measured where no bound settles it), the
        final point its fibre (always measured), and the first two steps
        their truncation radii."""
        return 10.0 * self.tol

    def step_budget(self, first: float) -> int:
        """Steps a solve may take after a first corrector step of ``first``:
        step 1 + j is at most q**j*first + c/(1 - q), below t = max(tol,
        2c/(1 - q)) once q**j*first <= t/2; one step more covers rounding."""
        q, t = self.step_ratio, max(self.tol, 2.0 * self.step_floor)
        if q == 0 or first <= 0.5 * t:
            return 3
        j = (math.log(0.5 * t) - math.log(first)) / math.log(q)
        return 2 + max(1, math.ceil(j))

    @property
    def gamma(self) -> float:
        """Calmness constant certified for the selection."""
        return 2.0 * self.kappa / (1.0 - self.contraction)


def default_config(reg_value: float, sampled_lip: float,
                   tol: float = 1e-10) -> IterationConfig:
    """Default constant schedule from a measured regularity modulus and lip.

    kappa gets a 10% margin over the modulus, lambda a 20% margin over the
    sampled lip; alpha is the midpoint of its admissible interval. A
    kappa*lambda of 0.9 or more is a regularity failure (RegularityError):
    the measured moduli admit no schedule. A bad tol is refused after that
    check, by IterationConfig, with ContractError.
    """
    if not np.isfinite(reg_value) or reg_value <= 0:
        raise ContractError(f"regularity modulus must be finite positive, got {reg_value}")
    if sampled_lip < 0:
        raise ContractError(f"sampled lip must be >= 0, got {sampled_lip}")
    kappa = KAPPA_MARGIN * reg_value
    lam = LAMBDA_MARGIN * sampled_lip
    if not kappa * lam < 0.9:  # a nan product is rejected too
        raise RegularityError(
            f"kappa*lambda: default schedule rejected, {kappa * lam:.6g} >= 0.9")
    alpha = 0.5 * (kappa + 1.0 / lam) if lam > 0 else 2.0 * kappa
    return IterationConfig(kappa=kappa, lam=lam, alpha=alpha, tol=tol)


def zero_map(dim: int) -> Callable:
    """x -> 0 in R^dim, for one point or points stacked as columns, as the
    samplers take them: the perturbation of an equation that has none."""
    return lambda x: np.zeros((dim,) + np.shape(x)[1:])


@dataclass
class GeneralizedEquation:
    """Problem data: F^{-1} as a convex-set oracle plus a perturbation g.

    A g of None becomes ``zero_map`` at construction. radius_x / radius_y
    bound the certified neighborhood of the base pair, radius_graph is the
    ambient graph-localization radius and must dominate both.
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
        if self.g is None:
            self.g = zero_map(self.y_base.size)
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
        return as_vector(self.g(x), dim=self.y_base.size)

    @cached_property
    def g_base(self) -> np.ndarray:
        """g(x_base), read on first use and shared, read-only, by every query."""
        value = np.array(self.g_value(self.x_base))
        value.flags.writeable = False
        return value


@dataclass
class IterationCertificate:
    """The certificate of a selection: the constant schedule (``config``
    and the certified query radius ``tau``) and, once a solve has run, its
    step lengths, final membership residual and calmness verdict. A
    certificate without steps is the schedule alone."""

    config: IterationConfig
    tau: float
    increments: list = field(default_factory=list)
    residual: float = float("nan")
    calm_ok: bool = False

    @property
    def iterate_count(self) -> int:
        return len(self.increments)

    @property
    def tail_bound(self) -> float:
        """Distance bound to the limit: the last step over 1 - alpha*lambda."""
        return self.increments[-1] / (1.0 - self.config.contraction)

    def csv_lines(self) -> list[str]:
        """The certificate block, one ``name,value`` line each: the schedule
        kappa, lambda, alpha, tau, gamma, then for a solve iterations,
        increments (one cell per step), residual, tail_bound, calm_ok."""
        cfg = self.config
        lines = [f"kappa,{fmt_float(cfg.kappa)}", f"lambda,{fmt_float(cfg.lam)}",
                 f"alpha,{fmt_float(cfg.alpha)}", f"tau,{fmt_float(self.tau)}",
                 f"gamma,{fmt_float(cfg.gamma)}"]
        if self.increments:
            lines += [f"iterations,{self.iterate_count}",
                      ",".join(["increments"] + [fmt_float(v) for v in self.increments]),
                      f"residual,{fmt_float(self.residual)}",
                      f"tail_bound,{fmt_float(self.tail_bound)}",
                      f"calm_ok,{'true' if self.calm_ok else 'false'}"]
        return lines


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


def _corrector_step(problem: GeneralizedEquation, cfg: IterationConfig, w,
                    center: np.ndarray, allowed: float,
                    what: str) -> tuple[np.ndarray, float]:
    """One step: project ``center`` onto the inverse image of the corrected
    target w, truncated to a ball around ``center``, and return the point
    with the distance moved. Locality guards keep ``center`` in the domain
    ball and ``w`` in the image ball; ``what`` names the step in errors.

    RegularityError when the fibre is empty (Dykstra did not settle) or
    lies farther than ``allowed``, the ball's radius plus the step's slack;
    NumericBreakdownError when the fibre's projection misses it by more
    than ``cfg.slack``. One ``_project_within`` call gives the projection
    and its gap: a proved operator's rounding bound where that is at most
    ``cfg.slack``, so no gap is measured, and otherwise the gap measured,
    which the error quotes; an intersection's members measure the
    projection once. ``center`` is ``x_base`` or the last projection, both
    validated already: an ``AffineSet`` fibre takes it as it is, and
    ``dykstra`` validates it once.
    """
    drift = norm(center - problem.x_base)
    if drift > problem.radius_x + 1e-12:
        raise LocalityError(
            f"iterate drifted {drift:.6g} from x_base, outside the domain "
            f"ball {problem.radius_x:.6g}")
    w_dev = norm(w - problem.y_base)
    if w_dev > problem.radius_y + 1e-12:
        raise LocalityError(
            f"corrected target is {w_dev:.6g} from y_base, outside the image "
            f"ball {problem.radius_y:.6g}")
    try:
        z, gap = problem.finv(w)._project_within(center, cfg.slack)
    except InfeasibilitySuspectedError as exc:
        raise RegularityError(
            f"{what}: the corrected target has no preimage under the "
            f"constraint (Dykstra gap {exc.gap:.3e})") from exc
    if gap > cfg.slack:
        raise NumericBreakdownError(
            f"{what}: projection gap {gap:.3e} exceeds 10*tol")
    dist = norm(z - center)
    if dist > allowed:
        raise RegularityError(
            f"{what}: truncated inverse image is empty, distance {dist:.3g} > "
            f"allowed radius {allowed:.3g} by {dist - allowed:.3g}; "
            f"kappa={cfg.kappa:.6g} may be below "
            f"the true regularity modulus or lambda={cfg.lam:.6g} misestimated")
    return z, dist


def solve(problem: GeneralizedEquation, cfg: IterationConfig,
          y) -> tuple[np.ndarray, IterationCertificate]:
    """Solve y in g(x) + F(x) for a query in the certified tau-ball.

    Every step is one corrector step; only its allowed distance changes:
    kappa*dev + 10*tol around x_base (the initial selection, calm with
    constant kappa by construction), kappa*(1 + kappa*lambda)*dev + 10*tol
    for the first corrector step, then q times the last increment plus
    STEP_SLACK, the rule ``cfg.step_budget`` is derived from. Steps past
    that budget are stuck above tol at the rounding floor:
    NumericBreakdownError. Returns the selection value and a certificate
    with the step lengths, the final membership residual, and the calmness
    verdict against gamma = 2*kappa/(1 - alpha*lambda).
    """
    y = as_vector(y, dim=problem.y_base.size)
    tau = compute_tau(cfg, (problem.radius_x, problem.radius_y))
    dev = norm(y - problem.y_base - problem.g_base)
    if dev > tau + 1e-15:
        raise LocalityError(
            f"query is {dev:.6g} from the base output, outside the certified "
            f"radius tau={tau:.6g}")

    x, _ = _corrector_step(problem, cfg, y - problem.g_base, problem.x_base,
                           cfg.kappa * dev + cfg.slack, "initial selection")
    x, step = _corrector_step(
        problem, cfg, y - problem.g_value(x), x,
        cfg.kappa * (1.0 + cfg.kappa * cfg.lam) * dev + cfg.slack,
        "first corrector step")
    increments, budget = [step], cfg.step_budget(step)
    while step > cfg.tol:
        if len(increments) == budget:
            raise NumericBreakdownError(
                f"stalled after {budget} steps, the budget the contraction "
                f"certifies: increment {step:.3e} is above tol={cfg.tol:.3e} "
                f"at the rounding floor {cfg.step_floor:.3e}")
        x, step = _corrector_step(problem, cfg, y - problem.g_value(x), x,
                                  cfg.step_ratio * step + STEP_SLACK, "iterate step")
        increments.append(step)

    residual = problem.finv(y - problem.g_value(x)).gap(x)
    if residual > cfg.slack:
        raise NumericBreakdownError(
            f"final membership residual {residual:.3e} exceeds 10*tol")
    calm_ok = norm(x - problem.x_base) <= cfg.gamma * dev + 1e-9
    return x, IterationCertificate(config=cfg, tau=tau, increments=increments,
                                   residual=float(residual), calm_ok=calm_ok)


def solve_implicit(problem: GeneralizedEquation, cfg: IterationConfig,
                   p) -> tuple[np.ndarray, IterationCertificate]:
    """Solve y_base + g(x_base) in g(x) + p + F(x) for a shift p of g: that
    is ``solve`` of the shifted target y_base + g(x_base) - p, which lies |p|
    from the base output; the locality error names p when that exceeds tau.
    """
    p = as_vector(p, dim=problem.y_base.size)
    try:
        return solve(problem, cfg, problem.y_base + problem.g_base - p)
    except LocalityError as exc:
        raise LocalityError(
            f"parameter p={np.array2string(p)} moves the driving term outside "
            f"the certified radius: {exc}") from exc


@dataclass
class SweepRow:
    y: np.ndarray
    x: np.ndarray | None
    certificate: IterationCertificate | None
    error: str = ""


@dataclass
class SweepResult:
    rows: list
    schedule: IterationCertificate
    x_dim: int
    max_continuity_ratio: float
    jump_indices: list
    empirical_clm: float

    def csv_lines(self) -> list[str]:
        """Rows index, status, y*, x*, iterations, residual (blank past y on
        a failed point), the schedule, then the continuity diagnostics."""
        lines = [",".join(["index", "status"]
                          + [f"y{j + 1}" for j in range(self.rows[0].y.size)]
                          + [f"x{j + 1}" for j in range(self.x_dim)]
                          + ["iterations", "residual"])]
        for i, row in enumerate(self.rows):
            cells = [str(i), "error" if row.x is None else "ok"]
            cells += [fmt_float(v) for v in row.y]
            cells += [""] * (self.x_dim + 2) if row.x is None else (
                [fmt_float(v) for v in row.x]
                + [str(row.certificate.iterate_count), fmt_float(row.certificate.residual)])
            lines.append(",".join(cells))
        return lines + self.schedule.csv_lines() + [
            f"max_continuity_ratio,{fmt_float(self.max_continuity_ratio)}",
            f"empirical_clm,{fmt_float(self.empirical_clm)}",
            f"jumps,{len(self.jump_indices)}"]


def sweep(problem: GeneralizedEquation, cfg: IterationConfig,
          ys: Sequence) -> SweepResult:
    """Solve along a grid of queries and report continuity diagnostics.

    All grid points must lie in the certified tau-ball up front. Per-point
    solver failures are recorded in the rows; ratios between consecutive
    successful points feed the continuity report, and ratios above 10*gamma
    are flagged as jumps.
    """
    tau = compute_tau(cfg, (problem.radius_x, problem.radius_y))
    base_out = problem.y_base + problem.g_base
    ys = [as_vector(y, dim=problem.y_base.size) for y in ys]
    if not ys:
        raise ContractError("sweep needs at least one grid point")
    devs = [float(np.linalg.norm(y - base_out)) for y in ys]
    for i, dev in enumerate(devs):
        if dev > tau + 1e-15:
            raise LocalityError(
                f"grid point {i} is {dev:.6g} from the base output, outside "
                f"tau={tau:.6g}")
    rows: list[SweepRow] = []
    for y in ys:
        try:
            x, cert = solve(problem, cfg, y)
            rows.append(SweepRow(y=y, x=x, certificate=cert))
        except (RegularityError, NumericBreakdownError) as exc:
            rows.append(SweepRow(y=y, x=None, certificate=None, error=str(exc)))
    max_ratio, jumps = 0.0, []
    for i, (r0, r1) in enumerate(zip(rows, rows[1:])):
        gap_y = float(np.linalg.norm(r0.y - r1.y))
        if r0.x is None or r1.x is None or gap_y == 0.0:
            continue
        ratio = float(np.linalg.norm(r0.x - r1.x)) / gap_y
        max_ratio = max(max_ratio, ratio)
        if ratio > 10.0 * cfg.gamma:
            jumps.append(i)
    emp_clm = max([float(np.linalg.norm(r.x - problem.x_base)) / dev
                   for r, dev in zip(rows, devs) if r.x is not None and dev > 0], default=0.0)
    return SweepResult(rows=rows, schedule=IterationCertificate(cfg, tau),
                       x_dim=problem.x_base.size, max_continuity_ratio=max_ratio,
                       jump_indices=jumps, empirical_clm=emp_clm)
