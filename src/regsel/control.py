"""Constrained endpoint steering through the selection engine.

The continuous problem is to drive x' = f(x, u), x(0) = 0, to a target
endpoint x(1) = b with every control value inside a compact convex set.
Discretization is trapezoidal collocation on a uniform mesh with nodal
states and piecewise constant controls. The linear part of the dynamics
together with the endpoint rows and the lifted control constraints forms
the set-valued side; its graph is an intersection of affine constraints
with a product of convex sets, hence convex and closed. The nonlinear
remainder of f enters as the Lipschitz perturbation. The interior
diagnostic reads the endpoint map of the same trapezoid rows. The dynamics
are called two ways: ``linearize`` makes one stacked call, and the remainder
and ``steer``'s trajectory check read one trajectory layout through one
two-call trapezoid evaluator.

Internally the iteration runs in mesh-weighted coordinates (nodal values
scaled by sqrt(h)) so that the regularity modulus of the collocation
operator is mesh independent. Certificates are reported in the
discretized function-space norms: max_i N*|x_{i+1} - x_i| for states,
max_i |u_i| for controls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .convex import AffineSet, Box, Halfspaces, Intersection, direction_grid
from .errors import (ContractError, LocalityError, NumericBreakdownError,
                     RegularityError, ShapeError, UncontrollableError)
from .linalg import as_vector, norm, stack_matvec, svd
from .moduli import (ModulusEstimate, fmt_float, lip_estimate, probe_width,
                     stacking_fault)
from .selection import (KAPPA_MARGIN, GeneralizedEquation,
                        IterationCertificate, IterationConfig, compute_tau,
                        default_config, solve)

DEFAULT_MESH = 64
# Central-difference step of ``linearize``
FD_JACOBIAN_STEP = 1e-6
TAU_FLOOR = 0.065
DYNAMICS_RESIDUAL_TOL = 1e-8
CONTROL_MEMBERSHIP_TOL = 1e-7
# Sample budget of the collocation remainder's Lipschitz estimate
LIP_SAMPLES = 400


@dataclass
class ControlProblem:
    """Steering problem data: dynamics oracle, control set, dimensions, mesh.

    ``dynamics`` is a stacked oracle. The leading axis of its arguments and
    of its value indexes components, any trailing axis indexes points:
    f(X, U) with X of shape (n, k) and U of shape (m, k) returns (n, k),
    column j being f(X[:, j], U[:, j]). A single point is f(x, u) with 1-D
    arrays. Writing the components by row index is enough, as in the
    pendulum fixture::

        def pendulum(x, u):
            return np.array([x[1], -np.sin(x[0]) + u[0]])

    Construction checks the contract once on a small stacked probe and
    refuses an oracle that does not stack (``float(x[1])``, a fixed-length
    vector added to x, ...) with ContractError. The control set must be a
    compact ``Box`` or ``Halfspaces`` containing the zero control.
    """

    dynamics: Callable[[np.ndarray, np.ndarray], np.ndarray]
    control_set: Box | Halfspaces
    state_dim: int
    control_dim: int
    mesh_size: int = DEFAULT_MESH

    def __post_init__(self):
        if self.state_dim < 1 or self.control_dim < 1:
            raise ContractError(
                f"dimensions must be positive, got state {self.state_dim} "
                f"control {self.control_dim}")
        if self.mesh_size < 2:
            raise ContractError(f"mesh size must be at least 2, got {self.mesh_size}")
        for name, check in (("dynamics", self._check_dynamics),
                            ("control_set", self._check_control_set)):
            try:
                check()
            except (ContractError, ShapeError) as exc:
                exc.field = name
                raise

    def _check_dynamics(self):
        probe = as_vector(self.dynamics(np.zeros(self.state_dim),
                                        np.zeros(self.control_dim)))
        if probe.size != self.state_dim:
            raise ShapeError(
                f"dynamics returned dimension {probe.size}, expected {self.state_dim}")
        if float(np.max(np.abs(probe))) > 1e-12:
            raise ContractError(
                f"dynamics must vanish at the rest point, got |f(0,0)| = "
                f"{float(np.max(np.abs(probe))):.3e}")
        self._check_stacking()

    def _check_control_set(self):
        if not isinstance(self.control_set, (Box, Halfspaces)):
            raise ContractError(
                f"control set of type {type(self.control_set).__name__} is not "
                "supported; use a box or halfspaces")
        m = self.control_dim
        if self.control_set.dim != m:
            raise ShapeError(
                f"control set lives in dimension {self.control_set.dim}, "
                f"expected {m}")
        if not self.control_set.violation(np.zeros((1, m)))[0] <= 1e-9:
            raise ContractError("control set must contain the zero control")
        # a halfspace system's support refuses an unbounded one itself
        axes = np.eye(m)
        bounded = np.isfinite(self.control_set.support(np.vstack([axes, -axes])))
        unbounded = np.flatnonzero(~(bounded[:m] & bounded[m:]))
        if unbounded.size:
            raise ContractError(
                f"control set unbounded along axis {unbounded[0]}; it must be compact")

    def _check_stacking(self):
        """Refuse dynamics that fail the stacking probe (stacking_fault)."""
        n, m = self.state_dim, self.control_dim
        k = probe_width(n, m)
        probe = 1e-2 * np.random.default_rng(0).standard_normal((n + m, k))
        fault = stacking_fault(self.dynamics, (probe[:n], probe[n:]), n)
        if fault is not None:
            raise ContractError(
                "dynamics must accept stacked points: f(X, U) with X of "
                f"shape ({n}, k) and U of shape ({m}, k) returns ({n}, k), "
                f"one column per point; {fault}")


@dataclass(frozen=True)
class DiscretizedSystem:
    """Linearization at the rest point plus mesh data."""

    a_matrix: np.ndarray
    b_matrix: np.ndarray
    state_dim: int
    control_dim: int
    mesh_size: int

    @property
    def step(self) -> float:
        return 1.0 / self.mesh_size


def linearize(problem: ControlProblem) -> DiscretizedSystem:
    """Central-difference A = df/dx and B = df/du at the origin, from one
    stacked call on the 2(n+m) points +-h e_j (a width that is neither n nor
    m, as in the stacking probe), each with the signed zeros of e_j."""
    n, m = problem.state_dim, problem.control_dim
    plus = FD_JACOBIAN_STEP * np.eye(n + m)
    minus = -plus
    minus[:n, n:] = minus[n:, :n] = 0.0
    points = np.hstack([plus, minus])
    values = problem.dynamics(points[:n], points[n:])
    jac = (values[:, :n + m] - values[:, n + m:]) / (2.0 * FD_JACOBIAN_STEP)
    if not np.all(np.isfinite(jac)):
        raise NumericBreakdownError("linearization produced non-finite entries")
    return DiscretizedSystem(a_matrix=jac[:, :n].copy(), b_matrix=jac[:, n:].copy(),
                             state_dim=n, control_dim=m, mesh_size=problem.mesh_size)


def kalman_rank(sys: DiscretizedSystem) -> tuple[int, bool]:
    """Rank of [B, AB, ..., A^{n-1}B]; controllable iff it equals n."""
    a, b = sys.a_matrix, sys.b_matrix
    blocks = [b]
    for _ in range(sys.state_dim - 1):
        blocks.append(a @ blocks[-1])
    rank = svd(np.hstack(blocks)).rank
    return rank, rank == sys.state_dim


def reachable_interior(sys: DiscretizedSystem, control_set: Box | Halfspaces,
                       seed: int = 0) -> tuple[bool, float]:
    """Does 0 lie interior to the endpoints the collocation rows reach?

    The trapezoid rows of ``_weighted_operator`` step x_{i+1} = P x_i + G u_i
    with P = (I - hA/2)^{-1} (I + hA/2) and G = (I - hA/2)^{-1} h B, so the
    endpoint is the sum of E_i u_i, E_i = P^{N-1-i} G, and its support along
    d is the sum of support_𝒰(E_i^T d) (Brammer 1972). The margin, the least
    such sum over a deterministic direction grid, is the steered system's,
    so it depends on the mesh; ``stack_matvec`` gives it the same bits on
    every BLAS kernel. ``regsel control`` prints the verdict as a
    diagnostic; ``steering_setup`` gates on the Kalman rank alone.
    """
    n, m, big_n, h = sys.state_dim, sys.control_dim, sys.mesh_size, sys.step
    dirs = direction_grid(n, max(2 * n, 16), seed=seed)
    left = np.eye(n) - 0.5 * h * sys.a_matrix
    step = np.linalg.solve(left, np.eye(n) + 0.5 * h * sys.a_matrix)
    gains = [np.linalg.solve(left, h * sys.b_matrix)]
    for _ in range(big_n - 1):
        gains.append(stack_matvec(step, gains[-1]))
    # column block i is E_i, so row i * m + j of the controls holds (E_i^T d)_j
    controls = stack_matvec(np.hstack(gains[::-1]).T, dirs.T)
    values = control_set.support(
        controls.reshape(big_n, m, len(dirs)).transpose(2, 0, 1).reshape(-1, m))
    margin = float(np.min(np.sum(values.reshape(len(dirs), big_n), axis=1)))
    return margin > 0.0, margin


def _weighted_operator(sys: DiscretizedSystem) -> np.ndarray:
    """Collocation rows in density form plus endpoint rows, both acting on
    the sqrt(h)-scaled unknowns (x_1..x_N, u_0..u_{N-1}); x_0 = 0 is
    eliminated. Density rows keep their natural coefficients under the
    weighting, endpoint rows pick up sqrt(N)."""
    n, m, big_n = sys.state_dim, sys.control_dim, sys.mesh_size
    a, b = sys.a_matrix, sys.b_matrix
    nx = n * big_n
    mat = np.zeros((nx + n, nx + m * big_n))
    for i in range(big_n):
        r = slice(n * i, n * (i + 1))
        if i > 0:
            mat[r, n * (i - 1):n * i] = -big_n * np.eye(n) - a / 2.0
        mat[r, n * i:n * (i + 1)] = big_n * np.eye(n) - a / 2.0
        mat[r, nx + m * i:nx + m * (i + 1)] = -b
    mat[nx:, n * (big_n - 1):nx] = np.sqrt(big_n) * np.eye(n)
    return mat


def _lift_control_set(control_set: Box | Halfspaces, sys: DiscretizedSystem) -> Box | Halfspaces:
    """Per-interval control constraints on the scaled unknowns: a box stays a
    box (free states, bounds divided by sqrt(N) on the controls), halfspaces
    become a block-diagonal halfspace system. ``ControlProblem`` has checked
    the set's type, dimension and compactness."""
    n, m, big_n = sys.state_dim, sys.control_dim, sys.mesh_size
    nx = n * big_n
    sq = np.sqrt(big_n)
    if isinstance(control_set, Box):
        free = np.full(nx, np.inf)
        return Box(np.concatenate([-free, np.tile(control_set.lower / sq, big_n)]),
                   np.concatenate([free, np.tile(control_set.upper / sq, big_n)]))
    k = control_set.normals.shape[0]
    rows = np.zeros((k * big_n, nx + m * big_n))
    for i in range(big_n):
        rows[k * i:k * (i + 1), nx + m * i:nx + m * (i + 1)] = control_set.normals * sq
    return Halfspaces(rows, np.tile(control_set.offsets, big_n))


def _trajectories(scaled: np.ndarray, sys: DiscretizedSystem) -> tuple[np.ndarray, np.ndarray]:
    """The sqrt(h)-scaled unknowns of one trajectory, or of k trajectories as
    columns, laid out component-major: nodal states (n, N+1, k) with x_0 = 0
    and interval controls (m, N, k)."""
    n, m, big_n = sys.state_dim, sys.control_dim, sys.mesh_size
    nx = n * big_n
    cols = scaled.reshape(scaled.shape[0], -1) * math.sqrt(big_n)
    states = np.zeros((n, big_n + 1, cols.shape[1]))
    states[:, 1:] = cols[:nx].reshape(big_n, n, -1).transpose(1, 0, 2)
    return states, cols[nx:].reshape(big_n, m, -1).transpose(1, 0, 2)


def _trapezoid_means(f, states: np.ndarray, controls: np.ndarray) -> np.ndarray:
    """0.5*(f(x_i, u_i) + f(x_{i+1}, u_i)) for every interval of every
    trajectory of the ``_trajectories`` layout, shape (n, N, k).

    The N k intervals go to the oracle together, in two stacked calls on
    (n, N k) states with contiguous rows.
    """
    n, m = states.shape[0], controls.shape[0]
    us = controls.reshape(m, -1)
    means = 0.5 * (f(states[:, :-1].reshape(n, -1), us)
                   + f(states[:, 1:].reshape(n, -1), us))
    return means.reshape((n,) + controls.shape[1:])


def _remainder(problem: ControlProblem, sys: DiscretizedSystem):
    """Nonlinearity minus linearization at the collocation points, acting on
    and returning sqrt(h)-scaled vectors.

    The remainder takes one vector or k of them as columns, and returns one
    column per trajectory. The dynamics see all k trajectories in one
    ``_trapezoid_means`` pair, and the linear part adds its terms one by one
    (stack_matvec): a stacked column has the bits of the same trajectory
    alone. Each entry is ((A x_mid + B u) - mean) / sqrt(N), its terms
    combined in place, sqrt(N) taken once per remainder.
    """
    n, big_n = sys.state_dim, sys.mesh_size
    nx, root = n * big_n, math.sqrt(big_n)

    def g(scaled):
        scaled = np.asarray(scaled, dtype=float)
        states, controls = _trajectories(scaled, sys)
        mean = _trapezoid_means(problem.dynamics, states, controls)
        linear = stack_matvec(sys.a_matrix, 0.5 * (states[:, :-1] + states[:, 1:]))
        linear += stack_matvec(sys.b_matrix, controls)
        linear -= mean
        linear /= root
        out = np.zeros((nx + n, states.shape[2]))
        out[:nx] = linear.transpose(1, 0, 2).reshape(nx, -1)
        return out.reshape((nx + n,) + scaled.shape[1:])

    return g


@dataclass
class SteeringSetup:
    """Precomputed steering data shared across queries on one problem."""

    problem: ControlProblem
    sys: DiscretizedSystem
    operator: np.ndarray
    equation: GeneralizedEquation
    config: IterationConfig
    tau: float
    tau_target: float
    lip: ModulusEstimate
    calm_bound: float

    @property
    def schedule(self) -> IterationCertificate:
        """The constant schedule and tau, as a certificate without steps."""
        return IterationCertificate(self.config, self.tau)

    def query(self, b) -> np.ndarray:
        b = as_vector(b, dim=self.sys.state_dim)
        y = np.zeros(self.operator.shape[0])
        y[-self.sys.state_dim:] = b
        return y


def steering_setup(problem: ControlProblem, sys: DiscretizedSystem | None = None,
                   tau_target: float = TAU_FLOOR, tol: float = 1e-11,
                   seed: int = 0) -> SteeringSetup:
    """Build the discretized generalized equation and its constant schedule.

    Controllability is gated first: a Kalman rank below the state dimension
    leaves the collocation operator not onto, so it raises
    UncontrollableError. The Lipschitz modulus of the remainder is
    sampled on the ball the correctors of a tau-sized query live in; the
    recorded estimate keeps that radius. The locality radii on the equation
    are the larger ones required to certify tau. A schedule whose
    kappa*lambda reaches 0.9 raises RegularityError; a tol that
    IterationConfig refuses raises its ContractError.
    """
    if sys is None:
        sys = linearize(problem)
    rank, rank_ok = kalman_rank(sys)
    if not rank_ok:
        raise UncontrollableError(
            f"Kalman rank {rank} < {sys.state_dim}: the linearization is not "
            "controllable, so the collocation operator is not onto")
    if tau_target <= 0:
        raise ContractError(f"tau target must be positive, got {tau_target}")

    mat = _weighted_operator(sys)
    fibre = AffineSet(mat, np.zeros(mat.shape[0]))
    if not fibre.surjective:
        raise RegularityError(
            "collocation operator is not surjective; the discretized "
            "problem has no regularity modulus")
    smin = fibre.sigma_min
    kappa = KAPPA_MARGIN / smin

    g = _remainder(problem, sys)
    # correctors of a tau-sized query stay within kappa*(1+kappa*lam)*tau
    # of the base; 1.55 covers the schedule's margins there
    lip = lip_estimate(g, np.zeros(mat.shape[1]),
                       radius=1.55 * kappa * tau_target,
                       samples=LIP_SAMPLES, seed=seed)
    try:  # a bad tol is an input error, a ContractError that passes through
        cfg = default_config(1.0 / smin, lip.value, tol=tol)
    except RegularityError as exc:
        raise RegularityError(
            f"constant schedule rejected for the steering problem: {exc}") from exc

    calm_bound = _transported_calm_bound(sys, fibre.right_inverse, cfg)
    stretch = 1.0 / (1.0 - cfg.contraction)
    radius_x = 2.0 * cfg.kappa * tau_target * stretch * 1.02
    radius_y = (1.0 + cfg.kappa * cfg.lam) * tau_target * stretch * 1.02
    lifted = _lift_control_set(problem.control_set, sys)
    equation = GeneralizedEquation(
        finv=Intersection([fibre, lifted]).shifted, g=g,
        x_base=np.zeros(mat.shape[1]), y_base=np.zeros(mat.shape[0]),
        radius_x=radius_x, radius_y=radius_y,
        radius_graph=2.0 * (radius_x + radius_y))
    tau = compute_tau(cfg, (radius_x, radius_y))
    return SteeringSetup(problem=problem, sys=sys, operator=mat,
                         equation=equation, config=cfg, tau=tau,
                         tau_target=tau_target, lip=lip,
                         calm_bound=calm_bound)


def _transported_calm_bound(sys: DiscretizedSystem, pinv: np.ndarray,
                            cfg: IterationConfig) -> float:
    """Calmness constant in the reporting norms.

    The engine certifies gamma = 2*kappa/(1 - alpha*lambda) in the scaled
    Euclidean norm. Reported ratios use max_i N|x_{i+1}-x_i| + max_i |u_i|,
    so the right inverse ``pinv`` of the collocation operator is re-measured
    row by row in those coordinates (a row of N*(x_{i+1} - x_i) is the
    difference of consecutive state blocks, x_0 = 0; a row of u_i is a
    control row) and the same series factor and kappa margin are applied.
    """
    n, big_n = sys.state_dim, sys.mesh_size
    nx = n * big_n
    sq = np.sqrt(big_n)
    states = big_n * sq * pinv[:nx]
    steps = np.concatenate([states[:n], states[n:] - states[:-n]])
    row_norm_diff = float(np.max(np.linalg.norm(steps, axis=1)))
    row_norm_sel = float(np.max(np.linalg.norm(sq * pinv[nx:], axis=1)))
    return 2.0 * KAPPA_MARGIN * (row_norm_diff + row_norm_sel) / (1.0 - cfg.contraction)


@dataclass
class SteeringResult:
    """Trajectory, control values, and the certified ratios for one target."""

    states: np.ndarray
    controls: np.ndarray
    target: np.ndarray
    endpoint_error: float
    calm_ratio: float
    calm_bound: float
    dynamics_residual: float
    certificate: IterationCertificate

    def csv_lines(self) -> list[str]:
        """Rows t_i, state components, control components (blank past N-1)."""
        n = self.states.shape[1]
        m = self.controls.shape[1]
        big_n = self.controls.shape[0]
        header = (["t"] + [f"x{j + 1}" for j in range(n)]
                  + [f"u{j + 1}" for j in range(m)])
        lines = [",".join(header)]
        for i in range(big_n + 1):
            cells = [fmt_float(i / big_n)]
            cells += [fmt_float(v) for v in self.states[i]]
            if i < big_n:
                cells += [fmt_float(v) for v in self.controls[i]]
            else:
                cells += [""] * m
            lines.append(",".join(cells))
        return lines


def _trajectory_norms(states: np.ndarray, controls: np.ndarray, mesh: int) -> float:
    """Discretized |x'|_inf + esssup |u| seminorm of a trajectory pair."""
    slope = mesh * abs(states[1:] - states[:-1]).max()
    return float(slope + abs(controls).max())


def _default_tau_target(size: float) -> float:
    """Radius to certify for targets up to ``size``: 30% headroom, >= TAU_FLOOR."""
    return max(TAU_FLOOR, 1.3 * size)


def steer(problem: ControlProblem, sys: DiscretizedSystem, b,
          setup: SteeringSetup) -> SteeringResult:
    """Steer the origin to endpoint b with admissible controls.

    Solves the discretized generalized equation of the prepared ``setup``
    for the query whose only nonzero rows are the endpoint target; a query
    builds nothing. Raises ContractError when ``setup`` was built for
    another problem or ``sys`` is not the set-up's own system,
    LocalityError when |b| exceeds the certified radius, and
    NumericBreakdownError when the returned trajectory violates the
    dynamics or control-membership contracts.
    """
    if setup.problem != problem:
        raise ContractError("steer's set-up was built for another problem")
    if sys is not setup.sys:
        raise ContractError("steer's system is not its set-up's own")
    query = setup.query(b)  # validates b
    b = query[-problem.state_dim:].copy()

    scaled, cert = solve(setup.equation, setup.config, query)
    states, controls = _trajectories(scaled, sys)
    gaps = states[:, 1:] - states[:, :-1]
    gaps -= sys.step * _trapezoid_means(problem.dynamics, states, controls)
    residual = float(abs(gaps).max())
    if not residual <= DYNAMICS_RESIDUAL_TOL:  # a nan gap fails too
        raise NumericBreakdownError(
            f"trajectory violates the discretized dynamics by {residual:.3e}")
    # the one trajectory as rows: states (N+1, n), controls (N, m)
    states, controls = (np.ascontiguousarray(v[:, :, 0].T) for v in (states, controls))
    violation = problem.control_set.violation(controls)
    bad = np.flatnonzero(~(violation <= CONTROL_MEMBERSHIP_TOL))  # nan fails too
    if bad.size:
        raise NumericBreakdownError(
            f"control value at interval {bad[0]} leaves the admissible set")

    norm_b = norm(b)
    ratio = _trajectory_norms(states, controls, sys.mesh_size) / norm_b if norm_b > 0 else 0.0
    endpoint_error = norm(states[-1] - b)
    return SteeringResult(states=states, controls=controls, target=b,
                          endpoint_error=endpoint_error, calm_ratio=ratio,
                          calm_bound=setup.calm_bound,
                          dynamics_residual=residual, certificate=cert)


@dataclass
class ControlSweep:
    """Steering results over a target grid with worst-case ratios.

    results and errors run parallel to ``targets``; a failed target leaves
    None in results and the failure message in errors.
    """

    setup: SteeringSetup
    targets: list
    results: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    max_calm_ratio: float = 0.0
    max_continuity_ratio: float = 0.0

    def csv_lines(self) -> list[str]:
        """Rows index, status, b*, endpoint_error, calm_ratio (a failed
        target's status is its message, commas as ';', and its ratios are
        blank), the schedule, then calm_bound and the worst ratios."""
        lines = [",".join(["index", "status"]
                          + [f"b{j + 1}" for j in range(self.setup.sys.state_dim)]
                          + ["endpoint_error", "calm_ratio"])]
        for i, (t, res, err) in enumerate(zip(self.targets, self.results,
                                              self.errors)):
            cells = [str(i), "ok" if res is not None else f"error: {err.replace(',', ';')}"]
            cells += [fmt_float(v) for v in t] + (["", ""] if res is None else [
                fmt_float(res.endpoint_error), fmt_float(res.calm_ratio)])
            lines.append(",".join(cells))
        return lines + self.setup.schedule.csv_lines() + [
            f"calm_bound,{fmt_float(self.setup.calm_bound)}",
            f"max_calm_ratio,{fmt_float(self.max_calm_ratio)}",
            f"max_continuity_ratio,{fmt_float(self.max_continuity_ratio)}"]


def calm_sweep(setup: SteeringSetup, targets: Sequence) -> ControlSweep:
    """Steer every target on a grid with one prepared set-up and report
    worst calm/continuity ratios.

    Continuity ratios compare adjacent targets: the difference of the two
    trajectory pairs in the discretized sup norms over the distance of the
    targets.
    """
    if len(targets) == 0:
        raise ContractError("calm_sweep needs a nonempty target grid")
    sweep = ControlSweep(setup=setup, targets=list(targets))
    for t in targets:
        try:
            res = steer(setup.problem, setup.sys, t, setup)
        except (LocalityError, RegularityError, NumericBreakdownError) as exc:
            sweep.results.append(None)
            sweep.errors.append(str(exc))
            continue
        sweep.results.append(res)
        sweep.errors.append("")
        sweep.max_calm_ratio = max(sweep.max_calm_ratio, res.calm_ratio)
    for prev, cur in zip(sweep.results, sweep.results[1:]):
        if prev is None or cur is None:
            continue
        dist = float(np.linalg.norm(cur.target - prev.target))
        if dist <= 0:
            continue
        num = _trajectory_norms(cur.states - prev.states,
                                cur.controls - prev.controls, setup.sys.mesh_size)
        sweep.max_continuity_ratio = max(sweep.max_continuity_ratio, num / dist)
    return sweep
