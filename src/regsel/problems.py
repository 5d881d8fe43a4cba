"""Problem files: JSON parsing, polynomial maps, named fixtures, and the
problem each file states.

A problem file carries a version tag, a kind (linear, smooth, generalized,
control), and the kind's payload. Smooth maps and perturbations are
polynomial coefficient tables rather than expressions, so loading a file
never evaluates user code. Dynamics for control problems come from a
small registry of named closed-form systems or from a polynomial table
over the concatenated (state, control) input.

Validation errors raise ProblemFileError with the JSON path of the
offending field. A loaded ``ProblemFile`` assembles its own problem: the
part the samplers read, the equation and schedule of a smooth or
generalized file, and the gate and steering set-up of a control file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .control import (DEFAULT_MESH, ControlProblem, DiscretizedSystem, SteeringSetup,
                      kalman_rank, linearize, reachable_interior, steering_setup,
                      _default_tau_target, _remainder, _weighted_operator)
from .convex import AffineSet, ConvexSet, Intersection, set_from_json
from .errors import ContractError, ProblemFileError, RegularityError, ShapeError
from .moduli import (CheckReport, SampledMapping, lg_bound_check,
                     lip_estimate, reg_linear, sampled_reg, verify_graph)
from .selection import (KAPPA_MARGIN, LAMBDA_MARGIN, GeneralizedEquation,
                        IterationCertificate, IterationConfig, compute_tau,
                        default_config, solve, zero_map)
from .smooth import SmoothProblem, config_for, smooth_selection, split

SCHEMA_VERSION = "1"
KINDS = ("linear", "smooth", "generalized", "control")
# Collocation intervals a control problem may ask for: set-up factors a
# dense (nN + n) x (n+m)N operator, 2,050 x 3,072 for the two-state
# fixtures at this cap.
MAX_MESH = 1024


def _fail(path: str, message: str):
    raise ProblemFileError(f"$.{path}: {message}")


def _require(payload: dict, key: str, path: str = ""):
    if key not in payload:
        _fail(f"{path}{key}", "missing required field")
    return payload[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        out = float(value)
    except OverflowError:  # an integer literal beyond float64's range
        out = np.inf
    if not np.isfinite(out):
        _fail(path, "must be finite")
    return out


def _positive_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    if value < 1:
        _fail(path, f"must be positive, got {value}")
    return value


def _vector(value, path: str, dim: int | None = None) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty array of numbers")
    out = np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(value)])
    if dim is not None and out.size != dim:
        _fail(path, f"expected length {dim}, got {out.size}")
    return out


def _matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty array of rows")
    rows = []
    width = None
    for i, row in enumerate(value):
        vec = _vector(row, f"{path}[{i}]")
        if width is None:
            width = vec.size
        elif vec.size != width:
            _fail(f"{path}[{i}]", f"row length {vec.size} != {width}")
        rows.append(vec)
    return np.array(rows)


@dataclass(frozen=True)
class PolynomialMap:
    """Vector polynomial given as per-component coefficient tables.

    ``terms[k]`` lists the monomials of output component k as (coef,
    powers) pairs with one exponent per input coordinate. ``value`` takes
    one point of shape (input_dim,) or stacked points of shape
    (input_dim, k) and returns (output_dim,) or (output_dim, k).

    ``value`` reads a table compiled once from ``terms``: the T
    coefficients in table order, the T * input_dim exponents as one flat
    array, and each component's range of terms. A point is gathered into
    the exponent slots, raised by one ``**``, reduced to one product per
    term and scaled by the coefficients. Each component then sums its terms
    one by one, in table order, from 0.0: the order of a loop over the
    table, so a stacked column has the bits of the same point alone.
    np.sum, ``@`` and np.add.reduceat add in other orders.
    """

    input_dim: int
    output_dim: int
    terms: tuple

    @cached_property
    def _table(self):
        """(gather index, flat exponents, coefficients, term ranges)."""
        monomials = [mono for comp in self.terms for mono in comp]
        coefs = np.array([coef for coef, _ in monomials], dtype=float)
        exps = np.array([p for _, powers in monomials for p in powers],
                        dtype=float)
        idx = np.tile(np.arange(self.input_dim), len(monomials))
        ranges, stop = [], 0
        for comp in self.terms:
            ranges.append(range(stop, stop + len(comp)))
            stop += len(comp)
        return idx, exps, coefs, ranges

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[0] != self.input_dim:
            raise ShapeError(f"polynomial map has input_dim {self.input_dim}; "
                             f"got a point of shape {x.shape}")
        idx, exps, coefs, ranges = self._table
        if x.ndim == 1:
            monos = (x.take(idx) ** exps).reshape(coefs.size, self.input_dim)
            terms = (np.multiply.reduce(monos, axis=-1) * coefs).tolist()
            out = []
            for span in ranges:
                total = 0.0
                for t in span:
                    total += terms[t]
                out.append(total)
            return np.array(out)
        rows = x.reshape(self.input_dim, x[0].size).T
        # Stacked points are raised as one flat array against the exponents
        # tiled once per point, so every entry meets the pow loop a single
        # point meets: numpy sends a broadcast (stride-0) exponent to a
        # scalar-power loop whose last bits differ.
        flat = rows.take(idx, axis=1).ravel()
        monos = (flat ** np.tile(exps, rows.shape[0])).reshape(
            rows.shape[0], coefs.size, self.input_dim)
        terms = np.multiply.reduce(monos, axis=-1) * coefs
        out = np.zeros((self.output_dim, rows.shape[0]))
        for k, span in enumerate(ranges):
            for t in span:
                out[k] += terms[:, t]
        return out.reshape((self.output_dim,) + x.shape[1:])

    def jacobian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        jac = np.zeros((self.output_dim, self.input_dim))
        for k, comp in enumerate(self.terms):
            for coef, powers in comp:
                for j in range(self.input_dim):
                    p = powers[j]
                    if p == 0:
                        continue
                    reduced = powers.copy()
                    reduced[j] -= 1
                    jac[k, j] += coef * p * np.prod(x ** reduced)
        return jac

    def __call__(self, x) -> np.ndarray:
        return self.value(x)


def polynomial_from_json(payload, path: str) -> PolynomialMap:
    if not isinstance(payload, dict):
        _fail(path, "expected a polynomial table object")
    input_dim = _positive_int(_require(payload, "input_dim", f"{path}."), f"{path}.input_dim")
    output_dim = _positive_int(_require(payload, "output_dim", f"{path}."), f"{path}.output_dim")
    raw = _require(payload, "terms", f"{path}.")
    if not isinstance(raw, list) or len(raw) != output_dim:
        _fail(f"{path}.terms", f"expected {output_dim} component term lists")
    terms = []
    for k, comp in enumerate(raw):
        if not isinstance(comp, list):
            _fail(f"{path}.terms[{k}]", "expected an array of monomials")
        parsed = []
        for i, mono in enumerate(comp):
            mpath = f"{path}.terms[{k}][{i}]"
            if not isinstance(mono, dict):
                _fail(mpath, "expected an object with coef and powers")
            coef = _number(_require(mono, "coef", f"{mpath}."), f"{mpath}.coef")
            powers = _require(mono, "powers", f"{mpath}.")
            if not isinstance(powers, list) or len(powers) != input_dim:
                _fail(f"{mpath}.powers", f"expected {input_dim} exponents")
            exps = []
            for j, p in enumerate(powers):
                if isinstance(p, bool) or not isinstance(p, int) or p < 0:
                    _fail(f"{mpath}.powers[{j}]", "exponents are nonnegative integers")
                if p > 2 ** 53:  # the table holds exponents as float64
                    _fail(f"{mpath}.powers[{j}]",
                          "exponents are at most 2**53, where float64 holds every integer")
                exps.append(p)
            parsed.append((coef, np.array(exps)))
        terms.append(tuple(parsed))
    return PolynomialMap(input_dim=input_dim, output_dim=output_dim,
                         terms=tuple(terms))


def _double_integrator(x, u):
    return np.array([x[1], u[0]])


def _pendulum(x, u):
    return np.array([x[1], -np.sin(x[0]) + u[0]])


# name -> (dynamics oracle, state_dim, control_dim)
DYNAMICS_FIXTURES = {
    "double_integrator": (_double_integrator, 2, 1),
    "pendulum": (_pendulum, 2, 1),
}


@dataclass
class ProblemFile:
    """Validated problem file contents."""

    kind: str
    seed: int = 0
    target: np.ndarray | None = None
    # linear / generalized
    matrix: np.ndarray | None = None
    constraint: ConvexSet | None = None
    perturbation: PolynomialMap | None = None
    fixture: str | None = None
    base_x: np.ndarray | None = None
    base_y: np.ndarray | None = None
    radius_x: float | None = None
    radius_y: float | None = None
    radius_graph: float | None = None
    constants: dict = field(default_factory=dict)
    # smooth
    smooth_map: PolynomialMap | None = None
    base: np.ndarray | None = None
    radius: float | None = None
    # control
    control: ControlProblem | None = None

    # -- the problem the file states: each part is built on first use, and
    # a seed of None is the file's own

    @cached_property
    def fibre(self) -> AffineSet:
        """{x : M x = 0} of a linear or generalized file, factored once. An
        operator that is not onto has no finite regularity modulus."""
        fibre = AffineSet(self.matrix, np.zeros(self.matrix.shape[0]))
        if not fibre.surjective:
            raise RegularityError(
                f"operator numerically non-surjective: sigma_min={fibre.sigma_min:.3e} "
                f"vs sigma_max={fibre.sigma_max:.3e}")
        return fibre

    @cached_property
    def smooth_problem(self) -> SmoothProblem:
        return SmoothProblem(f=self.smooth_map, x_base=self.base,
                             jacobian=self.smooth_map.jacobian, radius=self.radius)

    @cached_property
    def system(self) -> DiscretizedSystem:
        return linearize(self.control)

    @cached_property
    def sampled(self) -> tuple:
        """(op, g, centre, radius) that the samplers read: a file's matrix
        and perturbation (``zero_map`` when it has none), a smooth map's base
        fibre and remainder, or the collocation operator and remainder of a
        control file at the rest point."""
        if self.fixture is not None:
            raise ProblemFileError(
                "the counterexample fixture only supports the verify command")
        if self.kind == "smooth":
            p = self.smooth_problem
            return p.base_fibre, p.remainder, p.x_base, p.radius
        if self.kind == "control":
            op = _weighted_operator(self.system)
            return (op, _remainder(self.control, self.system),
                    np.zeros(op.shape[1]), 0.5)
        mat, g = self.matrix, self.perturbation
        g = zero_map(mat.shape[0]) if g is None else g
        center = self.base_x if self.base_x is not None else np.zeros(mat.shape[1])
        return mat, g, center, self.radius_x if self.kind == "generalized" else 1.0

    def equation(self, tol: float, seed: int | None) -> tuple:
        """Equation, schedule (constants and tau, as a certificate without
        steps) and one-query solver of a smooth or generalized file. A
        smooth file's equation is its split, and its queries go through
        smooth_selection, which also checks f(x) = y. The default schedule
        fills in the constants a generalized file leaves out."""
        seed = self.seed if seed is None else seed
        if self.kind == "smooth":
            problem = self.smooth_problem
            cfg = config_for(problem, seed=seed, tol=tol)
            tau = compute_tau(cfg, (problem.radius, problem.radius))
            return (split(problem), IterationCertificate(cfg, tau),
                    lambda y: smooth_selection(problem, y, cfg))
        _, g, center, radius = self.sampled
        fibre, box = self.fibre, self.constraint
        equation = GeneralizedEquation(
            finv=fibre.shifted if box is None
            else lambda w: Intersection([fibre.shifted(w), box]),
            g=g, x_base=center, y_base=self.base_y, radius_x=radius,
            radius_y=self.radius_y, radius_graph=self.radius_graph)
        consts = self.constants
        if not {"kappa", "lambda", "alpha"} <= set(consts):
            lip = lip_estimate(g, center, radius, samples=600, seed=seed)
            cfg = default_config(reg_linear(fibre), lip.value)
            consts = {"kappa": cfg.kappa, "lambda": cfg.lam, "alpha": cfg.alpha,
                      **consts}
        cfg = IterationConfig(kappa=consts["kappa"], lam=consts["lambda"],
                              alpha=consts["alpha"], tol=tol)
        tau = compute_tau(cfg, (radius, self.radius_y))
        return equation, IterationCertificate(cfg, tau), lambda y: solve(equation, cfg, y)

    @cached_property
    def graph(self) -> SampledMapping:
        """The mapping verify samples: x -> M x, or a smooth file's f."""
        if self.constraint is not None:
            raise ProblemFileError(
                "$.constraint: verify samples x -> M x alone and cannot judge the "
                "constrained mapping that solve uses; remove the constraint to "
                "verify the unconstrained one")
        if self.kind == "control":
            raise ProblemFileError("verify does not drive control problems")
        if self.kind == "smooth":
            p = self.smooth_problem
            return SampledMapping(
                forward=lambda x: np.asarray(p.f(x), dtype=float),
                x_base=p.x_base, y_base=p.y_base, radius_x=p.radius,
                radius_y=2.0 * (p.base_fibre.sigma_max + 1.0) * p.radius)
        mat, _, base_x, radius_x = self.sampled
        return SampledMapping(
            forward=lambda x: mat @ x, x_base=base_x, y_base=mat @ base_x,
            radius_x=radius_x,
            radius_y=2.0 * max(self.fibre.sigma_max, 1e-9) * radius_x)

    def verify(self, kappa: float | None, grid: int, seed: int | None) -> list[CheckReport]:
        """The regularity and Aubin verdicts of ``graph`` with kappa, from
        one sampling, then a perturbation's bound. The default kappa is 1.1 x
        reg_linear of the matrix, or 1.05 x a smooth map's sampled
        modulus; the default lambda 1.2 x the perturbation's sampled lip."""
        if kappa is None:
            kappa = (1.05 * sampled_reg(self.graph, grid=grid).value
                     if self.kind == "smooth" else KAPPA_MARGIN * reg_linear(self.fibre))
        reports = list(verify_graph(self.graph, kappa, grid=grid))
        if self.perturbation is not None:
            seed = self.seed if seed is None else seed
            _, g, base_x, radius_x = self.sampled
            lam = self.constants.get("lambda")
            if lam is None:
                lam = LAMBDA_MARGIN * lip_estimate(
                    g, base_x, radius_x, samples=600, seed=seed).value
                if lam == 0:  # lg_bound_check needs lip < lam; any lam < 1/kappa will do
                    lam = 0.5 / kappa
            reports.append(lg_bound_check(self.fibre, g, base_x, kappa=kappa, lam=lam,
                                          radius=radius_x, grid=grid, seed=seed)[0])
        return reports

    def control_gate(self, seed: int | None) -> tuple[int, bool, bool, float]:
        """A control file's Kalman rank and verdict, and the reachable
        interior verdict and margin of its discretized system."""
        rank, rank_ok = kalman_rank(self.system)
        return (rank, rank_ok, *reachable_interior(
            self.system, self.control.control_set,
            seed=self.seed if seed is None else seed))

    def steering(self, size: float, tol: float, seed: int | None) -> SteeringSetup:
        """The one steering set-up for every target of norm up to ``size``."""
        return steering_setup(self.control, self.system,
                              tau_target=_default_tau_target(size), tol=tol,
                              seed=self.seed if seed is None else seed)


def _parse_constants(payload, path: str) -> dict:
    if not isinstance(payload, dict):
        _fail(path, "expected an object")
    out = {}
    for key in payload:
        if key not in ("kappa", "lambda", "alpha"):
            _fail(f"{path}.{key}", "unknown constant; use kappa, lambda, alpha")
        value = _number(payload[key], f"{path}.{key}")
        if key == "lambda" and value < 0:
            _fail(f"{path}.{key}", f"must be >= 0, got {value}")
        if key != "lambda" and value <= 0:
            _fail(f"{path}.{key}", f"must be positive, got {value}")
        out[key] = value
    return out


def _parse_control(payload: dict) -> ControlProblem:
    dynamics_spec = _require(payload, "dynamics")
    mesh = payload.get("mesh", DEFAULT_MESH)
    mesh = _positive_int(mesh, "mesh")
    if mesh < 2:
        _fail("mesh", f"mesh size must be at least 2, got {mesh}")
    if mesh > MAX_MESH:
        _fail("mesh", f"at most {MAX_MESH} intervals, got {mesh}")
    if isinstance(dynamics_spec, str):
        if dynamics_spec not in DYNAMICS_FIXTURES:
            _fail("dynamics", f"unknown fixture {dynamics_spec!r}; "
                  f"known: {sorted(DYNAMICS_FIXTURES)}")
        oracle, n, m = DYNAMICS_FIXTURES[dynamics_spec]
        if "state_dim" in payload and payload["state_dim"] != n:
            _fail("state_dim", f"fixture {dynamics_spec!r} has state_dim {n}")
        if "control_dim" in payload and payload["control_dim"] != m:
            _fail("control_dim", f"fixture {dynamics_spec!r} has control_dim {m}")
    elif isinstance(dynamics_spec, dict):
        poly = polynomial_from_json(dynamics_spec, "dynamics")
        n = _positive_int(_require(payload, "state_dim"), "state_dim")
        m = _positive_int(_require(payload, "control_dim"), "control_dim")
        if poly.input_dim != n + m:
            _fail("dynamics.input_dim",
                  f"must equal state_dim + control_dim = {n + m}")
        if poly.output_dim != n:
            _fail("dynamics.output_dim", f"must equal state_dim = {n}")

        def oracle(x, u, _poly=poly):
            return _poly.value(np.concatenate([x, u]))
    else:
        _fail("dynamics", "expected a fixture name or a polynomial table")
    try:
        control_set = set_from_json(_require(payload, "control_set"))
    except ContractError as exc:
        _fail("control_set", str(exc))
    try:
        return ControlProblem(dynamics=oracle, control_set=control_set,
                              state_dim=n, control_dim=m, mesh_size=mesh)
    except (ContractError, ShapeError) as exc:
        # ControlProblem names the field at fault: dynamics or control_set
        _fail(exc.field or "", str(exc))


def parse_problem(payload: dict) -> ProblemFile:
    """Validate a decoded problem dictionary."""
    if not isinstance(payload, dict):
        raise ProblemFileError("$: problem file must be a JSON object")
    version = _require(payload, "version")
    if version != SCHEMA_VERSION:
        _fail("version", f"unrecognized version {version!r}, expected {SCHEMA_VERSION!r}")
    kind = _require(payload, "kind")
    if kind not in KINDS:
        _fail("kind", f"unknown kind {kind!r}; known: {KINDS}")
    seed = payload.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        _fail("seed", "expected an integer")
    if seed < 0:
        _fail("seed", f"must be nonnegative, got {seed}")
    out = ProblemFile(kind=kind, seed=seed)
    if "target" in payload:
        out.target = _vector(payload["target"], "target")
    if "constants" in payload:
        out.constants = _parse_constants(payload["constants"], "constants")

    if kind == "linear":
        out.matrix = _matrix(_require(payload, "matrix"), "matrix")
        if "base_x" in payload:
            out.base_x = _vector(payload["base_x"], "base_x", out.matrix.shape[1])
    elif kind == "smooth":
        out.smooth_map = polynomial_from_json(_require(payload, "map"), "map")
        out.base = _vector(_require(payload, "base"), "base",
                           out.smooth_map.input_dim)
        out.radius = _number(payload.get("radius", 1.0), "radius")
        if out.radius <= 0:
            _fail("radius", "must be positive")
    elif kind == "generalized":
        if "fixture" in payload:
            fixture = payload["fixture"]
            if fixture != "lsc_counterexample":
                _fail("fixture", f"unknown fixture {fixture!r}; "
                      "known: ['lsc_counterexample']")
            out.fixture = fixture
            return out
        out.matrix = _matrix(_require(payload, "finv_matrix"), "finv_matrix")
        rows, cols = out.matrix.shape
        out.base_x = _vector(_require(payload, "base_x"), "base_x", cols)
        out.base_y = _vector(_require(payload, "base_y"), "base_y", rows)
        if "perturbation" in payload:
            out.perturbation = polynomial_from_json(payload["perturbation"],
                                                    "perturbation")
            if out.perturbation.input_dim != cols:
                _fail("perturbation.input_dim", f"must equal {cols}")
            if out.perturbation.output_dim != rows:
                _fail("perturbation.output_dim", f"must equal {rows}")
        if "constraint" in payload:
            try:
                out.constraint = set_from_json(payload["constraint"])
            except ContractError as exc:
                _fail("constraint", str(exc))
        out.radius_x = _number(payload.get("radius_x", 1.0), "radius_x")
        out.radius_y = _number(payload.get("radius_y", 1.0), "radius_y")
        out.radius_graph = _number(
            payload.get("radius_graph", 2.0 * (out.radius_x + out.radius_y)),
            "radius_graph")
        for name in ("radius_x", "radius_y", "radius_graph"):
            if getattr(out, name) <= 0:
                _fail(name, "must be positive")
    elif kind == "control":
        out.control = _parse_control(payload)
    return out


def load_problem(path: str) -> ProblemFile:
    """Read and validate a problem file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}: invalid JSON at line {exc.lineno} "
                               f"column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, too many digits, too deep
        raise ProblemFileError(f"{path}: unreadable JSON: {exc}") from exc
    return parse_problem(payload)
