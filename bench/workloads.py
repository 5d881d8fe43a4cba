"""The four benchmark workloads.

Each workload makes its inputs from the seed in ``__init__`` (untimed),
builds the program-side state in ``setup`` (timed as ``setup_s``), and hands
out operations through ``op(state, k, tracer)``: a zero-argument callable
that is timed, and a check that validates its result afterwards. All four
are closed loops: one driver process, one operation at a time.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
import reference
import tracing
from regsel import control, convex, linalg, moduli, problems, selection, smooth

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class GeneralizedCase:
    matrix: np.ndarray
    weights: np.ndarray
    phase: np.ndarray
    eps: float
    box: tuple | None
    x_base: np.ndarray
    y_base: np.ndarray

    def g(self, x):
        return self.eps * np.sin(self.weights @ x + self.phase)


@dataclass
class SmoothCase:
    table: list
    x_base: np.ndarray
    radius: float


class SolveMix:
    """Many small certified solves, many queries per problem.

    Three seeded families, visited round robin: generalized equations
    M x + g(x) = y with a sin perturbation, the same with a box constraint
    (every fibre an Intersection, so dykstra runs), and polynomial smooth
    maps solved through smooth_selection.
    """

    name = "solve-mix"
    noun = "solves"
    setup_repeats = 3
    in_process = True
    kernel = staticmethod(reference.small_numpy)
    kernel_nominal_s = reference.NOMINAL_S["small_numpy"]
    kernel_calls = 1
    scale_window = 200
    ops_per_sample = units_per_sample = 1

    SHAPES = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 5))
    BOX_SHAPES = ((1, 2), (2, 2), (2, 3), (3, 5))
    SMOOTH_SHAPES = ((2, 1), (3, 2))  # (inputs, outputs)

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 1])
        self.seed = seed
        # Problems per shape, by family. Many problems per seed average out
        # the seed's effect on iteration counts; the smooth family is few
        # because its set-up (config_for samples 1500 points) dominates.
        per_shape = (1, 1, 1) if tiny else (6, 4, 2)
        self.cases = []
        for shapes, boxed, count in ((self.SHAPES, False, per_shape[0]),
                                     (self.BOX_SHAPES, True, per_shape[1])):
            for m, n in shapes:
                for _ in range(count):
                    self.cases.append(self._generalized(rng, m, n, boxed))
        for n, m in self.SMOOTH_SHAPES:
            for _ in range(per_shape[2]):
                self.cases.append(self._smooth(rng, n, m))
        count = 1 << 16
        self.t = rng.uniform(0.05, 0.9, size=count)
        self.u = rng.standard_normal((count, 3))
        self.round_ops = len(self.cases)
        self.traced_ops = 2 * len(self.cases)

    @staticmethod
    def _generalized(rng, m, n, boxed):
        mat, smin = checks.random_surjective(rng, m, n, 0.5, 2.0)
        weights = rng.standard_normal((m, n))
        weights /= np.linalg.norm(weights, 2)
        box = None
        if boxed:
            # Wide enough to hold every certified solution, so the box is
            # a Dykstra member without being active at the answer.
            box = (-2.0 * rng.uniform(1.0, 1.5, n), 2.0 * rng.uniform(1.0, 1.5, n))
        return GeneralizedCase(matrix=mat, weights=weights,
                               phase=rng.uniform(0.0, 2.0 * np.pi, m),
                               eps=0.25 * smin, box=box, x_base=np.zeros(n),
                               y_base=np.zeros(m))

    @staticmethod
    def _smooth(rng, n, m):
        b, _ = checks.random_surjective(rng, m, n, 0.5, 2.0)
        table = []
        for k in range(m):
            comp = [(float(b[k, j]), [int(i == j) for i in range(n)]) for j in range(n)]
            for i in range(n):
                for j in range(i, n):
                    powers = [0] * n
                    powers[i] += 1
                    powers[j] += 1
                    comp.append((float(0.05 * rng.standard_normal()), powers))
            table.append(comp)
        return SmoothCase(table=table, x_base=np.zeros(n), radius=0.5)

    def setup(self):
        state = []
        for case in self.cases:
            if isinstance(case, SmoothCase):
                n, m = case.x_base.size, len(case.table)
                poly = problems.PolynomialMap(
                    input_dim=n, output_dim=m,
                    terms=tuple(tuple((c, np.array(p)) for c, p in comp)
                                for comp in case.table))
                prob = smooth.SmoothProblem(f=poly, x_base=case.x_base,
                                            jacobian=poly.jacobian,
                                            radius=case.radius)
                cfg = smooth.config_for(prob, seed=self.seed)
                # smooth.split uses the problem radius for both locality radii
                tau = selection.compute_tau(cfg, (case.radius, case.radius))
                state.append((case, prob, cfg, prob.y_base, tau))
                continue
            mat, box = case.matrix, case.box
            if box is None:
                def finv(w, _m=mat):
                    return convex.AffineSet(_m, w)
            else:
                def finv(w, _m=mat, _c=convex.Box(*box)):
                    return convex.Intersection([convex.AffineSet(_m, w), _c])
            lip = moduli.lip_estimate(case.g, case.x_base, 1.0, samples=600,
                                      seed=self.seed)
            cfg = selection.default_config(moduli.reg_linear(mat), lip.value)
            eq = selection.GeneralizedEquation(
                finv=finv, g=case.g, x_base=case.x_base, y_base=case.y_base,
                radius_x=1.0, radius_y=1.0, radius_graph=2.0)
            base_out = case.y_base + case.g(case.x_base)
            state.append((case, eq, cfg, base_out,
                          selection.compute_tau(cfg, (1.0, 1.0))))
        return state

    def family(self, k: int) -> str:
        case = self.cases[k % len(self.cases)]
        if isinstance(case, SmoothCase):
            return "smooth"
        return "constrained" if case.box is not None else "generalized"

    def op(self, state, k, tracer):
        case, prob, cfg, base_out, tau = state[k % len(state)]
        j = k % self.t.size
        u = self.u[j, :base_out.size]
        y = base_out + self.t[j] * tau * u / np.linalg.norm(u)
        if isinstance(case, SmoothCase):
            def call():
                return smooth.smooth_selection(prob, y, cfg)

            def check(res):
                return checks.smooth_error(case, y, res[0], cfg, res[1])
        else:
            def call():
                return selection.solve(prob, cfg, y)

            def check(res):
                return checks.generalized_error(case, y, res[0], cfg, res[1])
        return call, check


class SteerMesh:
    """Constrained steering at mesh 128 for the pendulum and the double
    integrator with a unit control box.

    Targets lie on a ring |b| in [0.02, 0.05], inside the reachable set and
    the certified radius: the workload measures the certified path, and the
    unreachable-target defect is deliberately not exercised.
    """

    name = "steer-mesh"
    noun = "steers"
    setup_repeats = 3
    in_process = True
    kernel = staticmethod(reference.dense_svd)
    kernel_nominal_s = reference.NOMINAL_S["dense_svd"]
    kernel_calls = 3
    scale_window = 10
    ops_per_sample = units_per_sample = 1
    FIXTURES = ("pendulum", "double_integrator")
    # Targets go to the pendulum twice for each double-integrator target.
    # The two fixtures' steer times form two clusters; with an even split
    # the median would sit in the gap between them and jump between runs.
    ROTATION = (0, 0, 1)
    RING = (0.02, 0.05)

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 2])
        self.seed = seed
        self.mesh = 64 if tiny else 128
        count = 1 << 12
        radius = rng.uniform(*self.RING, size=count)
        angle = rng.uniform(0.0, 2.0 * np.pi, size=count)
        self.targets = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        self.round_ops = len(self.ROTATION)
        self.traced_ops = 4 if tiny else 12

    def setup(self):
        state = []
        box = convex.Box([-1.0], [1.0])
        for name in self.FIXTURES:
            dynamics, n, m = problems.DYNAMICS_FIXTURES[name]
            prob = control.ControlProblem(dynamics=dynamics, control_set=box,
                                          state_dim=n, control_dim=m,
                                          mesh_size=self.mesh)
            sys_ = control.linearize(prob)
            control.reachable_interior(sys_, prob.control_set)
            tau_target = max(control.TAU_FLOOR, 1.3 * self.RING[1])
            # The sampler seed stays at the program default, as in the CLI:
            # the sampled lip varies enough with it that some seeds push
            # kappa*lambda past 0.9 (pendulum, mesh 128, seed 10).
            setup = control.steering_setup(prob, sys_, tau_target=tau_target)
            state.append((name, prob, sys_, setup))
        return state

    def family(self, k: int) -> str:
        return self.FIXTURES[self.ROTATION[k % len(self.ROTATION)]]

    def op(self, state, k, tracer):
        name, prob, sys_, setup = state[self.ROTATION[k % len(self.ROTATION)]]
        b = self.targets[k % len(self.targets)]

        def call():
            return control.steer(prob, sys_, b, setup=setup)

        def check(res):
            return checks.steering_error(DYNAMICS[name], b, res)
        return call, check


def _pendulum(x, u):
    return np.array([x[1], u[0] - np.sin(x[0])])


def _double_integrator(x, u):
    return np.array([x[1], u[0]])


# The benchmark's own dynamics, used only by the trapezoid check.
DYNAMICS = {"pendulum": _pendulum, "double_integrator": _double_integrator}


class VerifyGrid:
    """Grid verifiers on seeded linear maps with a known modulus.

    One sample is a pass over the fixed case list, made of seven timed
    operations: metric regularity and Aubin on a 2-D map (grid 21), a 3-D
    map (grid 9) and a 2->1 map (grid 41, few large fibres), then the
    perturbation-bound check. Passes alternate kappa = 1.05 * modulus (both
    verdicts must pass) and 0.95 * modulus (both must fail).
    """

    name = "verify-grid"
    noun = "passes"
    setup_repeats = 3
    in_process = True
    # The grid verifiers are Python loops over small arrays, yet on the
    # host their drift follows the dense-SVD kernel most closely.
    kernel = staticmethod(reference.dense_svd)
    kernel_nominal_s = reference.NOMINAL_S["dense_svd"]
    kernel_calls = 4
    scale_window = 6

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 3])
        self.seed = seed
        grids = (7, 5, 9) if tiny else (21, 9, 41)
        self.cases = [self._square(rng, 2, grids[0]), self._square(rng, 3, grids[1]),
                      self._two_to_one(rng, grids[2])]
        mat, smin, _ = self.cases[0][:3]
        weights = rng.standard_normal((2, 2))
        weights /= np.linalg.norm(weights, 2)
        phase = rng.uniform(0.0, 2.0 * np.pi, 2)
        eps = 0.3 * smin
        self.lg = (mat, lambda x: eps * np.sin(weights @ x + phase),
                   1.05 / smin, 0.5 * smin, grids[0])
        self.ops_per_sample, self.units_per_sample = 2 * len(self.cases) + 1, 1
        self.round_ops = 2 * self.ops_per_sample
        self.traced_ops = self.round_ops

    @staticmethod
    def _square(rng, n, grid):
        # The smallest singular direction is a lattice vector, so the grid
        # attains the modulus 1/sigma_min exactly.
        k = np.zeros(n)
        while not np.any(k):
            k = rng.integers(-2, 3, size=n).astype(float)
        q, _ = np.linalg.qr(np.column_stack([k, rng.standard_normal((n, n - 1))]))
        v = np.column_stack([q[:, 1:], q[:, 0]])
        s = np.sort(rng.uniform(0.5, 2.0, size=n))[::-1]
        mat = (checks.random_orthogonal(rng, n) * s) @ v.T
        ref = checks.sampled_modulus(mat, np.zeros(n), 1.0, grid)
        if abs(ref * s[-1] - 1.0) > 1e-9:
            raise RuntimeError(f"grid does not attain 1/sigma_min: {ref * s[-1]}")
        return mat, float(s[-1]), ref, grid

    @staticmethod
    def _two_to_one(rng, grid):
        # Power-of-two scale and unit coefficients keep the values of one
        # fibre bitwise equal, so the number of fibres does not depend on
        # the seed. Sampled fibres are sparse subsets of the true lines, so
        # the grid modulus exceeds 1/sigma_min; the reference is that of the
        # sampled graph.
        mat = rng.choice([0.5, 1.0, 2.0]) * rng.choice([-1.0, 1.0], size=(1, 2))
        ref = checks.sampled_modulus(mat, np.zeros(2), 1.0, grid)
        return mat, float(np.linalg.norm(mat)), ref, grid

    def setup(self):
        """Mappings plus the analytic and the sampled modulus of each map."""
        state = []
        for mat, _, _, grid in self.cases:
            mapping = moduli.SampledMapping(
                forward=lambda x, _m=mat: _m @ x, x_base=np.zeros(mat.shape[1]),
                y_base=np.zeros(mat.shape[0]), radius_x=1.0,
                radius_y=2.0 * linalg.operator_norm(mat))
            state.append((mapping, moduli.reg_linear(mat),
                          moduli.sampled_reg(mapping, grid=grid).value))
        return state

    CASE_NAMES = ("2-D", "3-D", "2->1")

    def family(self, k: int) -> str:
        factor = "1.05" if (k // self.ops_per_sample) % 2 == 0 else "0.95"
        step = k % self.ops_per_sample
        if step == self.ops_per_sample - 1:
            return f"lg-bound x{factor}"
        kind = "aubin" if step % 2 else "metric-reg"
        return f"{kind} {self.CASE_NAMES[step // 2]} x{factor}"

    def op(self, state, k, tracer):
        factor = 1.05 if (k // self.ops_per_sample) % 2 == 0 else 0.95
        step = k % self.ops_per_sample
        if step == self.ops_per_sample - 1:
            lg_mat, lg_g, lg_kappa, lg_lam, lg_grid = self.lg

            def call():
                return moduli.lg_bound_check(lg_mat, lg_g, np.zeros(2), kappa=lg_kappa,
                                             lam=lg_lam, radius=1.0, grid=lg_grid,
                                             samples=600, seed=self.seed)[0]

            def check(report):
                return "" if report.ok else f"perturbation bound failed: {report.detail}"
            return call, check

        i = step // 2
        verify = moduli.verify_aubin if step % 2 else moduli.verify_metric_regularity
        (mapping, reg, sampled), (_, smin, ref, grid) = state[i], self.cases[i]

        def call():
            return verify(mapping, factor * ref, grid=grid)

        def check(report):
            if abs(reg * smin - 1.0) > checks.MATCH_RTOL:
                return f"reg_linear {reg:.12g} != 1/sigma_min {1.0 / smin:.12g}"
            if abs(sampled - ref) > checks.MATCH_RTOL * ref:
                return f"sampled_reg {sampled:.12g} != reference {ref:.12g}"
            err = checks.verdict_error(report, factor > 1.0, ref)
            return f"case {i}: {err}" if err else ""
        return call, check


class CliCold:
    """Fresh ``regsel`` CLI processes on the committed problem fixtures.

    Seeded targets and sampling seeds; the expected answers come from the
    same computations made through the library in-process during set-up.
    """

    name = "cli-cold"
    noun = "invocations"
    setup_repeats = 3
    in_process = False
    kernel_nominal_s = reference.NOMINAL_S["interpreter"]
    kernel_calls = 1
    scale_window = 1000
    FIXTURES = os.path.join("scripts", "problems")

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 4])
        self.seed = seed
        sign = rng.choice([-1.0, 1.0], size=3)
        self.t_gen = float(sign[0] * rng.uniform(0.02, 0.15))
        self.t_smooth = float(sign[1] * rng.uniform(0.02, 0.1))
        self.t_linear = rng.uniform(-1.0, 1.0, size=2)
        self.t_sweep = float(sign[2] * rng.uniform(0.05, 0.15))
        self.samples = 300 if tiny else 3000
        path = self.path
        self.commands = [
            ("solve-generalized", ["solve", "--input", path("generalized"),
                                   _target(self.t_gen)]),
            ("solve-smooth", ["solve", "--input", path("smooth"), _target(self.t_smooth)]),
            ("solve-linear", ["solve", "--input", path("linear"), _target(self.t_linear)]),
            ("sweep-generalized", ["sweep", "--input", path("generalized"),
                                   _target(self.t_sweep), "--grid", "21"]),
            ("moduli-generalized", ["moduli", "--input", path("generalized"),
                                    "--seed", str(seed), "--samples", str(self.samples)]),
            ("verify-linear", ["verify", "--input", path("linear"), "--grid", "11"]),
            ("verify-generalized", ["verify", "--input", path("generalized"),
                                    "--seed", str(seed), "--grid", "11"]),
        ]
        # A sample is one round of every command; its time is the mean
        # cold start of the round, so no command's cost sets the median.
        self.ops_per_sample = self.units_per_sample = len(self.commands)
        self.round_ops = len(self.commands)
        self.traced_ops = len(self.commands)
        self.env = dict(os.environ)
        self.child_spans = []

    def kernel(self):
        reference.interpreter(self.env)

    def path(self, name: str) -> str:
        return os.path.join(self.FIXTURES, f"{name}.json")

    def setup(self):
        """Expected outputs, computed through the library."""
        gen = problems.load_problem(self.path("generalized"))
        c = gen.constants
        cfg = selection.IterationConfig(kappa=c["kappa"], lam=c["lambda"], alpha=c["alpha"])
        eq = selection.GeneralizedEquation(
            finv=lambda w, _m=gen.matrix: convex.AffineSet(_m, w), g=gen.perturbation,
            x_base=gen.base_x, y_base=gen.base_y, radius_x=gen.radius_x,
            radius_y=gen.radius_y, radius_graph=gen.radius_graph)
        expected = {"solve-generalized": selection.solve(eq, cfg, [self.t_gen])[0]}

        sm = problems.load_problem(self.path("smooth"))
        prob = smooth.SmoothProblem(f=sm.smooth_map, x_base=sm.base,
                                    jacobian=sm.smooth_map.jacobian, radius=sm.radius)
        expected["solve-smooth"] = smooth.smooth_selection(
            prob, [self.t_smooth], smooth.config_for(prob, seed=sm.seed))[0]

        lin = problems.load_problem(self.path("linear"))
        expected["solve-linear"] = linalg.least_norm_solve(lin.matrix, self.t_linear)

        base_out = eq.y_base + eq.g_value(eq.x_base)
        ys = [base_out + t * (np.array([self.t_sweep]) - base_out)
              for t in np.linspace(0.0, 1.0, 21)]
        expected["sweep-generalized"] = np.array(
            [row.x for row in selection.sweep(eq, cfg, ys).rows])

        est = [moduli.lip_estimate, moduli.clm_estimate]
        expected["moduli-generalized"] = [moduli.reg_linear(gen.matrix)] + [
            f(gen.perturbation, gen.base_x, gen.radius_x, samples=self.samples,
              seed=self.seed).value for f in est]

        expected["verify-linear"] = self._verify_linear(lin)
        expected["verify-generalized"] = self._verify_generalized(gen)
        return expected

    @staticmethod
    def _verify_linear(lin):
        mat = lin.matrix
        mapping = moduli.SampledMapping(
            forward=lambda x: mat @ x, x_base=np.zeros(mat.shape[1]),
            y_base=np.zeros(mat.shape[0]), radius_x=1.0,
            radius_y=2.0 * linalg.operator_norm(mat))
        kappa = 1.1 * moduli.reg_linear(mat)
        return [moduli.verify_metric_regularity(mapping, kappa, grid=11).worst_ratio,
                moduli.verify_aubin(mapping, kappa, grid=11).worst_ratio]

    def _verify_generalized(self, gen):
        mat = gen.matrix
        kappa = 1.1 * moduli.reg_linear(mat)
        mapping = moduli.SampledMapping(
            forward=lambda x: mat @ x, x_base=gen.base_x, y_base=mat @ gen.base_x,
            radius_x=gen.radius_x,
            radius_y=2.0 * linalg.operator_norm(mat) * gen.radius_x)
        report, _ = moduli.lg_bound_check(mat, gen.perturbation, gen.base_x, kappa=kappa,
                                          lam=gen.constants["lambda"], radius=gen.radius_x,
                                          grid=11, seed=self.seed)
        return [moduli.verify_metric_regularity(mapping, kappa, grid=11).worst_ratio,
                moduli.verify_aubin(mapping, kappa, grid=11).worst_ratio,
                report.worst_ratio]

    def family(self, k: int) -> str:
        return self.commands[k % len(self.commands)][0]

    def op(self, state, k, tracer):
        label, argv = self.commands[k % len(self.commands)]
        if tracer is None:
            cmd = [sys.executable, "-m", "regsel.cli"] + argv
        else:
            spans = os.path.join(tracing.OUT_DIR, "cli-child.npz")
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), spans] + argv

        def call():
            return subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  timeout=120)

        def check(proc):
            if tracer is not None and os.path.exists(spans):
                with np.load(spans) as data:
                    part = {key: data[key] for key in data.files}
                os.remove(spans)
                part["query"] = np.full(part["start"].size, k, dtype=np.int32)
                self.child_spans.append(part)
            if proc.returncode != 0:
                return f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
            try:
                got = parse_cli(label, proc.stdout)
            except ValueError as exc:
                return f"{label}: output does not parse: {exc}"
            want = np.asarray(state[label], dtype=float)
            if got.shape != want.shape or not np.allclose(got, want, rtol=1e-12, atol=1e-15):
                return f"{label}: CLI gives {got.ravel()[:4]}, library {want.ravel()[:4]}"
            return ""
        return call, check


def _target(values) -> str:
    """--target=v1,v2 (the = keeps a leading minus from reading as a flag);
    repr round-trips every float."""
    return "--target=" + ",".join(repr(float(v)) for v in np.atleast_1d(values))


def parse_cli(label: str, text: str) -> np.ndarray:
    """The numbers a command reports, in the layout of the library reference."""
    lines = [line.split(",") for line in text.strip().splitlines()]
    if label.startswith("solve"):
        rows = {r[0]: r[1:] for r in lines}
        if label != "solve-linear" and rows.get("calm_ok") != ["true"]:
            raise ValueError("calm_ok is not true")
        return np.array([float(v) for v in rows["x"]])
    if label.startswith("sweep"):
        header = lines[0]
        xcols = [i for i, h in enumerate(header) if h.startswith("x")]
        body = [r for r in lines[1:] if r[0].isdigit()]
        if any(r[1] != "ok" for r in body):
            raise ValueError("a sweep row failed")
        return np.array([[float(r[i]) for i in xcols] for r in body])
    # moduli / verify: CSV rows kind,value,...,verdict,...
    if lines[0][0] != "kind":
        raise ValueError("missing CSV header")
    rows = lines[1:]
    if label.startswith("verify") and any(r[5] != "pass" for r in rows):
        raise ValueError("a verdict failed")
    return np.array([float(r[1]) for r in rows])


WORKLOADS = {w.name: w for w in (SolveMix, SteerMesh, VerifyGrid, CliCold)}


def bare_interpreter(env) -> float:
    """Wall time of one interpreter start that imports nothing of regsel."""
    t0 = time.perf_counter()
    # Pipes, so the exit is seen at once (see reference.interpreter).
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - t0
