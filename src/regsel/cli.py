"""Command line front end.

Subcommands: moduli, solve, sweep, control, verify. Every command reads a
JSON problem file (--input), writes CSV-style lines to --out (default
stdout) with floats at 17 significant digits, and exits with a code from
the fixed partition: 0 ok, 2 input, 3 numeric breakdown, 4 locality or
regularity failure, 5 uncontrollable, 6 verification failed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .convex import AffineSet, Intersection
from .control import (calm_sweep, kalman_rank, linearize,
                      reachable_interior, steer, _remainder,
                      _weighted_operator)
from .errors import (ContractError, InfeasibilitySuspectedError,
                     LocalityError, NumericBreakdownError, ProblemFileError,
                     RegularityError, ShapeError, UncontrollableError)
from .linalg import svd
from .moduli import (CSV_HEADER, ModulusEstimate, SampledMapping,
                     clm_estimate, csv_row, fmt_float, lg_bound_check,
                     lip_estimate, lsc_probe, reg_linear, sampled_reg,
                     truncated_counterexample, verify_graph)
from .problems import MAX_MESH, ProblemFile, load_problem
from .selection import (KAPPA_MARGIN, LAMBDA_MARGIN, GeneralizedEquation,
                        IterationConfig, compute_tau, default_config, solve,
                        solve_implicit, sweep)
from .smooth import SmoothProblem, config_for, smooth_selection, split

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_LOCALITY = 4
EXIT_UNCONTROLLABLE = 5
EXIT_VERIFICATION = 6

# Upper bounds on the work a flag can ask for; each bounds memory or time.
MAX_SAMPLES = 10 ** 6       # moduli --samples
MAX_GRID = 10 ** 4          # sweep and control --grid targets
MAX_VERIFY_POINTS = 20_000  # verify grid points, after odd rounding


class _Writer:
    """Collects output lines; flushed once so partial runs stay atomic."""

    def __init__(self, path: str | None):
        self.path = path
        self.lines: list[str] = []

    def line(self, text: str):
        self.lines.append(text)

    def flush(self):
        if not self.lines:
            return
        text = "\n".join(self.lines) + "\n"
        if self.path is None:
            sys.stdout.write(text)
        else:
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write(text)


def _parse_vector(text: str, flag: str) -> np.ndarray:
    parts = [tok.strip() for tok in text.split(",")]
    try:
        vals = [float(tok) for tok in parts if tok != ""]
    except ValueError:
        raise ProblemFileError(
            f"{flag}: expected comma-separated floats, got {text!r}")
    if not vals:
        raise ProblemFileError(f"{flag}: empty vector")
    return np.array(vals)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _seed(pf: ProblemFile, args) -> int:
    return args.seed if args.seed is not None else pf.seed


def _target_count(grid: int | None) -> int:
    """The --grid point count of sweep and control, checked against its cap."""
    if grid is None or grid < 1:
        raise ProblemFileError("--grid: need a positive point count")
    if grid > MAX_GRID:
        raise ProblemFileError(f"--grid: at most {MAX_GRID} points, got {grid}")
    return grid


def _verify_grid(args, dim: int) -> int:
    """Points per axis for verify; their count in dim axes is capped."""
    grid = args.grid if args.grid is not None else 11
    points = (grid + 1 - grid % 2) ** dim
    if points > MAX_VERIFY_POINTS:
        raise ProblemFileError(
            f"--grid: {grid} per axis makes {points} points in {dim} "
            f"dimensions, at most {MAX_VERIFY_POINTS} allowed")
    return grid


# ---------------------------------------------------------------------------
# building blocks shared by the subcommands


def _target(pf: ProblemFile, args, dim: int, missing: str) -> np.ndarray:
    """The query of solve, sweep and control: --target, else the file's
    target, of length dim; read before any set-up work."""
    target = args.target if args.target is not None else pf.target
    if target is None:
        raise ProblemFileError(missing)
    if isinstance(target, str):
        target = _parse_vector(target, "--target")
    y = np.asarray(target, dtype=float)
    if y.size != dim:
        raise ProblemFileError(
            f"--target: expected {dim} components, got {y.size}")
    return y


def _linear_part(pf: ProblemFile):
    """Matrix, perturbation (x -> 0 when the file has none), centre and
    radius of a linear or generalized file."""
    mat = pf.matrix
    g = pf.perturbation
    if g is None:
        def g(x):  # one point or stacked columns, as the samplers take
            return np.zeros((mat.shape[0],) + np.shape(x)[1:])
    center = pf.base_x if pf.base_x is not None else np.zeros(mat.shape[1])
    radius = pf.radius_x if pf.kind == "generalized" else 1.0
    return mat, g, center, radius


def _onto(fibre: AffineSet) -> AffineSet:
    """The fibre of an onto operator. Any other has no finite regularity
    modulus: a regularity failure (exit 4), named by its singular values
    before any certificate line, as a linear file's solve names it."""
    if not fibre.surjective:
        raise RegularityError(
            f"operator numerically non-surjective: sigma_min={fibre.sigma_min:.3e} "
            f"vs sigma_max={fibre.sigma_max:.3e}")
    return fibre


def _smooth_problem(pf: ProblemFile) -> SmoothProblem:
    return SmoothProblem(f=pf.smooth_map, x_base=pf.base,
                         jacobian=pf.smooth_map.jacobian, radius=pf.radius)


def _equation(pf: ProblemFile, args):
    """Equation, constants and one-query solver of a smooth or generalized
    file. A smooth file's equation is its split, and its queries go through
    smooth_selection, which also checks f(x) = y."""
    if pf.kind == "smooth":
        problem = _smooth_problem(pf)
        cfg = config_for(problem, seed=_seed(pf, args), tol=args.tol,
                         max_iter=args.max_iter)
        return split(problem), cfg, lambda y: smooth_selection(problem, y, cfg)
    mat, g, center, radius = _linear_part(pf)
    fibre = _onto(AffineSet(mat, np.zeros(mat.shape[0])))
    if pf.constraint is not None:
        def finv(w, _c=pf.constraint):
            return Intersection([fibre.shifted(w), _c])
    else:
        finv = fibre.shifted
    equation = GeneralizedEquation(
        finv=finv, g=g, x_base=center, y_base=pf.base_y, radius_x=radius,
        radius_y=pf.radius_y, radius_graph=pf.radius_graph)
    consts = pf.constants
    if not {"kappa", "lambda", "alpha"} <= set(consts):
        # the default schedule fills in the constants the file leaves out
        lip = lip_estimate(g, center, radius, samples=600, seed=_seed(pf, args))
        cfg = default_config(reg_linear(fibre), lip.value, tol=args.tol,
                             max_iter=args.max_iter)
        consts = {"kappa": cfg.kappa, "lambda": cfg.lam, "alpha": cfg.alpha,
                  **consts}
    cfg = IterationConfig(kappa=consts["kappa"], lam=consts["lambda"],
                          alpha=consts["alpha"], tol=args.tol,
                          max_iter=args.max_iter)
    return equation, cfg, lambda y: solve(equation, cfg, y)


def _certificate_lines(out: _Writer, cfg: IterationConfig, tau: float,
                       cert=None):
    out.line(f"kappa,{fmt_float(cfg.kappa)}")
    out.line(f"lambda,{fmt_float(cfg.lam)}")
    out.line(f"alpha,{fmt_float(cfg.alpha)}")
    out.line(f"tau,{fmt_float(tau)}")
    if cert is not None:
        out.line(f"iterations,{cert.iterate_count}")
        out.line(f"residual,{fmt_float(cert.residual)}")
        out.line(f"tail_bound,{fmt_float(cert.tail_bound)}")
        out.line(f"calm_ok,{_bool(cert.calm_ok)}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_moduli(pf: ProblemFile, args, out: _Writer) -> int:
    if args.samples > MAX_SAMPLES:
        raise ProblemFileError(
            f"--samples: at most {MAX_SAMPLES}, got {args.samples}")
    if pf.kind in ("linear", "generalized"):
        if pf.fixture is not None:
            raise ProblemFileError(
                "the counterexample fixture only supports the verify command")
        op, g, center, default_radius = _linear_part(pf)
    elif pf.kind == "smooth":
        problem = _smooth_problem(pf)
        op, g = problem.base_fibre, problem.remainder
        center, default_radius = problem.x_base, problem.radius
    else:
        sys_ = linearize(pf.control)
        op = _weighted_operator(sys_)
        g = _remainder(pf.control, sys_)
        center, default_radius = np.zeros(op.shape[1]), 0.5
    seed = _seed(pf, args)
    radius = args.radius if args.radius is not None else default_radius
    rows = [ModulusEstimate(kind="reg", value=reg_linear(op), seed=seed),
            lip_estimate(g, center, radius, samples=args.samples, seed=seed),
            clm_estimate(g, center, radius, samples=args.samples, seed=seed)]
    out.line(CSV_HEADER)
    for row in rows:
        out.line(row.csv_row())
    return EXIT_OK


def cmd_solve(pf: ProblemFile, args, out: _Writer) -> int:
    if pf.kind == "control":
        raise ProblemFileError(
            "control problems are driven by the control subcommand")
    if pf.kind == "generalized" and pf.fixture is not None:
        raise ProblemFileError("the counterexample fixture has no solver")
    p = None
    if args.parameter is not None:
        if pf.kind != "generalized":
            raise ProblemFileError(
                "--parameter: only generalized files take a parameter")
        if args.target is not None:
            raise ProblemFileError(
                "--parameter: give --target or --parameter, not both")
        p = _parse_vector(args.parameter, "--parameter")
        if p.size != pf.matrix.shape[0]:
            raise ProblemFileError(
                f"--parameter: expected {pf.matrix.shape[0]} components")
    else:
        dim = (pf.smooth_map.output_dim if pf.kind == "smooth"
               else pf.matrix.shape[0])
        y = _target(pf, args, dim, "solve needs --target (or --parameter)")

    if pf.kind == "linear":
        # one factorization gives x (least_norm_solve's bits) and kappa
        fac = svd(pf.matrix)
        x = fac.least_norm(y)
        out.line("x," + ",".join(fmt_float(v) for v in np.atleast_1d(x)))
        out.line(f"kappa,{fmt_float(reg_linear(fac))}")
        out.line(f"residual,{fmt_float(float(np.linalg.norm(pf.matrix @ x - y)))}")
        return EXIT_OK

    equation, cfg, select = _equation(pf, args)
    tau = compute_tau(cfg, (equation.radius_x, equation.radius_y))
    try:
        x, cert = select(y) if p is None else solve_implicit(equation, cfg, p)
    except (LocalityError, RegularityError) as exc:
        _certificate_lines(out, cfg, tau)
        out.line(f"error,{exc}")
        return EXIT_LOCALITY
    out.line("x," + ",".join(fmt_float(v) for v in x))
    _certificate_lines(out, cfg, tau, cert)
    return EXIT_OK


def cmd_sweep(pf: ProblemFile, args, out: _Writer) -> int:
    if pf.kind not in ("smooth", "generalized") or pf.fixture is not None:
        raise ProblemFileError(
            "sweep drives smooth or generalized problems")
    grid = _target_count(args.grid)
    dim = pf.smooth_map.output_dim if pf.kind == "smooth" else pf.matrix.shape[0]
    target = _target(pf, args, dim, "sweep needs --target for the grid endpoint")
    equation, cfg, _ = _equation(pf, args)
    base_out = equation.y_base + equation.g_value(equation.x_base)
    if grid == 1:
        ys = [target]
    else:
        steps = np.linspace(0.0, 1.0, grid)
        ys = [base_out + t * (target - base_out) for t in steps]
    result = sweep(equation, cfg, ys)

    ydim = equation.y_base.size
    xdim = equation.x_base.size
    header = (["index", "status"] + [f"y{j + 1}" for j in range(ydim)]
              + [f"x{j + 1}" for j in range(xdim)] + ["iterations", "residual"])
    out.line(",".join(header))
    ok_rows = 0
    for i, row in enumerate(result.rows):
        cells = [str(i)]
        if row.x is None:
            cells.append("error")
        else:
            cells.append("ok")
            ok_rows += 1
        cells += [fmt_float(v) for v in row.y]
        if row.x is None:
            cells += [""] * xdim + ["", ""]
        else:
            cells += [fmt_float(v) for v in row.x]
            cells += [str(row.certificate.iterate_count),
                      fmt_float(row.certificate.residual)]
        out.line(",".join(cells))
    out.line(f"tau,{fmt_float(result.tau)}")
    out.line(f"gamma,{fmt_float(result.gamma)}")
    out.line(f"max_continuity_ratio,{fmt_float(result.max_continuity_ratio)}")
    out.line(f"empirical_clm,{fmt_float(result.empirical_clm)}")
    out.line(f"jumps,{len(result.jump_indices)}")
    return EXIT_OK if ok_rows else EXIT_LOCALITY


def cmd_control(pf: ProblemFile, args, out: _Writer) -> int:
    if pf.kind != "control":
        raise ProblemFileError("control drives control problem files")
    problem = pf.control
    grid = None if args.grid is None else _target_count(args.grid)
    if args.mesh is not None:
        from dataclasses import replace
        if not 2 <= args.mesh <= MAX_MESH:
            raise ProblemFileError(
                f"--mesh: need 2 to {MAX_MESH} intervals, got {args.mesh}")
        problem = replace(problem, mesh_size=args.mesh)
    b = _target(pf, args, problem.state_dim,
                "control needs --target for the endpoint")
    seed = _seed(pf, args)
    sys_ = linearize(problem)
    rank, rank_ok = kalman_rank(sys_)
    interior_ok, margin = reachable_interior(sys_, problem.control_set, seed=seed)
    out.line(f"kalman_rank,{rank}")
    out.line(f"kalman_controllable,{_bool(rank_ok)}")
    out.line(f"reachable_interior,{_bool(interior_ok)}")
    out.line(f"interior_margin,{fmt_float(margin)}")

    if grid is not None:
        if grid == 1:
            targets = [b]
        else:
            steps = np.linspace(0.0, 1.0, grid)
            targets = [t * b for t in steps]
        try:
            result = calm_sweep(problem, sys_, targets, tol=args.tol, seed=seed)
        except (LocalityError, RegularityError) as exc:
            out.line(f"error,{exc}")
            return EXIT_LOCALITY
        header = (["index", "status"]
                  + [f"b{j + 1}" for j in range(problem.state_dim)]
                  + ["endpoint_error", "calm_ratio"])
        out.line(",".join(header))
        ok_rows = 0
        for i, (t, res, err) in enumerate(zip(targets, result.results,
                                              result.errors)):
            if res is None:
                cells = [str(i), f"error: {err.replace(',', ';')}"]
                cells += [fmt_float(v) for v in t] + ["", ""]
            else:
                ok_rows += 1
                cells = [str(i), "ok"] + [fmt_float(v) for v in res.target]
                cells += [fmt_float(res.endpoint_error),
                          fmt_float(res.calm_ratio)]
            out.line(",".join(cells))
        out.line(f"tau,{fmt_float(result.tau)}")
        out.line(f"calm_bound,{fmt_float(result.calm_bound)}")
        out.line(f"max_calm_ratio,{fmt_float(result.max_calm_ratio)}")
        out.line(f"max_continuity_ratio,{fmt_float(result.max_continuity_ratio)}")
        return EXIT_OK if ok_rows else EXIT_LOCALITY

    try:
        res = steer(problem, sys_, b, tol=args.tol, seed=seed)
    except (LocalityError, RegularityError) as exc:
        out.line(f"error,{exc}")
        return EXIT_LOCALITY
    out.line(f"tau,{fmt_float(res.tau)}")
    out.line(f"kappa,{fmt_float(res.certificate.kappa)}")
    out.line(f"lambda,{fmt_float(res.certificate.lam)}")
    out.line(f"iterations,{res.certificate.iterate_count}")
    out.line(f"endpoint_error,{fmt_float(res.endpoint_error)}")
    out.line(f"dynamics_residual,{fmt_float(res.dynamics_residual)}")
    out.line(f"calm_ratio,{fmt_float(res.calm_ratio)}")
    out.line(f"calm_bound,{fmt_float(res.calm_bound)}")
    for line in res.csv_lines():
        out.line(line)
    return EXIT_OK


def cmd_verify(pf: ProblemFile, args, out: _Writer) -> int:
    seed = _seed(pf, args)
    if args.grid is not None and args.grid < 2:
        raise ProblemFileError("--grid: need at least 2 points per axis")

    if pf.kind == "generalized" and pf.fixture is not None:
        # grid reconstruction cannot resolve the 1/k branch structure, so
        # the inequality checks are skipped; the probe is the whole point
        probe = lsc_probe(truncated_counterexample(),
                          at=(np.zeros(1), np.array([0.05])),
                          approach=[np.array([10.0 ** -j])
                                    for j in range(1, 15)])
        out.line(CSV_HEADER)
        out.line(csv_row("lsc-probe", min(probe.distances[3:]), np.nan, 0,
                         None, probe.verdict, (probe.witness_x,)))
        return EXIT_OK
    if pf.constraint is not None:
        raise ProblemFileError(
            "$.constraint: verify samples x -> M x alone and cannot judge the "
            "constrained mapping that solve uses; remove the constraint to "
            "verify the unconstrained one")
    if pf.kind in ("linear", "generalized"):
        mat, g, base_x, radius_x = _linear_part(pf)
        grid = _verify_grid(args, mat.shape[1])
        # one factorization serves reg_linear, radius_y and lg_bound_check
        fibre = _onto(AffineSet(mat, np.zeros(mat.shape[0])))
        kappa = args.kappa if args.kappa is not None else KAPPA_MARGIN * reg_linear(fibre)
        mapping = SampledMapping(
            forward=lambda x: mat @ x, x_base=base_x, y_base=mat @ base_x,
            radius_x=radius_x,
            radius_y=2.0 * max(fibre.sigma_max, 1e-9) * radius_x)
    elif pf.kind == "smooth":
        grid = _verify_grid(args, pf.base.size)
        problem = _smooth_problem(pf)
        kappa = args.kappa
        mapping = SampledMapping(
            forward=lambda x: np.asarray(problem.f(x), dtype=float),
            x_base=problem.x_base, y_base=problem.y_base,
            radius_x=problem.radius,
            radius_y=2.0 * (problem.base_fibre.sigma_max + 1.0)
            * problem.radius)
    else:
        raise ProblemFileError("verify does not drive control problems")

    if kappa is None:  # a smooth file: 1.05 x its sampled modulus
        kappa = 1.05 * sampled_reg(mapping, grid=grid).value
    # one scan judges both; a bad --kappa is refused before it
    reports = list(verify_graph(mapping, kappa, grid=grid))
    if pf.perturbation is not None:  # generalized files only
        lam = pf.constants.get("lambda")
        if lam is None:
            lam = LAMBDA_MARGIN * lip_estimate(
                g, base_x, radius_x, samples=600, seed=seed).value
            if lam == 0:  # lg_bound_check needs lip < lam; any lam < 1/kappa will do
                lam = 0.5 / kappa
        report, _ = lg_bound_check(fibre, g, base_x, kappa=kappa, lam=lam,
                                   radius=radius_x, grid=grid, seed=seed)
        reports.append(report)
    out.line(CSV_HEADER)
    for report in reports:
        out.line(report.csv_row())
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# parser and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regsel",
        description="Calm local selections of regular set-valued inverses: "
                    "modulus estimation, solving, sweeping, steering, and "
                    "verification over JSON problem files.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="problem file (JSON)")
        p.add_argument("--seed", type=int, default=None,
                       help="sampling seed (default: the file's seed)")
        p.add_argument("--out", default=None,
                       help="output path (default stdout)")

    def tolerance(p):
        p.add_argument("--tol", type=float, default=1e-10,
                       help="iteration tolerance")

    p = sub.add_parser(
        "moduli", help="estimate reg/lip/clm moduli",
        description="Emits CSV with columns kind,value,radius,samples,seed,"
                    "verdict,witness: one row per modulus.")
    common(p)
    p.add_argument("--radius", type=float, default=None,
                   help="sampling ball radius")
    p.add_argument("--samples", type=int, default=3000,
                   help=f"sample budget per estimate, at most {MAX_SAMPLES}")
    p.set_defaults(func=cmd_moduli)

    p = sub.add_parser(
        "solve", help="solve one query through the selection engine",
        description="Emits the solution row x,<components> followed by "
                    "certificate lines kappa/lambda/alpha/tau/iterations/"
                    "residual/tail_bound/calm_ok.")
    common(p)
    tolerance(p)
    p.add_argument("--target", default=None, help="query y (comma separated)")
    p.add_argument("--parameter", default=None,
                   help="shift p of the perturbation, generalized files only "
                        "and not with --target: solves y_base + g(x_base) "
                        "in g(x) + p + F(x)")
    p.add_argument("--max-iter", type=int, default=200)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "sweep", help="solve along a query grid and report continuity",
        description="Emits CSV with columns index,status,y*,x*,iterations,"
                    "residual, then summary lines tau/gamma/"
                    "max_continuity_ratio/empirical_clm/jumps.")
    common(p)
    tolerance(p)
    p.add_argument("--target", default=None, help="grid endpoint")
    p.add_argument("--grid", type=int, default=None,
                   help=f"grid point count, at most {MAX_GRID}")
    p.add_argument("--max-iter", type=int, default=200)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "control", help="check controllability and steer endpoints",
        description="Emits controllability lines (kalman_rank, "
                    "kalman_controllable, reachable_interior, "
                    "interior_margin), then either certificate lines plus a "
                    "trajectory CSV (columns t,x*,u*) or, with --grid, "
                    "per-target rows index,status,b*,endpoint_error,"
                    "calm_ratio.")
    common(p)
    tolerance(p)
    p.add_argument("--target", default=None, help="endpoint target b")
    p.add_argument("--grid", type=int, default=None,
                   help=f"sweep targets on the segment 0 -> b, at most "
                        f"{MAX_GRID}")
    p.add_argument("--mesh", type=int, default=None,
                   help=f"mesh override, 2 to {MAX_MESH} intervals")
    p.set_defaults(func=cmd_control)

    p = sub.add_parser(
        "verify", help="run distance-inequality verdicts",
        description="Emits CSV rows (columns as in moduli) with pass/fail "
                    "verdicts for the regularity and Aubin checks, the "
                    "perturbation bound when a perturbation is present, and "
                    "an informational lsc-probe row for the counterexample "
                    "fixture. Exit 6 when any verdict fails.")
    common(p)
    p.add_argument("--kappa", type=float, default=None,
                   help="constant to verify (default: 1.1 x reg_linear for "
                        "linear and generalized files, 1.05 x the sampled "
                        "modulus for smooth files)")
    p.add_argument("--grid", type=int, default=None,
                   help=f"grid points per axis, at least 2 (default 11); an "
                        f"even count is raised by one, and the grid may "
                        f"hold at most {MAX_VERIFY_POINTS} points")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = _Writer(args.out)
    note = None
    try:
        if args.seed is not None and args.seed < 0:
            raise ProblemFileError(f"--seed: must be nonnegative, got {args.seed}")
        pf = load_problem(args.input)
        code = args.func(pf, args, out)
    except ProblemFileError as exc:
        print(f"regsel: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ContractError, ShapeError) as exc:
        print(f"regsel: contract violation: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericBreakdownError, InfeasibilitySuspectedError) as exc:
        code, note = EXIT_NUMERIC, f"numeric breakdown: {exc}"
    except (LocalityError, RegularityError) as exc:
        code, note = EXIT_LOCALITY, f"locality/regularity: {exc}"
    except UncontrollableError as exc:
        out.line(f"error,{exc}")
        code, note = EXIT_UNCONTROLLABLE, f"uncontrollable: {exc}"
    try:
        out.flush()
    except OSError as exc:
        if args.out is None:  # stdout failed: not an input error
            raise
        print(f"regsel: input error: --out: cannot write {args.out}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT
    if note is not None:
        print(f"regsel: {note}", file=sys.stderr)
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
