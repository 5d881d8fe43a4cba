"""Command line front end: it parses, calls the library and prints.

Subcommands: moduli, solve, sweep, control, verify. Every command reads a
JSON problem file (--input), whose ProblemFile builds the problem it
states, writes CSV-style lines to --out (default stdout) with floats at
17 significant digits, and exits with a code from the fixed partition:
0 ok, 2 input, 3 numeric breakdown, 4 locality or regularity failure,
5 uncontrollable, 6 verification failed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .control import calm_sweep, steer
from .errors import (ContractError, InfeasibilitySuspectedError,
                     LocalityError, NumericBreakdownError, ProblemFileError,
                     RegularityError, ShapeError, UncontrollableError)
from .linalg import svd
from .moduli import (CSV_HEADER, ModulusEstimate, clm_estimate, csv_row,
                     fmt_float, lip_estimate, lsc_probe, reg_linear,
                     truncated_counterexample)
from .problems import MAX_MESH, ProblemFile, load_problem
from .selection import IterationCertificate, solve_implicit, sweep

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

    def flush(self):
        if not self.lines:
            return
        text = "\n".join(self.lines) + "\n"
        if self.path is None:
            sys.stdout.write(text)
        else:
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write(text)


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


def _query(value, flag: str, dim: int) -> np.ndarray:
    """A query vector named by ``flag``: the flag's comma-separated text or a
    file's list. It must have dim finite components, none of them empty,
    and a norm that does not overflow float64 (taken with numpy's overflow
    warning silenced)."""
    if isinstance(value, str):
        try:
            vals = [float(tok) for tok in value.split(",")]
        except ValueError:
            raise ProblemFileError(
                f"{flag}: expected comma-separated floats, got {value!r}")
        if not all(np.isfinite(vals)):
            raise ProblemFileError(f"{flag}: expected finite components, got {value!r}")
        value = vals
    v = np.asarray(value, dtype=float)
    if v.size != dim:
        raise ProblemFileError(f"{flag}: expected {dim} components, got {v.size}")
    with np.errstate(over="ignore"):
        size = np.linalg.norm(v)
    if not np.isfinite(size):
        raise ProblemFileError(f"{flag}: the {flag[2:]}'s norm overflows float64")
    return v


def _target(pf: ProblemFile, args, dim: int, missing: str) -> np.ndarray:
    """The query of solve, sweep and control: --target, else the file's
    target; read before any set-up work."""
    target = args.target if args.target is not None else pf.target
    if target is None:
        raise ProblemFileError(missing)
    return _query(target, "--target", dim)


def _schedule_error(out: _Writer, schedule: IterationCertificate,
                    exc: Exception) -> int:
    """A query refused after its schedule was built: the schedule, then
    error,<message>, and exit 4."""
    out.lines += schedule.csv_lines() + [f"error,{exc}"]
    return EXIT_LOCALITY


# ---------------------------------------------------------------------------
# subcommands


def cmd_moduli(pf: ProblemFile, args, out: _Writer) -> int:
    if args.samples > MAX_SAMPLES:
        raise ProblemFileError(f"--samples: at most {MAX_SAMPLES}, got {args.samples}")
    op, g, center, default_radius = pf.sampled
    seed = args.seed if args.seed is not None else pf.seed
    radius = args.radius if args.radius is not None else default_radius
    rows = [ModulusEstimate(kind="reg", value=reg_linear(op), seed=seed),
            lip_estimate(g, center, radius, samples=args.samples, seed=seed),
            clm_estimate(g, center, radius, samples=args.samples, seed=seed)]
    out.lines += [CSV_HEADER] + [row.csv_row() for row in rows]
    return EXIT_OK


def cmd_solve(pf: ProblemFile, args, out: _Writer) -> int:
    if pf.kind == "control":
        raise ProblemFileError("control problems are driven by the control subcommand")
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
        p = _query(args.parameter, "--parameter", pf.matrix.shape[0])
    else:
        dim = (pf.smooth_map.output_dim if pf.kind == "smooth"
               else pf.matrix.shape[0])
        y = _target(pf, args, dim, "solve needs --target (or --parameter)")

    if pf.kind == "linear":
        # one factorization gives x (least_norm_solve's bits) and kappa, the
        # matrix's regularity modulus: no schedule, so no certificate block
        fac = svd(pf.matrix)
        x = fac.least_norm(y)
        lines = [f"kappa,{fmt_float(reg_linear(fac))}",
                 f"residual,{fmt_float(float(np.linalg.norm(pf.matrix @ x - y)))}"]
    else:
        equation, schedule, select = pf.equation(args.tol, args.seed)
        try:
            x, cert = (select(y) if p is None
                       else solve_implicit(equation, schedule.config, p))
        except (LocalityError, RegularityError) as exc:
            return _schedule_error(out, schedule, exc)
        lines = cert.csv_lines()
    out.lines.append("x," + ",".join(fmt_float(v) for v in np.atleast_1d(x)))
    out.lines += lines
    return EXIT_OK


def cmd_sweep(pf: ProblemFile, args, out: _Writer) -> int:
    if pf.kind not in ("smooth", "generalized") or pf.fixture is not None:
        raise ProblemFileError("sweep drives smooth or generalized problems")
    grid = _target_count(args.grid)
    dim = pf.smooth_map.output_dim if pf.kind == "smooth" else pf.matrix.shape[0]
    target = _target(pf, args, dim, "sweep needs --target for the grid endpoint")
    equation, schedule, _ = pf.equation(args.tol, args.seed)
    base_out = equation.y_base + equation.g_base
    ys = [target] if grid == 1 else [base_out + t * (target - base_out)
                                     for t in np.linspace(0.0, 1.0, grid)]
    try:
        result = sweep(equation, schedule.config, ys)
    except LocalityError as exc:  # outside tau, or an iterate outside its ball
        return _schedule_error(out, schedule, exc)
    out.lines += result.csv_lines()
    return EXIT_OK if any(row.x is not None for row in result.rows) else EXIT_LOCALITY


def cmd_control(pf: ProblemFile, args, out: _Writer) -> int:
    if pf.kind != "control":
        raise ProblemFileError("control drives control problem files")
    grid = None if args.grid is None else _target_count(args.grid)
    if args.mesh is not None:
        if not 2 <= args.mesh <= MAX_MESH:
            raise ProblemFileError(
                f"--mesh: need 2 to {MAX_MESH} intervals, got {args.mesh}")
        pf = replace(pf, control=replace(pf.control, mesh_size=args.mesh))
    b = _target(pf, args, pf.control.state_dim,
                "control needs --target for the endpoint")
    rank, rank_ok, interior_ok, margin = pf.control_gate(args.seed)
    out.lines += [f"kalman_rank,{rank}", f"kalman_controllable,{str(rank_ok).lower()}",
                  f"reachable_interior,{str(interior_ok).lower()}",
                  f"interior_margin,{fmt_float(margin)}"]
    # one set-up serves every target: the grid's largest is 1.0 * b
    try:
        setup = pf.steering(float(np.linalg.norm(b)), args.tol, args.seed)
    except (LocalityError, RegularityError) as exc:
        out.lines.append(f"error,{exc}")
        return EXIT_LOCALITY

    if grid is not None:
        targets = [b] if grid == 1 else [t * b for t in np.linspace(0.0, 1.0, grid)]
        result = calm_sweep(setup, targets)
        out.lines += result.csv_lines()
        return EXIT_OK if any(r is not None for r in result.results) else EXIT_LOCALITY

    try:
        res = steer(setup.problem, setup.sys, b, setup)
    except (LocalityError, RegularityError) as exc:
        return _schedule_error(out, setup.schedule, exc)
    out.lines += res.certificate.csv_lines() + [
        f"{name},{fmt_float(getattr(res, name))}"
        for name in ("endpoint_error", "dynamics_residual", "calm_ratio", "calm_bound")]
    out.lines += res.csv_lines()
    return EXIT_OK


def cmd_verify(pf: ProblemFile, args, out: _Writer) -> int:
    if args.grid is not None and args.grid < 2:
        raise ProblemFileError("--grid: need at least 2 points per axis")
    if pf.fixture is not None:
        # grid reconstruction cannot resolve the 1/k branch structure, so
        # the inequality checks are skipped; the probe is the whole point
        probe = lsc_probe(truncated_counterexample(), at=(np.zeros(1), np.array([0.05])),
                          approach=[np.array([10.0 ** -j]) for j in range(1, 15)])
        out.lines += [CSV_HEADER, csv_row("lsc-probe", min(probe.distances[3:]), np.nan,
                                          0, None, probe.verdict, (probe.witness_x,))]
        return EXIT_OK
    # one sampling of the graph judges both verdicts; a bad --kappa is
    # refused before it
    reports = pf.verify(args.kappa, _verify_grid(args, pf.graph.x_base.size),
                        args.seed)
    out.lines += [CSV_HEADER] + [report.csv_row() for report in reports]
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
                       help="bound on the last corrector step; the printed "
                            "tail_bound is that step over 1 - alpha*lambda")

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
        description="Emits the solution row x,<components>, then the "
                    "certificate block: the schedule kappa/lambda/alpha/"
                    "tau/gamma, then iterations/increments (one cell per "
                    "step)/residual/tail_bound/calm_ok. A failed solve emits "
                    "the schedule, then error,<message>.")
    common(p)
    tolerance(p)
    p.add_argument("--target", default=None, help="query y (comma separated)")
    p.add_argument("--parameter", default=None,
                   help="shift p of the perturbation, generalized files only "
                        "and not with --target: solves y_base + g(x_base) "
                        "in g(x) + p + F(x)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "sweep", help="solve along a query grid and report continuity",
        description="Emits CSV with columns index,status,y*,x*,iterations,"
                    "residual, then the schedule kappa/lambda/alpha/tau/gamma "
                    "and max_continuity_ratio/empirical_clm/jumps.")
    common(p)
    tolerance(p)
    p.add_argument("--target", default=None, help="grid endpoint")
    p.add_argument("--grid", type=int, default=None,
                   help=f"grid point count, at most {MAX_GRID}")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "control", help="check controllability and steer endpoints",
        description="Emits controllability lines (kalman_rank, "
                    "kalman_controllable, reachable_interior, "
                    "interior_margin), then either the certificate block "
                    "(as solve's), endpoint_error/dynamics_residual/"
                    "calm_ratio/calm_bound and a trajectory CSV (columns "
                    "t,x*,u*) or, with --grid, per-target rows index,status,"
                    "b*,endpoint_error,calm_ratio, the schedule kappa/lambda/"
                    "alpha/tau/gamma and calm_bound/max_calm_ratio/"
                    "max_continuity_ratio. A steer that fails after its "
                    "schedule is built emits the schedule, then "
                    "error,<message>.")
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
        out.lines.append(f"error,{exc}")
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
