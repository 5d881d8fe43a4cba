"""The console cases: regsel command lines and the exit codes they must
end with, one line each.

A case gives its name, the command line after ``regsel`` (paths relative
to the repository root), its exit code, whether its stderr must be empty
(by default when it exits 0, so a numpy warning leaked to users fails it)
and optionally the start of a line that its stdout must hold. Run as a
script, this module runs every case through the installed ``regsel``
entry point, one process each, and lists every case that fails:

    python tests/console_cases.py

tests/test_imports.py runs the same cases with scipy made unimportable,
tests/test_cli.py pins the stdout of some of them by name, and
tests/test_selection.py reruns those that take corrector steps with every
projection gap measured. A case's name is its test id there, so a pinned
case keeps its name.
"""

from __future__ import annotations

import shlex
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Case(NamedTuple):
    name: str
    args: str  # after `regsel`, paths relative to ROOT
    code: int = 0
    quiet: bool | None = None  # stderr must be empty; None: when code is 0
    line: str = ""  # a stdout line must start with this

    def argv(self) -> list[str]:
        """The arguments after ``regsel``, with the --input path under ROOT."""
        words = shlex.split(self.args)
        return [str(ROOT / word) if flag == "--input" else word
                for flag, word in zip([""] + words, words)]


P, F = "--input scripts/problems", "--input tests/fixtures"

CASES = [
    # moduli: lip and clm through a polynomial perturbation, the stacked
    # collocation remainder and the smooth remainder
    Case("ci-moduli-linear", f"moduli {P}/linear.json"),
    Case("ci-moduli-generalized", f"moduli {P}/generalized.json --samples 3000"),
    Case("ci-moduli-pendulum", f"moduli {P}/pendulum.json --samples 3000"),
    Case("ci-moduli-smooth", f"moduli {P}/smooth.json --samples 3000"),
    Case("moduli-tol-is-not-a-flag", f"moduli {P}/linear.json --tol 1e-8", 2),
    Case("moduli-negative-seed", f"moduli {P}/linear.json --seed -1", 2),
    Case("moduli-distances-overflow", f"moduli {P}/generalized.json --radius 1e200", 2),
    # solve
    Case("ci-solve-generalized", f"solve {P}/generalized.json --target 0.1"),
    Case("ci-solve-parameter", f"solve {P}/generalized.json --parameter 0.05"),
    Case("ci-solve-smooth", f"solve {P}/smooth.json --target 0.08"),
    Case("solve-boxed", f"solve {F}/generalized_narrow_box.json --target 0.05"),
    Case("solve-default-schedule", f"solve {F}/generalized_unscheduled.json --target 0.1"),
    Case("narrow-box-solve", f"solve {F}/generalized_narrow_box.json --target 0.15", 4),
    Case("boundary-base-solve", f"solve {F}/base_on_the_boundary.json --target 0.05", 4),
    Case("solve-parameter-outside-tau", f"solve {P}/generalized.json --parameter 0.9", 4),
    Case("solve-parameter-on-smooth", f"solve {P}/smooth.json --parameter 0.05", 2),
    Case("solve-tol-inf", f"solve {P}/generalized.json --target 0.1 --tol inf", 2),
    Case("solve-target-norm-overflows", f"solve {P}/generalized.json --target 1e160", 2),
    Case("solve-parameter-norm-overflows", f"solve {P}/generalized.json --parameter 1e160", 2),
    Case("solve-empty-target-component", f"solve {P}/generalized.json --target 0.1,", 2),
    Case("solve-empty-parameter-component", f"solve {P}/generalized.json --parameter 0.05,", 2),
    Case("solve-max-iter-is-not-a-flag", f"solve {P}/generalized.json --target 0.1 --max-iter 5", 2),
    Case("solve-on-a-control-file", f"solve {P}/pendulum.json --target 0.01,0", 2),
    Case("huge-integer-solve", f"solve {F}/huge_integer_literal.json --target 0.1", 2),
    # sweep
    Case("ci-sweep-generalized", f"sweep {P}/generalized.json --target 0.15 --grid 21"),
    Case("ci-sweep-smooth", f"sweep {P}/smooth.json --target 0.19 --grid 21"),
    Case("narrow-box-sweep", f"sweep {F}/generalized_narrow_box.json --target 0.17 --grid 9"),
    Case("sweep-outside-tau", f"sweep {P}/generalized.json --target 0.9 --grid 3", 4, line="tau,"),
    Case("sweep-target-norm-overflows", f"sweep {P}/generalized.json --target 1e160 --grid 2", 2),
    Case("sweep-on-a-linear-file", f"sweep {P}/linear.json --target 1,1 --grid 2", 2),
    # control; at mesh 512 no consistency proof covers the fibre, so every
    # shift runs the residual check, and a target of 1e150 has squares but
    # no norm beyond float64: the constraint refuses it without a warning
    Case("ci-control-double-integrator", f"control {P}/double_integrator.json --target 0.05,0"),
    Case("control-double-integrator-grid-3", f"control {P}/double_integrator.json --target 0.05,0 --grid 3"),
    Case("control-grid-1", f"control {P}/double_integrator.json --target 0.05,0 --grid 1"),
    Case("control-mesh-512", f"control {P}/double_integrator.json --target 0.05,0 --mesh 512"),
    Case("control-pendulum", f"control {P}/pendulum.json --target 0.05,0"),
    Case("control-pendulum-grid-3", f"control {P}/pendulum.json --target 0.05,0 --grid 3"),
    Case("ci-control-pendulum-grid-8", f"control {P}/pendulum.json --target 0.05,0 --grid 8"),
    Case("u01-control-grid", f"control {F}/double_integrator_u01.json --target 0.02,0 --grid 3"),
    Case("u01-control", f"control {F}/double_integrator_u01.json --target 0.05,0", 4),
    Case("control-unreachable", f"control {P}/double_integrator.json --target 0.5,0", 4),
    Case("control-mesh-8", f"control {P}/pendulum.json --target 0.05,0 --mesh 8", 4),
    Case("control-mesh-8-grid", f"control {P}/pendulum.json --target 0.05,0 --mesh 8 --grid 3", 4),
    Case("control-target-squares-overflow", f"control {P}/double_integrator.json --target 1e150,0", 4, quiet=True),
    Case("segment-control", f"control {F}/segment_reachable_set.json --target 0.05,0.05", 5),
    Case("control-tol-inf", f"control {P}/double_integrator.json --target 0.05,0 --tol inf", 2),
    Case("control-target-nan", f"control {P}/double_integrator.json --target nan,0", 2),
    Case("control-target-norm-overflows", f"control {P}/double_integrator.json --target 1e300,0", 2),
    Case("control-empty-target-component", f"control {P}/double_integrator.json --target 0.05,,0", 2),
    # verify: generalized.json reaches lg_bound_check, grid 101 takes the
    # scans over many blocks, and the 2->1 fixture folds fibres that its
    # tables cut
    Case("ci-verify-linear-kappa", f"verify {P}/linear.json --kappa 2.1"),
    Case("ci-verify-lsc", f"verify {P}/lsc_counterexample.json"),
    Case("ci-verify-generalized", f"verify {P}/generalized.json"),
    Case("ci-verify-generalized-kappa", f"verify {P}/generalized.json --kappa 2"),
    Case("ci-verify-smooth", f"verify {P}/smooth.json"),
    Case("ci-verify-smooth-kappa", f"verify {P}/smooth.json --kappa 1.2 --grid 9"),
    Case("ci-verify-linear-101", f"verify {P}/linear.json --grid 101"),
    Case("ci-verify-linear-101-below-the-modulus", f"verify {P}/linear.json --grid 101 --kappa 0.3", 6),
    Case("ci-verify-two-to-one", f"verify {F}/linear_two_to_one.json --grid 41 --kappa 1.2"),
    Case("verify-kappa-inf", f"verify {P}/linear.json --kappa inf", 2),
]

BY_NAME = {case.name: case for case in CASES}


def faults(case: Case, code: int, stdout: str, stderr: str) -> list[str]:
    """What a run of case that ended with code, stdout and stderr got
    wrong: its exit code, its stderr and its required stdout line."""
    found = []
    if code != case.code:
        found.append(f"exit {code}, want {case.code}")
    if (case.code == 0 if case.quiet is None else case.quiet) and stderr:
        found.append(f"stderr not empty: {stderr.strip()!r}")
    if case.line and not any(line.startswith(case.line)
                             for line in stdout.splitlines()):
        found.append(f"no stdout line starts with {case.line!r}")
    return found


def main() -> int:
    regsel = shutil.which("regsel")
    if regsel is None:
        print("regsel is not on PATH: install the package first", file=sys.stderr)
        return 1
    failed = 0
    for case in CASES:
        proc = subprocess.run([regsel, *case.argv()], capture_output=True,
                              text=True, cwd=ROOT)
        found = faults(case, proc.returncode, proc.stdout, proc.stderr)
        if found:
            failed += 1
            print(f"FAIL {case.name}: regsel {case.args}")
            for fault in found:
                print(f"  {fault}")
    print(f"{len(CASES) - failed} of {len(CASES)} console cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
