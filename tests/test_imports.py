"""regsel runs on numpy alone.

scipy is a test dependency: the oracles take ``linprog`` and ``expm`` from
it, and no module of the package imports it. One fresh interpreter, in
which ``import scipy`` fails, runs every console case of console_cases.py,
and each must exit, and write to stderr and stdout, as the table says. The
demo scripts, which read the library's result fields, run the same way.
"""

import ast
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import regsel
from console_cases import CASES, faults

SRC = str(Path(regsel.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "scripts" / "problems"


def python_fresh(*args: str) -> str:
    """stdout of ``python args`` in a new interpreter at the repository
    root, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_fresh(body: str) -> list:
    """Run body in a new interpreter; one parsed JSON line per print."""
    return [json.loads(line) for line in python_fresh("-c", body).splitlines()]


def test_cli_imports_no_private_library_name():
    # the CLI parses, calls the library and prints: whatever it calls of
    # the library is public
    tree = ast.parse((Path(SRC) / "regsel" / "cli.py").read_text())
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "regsel"):
            private += [f"{node.module}.{a.name}" for a in node.names
                        if a.name.startswith("_") or "._" in f".{node.module}"]
        elif isinstance(node, ast.Import):
            private += [a.name for a in node.names
                        if a.name.startswith("regsel.") and "._" in a.name]
    assert private == []


def test_import_loads_no_scipy():
    body = """
import json, sys
def report():
    print(json.dumps(sorted(m for m in sys.modules
                            if m == "scipy" or m.startswith("scipy."))))
import regsel
report()
import regsel.cli
report()
"""
    assert run_fresh(body) == [[], []]


def test_cli_commands_load_no_scipy():
    # every console case, each with its exit code, its stderr and its
    # required stdout line, as console_cases.py checks them in CI; a
    # warning shows on every case, not once per process
    body = f"""
import contextlib, io, json, sys, warnings
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
warnings.simplefilter("always")
from regsel.cli import main
for argv in {[case.argv() for case in CASES]!r}:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a flag with exit 2
            code = exc.code
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
print(json.dumps(sys.modules["scipy"]))
"""
    *runs, scipy = run_fresh(body)
    assert scipy is None
    assert {case.name: found for case, run in zip(CASES, runs)
            if (found := faults(case, *run))} == {}


def test_readme_library_example_prints_what_the_cli_prints():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    cli = python_fresh("-m", "regsel.cli", "solve", "--input",
                       "scripts/problems/generalized.json", "--target", "0.1")
    assert python_fresh("-c", textwrap.dedent(block)) == cli


def test_verify_leaves_numpy_ma_unloaded():
    # np.unique(..., axis=0) alone would import numpy.ma on the first graph,
    # about 1.1 MB inside the verifiers' memory budget and 14 ms of a cold run
    body = f"""
import contextlib, io, json, sys
from regsel.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "--input", {str(PROBLEMS / "linear.json")!r}]) == 0
print(json.dumps("numpy.ma" in sys.modules))
"""
    assert run_fresh(body) == [False]


@pytest.mark.parametrize("script", ["sweep_demo.py", "steering_demo.py"])
def test_demo_script_runs(script):
    # each reads result fields of the library, which no other test sees
    assert python_fresh(str(ROOT / "scripts" / script))
