"""regsel runs on numpy alone.

scipy is a test dependency: the oracles take ``linprog`` and ``expm`` from
it, and no module of the package imports it. One fresh interpreter, in
which ``import scipy`` fails, runs every command of the README and of CI's
console-script step, and ``control`` on both committed control files with
one target and with ``--grid``; each must exit as CI expects it to. The
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


def documented_commands() -> dict:
    """argv string -> expected exit code: the README's commands (exit 0),
    CI's console-script commands (exit 0 for those ``clean`` runs, or the
    code its ``test "$rc"`` names, less a redirect of stdout or stderr and
    the check that reads it), and control on both committed control files,
    one target and a grid each."""
    commands = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("regsel "):
            commands[line[len("regsel "):]] = 0
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    for line in ci.splitlines():
        refused = re.fullmatch(
            r'\s*rc=0; regsel (.*?)(?: > "\$RUNNER_TEMP/stdout"| 2> "\$RUNNER_TEMP/stderr")? '
            r'\|\| rc=\$\?; test "\$rc" -eq (\d+)(?:; (?:grep|test) .*)?', line)
        if refused:
            commands[refused.group(1)] = int(refused.group(2))
        elif re.fullmatch(r"\s*clean regsel .*", line):
            commands[line.strip()[len("clean regsel "):]] = 0
    for name in ("double_integrator", "pendulum"):
        path = f"scripts/problems/{name}.json"
        commands[f"control --input {path} --target 0.05,0"] = 0
        commands[f"control --input {path} --target 0.05,0 --grid 3"] = 0
    return commands


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
    commands = documented_commands()
    assert len(commands) >= 42  # 39 from CI, 3 more control runs
    body = f"""
import contextlib, io, json, shlex, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from regsel.cli import main
for args in {list(commands)!r}:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(shlex.split(args))
        except SystemExit as exc:  # argparse refuses a flag with exit 2
            code = exc.code
    print(json.dumps([args, code]))
print(json.dumps(sys.modules["scipy"]))
"""
    *codes, scipy = run_fresh(body)
    assert scipy is None
    assert dict(codes) == commands


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
