"""scipy stays out of a cold start.

``linprog`` and ``expm`` are imported inside the two functions that use
them, so importing regsel and running the CLI on problems that never reach
those functions must load numpy and regsel only. Each check runs in a fresh
interpreter, since this test process may have loaded scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import regsel
from regsel.control import linearize, reachable_interior
from regsel.convex import Box, Halfspaces
from test_control import double_integrator

SRC = str(Path(regsel.__file__).resolve().parents[1])
PROBLEMS = Path(__file__).resolve().parents[1] / "scripts" / "problems"

# Prints the scipy modules loaded so far, one JSON list per call.
PRELUDE = """
import json, sys
def report():
    print(json.dumps(sorted(m for m in ("scipy", "scipy.optimize", "scipy.linalg")
                            if m in sys.modules)))
"""


def run_fresh(body: str) -> list:
    """Run PRELUDE + body in a new interpreter; one parsed line per report()."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", PRELUDE + body], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_import_loads_no_scipy():
    assert run_fresh("import regsel\nreport()\nimport regsel.cli\nreport()\n") == [[], []]


def test_cli_commands_load_no_scipy():
    commands = [
        ["solve", "--input", str(PROBLEMS / "linear.json"), "--target=0.3,-0.2"],
        ["verify", "--input", str(PROBLEMS / "linear.json")],
        ["solve", "--input", str(PROBLEMS / "generalized.json"), "--target=0.1"],
        ["verify", "--input", str(PROBLEMS / "generalized.json")],
        ["solve", "--input", str(PROBLEMS / "smooth.json"), "--target=0.08"],
        ["moduli", "--input", str(PROBLEMS / "generalized.json"), "--samples", "300"],
        ["sweep", "--input", str(PROBLEMS / "generalized.json"), "--target=0.1",
         "--grid", "21"],
    ]
    body = f"""
import contextlib, io
from regsel.cli import main
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, (argv, code)
    report()
"""
    assert run_fresh(body) == [[]] * len(commands)


def lazy_calls():
    """The two functions that import scipy, on sets with known answers."""
    tri = Halfspaces([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0, 1.0])
    d = np.array([0.6, 0.8])
    margin = reachable_interior(linearize(double_integrator()), Box([-1.0], [1.0]))[1]
    return [float(tri.support(d[None, :])[0]), margin]


def test_lazy_imports_give_the_same_values():
    fresh = run_fresh("""
import sys
sys.path.insert(0, %r)
from test_imports import lazy_calls
report()
print(json.dumps([float.hex(v) for v in lazy_calls()]))
report()
""" % str(Path(__file__).resolve().parent))
    assert fresh[0] == []
    assert fresh[2] == ["scipy", "scipy.linalg", "scipy.optimize"]
    here = lazy_calls()
    assert [float.fromhex(v) for v in fresh[1]] == here
    # vertex (-1, 2) of the triangle
    assert abs(here[0] - (0.6 * -1.0 + 0.8 * 2.0)) < 1e-9
    assert here[1] > 0.0


def test_axis_aligned_halfspace_control_needs_no_linprog(tmp_path, capsys):
    # the unit interval written as two halfspaces is answered by its box:
    # no support LP, and the same output as the box file
    spec = {"version": "1", "kind": "control", "dynamics": "double_integrator",
            "mesh": 16}
    paths = {}
    for name, control_set in [
            ("box", {"type": "box", "lower": [-1.0], "upper": [1.0]}),
            ("half", {"type": "halfspaces", "normals": [[1.0], [-1.0]],
                      "offsets": [1.0, 1.0]})]:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(dict(spec, control_set=control_set)))
    argv = ["control", "--input", str(paths["half"]), "--target", "0.05,0"]
    fresh = run_fresh(f"""
import contextlib, io
from regsel.cli import main
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    assert main({argv!r}) == 0
print(json.dumps(buf.getvalue()))
report()
""")
    assert "scipy.optimize" not in fresh[1]
    from regsel.cli import main
    assert main(["control", "--input", str(paths["box"]),
                 "--target", "0.05,0"]) == 0
    assert fresh[0] == capsys.readouterr().out
