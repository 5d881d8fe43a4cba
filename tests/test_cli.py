import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from regsel import cli, moduli
from regsel.cli import main
from regsel.moduli import CSV_HEADER

BOX_JSON = {"type": "box", "lower": [-1.0], "upper": [1.0]}
COMMITTED = Path(__file__).resolve().parents[1] / "scripts" / "problems"

RANK_ONE = [[1.0, 2.0], [2.0, 4.0]]
UNBOUNDED_NORMALS = [
    [0.9737736192884713, 1.0121394561996544, 1.6394168320140663],
    [-0.7345404675412041, -0.1878214805116942, -0.37222757090140723],
    [-0.5097499981351498, 0.5384100252314712, 0.676328386958752],
    [-0.15036554748527867, 0.10575080137124572, 1.192499289624071]]
UNBOUNDED_OFFSETS = [1.7885432250481188, 0.9402808144317926,
                     0.8126172266109374, 0.4164766272751579]
# x' = u in R^3, as a polynomial table
VELOCITY_CONTROL = {"input_dim": 6, "output_dim": 3,
                    "terms": [[{"coef": 1.0, "powers": [int(i == 3 + k) for i in range(6)]}]
                              for k in range(3)]}

FIXTURES = {
    "ident.json": {"version": "1", "kind": "linear", "matrix": [[1.0]]},
    "double.json": {"version": "1", "kind": "linear", "matrix": [[2.0]]},
    "diag.json": {"version": "1", "kind": "linear",
                  "matrix": [[2.0, 0.0], [0.0, 0.5]]},
    "scalar.json": {"version": "1", "kind": "generalized",
                    "finv_matrix": [[1.3]], "base_x": [0.0], "base_y": [0.0],
                    "constants": {"kappa": 1.0, "lambda": 0.0, "alpha": 2.0}},
    "pert.json": {"version": "1", "kind": "generalized",
                  "finv_matrix": [[1.3]], "base_x": [0.0], "base_y": [0.0],
                  "perturbation": {"input_dim": 1, "output_dim": 1,
                                   "terms": [[{"coef": 0.3, "powers": [1]}]]},
                  "constants": {"kappa": 1.0, "lambda": 0.35, "alpha": 2.0}},
    "smooth.json": {"version": "1", "kind": "smooth",
                    "map": {"input_dim": 1, "output_dim": 1,
                            "terms": [[{"coef": 1.0, "powers": [1]},
                                       {"coef": 0.05, "powers": [2]}]]},
                    "base": [0.0]},
    "dblint.json": {"version": "1", "kind": "control",
                    "dynamics": "double_integrator",
                    "control_set": BOX_JSON, "mesh": 16},
    "nocontrol.json": {"version": "1", "kind": "control",
                       "dynamics": {"input_dim": 3, "output_dim": 2,
                                    "terms": [[{"coef": 1.0,
                                                "powers": [0, 1, 0]}], []]},
                       "state_dim": 2, "control_dim": 1,
                       "control_set": BOX_JSON, "mesh": 8},
    # x' = (cos 0.3, sin 0.3) u: the reachable set is a segment, Kalman rank 1
    "segment.json": {"version": "1", "kind": "control",
                     "dynamics": {"input_dim": 3, "output_dim": 2,
                                  "terms": [[{"coef": float(np.cos(0.3)),
                                              "powers": [0, 0, 1]}],
                                            [{"coef": float(np.sin(0.3)),
                                              "powers": [0, 0, 1]}]]},
                     "state_dim": 2, "control_dim": 1,
                     "control_set": BOX_JSON, "mesh": 16},
    "negseed.json": {"version": "1", "kind": "linear", "matrix": [[1.0]],
                     "seed": -3},
    "counter.json": {"version": "1", "kind": "generalized",
                     "fixture": "lsc_counterexample"},
    "hugemesh.json": {"version": "1", "kind": "control",
                      "dynamics": "double_integrator",
                      "control_set": BOX_JSON, "mesh": 10 ** 7},
    # rank 1: onto no neighbourhood, so no finite regularity modulus
    "rankone.json": {"version": "1", "kind": "generalized",
                     "finv_matrix": RANK_ONE, "base_x": [0.0, 0.0],
                     "base_y": [0.0, 0.0]},
    "rankone-scheduled.json": {"version": "1", "kind": "generalized",
                               "finv_matrix": RANK_ONE, "base_x": [0.0, 0.0],
                               "base_y": [0.0, 0.0],
                               "constants": {"kappa": 1.0, "lambda": 0.36,
                                             "alpha": 1.8}},
    "rankone-linear.json": {"version": "1", "kind": "linear",
                            "matrix": RANK_ONE},
    # x' = u in R^3, with a control set that holds 0 and is unbounded
    "unbounded.json": {"version": "1", "kind": "control", "state_dim": 3,
                       "control_dim": 3, "mesh": 8,
                       "dynamics": VELOCITY_CONTROL,
                       "control_set": {"type": "halfspaces",
                                       "normals": UNBOUNDED_NORMALS,
                                       "offsets": UNBOUNDED_OFFSETS}},
    # x' = u in R^3 with 60 rows around 0: 34,220 subsets of 3 rows, over
    # the enumeration cap
    "manyrows.json": {"version": "1", "kind": "control", "state_dim": 3,
                      "control_dim": 3, "mesh": 8,
                      "dynamics": VELOCITY_CONTROL,
                      "control_set": {"type": "halfspaces",
                                      "normals": np.random.default_rng(0)
                                      .standard_normal((60, 3)).tolist(),
                                      "offsets": [1.0] * 60}},
}


@pytest.fixture(scope="module")
def fdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("problems")
    for name, payload in FIXTURES.items():
        (root / name).write_text(json.dumps(payload))
    (root / "broken.json").write_text('{"version": "1",\n  "kind": }\n')
    return root


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(out, key):
    for line in out.splitlines():
        if line.startswith(key + ","):
            return line[len(key) + 1:]
    raise AssertionError(f"no line {key!r} in output:\n{out}")


# ---------------------------------------------------------------------------
# input handling and exit codes


def test_missing_file_is_input_error(capsys, fdir):
    code, out, err = run(capsys, "moduli", "--input", str(fdir / "nope.json"))
    assert code == 2
    assert out == ""
    assert "cannot read" in err


def test_broken_json_reports_position(capsys, fdir):
    code, _, err = run(capsys, "moduli", "--input", str(fdir / "broken.json"))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("argv,names", [
    (("moduli", "--input", "ident.json", "--seed", "-1"), "--seed"),
    (("moduli", "--input", "negseed.json"), "$.seed"),
    (("control", "--input", "dblint.json", "--target", "0.05,0", "--seed", "-2"),
     "--seed"),
])
def test_negative_seed_is_refused(capsys, fdir, argv, names):
    argv = [str(fdir / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"regsel: input error: {names}: must be nonnegative")


def _unreadable_input(path):
    path.write_bytes(b'{"version": "1", "kind": "linear", "note": "\xe9"}')


def _too_deep(path):
    path.write_text("[" * 100_000 + "]" * 100_000)


def _too_many_digits(path):
    path.write_text('{"version": "1", "kind": "linear", "seed": ' + "1" * 5000 + "}")


@pytest.mark.parametrize("make,out", [
    (_unreadable_input, None),
    (_too_deep, None),
    (_too_many_digits, None),
    (None, "missing/dir/x.csv"),
    (None, "."),
])
def test_unreadable_file_or_unwritable_out_is_input_error(capsys, fdir, tmp_path,
                                                         make, out):
    # each of these escaped main with a traceback and exit 1: a file that is
    # not UTF-8, JSON nested past the decoder's recursion limit, an integer
    # past Python's digit limit, an --out in a missing directory or naming
    # a directory
    argv = ["moduli", "--input", str(fdir / "ident.json")]
    named = argv[-1]
    if make is not None:
        named = argv[-1] = str(tmp_path / "bad.json")
        make(tmp_path / "bad.json")
    if out is not None:
        named = str(tmp_path / out)
        argv += ["--out", named]
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith("regsel: input error: ")
    assert named in err


def test_stdout_write_failure_is_not_blamed_on_out(fdir, monkeypatch):
    # without --out the lines go to stdout; its failure propagates instead of
    # becoming an --out input error with exit 2
    class BrokenStdout:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli.sys, "stdout", BrokenStdout())
    with pytest.raises(BrokenPipeError):
        main(["moduli", "--input", str(fdir / "ident.json")])


@pytest.mark.parametrize("name", ["ident.json", "smooth.json"])
@pytest.mark.parametrize("kappa", ["0", "-1"])
def test_nonpositive_kappa_is_refused_before_the_scan(capsys, fdir, monkeypatch,
                                                      name, kappa):
    def no_scan(*a, **k):
        raise AssertionError("scanned before checking --kappa")

    monkeypatch.setattr(moduli, "_sample_graph", no_scan)
    code, out, err = run(capsys, "verify", "--input", str(fdir / name),
                         "--kappa", kappa, "--grid", "5")
    assert code == 2
    assert out == ""
    assert err == (f"regsel: contract violation: kappa must be positive, "
                   f"got {float(kappa)}\n")


@pytest.mark.parametrize("argv, name", [
    (("solve", "generalized.json", "--target", "0.1", "--tol", "inf"), "tol"),
    (("sweep", "generalized.json", "--target", "0.15", "--grid", "5",
      "--tol", "inf"), "tol"),
    (("verify", "linear.json", "--kappa", "inf"), "kappa"),
])
def test_non_finite_tol_or_kappa_is_refused(capsys, argv, name):
    command, file, *flags = argv
    code, out, err = run(capsys, command, "--input", str(COMMITTED / file),
                         *flags)
    assert code == 2
    assert out == ""
    assert err == f"regsel: contract violation: {name} must be finite, got inf\n"


@pytest.mark.parametrize("argv", [
    ("solve", "rankone.json", "--target", "0.1,0.2"),
    # with the file's constants a target in the range used to be certified
    # and one off it refused as an input error
    ("solve", "rankone-scheduled.json", "--target", "0.1,0.2"),
    ("solve", "rankone-scheduled.json", "--target", "0.1,0"),
    ("solve", "rankone-linear.json", "--target", "0.1,0.2"),
    ("sweep", "rankone.json", "--target", "0.1,0.2", "--grid", "3"),
    ("sweep", "rankone-scheduled.json", "--target", "0.1,0", "--grid", "3"),
    ("verify", "rankone.json"),
    ("verify", "rankone-linear.json"),
    # a given constant too: the sampled graph lies in the range, where every
    # ratio passes, but a map that is not onto has no finite modulus
    ("verify", "rankone.json", "--kappa", "2"),
    ("verify", "rankone-linear.json", "--kappa", "2"),
], ids=lambda a: "-".join(a[:2] + (("kappa",) if "--kappa" in a else ())))
def test_a_non_surjective_operator_is_a_regularity_failure(capsys, fdir, argv):
    # refused before any certificate line, naming the singular values, with
    # or without verify --kappa
    command, file, *flags = argv
    code, out, err = run(capsys, command, "--input", str(fdir / file), *flags)
    assert (code, out) == (4, "")
    found = re.fullmatch(r"regsel: locality/regularity: operator numerically "
                         r"non-surjective: sigma_min=(\S+) vs sigma_max=(\S+)\n",
                         err)
    assert found, err
    assert float(found.group(1)) <= 1e-10 and found.group(2) == "5.000e+00"


@pytest.mark.parametrize("argv", [
    ("solve", "--target", "0.1"), ("sweep", "--target", "0.15", "--grid", "5"),
    ("verify",), ("moduli",)])
def test_a_negative_file_lambda_is_refused_by_every_command(capsys, tmp_path,
                                                            argv):
    payload = json.loads((COMMITTED / "generalized.json").read_text())
    payload["constants"]["lambda"] = -0.36
    path = tmp_path / "generalized.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, argv[0], "--input", str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert "$.constants.lambda: must be >= 0, got -0.36" in err


def test_verify_judges_a_file_lambda_of_zero_as_given(capsys, tmp_path):
    # solve fails with this file's lambda; verify must not pass it by
    # checking another one
    payload = json.loads((COMMITTED / "generalized.json").read_text())
    payload["constants"]["lambda"] = 0.0
    path = tmp_path / "generalized.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err == ("regsel: contract violation: lambda: sampled lip 0.3 is "
                   "not below lam 0\n")


def test_bad_target_vector(capsys, fdir):
    code, _, err = run(capsys, "solve", "--input", str(fdir / "scalar.json"),
                       "--target", "a,b")
    assert code == 2
    assert "--target" in err


def test_wrong_target_arity(capsys, fdir):
    code, _, err = run(capsys, "solve", "--input", str(fdir / "diag.json"),
                       "--target", "0.1")
    assert code == 2
    assert "expected 2 components" in err


def test_solve_needs_a_query(capsys, fdir):
    code, _, err = run(capsys, "solve", "--input", str(fdir / "scalar.json"))
    assert code == 2
    assert "--target" in err


# ---------------------------------------------------------------------------
# moduli


def test_moduli_identity(capsys, fdir):
    code, out, _ = run(capsys, "moduli", "--input", str(fdir / "ident.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,value,radius,samples,seed,verdict,witness"
    assert lines[1].startswith("reg,1,")
    assert lines[2].startswith("lip,0,")
    assert lines[3].startswith("clm,0,")


def test_moduli_value_round_trips(capsys, fdir):
    from regsel.moduli import reg_linear

    code, out, _ = run(capsys, "moduli", "--input", str(fdir / "diag.json"))
    assert code == 0
    reg_row = out.splitlines()[1].split(",")
    assert float(reg_row[1]) == reg_linear([[2.0, 0.0], [0.0, 0.5]])


def test_moduli_smooth_remainder(capsys, fdir):
    code, out, _ = run(capsys, "moduli", "--input", str(fdir / "smooth.json"))
    assert code == 0
    lip_row = [l for l in out.splitlines() if l.startswith("lip,")][0]
    value = float(lip_row.split(",")[1])
    # remainder 0.05 x^2 has slope sup 0.1 on the unit ball
    assert 0.09 <= value <= 0.1 + 1e-6


def test_moduli_seed_flag_overrides_file(capsys, fdir):
    code, out, _ = run(capsys, "moduli", "--input", str(fdir / "ident.json"),
                       "--seed", "5")
    assert code == 0
    for line in out.splitlines()[1:]:
        assert line.split(",")[4] == "5"


def test_moduli_rejects_counterexample_fixture(capsys, fdir):
    code, _, err = run(capsys, "moduli", "--input", str(fdir / "counter.json"))
    assert code == 2
    assert "verify" in err


# ---------------------------------------------------------------------------
# solve


def test_solve_linear_least_norm(capsys, fdir):
    code, out, _ = run(capsys, "solve", "--input", str(fdir / "diag.json"),
                       "--target", "1,1")
    assert code == 0
    x = [float(v) for v in grab(out, "x").split(",")]
    np.testing.assert_allclose(x, [0.5, 2.0], atol=1e-12)
    assert float(grab(out, "kappa")) == 2.0
    assert float(grab(out, "residual")) <= 1e-12


def test_solve_linear_factors_once(capsys, monkeypatch):
    # x and kappa come from one factorization; x keeps least_norm_solve's bits
    committed = Path(__file__).resolve().parents[1] / "scripts" / "problems"
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    code, out, _ = run(capsys, "solve", "--input", str(committed / "linear.json"),
                       "--target=0.6721450912107902,-0.9837187214280831")
    assert code == 0
    assert calls == [(2, 2)]
    assert out == ("x,0.33607254560539512,-1.9674374428561663\n"
                   "kappa,2\n"
                   "residual,0\n")


def test_solve_scalar_generalized(capsys, fdir):
    code, out, _ = run(capsys, "solve", "--input", str(fdir / "scalar.json"),
                       "--target", "0.1")
    assert code == 0
    assert abs(float(grab(out, "x")) - 0.1 / 1.3) < 1e-10
    assert float(grab(out, "tau")) == 0.5
    assert grab(out, "iterations") == "1"
    assert grab(out, "calm_ok") == "true"


def test_solve_with_perturbation(capsys, fdir):
    code, out, _ = run(capsys, "solve", "--input", str(fdir / "pert.json"),
                       "--target", "0.1")
    assert code == 0
    # 1.3 x + 0.3 x = 0.1
    assert abs(float(grab(out, "x")) - 0.0625) < 1e-9
    assert int(grab(out, "iterations")) > 5


def test_solve_parameter_variant(capsys, fdir):
    code, out, _ = run(capsys, "solve", "--input", str(fdir / "pert.json"),
                       "--parameter", "0.05")
    assert code == 0
    # 1.3 x + 0.3 x + p = 0
    assert abs(float(grab(out, "x")) + 0.05 / 1.6) < 1e-9


def test_solve_parameter_builds_one_equation(capsys, monkeypatch):
    # the shift p enters through the file's own equation, with no copy
    committed = Path(__file__).resolve().parents[1] / "scripts" / "problems"
    builds = []
    post_init = cli.GeneralizedEquation.__post_init__

    def counting(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(cli.GeneralizedEquation, "__post_init__", counting)
    code, out, _ = run(capsys, "solve", "--input",
                       str(committed / "generalized.json"), "--parameter", "0.05")
    assert code == 0
    assert len(builds) == 1
    assert out == ("x,-0.031250000008760298\n"
                   "kappa,1\n"
                   "lambda,0.35999999999999999\n"
                   "alpha,1.8\n"
                   "tau,0.17599999999999999\n"
                   "iterations,14\n"
                   "residual,1.0781904215593731e-11\n"
                   "tail_bound,1.327317162430619e-10\n"
                   "calm_ok,true\n")


def test_solve_smooth_map(capsys, fdir):
    code, out, _ = run(capsys, "solve", "--input", str(fdir / "smooth.json"),
                       "--target", "0.1")
    assert code == 0
    expect = (-1.0 + np.sqrt(1.0 + 0.02)) / 0.1
    assert abs(float(grab(out, "x")) - expect) < 1e-8


def test_solve_outside_tau_exits_4(capsys, fdir):
    code, out, _ = run(capsys, "solve", "--input", str(fdir / "scalar.json"),
                       "--target", "0.9")
    assert code == 4
    assert "tau" in grab(out, "error")


def test_solve_starved_iteration_exits_3(capsys, fdir):
    code, _, err = run(capsys, "solve", "--input", str(fdir / "pert.json"),
                       "--target", "0.1", "--max-iter", "1")
    assert code == 3
    assert "numeric breakdown" in err


def test_solve_counterexample_fixture_rejected(capsys, fdir):
    code, _, err = run(capsys, "solve", "--input", str(fdir / "counter.json"),
                       "--target", "0.0")
    assert code == 2
    assert "no solver" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_scalar_grid(capsys, fdir):
    code, out, _ = run(capsys, "sweep", "--input", str(fdir / "scalar.json"),
                       "--target", "0.4", "--grid", "11")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,status,y1,x1,iterations,residual"
    data = [l for l in lines if l.split(",")[0].isdigit()]
    assert len(data) == 11
    assert all(l.split(",")[1] == "ok" for l in data)
    assert abs(float(grab(out, "empirical_clm")) - 1.0 / 1.3) < 1e-9
    assert grab(out, "jumps") == "0"


def test_sweep_singleton_grid(capsys, fdir):
    code, out, _ = run(capsys, "sweep", "--input", str(fdir / "scalar.json"),
                       "--target", "0.4", "--grid", "1")
    assert code == 0
    data = [l for l in out.splitlines() if l.split(",")[0].isdigit()]
    assert len(data) == 1
    assert float(data[0].split(",")[2]) == 0.4


def test_sweep_outside_tau_exits_4(capsys, fdir):
    code, out, err = run(capsys, "sweep", "--input", str(fdir / "scalar.json"),
                         "--target", "0.6", "--grid", "5")
    assert code == 4
    assert out == ""
    assert "outside" in err


def test_sweep_needs_positive_grid(capsys, fdir):
    code, _, err = run(capsys, "sweep", "--input", str(fdir / "scalar.json"),
                       "--target", "0.4", "--grid", "0")
    assert code == 2
    assert "--grid" in err


# ---------------------------------------------------------------------------
# control


def test_control_single_target(capsys, fdir):
    code, out, _ = run(capsys, "control", "--input", str(fdir / "dblint.json"),
                       "--target", "0.05,0")
    assert code == 0
    assert grab(out, "kalman_rank") == "2"
    assert grab(out, "kalman_controllable") == "true"
    assert grab(out, "reachable_interior") == "true"
    assert float(grab(out, "interior_margin")) > 0.0
    assert float(grab(out, "endpoint_error")) <= 1e-6
    lines = out.splitlines()
    head = lines.index("t,x1,x2,u1")
    rows = lines[head + 1:]
    assert len(rows) == 17
    assert rows[0].startswith("0,0,0,")
    assert rows[-1].endswith(",")


def test_control_grid(capsys, fdir):
    code, out, _ = run(capsys, "control", "--input", str(fdir / "dblint.json"),
                       "--target", "0.05,0", "--grid", "3")
    assert code == 0
    lines = out.splitlines()
    assert "index,status,b1,b2,endpoint_error,calm_ratio" in lines
    data = [l for l in lines if l.split(",")[0].isdigit()]
    assert len(data) == 3
    assert all(l.split(",")[1] == "ok" for l in data)
    ratio = float(grab(out, "max_calm_ratio"))
    bound = float(grab(out, "calm_bound"))
    assert ratio <= bound


def test_control_mesh_override(capsys, fdir):
    code, out, _ = run(capsys, "control", "--input", str(fdir / "dblint.json"),
                       "--target", "0.02,0", "--mesh", "8")
    assert code == 0
    head = out.splitlines().index("t,x1,x2,u1")
    assert len(out.splitlines()[head + 1:]) == 9


def test_control_uncontrollable_exits_5(capsys, fdir):
    code, out, err = run(capsys, "control", "--input",
                         str(fdir / "nocontrol.json"), "--target", "0.01,0")
    assert code == 5
    assert grab(out, "kalman_controllable") == "false"
    assert grab(out, "reachable_interior") == "false"
    assert "error" in out


def test_control_rank_deficient_exits_5_at_the_gate(capsys, fdir):
    # the interior diagnostic reads true on this segment; the rank test
    # decides, and the run stops before any set-up work
    code, out, err = run(capsys, "control", "--input",
                         str(fdir / "segment.json"), "--target", "0.05,0")
    assert code == 5
    lines = out.splitlines()
    assert lines[:3] == ["kalman_rank,1", "kalman_controllable,false",
                         "reachable_interior,true"]
    assert lines[3].startswith("interior_margin,")
    assert lines[4].startswith("error,Kalman rank 1 < 2")
    assert len(lines) == 5
    assert err.startswith("regsel: uncontrollable: Kalman rank 1 < 2")


def test_unbounded_control_set_is_refused_naming_a_recession_direction(
        capsys, fdir):
    # nonempty (it holds 0) and unbounded: an input error at the control
    # set, not an empty set
    code, out, err = run(capsys, "control", "--input",
                         str(fdir / "unbounded.json"), "--target", "0.01,0,0")
    assert (code, out) == (2, "")
    found = re.fullmatch(
        r"regsel: input error: \$\.control_set: halfspace system is unbounded "
        r"along the direction \[(.*)\] \(normals @ d <= 0\); it must be "
        r"compact\n", err)
    assert found, err
    d = np.array([float(v) for v in found.group(1).split(",")])
    unit = np.array(UNBOUNDED_NORMALS)
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    assert np.all(unit @ d <= 1e-9) and abs(np.linalg.norm(d) - 1.0) < 1e-9


def test_hexagon_control_set_steers_in_under_a_second(capsys, tmp_path):
    # the support of a polytope comes from its six vertices, found once
    angles = 0.1 + np.arange(6) * np.pi / 3
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps({
        "version": "1", "kind": "control", "state_dim": 2, "control_dim": 2,
        "mesh": 64,
        "dynamics": {"input_dim": 4, "output_dim": 2, "terms": [
            [{"coef": 1.0, "powers": [0, 1, 0, 0]},
             {"coef": 1.0, "powers": [0, 0, 1, 0]}],
            [{"coef": 1.0, "powers": [0, 0, 0, 1]}]]},
        "control_set": {"type": "halfspaces",
                        "normals": np.column_stack([np.cos(angles),
                                                    np.sin(angles)]).tolist(),
                        "offsets": [1.0] * 6}}))
    # the better of two runs, so one stall of a shared host does not count
    seconds = []
    for _ in range(2):
        start = time.perf_counter()
        code, out, _ = run(capsys, "control", "--input", str(path),
                           "--target", "0.05,0")
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 1.0
    assert code == 0
    assert out.startswith("kalman_rank,2\nkalman_controllable,true\n"
                          "reachable_interior,true\ninterior_margin,0.905905992850975")


def test_axis_aligned_halfspace_control_prints_the_box_output(capsys, tmp_path):
    # the unit interval written as two halfspaces is answered by its box:
    # the same output as the box file
    spec = {"version": "1", "kind": "control", "dynamics": "double_integrator",
            "mesh": 16}
    outputs = []
    for name, control_set in [
            ("box", {"type": "box", "lower": [-1.0], "upper": [1.0]}),
            ("half", {"type": "halfspaces", "normals": [[1.0], [-1.0]],
                      "offsets": [1.0, 1.0]})]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(spec, control_set=control_set)))
        outputs.append(run(capsys, "control", "--input", str(path),
                           "--target", "0.05,0"))
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("grid", [(), ("--grid", "3")], ids=["single", "grid"])
@pytest.mark.parametrize("tol", ["inf", "0", "-1"])
def test_control_bad_tol_is_an_input_error(capsys, tol, grid):
    # a tol the iteration refuses is bad input, not a rejected schedule
    code, out, err = run(capsys, "control", "--input",
                         str(COMMITTED / "double_integrator.json"),
                         "--target", "0.05,0", "--tol", tol, *grid)
    assert code == 2
    assert out == ""
    assert err.startswith("regsel: contract violation: tol must be ")


def test_control_rejects_non_control_file(capsys, fdir):
    code, _, err = run(capsys, "control", "--input", str(fdir / "diag.json"),
                       "--target", "0.1,0.1")
    assert code == 2
    assert "control" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_with_true_constant(capsys, fdir):
    code, out, _ = run(capsys, "verify", "--input", str(fdir / "double.json"),
                       "--kappa", "0.5")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split(",")[5] == "pass"
    assert lines[2].split(",")[5] == "pass"
    assert lines[1].startswith("metric-regularity,0.5")
    assert lines[2].startswith("aubin,0.5")


def test_verify_fails_below_modulus(capsys, fdir):
    code, out, _ = run(capsys, "verify", "--input", str(fdir / "double.json"),
                       "--kappa", "0.4")
    assert code == 6
    for line in out.splitlines()[1:]:
        fields = line.split(",")
        assert fields[5] == "fail"
        assert fields[6] != ""  # witness reported


def test_verify_linear_factors_once(capsys, fdir, monkeypatch, cold_factor_cache):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    code, _, _ = run(capsys, "verify", "--input", str(fdir / "diag.json"))
    assert code == 0
    assert calls == [(2, 2)]


@pytest.mark.parametrize("name", ["smooth.json", "pert.json"])
def test_verify_smooth_and_generalized_factor_once(capsys, fdir, monkeypatch,
                                                   cold_factor_cache, name):
    # the smooth problem's fibre gives the image radius; the generalized
    # file's fibre also serves lg_bound_check
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    code, out, _ = run(capsys, "verify", "--input", str(fdir / name))
    assert code == 0
    assert calls == [(1, 1)]
    if name == "pert.json":
        assert out.splitlines()[3].startswith("perturbation-bound,")


def test_verify_smooth_default_constant(capsys, fdir):
    code, out, _ = run(capsys, "verify", "--input", str(fdir / "smooth.json"))
    assert code == 0
    assert all(l.split(",")[5] == "pass" for l in out.splitlines()[1:])


def test_verify_smooth_default_constant_scans_once(capsys, fdir, monkeypatch):
    # one sampling gives the default constant, one more judges it with both
    # verdicts from a single scan
    samplings = []
    sample_graph = moduli._sample_graph

    def counted(*args, **kwargs):
        samplings.append(1)
        return sample_graph(*args, **kwargs)

    monkeypatch.setattr(moduli, "_sample_graph", counted)
    code, out, _ = run(capsys, "verify", "--input", str(fdir / "smooth.json"))
    assert code == 0
    assert len(samplings) == 2
    assert out == (
        "kind,value,radius,samples,seed,verdict,witness\n"
        "metric-regularity,1.098901098901099,,,,pass,"
        "-0.80000000000000004;-0.94999999999999996\n"
        "aubin,1.098901098901099,,,,pass,"
        "-1;-0.94999999999999996;-0.76800000000000002\n")
    # the same constant given explicitly is judged on one scan alone
    kappa = 1.05 * float(out.splitlines()[1].split(",")[1])
    code, explicit, _ = run(capsys, "verify", "--input",
                            str(fdir / "smooth.json"), "--kappa", repr(kappa))
    assert code == 0
    assert explicit == out


@pytest.mark.parametrize("name, extra, graphs", [
    ("linear.json", [], 1), ("generalized.json", [], 2),
    ("smooth.json", ["--kappa", "1.2"], 1)])
def test_verify_samples_each_graph_once(capsys, monkeypatch, name, extra,
                                        graphs):
    # both verdicts on x -> F(x) read one sampling of its graph; a
    # generalized file's perturbation bound samples x -> M x + g(x) once more
    committed = Path(__file__).resolve().parents[1] / "scripts" / "problems"
    mappings = []
    sample_graph = moduli._sample_graph

    def counted(mapping, grid):
        mappings.append(mapping)
        return sample_graph(mapping, grid)

    monkeypatch.setattr(moduli, "_sample_graph", counted)
    code, _, _ = run(capsys, "verify", "--input", str(committed / name), *extra)
    assert code == 0
    assert len(mappings) == graphs
    assert len({id(m) for m in mappings}) == graphs


def test_moduli_refuses_a_radius_whose_distances_overflow(capsys):
    # beyond ~6.7e153 the squared diameter overflows and every sampled
    # quotient would read 0
    committed = Path(__file__).resolve().parents[1] / "scripts" / "problems"
    code, out, err = run(capsys, "moduli", "--input",
                         str(committed / "generalized.json"), "--radius", "1e200")
    assert code == 2
    assert out == ""
    assert err == ("regsel: contract violation: radius 1e+200 is too large: "
                   "distances across its ball overflow float64\n")


@pytest.mark.parametrize("command", [["verify"], ["solve", "--target", "0.1"]])
def test_a_file_radius_whose_distances_overflow_is_refused(capsys, tmp_path,
                                                           command):
    # at this radius verify used to pass every verdict with worst ratio 0,
    # and solve to certify lambda 0
    committed = Path(__file__).resolve().parents[1] / "scripts" / "problems"
    payload = json.loads((committed / "generalized.json").read_text())
    del payload["constants"]
    payload.update(radius_x=1e160, radius_graph=1e161)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, command[0], "--input", str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert "1e+160 is too large" in err


@pytest.mark.parametrize("grid", ["0", "1", "-3"])
def test_verify_rejects_grid_below_two(capsys, fdir, grid):
    code, out, err = run(capsys, "verify", "--input", str(fdir / "double.json"),
                         "--kappa", "0.01", "--grid", grid)
    assert code == 2
    assert out == ""
    assert "--grid" in err and "at least 2" in err


def test_verify_counterexample_probe(capsys, fdir):
    code, out, _ = run(capsys, "verify", "--input", str(fdir / "counter.json"))
    assert code == 0
    row = [l for l in out.splitlines() if l.startswith("lsc-probe,")][0]
    fields = row.split(",")
    assert fields[5] == "lsc-violated"
    assert float(fields[1]) > 1e-3  # distances stay above the floor
    assert float(fields[6]) == 0.05


def test_verify_rejects_control_files(capsys, fdir):
    code, _, err = run(capsys, "verify", "--input", str(fdir / "dblint.json"))
    assert code == 2
    assert "control" in err


def test_verify_refuses_a_constrained_generalized_file(capsys, tmp_path):
    committed = Path(__file__).resolve().parents[1] / "scripts" / "problems"
    payload = json.loads((committed / "generalized.json").read_text())
    payload["constraint"] = {"type": "box", "lower": [0.0], "upper": [0.01]}
    path = tmp_path / "constrained.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "$.constraint" in err and "constrained mapping" in err
    code, out, _ = run(capsys, "verify", "--input", str(committed / "generalized.json"))
    assert code == 0
    assert out.startswith(CSV_HEADER + "\n")


GENERALIZED_VERIFY = (
    CSV_HEADER + "\n"
    "metric-regularity,0.7692307692307695,,,,pass,-0.59999999999999998;-1.04\n"
    "aubin,0.7692307692307695,,,,pass,"
    "-0.80000000000000004;-1.04;-0.78000000000000003\n"
    "perturbation-bound,0.62500000000000022,,,,pass,"
    "0.80000000000000004;0.96000000000000019\n")


@pytest.mark.parametrize("drop_lambda, estimates", [(False, 1), (True, 2)])
def test_verify_samples_the_perturbation_once(capsys, tmp_path, monkeypatch,
                                              drop_lambda, estimates):
    # the file's lambda leaves lg_bound_check's estimate as the only one; a
    # file without it needs one more to choose lambda
    committed = Path(__file__).resolve().parents[1] / "scripts" / "problems"
    payload = json.loads((committed / "generalized.json").read_text())
    if drop_lambda:
        del payload["constants"]["lambda"]
    path = tmp_path / "generalized.json"
    path.write_text(json.dumps(payload))
    calls = []
    original = moduli.lip_estimate

    def counting(*args, **kwargs):
        calls.append(kwargs.get("samples"))
        return original(*args, **kwargs)

    monkeypatch.setattr(moduli, "lip_estimate", counting)
    monkeypatch.setattr(cli, "lip_estimate", counting)
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == 0
    assert calls == [600] * estimates
    if not drop_lambda:
        assert out == GENERALIZED_VERIFY


# ---------------------------------------------------------------------------
# output discipline


def test_out_flag_writes_file_and_silences_stdout(capsys, fdir, tmp_path):
    dest = tmp_path / "result.csv"
    code, out, _ = run(capsys, "solve", "--input", str(fdir / "scalar.json"),
                       "--target", "0.1", "--out", str(dest))
    assert code == 0
    assert out == ""
    text = dest.read_text()
    assert text.startswith("x,")
    assert text.endswith("\n")


def test_runs_are_byte_identical(capsys, fdir):
    args = ("moduli", "--input", str(fdir / "diag.json"), "--seed", "3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = ("control", "--input", str(fdir / "dblint.json"),
            "--target", "0.03,0.01")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# branches the tests above do not run, pinned to their stdout bytes

# The controllability lines of control on each committed file, at the
# file's mesh and at --mesh 8. The interior margin is that of the steered,
# discretized system, so it depends on the mesh.
GATE_LINES = {
    "double_integrator.json": "kalman_rank,2\nkalman_controllable,true\n"
                              "reachable_interior,true\n"
                              "interior_margin,0.22174417432849799\n",
    "pendulum.json --mesh 8": "kalman_rank,2\nkalman_controllable,true\n"
                              "reachable_interior,true\n"
                              "interior_margin,0.24419112342333002\n",
}

# Cells that a BLAS reduction reaches are pinned by a bound, all others by
# their bytes. OpenBLAS picks its kernel by CPU, and its kernels sum in
# different orders; the bounds below hold under OPENBLAS_CORETYPE=SkylakeX,
# Haswell and Prescott.
# - A product of SVD factors or of a least-norm solve (calm ratios and
#   bounds, reg, sampled lip and clm and their witness points) moves in
#   its 13th to 15th digit between kernels.
KERNEL_RTOL = 1e-12
# - The endpoint error of a steer reaching its target is the rounding noise
#   of a least-norm solve: 7.1e-30 on SkylakeX, 1.2e-30 on Haswell and
#   3.9e-30 on Prescott for a target of size 0.05.
NOISE_ATOL = 1e-20


def assert_cells(got: str, want: str, loose: dict):
    """``got`` has ``want``'s lines and cells (split on commas), each cell
    with ``want``'s bytes, except the cells that ``loose`` keys by (first
    cell of the line, column): those are floats within
    KERNEL_RTOL * |want| + the keyed absolute bound."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), got
    for g_line, w_line in zip(got_lines, want_lines):
        g_cells, w_cells = g_line.split(","), w_line.split(",")
        assert len(g_cells) == len(w_cells), g_line
        for col, (g, w) in enumerate(zip(g_cells, w_cells)):
            atol = loose.get((w_cells[0], col))
            if atol is None:
                assert g == w, (g_line, w_line)
            else:
                assert abs(float(g) - float(w)) <= KERNEL_RTOL * abs(float(w)) + atol, (
                    g_line, w_line)


PINNED_BRANCHES = {
    # an Intersection fibre; the target lies inside the box [-1, 0.1]
    "solve-boxed": (
        ("solve", "boxed.json", "--target", "0.05"), 0,
        "x,0.031250000008760298\nkappa,1\nlambda,0.35999999999999999\n"
        "alpha,1.8\ntau,0.17599999999999999\niterations,14\n"
        "residual,1.0781904215593731e-11\ntail_bound,1.327317162430619e-10\n"
        "calm_ok,true\n"),
    # no constants in the file: the default schedule fills them in
    "solve-default-schedule": (
        ("solve", "unscheduled.json", "--target", "0.1"), 0,
        "x,0.062500000017520596\nkappa,0.84615384615384615\n"
        "lambda,0.36000000000304833\nalpha,1.8119658119540516\n"
        "tau,0.20545454545378336\niterations,14\n"
        "residual,2.1563808431187461e-11\ntail_bound,2.6875235996924966e-10\n"
        "calm_ok,true\n"),
    "control-grid-1": (
        ("control", "double_integrator.json", "--target", "0.05,0",
         "--grid", "1"), 0,
        GATE_LINES["double_integrator.json"]
        + "index,status,b1,b2,endpoint_error,calm_ratio\n"
        "0,ok,0.050000000000000003,0,7.0997481469891062e-30,12.093184442612245\n"
        "tau,0.066299999999999998\ncalm_bound,48.097599928805373\n"
        "max_calm_ratio,12.093184442612245\nmax_continuity_ratio,0\n",
        {("0", 4): NOISE_ATOL, ("0", 5): 0.0, ("calm_bound", 1): 0.0,
         ("max_calm_ratio", 1): 0.0}),
    # a schedule rejected at mesh 8 exits 4 on both paths
    "control-mesh-8": (
        ("control", "pendulum.json", "--target", "0.05,0", "--mesh", "8"), 4,
        GATE_LINES["pendulum.json --mesh 8"]
        + "error,constant schedule rejected for the steering problem: "
        "kappa*lambda: default schedule rejected, 1.02539 >= 0.9\n"),
    "control-mesh-8-grid": (
        ("control", "pendulum.json", "--target", "0.05,0", "--mesh", "8",
         "--grid", "3"), 4,
        GATE_LINES["pendulum.json --mesh 8"]
        + "error,constant schedule rejected for the steering problem: "
        "kappa*lambda: default schedule rejected, 1.02539 >= 0.9\n"),
}


@pytest.fixture(scope="module")
def generalized_variants(tmp_path_factory):
    """Copies of generalized.json with a box [-1, 0.1] constraint
    (boxed.json) and without its constants (unscheduled.json)."""
    root = tmp_path_factory.mktemp("variants")
    payload = json.loads((COMMITTED / "generalized.json").read_text())
    boxed = {**payload,
             "constraint": {"type": "box", "lower": [-1.0], "upper": [0.1]}}
    (root / "boxed.json").write_text(json.dumps(boxed))
    unscheduled = {k: v for k, v in payload.items() if k != "constants"}
    (root / "unscheduled.json").write_text(json.dumps(unscheduled))
    return root


@pytest.mark.parametrize("name", PINNED_BRANCHES)
def test_cli_branches_keep_their_stdout(capsys, generalized_variants, name):
    (command, file, *flags), code, stdout, *loose = PINNED_BRANCHES[name]
    where = COMMITTED if (COMMITTED / file).exists() else generalized_variants
    got = run(capsys, command, "--input", str(where / file), *flags)
    assert got[0] == code
    assert_cells(got[1], stdout, loose[0] if loose else {})


def test_moduli_on_a_control_file_keeps_its_stdout(capsys):
    # the collocation operator and remainder of pendulum.json at mesh 64;
    # the witness pair is a sampled point of 192 coordinates, pinned by its
    # norm and coordinate sum, and the centre, pinned by its bytes
    code, out, _ = run(capsys, "moduli", "--input",
                       str(COMMITTED / "pendulum.json"))
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    witness = rows[2].pop()
    assert rows[3].pop() == witness
    assert_cells("\n".join(",".join(row) for row in rows), "\n".join([
        CSV_HEADER, "reg,5.2530006167207866,,,0,,",
        "lip,0.32009077419213083,0.5,3000,0,",
        "clm,0.32009077419213083,0.5,3000,0,"]),
        {("reg", 1): 0.0, ("lip", 1): 0.0, ("clm", 1): 0.0})
    sampled, centre = witness.split(";")
    assert centre == " ".join(["0"] * 192)
    point = np.array(sampled.split(), dtype=float)
    assert point.size == 192
    assert abs(np.linalg.norm(point) - 0.4997718292873128) <= KERNEL_RTOL * 0.5
    assert abs(point.sum() - 0.2319961779005029) <= KERNEL_RTOL * np.abs(point).sum()


# ---------------------------------------------------------------------------
# resource caps: refused before any allocation, with exit 2


@pytest.mark.parametrize("argv, flag, cap", [
    (("verify", "--input", "diag.json", "--grid", "1000000"), "--grid",
     "20000"),
    # 143 x 143 after odd rounding: 20,449 points
    (("verify", "--input", "diag.json", "--grid", "142"), "--grid", "20000"),
    # one axis: 20,000 rounds up to 20,001 points
    (("verify", "--input", "smooth.json", "--grid", "20000"), "--grid",
     "20000"),
    (("moduli", "--input", "pert.json", "--samples", "1000000000"),
     "--samples", "1000000"),
    (("sweep", "--input", "pert.json", "--target", "0.1",
      "--grid", "1000000000"), "--grid", "10000"),
    (("control", "--input", "dblint.json", "--target", "0.01,0",
      "--grid", "1000000000"), "--grid", "10000"),
    (("control", "--input", "dblint.json", "--target", "0.01,0",
      "--mesh", "10000000"), "--mesh", "1024"),
    (("control", "--input", "hugemesh.json", "--target", "0.01,0"),
     "$.mesh", "1024"),
    # --parameter shifts a generalized file's perturbation and is the query
    (("solve", "--input", "smooth.json", "--target", "0.08", "--parameter",
      "0.5"), "--parameter", "generalized"),
    (("solve", "--input", "diag.json", "--target", "1,2", "--parameter",
      "0.5"), "--parameter", "generalized"),
    (("solve", "--input", "pert.json", "--target", "0.9", "--parameter",
      "0.05"), "--parameter", "not both"),
    (("solve", "--input", "smooth.json", "--parameter", "0.05"),
     "--parameter", "generalized"),
    # the query length is checked before the constants are sampled
    (("solve", "--input", "smooth.json", "--target", "0.08,1"), "--target",
     "expected 1 components, got 2"),
    # a control polytope with more row subsets than the enumerations take
    (("control", "--input", "manyrows.json", "--target", "0.01,0,0"),
     "$.control_set", "34220 subsets of 3 rows; at most 29127 are enumerated"),
])
def test_resource_caps_refuse_fast(capsys, fdir, argv, flag, cap):
    argv = (argv[0], argv[1], str(fdir / argv[2])) + argv[3:]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith(f"regsel: input error: {flag}:")
    assert cap in err
