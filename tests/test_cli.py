import json
import re
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from regsel import cli, control, convex, moduli, problems, smooth
from regsel.cli import main
from regsel.moduli import CSV_HEADER
from regsel.problems import ProblemFile, load_problem

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
    # no constants, and the sampled moduli admit no default schedule:
    # kappa*lambda = 1.1 * 1.2 * 0.9 and 1.1 * 1.2 * 1
    "rejected.json": {"version": "1", "kind": "generalized",
                      "finv_matrix": [[1.0]], "base_x": [0.0], "base_y": [0.0],
                      "perturbation": {"input_dim": 1, "output_dim": 1,
                                       "terms": [[{"coef": 0.9, "powers": [1]}]]}},
    "rejected-smooth.json": {"version": "1", "kind": "smooth",
                             "map": {"input_dim": 1, "output_dim": 1,
                                     "terms": [[{"coef": 1.0, "powers": [1]},
                                                {"coef": 0.5, "powers": [2]}]]},
                             "base": [0.0]},
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


# The certificate block of generalized.json for a query 0.05 from its base
# output, one line per field; only the x row tells the sign of the query.
GENERALIZED_CERTIFICATE_AT_005 = (
    "kappa,1\nlambda,0.35999999999999999\nalpha,1.8\n"
    "tau,0.17599999999999999\ngamma,5.6818181818181825\niterations,14\n"
    "increments,0.0088757396449704144,0.0020482476103777826,"
    "0.00047267252547179145,0.00010907827510887175,2.5171909640506196e-05,"
    "5.8089022247354016e-06,1.340515898024669e-06,3.0934982262961763e-07,"
    "7.1388420612439329e-08,1.6474250907894117e-08,3.8017502028420136e-09,"
    "8.7732696454900783e-10,2.0246006954272033e-10,4.672156411755779e-11\n"
    "residual,1.0781904215593731e-11\ntail_bound,1.327317162430619e-10\n"
    "calm_ok,true\n")


def test_solve_parameter_builds_one_equation(capsys, monkeypatch):
    # the shift p enters through the file's own equation, with no copy
    committed = Path(__file__).resolve().parents[1] / "scripts" / "problems"
    builds = []
    post_init = problems.GeneralizedEquation.__post_init__

    def counting(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(problems.GeneralizedEquation, "__post_init__", counting)
    code, out, _ = run(capsys, "solve", "--input",
                       str(committed / "generalized.json"), "--parameter", "0.05")
    assert code == 0
    assert len(builds) == 1
    assert out == "x,-0.031250000008760298\n" + GENERALIZED_CERTIFICATE_AT_005


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


def test_solve_stalled_iteration_exits_3(capsys, fdir, monkeypatch):
    # pert.json with a kick of 4e-16 away from the fixed point 0.1/1.6 added
    # to its perturbation: the steps settle near 8e-16, below the rounding
    # floor 3.3e-15 and above --tol
    def noisy_load(path):
        pf = load_problem(path)

        def g(x):
            x = np.asarray(x, dtype=float)
            return 0.3 * x + 4e-16 * np.sign(x - 0.1 / 1.6)

        pf.perturbation = g
        return pf

    monkeypatch.setattr(cli, "load_problem", noisy_load)
    code, out, err = run(capsys, "solve", "--input", str(fdir / "pert.json"),
                         "--target", "0.1", "--tol", "1e-16")
    assert (code, out) == (3, "")
    assert err.startswith("regsel: numeric breakdown: stalled after ")
    assert "rounding floor 3.333e-15" in err


def test_solve_runs_a_slow_contraction_past_200_steps(capsys, tmp_path):
    # alpha*lambda = 0.997: a step cap of 200 used to report this certified
    # contraction as a failure (exit 3)
    path = tmp_path / "slow.json"
    path.write_text(json.dumps({
        "version": "1", "kind": "generalized", "finv_matrix": [[1.0]],
        "base_x": [0.0], "base_y": [0.0],
        "perturbation": {"input_dim": 1, "output_dim": 1,
                         "terms": [[{"coef": 0.99, "powers": [1]}]]},
        "constants": {"kappa": 1.0, "lambda": 0.995, "alpha": 1.002}}))
    code, out, err = run(capsys, "solve", "--input", str(path),
                         "--target", "0.001")
    assert (code, err) == (0, "")
    assert int(grab(out, "iterations")) > 200
    assert grab(out, "calm_ok") == "true"


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_max_iter_is_not_a_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(COMMITTED / "generalized.json"),
              "--target", "0.1", "--max-iter", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-iter 5" in capsys.readouterr().err


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
    # the schedule, then the error, as solve prints them
    code, out, err = run(capsys, "sweep", "--input", str(fdir / "scalar.json"),
                         "--target", "0.6", "--grid", "5")
    assert (code, err) == (4, "")
    assert [line.split(",")[0] for line in out.splitlines()] == [
        "kappa", "lambda", "alpha", "tau", "gamma", "error"]
    assert "outside" in grab(out, "error")


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


def test_hexagon_control_set_enumerates_its_vertices_once(capsys, tmp_path,
                                                          monkeypatch):
    # the support of a polytope comes from its six vertices, found once per
    # run: one enumeration of the 1-row subsets (recession directions) and
    # one of the 2-row subsets (vertices), whatever the number of supports
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
    subsets = []
    row_subsets = convex._row_subsets
    monkeypatch.setattr(convex, "_row_subsets",
                        lambda rows, size: subsets.append((rows.shape, size))
                        or row_subsets(rows, size))
    code, out, _ = run(capsys, "control", "--input", str(path), "--target", "0.05,0")
    assert subsets == [((6, 2), 1), ((6, 2), 2)]
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


@pytest.mark.parametrize("argv", [
    ("control", "double_integrator.json", "--target", "nan,0"),
    ("control", "double_integrator.json", "--target", "0.05,-inf", "--grid", "3"),
    ("solve", "generalized.json", "--target", "nan"),
    ("solve", "generalized.json", "--parameter", "inf")])
def test_a_non_finite_vector_flag_is_refused_naming_the_flag(capsys, monkeypatch,
                                                             argv):
    # refused as the flag is read, before a control run linearizes
    def no_linearize(problem):
        raise AssertionError("linearized before refusing the flag")

    monkeypatch.setattr(problems, "linearize", no_linearize)
    command, file, flag, value, *rest = argv
    code, out, err = run(capsys, command, "--input", str(COMMITTED / file),
                         flag, value, *rest)
    assert (code, out) == (2, "")
    assert err == (f"regsel: input error: {flag}: expected finite components, "
                   f"got {value!r}\n")


@pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the run
@pytest.mark.parametrize("grid", [(), ("--grid", "8")], ids=["single", "grid"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_control_refuses_a_target_whose_norm_overflows(capsys, tmp_path,
                                                       monkeypatch, source, grid):
    # |(1e300, 0)| is computed as the root of an overflowing dot product;
    # the tau target built from it used to be refused as "radius inf"
    def no_linearize(problem):
        raise AssertionError("linearized before refusing the target")

    monkeypatch.setattr(problems, "linearize", no_linearize)
    path, flags = COMMITTED / "double_integrator.json", ("--target", "1e300,0")
    if source == "file":
        path = tmp_path / "far.json"
        payload = json.loads((COMMITTED / "double_integrator.json").read_text())
        path.write_text(json.dumps(dict(payload, target=[1e300, 0.0])))
        flags = ()
    code, out, err = run(capsys, "control", "--input", str(path), *flags, *grid)
    assert (code, out) == (2, "")
    assert err == "regsel: input error: --target: the target's norm overflows float64\n"


@pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the run
def test_a_control_target_whose_squares_overflow_steers_without_a_warning(capsys):
    # |(1e150, 0)| is finite, so the set-up is built and the steer is
    # refused by the constraint; validating the targets and corrections on
    # the way, whose squares overflow, prints no warning
    code, out, err = run(capsys, "control", "--input",
                         str(COMMITTED / "double_integrator.json"), "--target", "1e150,0")
    assert (code, err) == (4, "")
    assert out.splitlines()[-1].startswith(
        "error,initial selection: the corrected target has no preimage under the constraint")


@pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the run
@pytest.mark.parametrize("argv", [
    ("solve", "--target", "1e160"),
    ("sweep", "--target", "1e160", "--grid", "2"),
    ("solve", "--parameter", "1e160")], ids=["solve", "sweep", "parameter"])
def test_a_query_whose_norm_overflows_is_refused(capsys, monkeypatch, argv):
    # refused as the flag is read: no equation or schedule is built
    def no_equation(pf, tol, seed):
        raise AssertionError("built the equation before refusing the query")

    monkeypatch.setattr(ProblemFile, "equation", no_equation)
    command, flag, *rest = argv
    code, out, err = run(capsys, command, "--input",
                         str(COMMITTED / "generalized.json"), flag, *rest)
    assert (code, out) == (2, "")
    assert err == (f"regsel: input error: {flag}: the {flag[2:]}'s norm "
                   f"overflows float64\n")


def count_builders(monkeypatch) -> Counter:
    """Count the calls of every set-up builder (steering_setup, config_for,
    lip_estimate) under each name the CLI, control, problems and smooth call
    it by."""
    calls = Counter()
    for module in (cli, control, problems, smooth):
        for name in ("steering_setup", "config_for", "lip_estimate"):
            if hasattr(module, name):
                key = f"{module.__name__}.{name}"

                def counted(*args, _real=getattr(module, name), _key=key, **kwargs):
                    calls[_key] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    return calls


def test_prepared_queries_build_nothing(monkeypatch):
    steering = control.steering_setup(load_problem(
        str(COMMITTED / "pendulum.json")).control)
    pf = load_problem(str(COMMITTED / "smooth.json"))
    problem = pf.smooth_problem
    cfg = smooth.config_for(problem, seed=pf.seed)
    calls = count_builders(monkeypatch)
    control.steer(steering.problem, steering.sys, [0.05, 0.0], steering)
    control.calm_sweep(steering, [[0.0, 0.0], [0.02, 0.01], [0.05, 0.0]])
    smooth.smooth_selection(problem, [0.08], cfg)
    assert calls == Counter()


@pytest.mark.parametrize("grid", [(), ("--grid", "8")], ids=["single", "grid"])
def test_control_builds_one_setup(capsys, monkeypatch, grid):
    # one steering set-up, whose one lip sample is its only estimate
    calls = count_builders(monkeypatch)
    code, _, _ = run(capsys, "control", "--input",
                     str(COMMITTED / "pendulum.json"), "--target", "0.05,0", *grid)
    assert code == 0
    assert calls == Counter({"regsel.problems.steering_setup": 1,
                             "regsel.control.lip_estimate": 1})


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


def test_an_integer_literal_beyond_float64_is_an_input_error(capsys):
    # it used to print an OverflowError traceback and exit 1
    path = Path(__file__).resolve().parent / "fixtures" / "huge_integer_literal.json"
    assert run(capsys, "solve", "--input", str(path), "--target", "0.1") == (
        2, "", "regsel: input error: $.base_y[0]: must be finite\n")


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


@pytest.mark.parametrize("argv, message", [
    (("solve", "pendulum.json", "--target", "0.01,0"),
     "control problems are driven by the control subcommand"),
    (("sweep", "linear.json", "--target", "1,1", "--grid", "2"),
     "sweep drives smooth or generalized problems"),
])
def test_solve_and_sweep_refuse_a_kind_they_do_not_drive(capsys, argv, message):
    command, file, *flags = argv
    code, out, err = run(capsys, command, "--input", str(COMMITTED / file), *flags)
    assert (code, out, err) == (2, "", f"regsel: input error: {message}\n")


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
    monkeypatch.setattr(problems, "lip_estimate", counting)
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
# - The other cells of a steer that sit at the rounding noise of a
#   least-norm solve (its increment, residuals and tail bound, and the
#   trajectory's states and controls): at most 7.2e-15 apart between the
#   three kernels on double_integrator.json.
STEER_ATOL = 1e-13


def assert_cells(got: str, want: str, loose: dict):
    """``got`` has ``want``'s lines and cells (split on commas), each cell
    with ``want``'s bytes, except the cells that ``loose`` keys by (first
    cell of the line, column): those hold floats (a witness cell several,
    space separated, points split by ';') each within
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
                assert g.count(";") == w.count(";"), (g_line, w_line)
                g_vals, w_vals = (np.array(c.replace(";", " ").split(), dtype=float)
                                  for c in (g, w))
                assert g_vals.shape == w_vals.shape and np.all(
                    np.abs(g_vals - w_vals) <= KERNEL_RTOL * np.abs(w_vals) + atol), (
                    g_line, w_line)


def loose_rows(table: str, atol: float) -> dict:
    """``loose`` keys for every nonempty cell past the first of each row of
    a CSV table (its header line aside)."""
    return {(cells[0], col): atol
            for cells in (line.split(",") for line in table.splitlines()[1:])
            for col in range(1, len(cells)) if cells[col]}


# moduli on pendulum.json: the sampled point of 192 coordinates where lip
# and clm peak, paired with the centre
PENDULUM_WITNESS = " ".join("""
-0.017855969529908033 0.031954655056217453 0.020448712259057467
0.026653857723211768 0.0032691589404284958 -0.018900367527158738
-0.046319567903254824 -0.030108203113408429 0.0071553207079555012
-0.0027516756512666021 0.046984819203174016 -0.010033017067137242
-0.007342353593352678 -0.044020532987643274 0.072234477940445518
0.049683954448289269 0.0013988310802836249 -0.014097088391759471
0.011170797061885909 0.018073041684810505 0.0030848216011516052
0.013749126291310303 -0.023867961293095381 0.067510804234157604
0.0014846159748998517 -0.024784955250599799 0.048007950028945111
-0.0015977339727406338 0.021486986696778392 0.0072597673930474543
-0.037805438636511299 -0.015689241697010303 0.015065533681814076
-0.0046289339827523604 -0.062169063690209699 0.0068890856655937317
-0.022756912752892534 0.029254212602766755 0.0016724326176808743
-0.0062613028363791229 -0.0022144163293103185 0.0013344893029624623
0.049742845823226217 -0.0026414413681695417 -0.03245761981643483
0.036870812005773627 -0.02733866764105547 -0.033577792707203458
0.003877739494040508 0.023943795868987164 0.019192852491875856
0.038765916455059578 0.0016121998540466059 0.0074015314419328872
-0.0015487393507135142 0.027283964053974725 -0.032149207827878161
-0.010881511245075286 0.028880912384055796 -0.035961472414510434
0.010082922383679638 0.012967802068573155 0.0083071034445463543
-0.014205793573518876 -0.017729370443025944 0.020691564026906951
0.013267739385451529 -0.048621414101877321 -0.040278686994315881
0.030998042123250122 -0.039576758524340207 -0.014983569592763292
0.034828195223046809 0.0048768917565779873 0.0027461435465425486
0.026401874244620826 -0.0054227651804139949 0.00079599687676118003
-0.025720652686555604 -0.044658424534285639 -0.0049647399153106789
-0.0033401161385432092 0.012744157539571539 -0.011151511994021857
-0.028182345844057682 -0.016103975484903919 0.011206590750274208
0.015164209035104442 0.040135517232412425 -0.02982095391319407
-0.30622257858745777 0.037400023846007019 -0.00043471437782897622
0.047690802008869514 -0.024857089406733049 0.025659791151129176
0.044189784868995462 -0.018639239527150925 -0.016240250568676166
0.0029065428795839779 -0.013895214689908923 -0.024154272640160002
-0.012517557112728488 0.038543502221595811 0.0041395701113551989
-0.0016629372813869389 -0.0086421588558743233 -0.011354439928143624
0.018026971933559378 -0.0065199632151609309 0.058137194737390298
0.015351184301606167 0.032817097588317808 0.019846913599865509
0.064525628287947945 0.0093830304020118566 -0.043012322280141811
-0.02194122948172119 0.010639475707663965 0.076462020329780195
-0.0258770534698788 -0.017990215129886536 0.021139933982619454
0.034632089330587021 -0.026543556375370474 0.016883105541189863
-0.047665514865898706 -0.0027729226501461181 -0.023035554869851385
0.0049293691098551452 0.0016358932308910348 -0.019485084107915589
-0.01350622142925318 -0.021233342402094894 0.0132091601212908
-0.022272052595132607 1.7256779787316694e-05 0.01315868240404435
-0.014934975841967851 -0.022496726871154279 0.0055563401740401624
-0.0080534602367013722 0.014287156351618266 0.046067294544984642
-0.042933024202481428 -0.022446826540559135 -0.007461057660433641
0.020451076166391732 0.097512853856199747 -0.017536830542339805
0.034773119079221163 0.010529939156536364 -0.020184483454783315
0.0087058873677069975 0.019415361346810638 0.02030354746406474
0.019138771039398841 0.029250809706685425 -0.013465997835183324
0.016678091639666704 -0.014249430564679767 2.0653279140134219e-05
-0.0028050486958489489 -0.063877138075439779 0.018186692595817604
-0.041634497081175018 -0.031703888836184288 0.025934411270159424
-0.0045631148252188204 0.037352556484793811 -0.064081480819676115
0.049675209136845457 -0.0048713536768639539 -0.0037170537913449597
-0.0020226018075154457 0.017237277352022844 0.028679747847404395
-0.020004252092820356 0.073708710526768764 0.022819848546822126
0.031759256206099103 0.06601472851769824 -0.0065411906916993494
-0.0036641032346317257 -0.050116346306539619 0.028078410088722302
-0.002984667280673859 0.013103909405164847 -0.024604417646158974
-0.015715348116985169 0.026079712842560721 0.022402079800174397""".split())
PENDULUM_CENTRE = " ".join(["0"] * 192)

DOUBLE_INTEGRATOR_TRAJECTORY = (
    "t,x1,x2,u1\n"
    "0,0,0,0.29843081726577325\n"
    "0.015625,3.6429543123263336e-05,0.0046629815197777071,0.28828995712533878\n"
    "0.03125,0.00014448027452669169,0.0091675120998611255,0.2782194581914943\n"
    "0.046875,0.00032168498729203814,0.013514691134103224,0.26821682702512967\n"
    "0.0625,0.00056559334815511702,0.017705579056370876,0.25827957017220271\n"
    "0.078125,0.00087377128875419847,0.021741197340311543,0.2484051941512746\n"
    "0.09375,0.0012438003968732356,0.025622528498925209,0.23859120543705695\n"
    "0.109375,0.0016732773076763951,0.029350516083879223,0.22883511044026447\n"
    "0.125,0.0021598130949294233,0.032926064684508358,0.21913441548382365\n"
    "0.140625,0.0027010326622024816,0.036350039926443097,0.20948662677557461\n"
    "0.15625,0.0032945741340482202,0.03962326846981145,0.19988925037771674\n"
    "0.171875,0.0039380882471480227,0.042746538006963278,0.19033979217302377\n"
    "0.1875,0.0046292377414185702,0.045720597259666776,0.18083575782798483\n"
    "0.203125,0.0053656967510700999,0.04854615597572904,0.17137465275311986\n"
    "0.21875,0.0061451501956070187,0.051223884924996542,0.16195398206039285\n"
    "0.234375,0.0069652931707608204,0.053754415894690176,0.15257125051815279\n"
    "0.25,0.0078238303393446222,0.056138341684036315,0.14322396250344571\n"
    "0.265625,0.0087184753220179729,0.058376216098152654,0.13390962195203251\n"
    "0.28125,0.0096469500879500496,0.060468553941153164,0.12462573230619928\n"
    "0.296875,0.010606984345368727,0.062415831008437526,0.11536979646044093\n"
    "0.3125,0.01159631493198255,0.06421848407813191,0.10613931670520892\n"
    "0.328125,0.012612685205262103,0.065876910901650806,0.096931794668887489\n"
    "0.34375,0.013653844432566814,0.067391470193352163,0.087744731258014422\n"
    "0.359375,0.014717547181102835,0.068762481619258645,0.078575626596028236\n"
    "0.375,0.015801552707697213,0.069990225784821586,0.069421979960572519\n"
    "0.390625,0.016903624348373204,0.071074944221705544,0.060281289719511411\n"
    "0.40625,0.018021528907711318,0.072016839373572908,0.051151053265820458\n"
    "0.421875,0.019153036047980257,0.072816074580851348,0.042028766951482818\n"
    "0.4375,0.020295917678021816,0.073472774064468269,0.032911926020470376\n"
    "0.453125,0.021447947341873431,0.073987022908538119,0.023798024540999215\n"
    "0.46875,0.02260689960711194,0.074358867041991239,0.014684555337177978\n"
    "0.484375,0.023770549452901985,0.074588313219134644,0.005569009920175865\n"
    "0.5,0.024936671657732237,0.074675328999137397,-0.0035511215809681715\n"
    "0.515625,0.026103040186822645,0.074619842724434768,-0.012678350488727457\n"
    "0.53125,0.027267427579185793,0.074421743498048393,-0.021815189646576718\n"
    "0.546875,0.028427604334325396,0.074080881159820644,-0.03096415348841652\n"
    "0.5625,0.029581338298554964,0.073597066261564134,-0.040127758107791997\n"
    "0.578125,0.030726394050919762,0.072970070041129875,-0.049308521326846141\n"
    "0.59375,0.031860532288705133,0.072199624395397899,-0.058508962764774401\n"
    "0.609375,0.032981509212514477,0.0712854218521983,-0.067731603905703555\n"
    "0.625,0.034087075910900183,0.070227115541171684,-0.076978968165891656\n"
    "0.640625,0.035174977744531051,0.069024319163579623,-0.086253580960011539\n"
    "0.65625,0.03624295372987995,0.067676606961079452,-0.095557969766511486\n"
    "0.671875,0.037288735922415557,0.066183513683477704,-0.10489466419180474\n"
    "0.6875,0.038310048799282417,0.064544534555480759,-0.11426619603325018\n"
    "0.703125,0.039304608641453839,0.062759125242461217,-0.1236750993407022\n"
    "0.71875,0.040270122915342307,0.06082670181526275,-0.1331239104765515\n"
    "0.734375,0.041204289653852692,0.058746640714066635,-0.14261516817410796\n"
    "0.75,0.042104796836863731,0.056518278711346202,-0.15215141359418052\n"
    "0.765625,0.04296932177112376,0.05414091287393713,-0.16173519037970671\n"
    "0.78125,0.04379553046954713,0.051613800524254211,-0.17136904470832384\n"
    "0.796875,0.044581077029898226,0.048936159200686655,-0.18105552534271652\n"
    "0.8125,0.045323603012850523,0.046107166617206707,-0.19079718367861323\n"
    "0.828125,0.046020736819408603,0.043125960622228371,-0.20059657379029031\n"
    "0.84375,0.046670093067681911,0.039991639156755091,-0.21045625247343547\n"
    "0.859375,0.047269271968999202,0.036703260211857658,-0.22037877928524346\n"
    "0.875,0.04781585870335376,0.033259841785525726,-0.23036671658157581\n"
    "0.890625,0.048307422794169885,0.029660361838938606,-0.24042262955108173\n"
    "0.90625,0.048741517482381931,0.025903758252202955,-0.25054908624610189\n"
    "0.921875,0.049115679099817948,0.021988928779607616,-0.26074865761019783\n"
    "0.9375,0.04942742644188089,0.017914731004448275,-0.2710239175022186\n"
    "0.953125,0.04967426013952092,0.013679982293476108,-0.28137744271669674\n"
    "0.96875,0.049853662030493608,0.0092834597510277218,-0.29181181300046799\n"
    "0.984375,0.049963094529899256,0.0047239001728954086,-0.30232961106530615\n"
    "1,0.050000000000000003,-7.0997481469891062e-30,\n")




LINEAR_101_VERIFY = (
    "metric-regularity,2,,,,{verdict},-0.97999999999999998 "
    "-0.16000000000000003;-1.96 -0.089999999999999969\n"
    "aubin,2,,,,{verdict},-0.97999999999999998 -0.17999999999999994;"
    "-1.96 -0.089999999999999969;-1.96 -0.080000000000000016\n")


PINNED_BRANCHES = {
    # an Intersection fibre; the target lies inside the box [-1, 0.1]
    "solve-boxed": (
        ("solve", "boxed.json", "--target", "0.05"), 0,
        "x,0.031250000008760298\n" + GENERALIZED_CERTIFICATE_AT_005),
    # no constants in the file: the default schedule fills them in
    "solve-default-schedule": (
        ("solve", "unscheduled.json", "--target", "0.1"), 0,
        "x,0.062500000017520596\nkappa,0.84615384615384615\n"
        "lambda,0.36000000000304833\nalpha,1.8119658119540516\n"
        "tau,0.20545454545378336\ngamma,4.8672566371861956\niterations,14\n"
        "increments,0.017751479289940829,0.0040964952207555652,"
        "0.0009453450509435829,0.00021815655021774349,5.0343819281012392e-05,"
        "1.1617804449470803e-05,2.6810317960493379e-06,6.1869964525923526e-07,"
        "1.4277684122487866e-07,3.2948501815788234e-08,7.6035004056840272e-09,"
        "1.7546539290980157e-09,4.0492013908544067e-10,9.344312823511558e-11\n"
        "residual,2.1563808431187461e-11\ntail_bound,2.6875235996924966e-10\n"
        "calm_ok,true\n"),
    "control-grid-1": (
        ("control", "double_integrator.json", "--target", "0.05,0",
         "--grid", "1"), 0,
        GATE_LINES["double_integrator.json"]
        + "index,status,b1,b2,endpoint_error,calm_ratio\n"
        "0,ok,0.050000000000000003,0,7.0997481469891062e-30,12.093184442612245\n"
        "kappa,6.0741784202376037\nlambda,0\nalpha,12.148356840475207\n"
        "tau,0.066299999999999998\ngamma,12.148356840475207\n"
        "calm_bound,48.097599928805373\n"
        "max_calm_ratio,12.093184442612245\nmax_continuity_ratio,0\n",
        # kappa is 1.1 / sigma_min of the collocation operator, an SVD
        # value, and alpha and gamma are 2 kappa here (lambda is 0)
        {("0", 4): NOISE_ATOL, ("0", 5): 0.0, ("calm_bound", 1): 0.0,
         ("max_calm_ratio", 1): 0.0, ("kappa", 1): 0.0, ("alpha", 1): 0.0,
         ("gamma", 1): 0.0}),
    # a target the box control set cannot reach: the set-up succeeded, so
    # its schedule precedes the error, as a failed solve's does
    "control-unreachable": (
        ("control", "double_integrator.json", "--target", "0.5,0"), 4,
        GATE_LINES["double_integrator.json"]
        + "kappa,6.0741784202376037\nlambda,0\nalpha,12.148356840475207\n"
        "tau,0.66300000000000003\ngamma,12.148356840475207\n"
        "error,initial selection: the corrected target has no preimage under "
        "the constraint (Dykstra gap 8.661e-01)\n",
        {("kappa", 1): 0.0, ("alpha", 1): 0.0, ("gamma", 1): 0.0}),
    # a schedule rejected at mesh 8 exits 4 on both paths, before any
    # schedule line
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
    # every command of CI's console-script step that exits 0
    "ci-moduli-linear": (
        ("moduli", "linear.json"), 0,
        CSV_HEADER + "\n"
        "reg,2,,,0,,\n"
        "lip,0,1,3000,0,,0.39138229847650152 "
        "-0.41122575451822374;-0.27679950390359925 -0.50136246808404383\n"
        "clm,0,1,3000,0,,0.51318071070115734 -0.53919946247888895;0 0\n",
        {("lip", 6): KERNEL_RTOL, ("clm", 6): KERNEL_RTOL}),
    "ci-moduli-generalized": (
        ("moduli", "generalized.json", "--samples", "3000"), 0,
        CSV_HEADER + "\n"
        "reg,0.76923076923076916,,,0,,\n"
        "lip,0.30000000004599314,1,3000,0,,"
        "-0.12689200942875228;-0.1268921301231293\n"
        "clm,0.29999999999999999,1,3000,0,,0.2986961328189226;0\n"),
    "ci-moduli-pendulum": (
        ("moduli", "pendulum.json", "--samples", "3000"), 0,
        CSV_HEADER + "\nreg,5.2530006167207866,,,0,,\n" + "".join(
            f"{kind},0.32009077419213083,0.5,3000,0,,{PENDULUM_WITNESS};{PENDULUM_CENTRE}\n"
            for kind in ("lip", "clm")),
        {("reg", 1): 0.0, ("lip", 1): 0.0, ("clm", 1): 0.0,
         ("lip", 6): KERNEL_RTOL, ("clm", 6): KERNEL_RTOL}),
    "ci-moduli-smooth": (
        ("moduli", "smooth.json", "--samples", "3000"), 0,
        CSV_HEADER + "\n"
        "reg,1,,,0,,\n"
        "lip,0.099999996368092869,1,3000,0,,0.99999989912363241;1\n"
        "clm,0.050000000000000044,1,3000,0,,-1;0\n"),
    "ci-solve-generalized": (
        ("solve", "generalized.json", "--target", "0.1"), 0,
        "x,0.062500000017520596\n"
        "kappa,1\n"
        "lambda,0.35999999999999999\n"
        "alpha,1.8\n"
        "tau,0.17599999999999999\n"
        "gamma,5.6818181818181825\n"
        "iterations,14\n"
        "increments,0.017751479289940829,0.0040964952207555652,"
        "0.0009453450509435829,0.00021815655021774349,5.0343819281012392e-05,"
        "1.1617804449470803e-05,2.6810317960493379e-06,6.1869964525923526e-07,"
        "1.4277684122487866e-07,3.2948501815788234e-08,7.6035004056840272e-09,"
        "1.7546539290980157e-09,4.0492013908544067e-10,9.344312823511558e-11\n"
        "residual,2.1563808431187461e-11\n"
        "tail_bound,2.6546343248612381e-10\n"
        "calm_ok,true\n"),
    "ci-solve-parameter": (
        ("solve", "generalized.json", "--parameter", "0.05"), 0,
        "x,-0.031250000008760298\n" + GENERALIZED_CERTIFICATE_AT_005),
    "ci-solve-smooth": (
        ("solve", "smooth.json", "--target", "0.08"), 0,
        "x,0.079682534683311837\n"
        "kappa,1.1000000000000001\n"
        "lambda,0.11999999466200192\n"
        "alpha,4.7166668520138302\n"
        "tau,0.19727272860722678\n"
        "gamma,5.0691243896718055\n"
        "iterations,5\n"
        "increments,0.00032000000000000084,2.5548800000052552e-06,"
        "2.035761020868776e-08,1.6221461673904258e-10,1.2925771564198385e-12\n"
        "residual,1.0311196341206141e-14\n"
        "tail_bound,2.9782883587001957e-12\n"
        "calm_ok,true\n"),
    "ci-sweep-generalized": (
        ("sweep", "generalized.json", "--target", "0.15", "--grid", "21"), 0,
        "index,status,y1,x1,iterations,residual\n"
        "0,ok,0,0,1,0\n"
        "1,ok,0.0074999999999999997,0.0046874999943058108,13,"
        "7.0082328028460315e-12\n"
        "2,ok,0.014999999999999999,0.0093749999886116216,13,"
        "1.4016465605692063e-11\n"
        "3,ok,0.022500000000000003,0.014062499982917432,13,"
        "2.102470174454478e-11\n"
        "4,ok,0.029999999999999999,0.018750000005256173,14,"
        "6.4691361242234036e-12\n"
        "5,ok,0.037499999999999999,0.023437500006570217,14,"
        "8.0864214896819286e-12\n"
        "6,ok,0.045000000000000005,0.028125000007884267,14,"
        "9.7037121927511482e-12\n"
        "7,ok,0.052500000000000005,0.03281250000919831,14,"
        "1.1320992220598979e-11\n"
        "8,ok,0.059999999999999998,0.037500000010512347,14,"
        "1.2938272248446807e-11\n"
        "9,ok,0.067500000000000004,0.042187500011826397,14,"
        "1.4555562951516027e-11\n"
        "10,ok,0.074999999999999997,0.046875000013140433,14,"
        "1.6172842979363857e-11\n"
        "11,ok,0.082500000000000004,0.05156250001445449,14,"
        "1.7790149695265163e-11\n"
        "12,ok,0.090000000000000011,0.056250000015768534,14,"
        "1.9407424385502296e-11\n"
        "13,ok,0.097500000000000003,0.060937500017082563,14,"
        "2.1024688400518042e-11\n"
        "14,ok,0.10500000000000001,0.06562500001839662,14,"
        "2.2641984441197957e-11\n"
        "15,ok,0.11249999999999999,0.070312499995451375,15,"
        "5.598288926450961e-12\n"
        "16,ok,0.12,0.074999999995148142,15,5.9715160167100445e-12\n"
        "17,ok,0.1275,0.07968749999484491,15,6.344721756526347e-12\n"
        "18,ok,0.13500000000000001,0.084374999994541663,15,"
        "6.7179595220068214e-12\n"
        "19,ok,0.14250000000000002,0.089062499994238431,15,"
        "7.091165261823124e-12\n"
        "20,ok,0.14999999999999999,0.093749999993935185,15,"
        "7.4643816768608182e-12\n"
        "kappa,1\n"
        "lambda,0.35999999999999999\n"
        "alpha,1.8\n"
        "tau,0.17599999999999999\n"
        "gamma,5.6818181818181825\n"
        "max_continuity_ratio,0.62500000297849911\n"
        "empirical_clm,0.62500000017520596\n"
        "jumps,0\n"),
    "ci-sweep-smooth": (
        ("sweep", "smooth.json", "--target", "0.19", "--grid", "21"), 0,
        "index,status,y1,x1,iterations,residual\n"
        "0,ok,0,0,1,0\n"
        "1,ok,0.0095000000000000015,0.0094954917817872374,3,"
        "3.8649639044763262e-15\n"
        "2,ok,0.019000000000000003,0.018981984213642143,3,"
        "1.2351231148954867e-13\n"
        "3,ok,0.028500000000000004,0.028459502834922122,4,"
        "2.6645352591003757e-15\n"
        "4,ok,0.038000000000000006,0.037928073063698699,4,"
        "1.4953316362920077e-14\n"
        "5,ok,0.047500000000000001,0.047387720198775088,4,"
        "5.6954441163270531e-14\n"
        "6,ok,0.057000000000000009,0.05683846941987012,4,1.6978779493470597e-13\n"
        "7,ok,0.066500000000000004,0.066280345788535047,4,"
        "4.2743586448068527e-13\n"
        "8,ok,0.076000000000000012,0.075713374247991988,5,"
        "7.2025718722557031e-15\n"
        "9,ok,0.085500000000000007,0.085137579626748575,5,"
        "1.6389667401028873e-14\n"
        "10,ok,0.095000000000000001,0.094552986635877592,5,"
        "3.4180991370647007e-14\n"
        "11,ok,0.10450000000000001,0.10395961987173971,5,6.6460725811623433e-14\n"
        "12,ok,0.11400000000000002,0.11335750381630487,5,1.2197187704288126e-13\n"
        "13,ok,0.12350000000000001,0.12274666283789488,5,2.1313506515241443e-13\n"
        "14,ok,0.13300000000000001,0.13212712119191949,5,3.57297524899991e-13\n"
        "15,ok,0.14250000000000002,0.14149890302160623,5,5.7789883989300961e-13\n"
        "16,ok,0.15200000000000002,0.15086203235872375,5,9.0605301039659025e-13\n"
        "17,ok,0.16150000000000003,0.16021653312429945,5,1.3820888877802417e-12\n"
        "18,ok,0.17100000000000001,0.16956242913138805,6,3.4888758548845544e-14\n"
        "19,ok,0.18050000000000002,0.17889974407848627,6,5.365152766501069e-14\n"
        "20,ok,0.19,0.18822850156010257,6,8.0629947163401994e-14\n"
        "kappa,1.1000000000000001\n"
        "lambda,0.11999999466200192\n"
        "alpha,4.7166668520138302\n"
        "tau,0.19727272860722678\n"
        "gamma,5.0691243896718055\n"
        "max_continuity_ratio,0.99952545071444587\n"
        "empirical_clm,0.99952545071444587\n"
        "jumps,0\n"),
    "ci-control-double-integrator": (
        ("control", "double_integrator.json", "--target", "0.05,0"), 0,
        "kalman_rank,2\n"
        "kalman_controllable,true\n"
        "reachable_interior,true\n"
        "interior_margin,0.22174417432849799\n"
        "kappa,6.0741784202376037\n"
        "lambda,0\n"
        "alpha,12.148356840475207\n"
        "tau,0.066299999999999998\n"
        "gamma,12.148356840475207\n"
        "iterations,1\n"
        "increments,2.3156652529007059e-15\n"
        "residual,2.951856226587175e-17\n"
        "tail_bound,2.3156652529007059e-15\n"
        "calm_ok,true\n"
        "endpoint_error,7.0997481469891062e-30\n"
        "dynamics_residual,1.2522535092207576e-17\n"
        "calm_ratio,12.093184442612245\n"
        "calm_bound,48.097599928805373\n"
        + DOUBLE_INTEGRATOR_TRAJECTORY,
        {("kappa", 1): 0.0, ("alpha", 1): 0.0, ("gamma", 1): 0.0,
         ("increments", 1): STEER_ATOL, ("residual", 1): STEER_ATOL,
         ("tail_bound", 1): STEER_ATOL, ("endpoint_error", 1): NOISE_ATOL,
         ("dynamics_residual", 1): STEER_ATOL, ("calm_ratio", 1): 0.0,
         ("calm_bound", 1): 0.0, **loose_rows(DOUBLE_INTEGRATOR_TRAJECTORY, STEER_ATOL)}),
    "ci-control-pendulum-grid-8": (
        ("control", "pendulum.json", "--target", "0.05,0", "--grid", "8"), 0,
        "kalman_rank,2\n"
        "kalman_controllable,true\n"
        "reachable_interior,true\n"
        "interior_margin,0.24499048643544213\n"
        "index,status,b1,b2,endpoint_error,calm_ratio\n"
        "0,ok,0,0,0,0\n"
        "1,ok,0.0071428571428571426,0,3.7876909158195102e-30,11.67202857021951\n"
        "2,ok,0.014285714285714285,0,1.2139228302005276e-28,11.672030988627734\n"
        "3,ok,0.021428571428571429,0,9.2171274182088908e-28,11.672035019357921\n"
        "4,ok,0.028571428571428571,0,3.8839980732209814e-27,11.67204066248479\n"
        "5,ok,0.035714285714285712,0,1.1852461940283476e-26,11.672047918112922\n"
        "6,ok,0.042857142857142858,0,2.9490917714874122e-26,11.672056786376743\n"
        "7,ok,0.050000000000000003,0,6.3736761454510296e-26,11.672067267440521\n"
        "kappa,5.7783006783928661\n"
        "lambda,0.11822245367224936\n"
        "alpha,7.1184653675087421\n"
        "tau,0.066299999999999998\n"
        "gamma,72.941047009248905\n"
        "calm_bound,287.9454484991424\n"
        "max_calm_ratio,11.672067267440521\n"
        "max_continuity_ratio,11.672130153823199\n",
        {**{(str(i), col): atol for i in range(8)
            for col, atol in ((4, NOISE_ATOL), (5, 0.0))},
         **{(name, 1): 0.0 for name in ("kappa", "lambda", "alpha", "gamma", "calm_bound",
                                        "max_calm_ratio", "max_continuity_ratio")}}),
    "ci-verify-linear-kappa": (
        ("verify", "linear.json", "--kappa", "2.1"), 0,
        CSV_HEADER + "\n"
        "metric-regularity,2,,,,pass,-0.80000000000000004 "
        "-0.39999999999999991;-1.6000000000000001 -0.29999999999999999\n"
        "aubin,2,,,,pass,-0.80000000000000004 "
        "-0.59999999999999998;-1.6000000000000001 "
        "-0.29999999999999999;-1.6000000000000001 -0.19999999999999996\n"),
    "ci-verify-lsc": (
        ("verify", "lsc_counterexample.json"), 0,
        CSV_HEADER + "\n"
        "lsc-probe,0.0022809523809523835,,,,lsc-violated,0.050000000000000003\n"),
    "ci-verify-generalized": (
        ("verify", "generalized.json"), 0, GENERALIZED_VERIFY),
    "ci-verify-generalized-kappa": (
        ("verify", "generalized.json", "--kappa", "2"), 0, GENERALIZED_VERIFY),
    "ci-verify-smooth": (
        ("verify", "smooth.json"), 0,
        CSV_HEADER + "\n"
        "metric-regularity,1.098901098901099,,,,pass,"
        "-0.80000000000000004;-0.94999999999999996\n"
        "aubin,1.098901098901099,,,,pass,"
        "-1;-0.94999999999999996;-0.76800000000000002\n"),
    "ci-verify-smooth-kappa": (
        ("verify", "smooth.json", "--kappa", "1.2", "--grid", "9"), 0,
        CSV_HEADER + "\n"
        "metric-regularity,1.0958904109589045,,,,pass,"
        "-0.75;-0.94999999999999996\n"
        "aubin,1.0958904109589045,,,,pass,"
        "-1;-0.94999999999999996;-0.72187500000000004\n"),
    # grid 101 (7,845 points, one test value each): the scans cross more
    # block boundaries here than anywhere else, and with --kappa 0.3 both
    # verdicts fail with the same ratios and witnesses
    "ci-verify-linear-101": (
        ("verify", "linear.json", "--grid", "101"), 0,
        CSV_HEADER + "\n" + LINEAR_101_VERIFY.format(verdict="pass")),
    "ci-verify-linear-101-below-the-modulus": (
        ("verify", "linear.json", "--grid", "101", "--kappa", "0.3"), 6,
        CSV_HEADER + "\n" + LINEAR_101_VERIFY.format(verdict="fail")),
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


# ---------------------------------------------------------------------------
# the certificate block: one writer, one field order on every path

SCHEDULE_FIELDS = ["kappa", "lambda", "alpha", "tau", "gamma"]
SOLVE_FIELDS = ["iterations", "increments", "residual", "tail_bound", "calm_ok"]


def _radii(pf, kappa, lam, alpha, target):
    """The radii that tau certifies: the file's, or for a control file the
    ones steering_setup derives from the constants and the target."""
    if pf.kind == "control":
        tau_target = max(control.TAU_FLOOR, 1.3 * float(np.linalg.norm(target)))
        stretch = 1.0 / (1.0 - alpha * lam)
        return (2.0 * kappa * tau_target * stretch * 1.02,
                (1.0 + kappa * lam) * tau_target * stretch * 1.02)
    if pf.kind == "smooth":
        return pf.radius, pf.radius
    return pf.radius_x, pf.radius_y


@pytest.mark.parametrize("argv, code, solved, after", [
    (("solve", "generalized.json", "--target", "0.1"), 0, True, None),
    (("solve", "smooth.json", "--target", "0.08"), 0, True, None),
    (("solve", "generalized.json", "--target", "0.9"), 4, False, "error"),
    (("sweep", "generalized.json", "--target", "0.15", "--grid", "21"), 0,
     False, "max_continuity_ratio"),
    (("sweep", "smooth.json", "--target", "0.19", "--grid", "5"), 0, False,
     "max_continuity_ratio"),
    (("control", "double_integrator.json", "--target", "0.05,0"), 0, True,
     "endpoint_error"),
    (("control", "pendulum.json", "--target", "0.05,0", "--grid", "8"), 0,
     False, "calm_bound"),
    (("control", "double_integrator.json", "--target", "0.5,0"), 4, False,
     "error"),
], ids=["solve-generalized", "solve-smooth", "solve-error", "sweep-generalized",
        "sweep-smooth", "control", "control-grid", "control-error"])
def test_certificate_block_round_trips(capsys, argv, code, solved, after):
    # every path prints the schedule in one order, a solve its steps after
    # it, and tau and gamma recompute bit for bit from the printed constants
    command, file, *flags = argv
    got, out, _ = run(capsys, command, "--input", str(COMMITTED / file), *flags)
    assert got == code
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("kappa,"))
    fields = SCHEDULE_FIELDS + (SOLVE_FIELDS if solved else [])
    block = [line.split(",") for line in lines[start:start + len(fields)]]
    assert [cells[0] for cells in block] == fields
    following = lines[start + len(fields):]
    assert (following[0].split(",")[0] if following else None) == after
    values = {cells[0]: cells[1:] for cells in block}
    kappa, lam, alpha, tau, gamma = (float(values[name][0]) for name in SCHEDULE_FIELDS)
    pf = load_problem(str(COMMITTED / file))
    target = [float(v) for v in flags[1].split(",")]
    rx, ry = _radii(pf, kappa, lam, alpha, target)
    assert tau == (1.0 - alpha * lam) * min(rx / (2.0 * kappa), ry / (1.0 + kappa * lam))
    assert gamma == 2.0 * kappa / (1.0 - alpha * lam)
    if solved:
        steps = [float(v) for v in values["increments"]]
        assert values["iterations"] == [str(len(steps))]
        assert float(values["tail_bound"][0]) == steps[-1] / (1.0 - alpha * lam)
        assert values["calm_ok"] == ["true"]


@pytest.mark.parametrize("argv, modulus", [
    (("solve", "rejected.json", "--target", "0.01"), "1.188"),
    (("sweep", "rejected.json", "--target", "0.01", "--grid", "3"), "1.188"),
    (("solve", "rejected-smooth.json", "--target", "0.01"), "1.32"),
    (("sweep", "rejected-smooth.json", "--target", "0.01", "--grid", "3"), "1.32"),
])
def test_a_rejected_default_schedule_is_a_regularity_failure(capsys, fdir,
                                                             argv, modulus):
    # as control's rejected schedule: exit 4, not an input error
    code, out, err = run(capsys, argv[0], "--input", str(fdir / argv[1]), *argv[2:])
    assert (code, out) == (4, "")
    assert err == ("regsel: locality/regularity: kappa*lambda: default "
                   f"schedule rejected, {modulus} >= 0.9\n")


@pytest.mark.parametrize("argv", [
    ("solve", "unscheduled.json", "--target", "0.1"),
    ("sweep", "unscheduled.json", "--target", "0.1", "--grid", "3"),
    ("solve", "smooth.json", "--target", "0.08"),
])
def test_a_bad_tol_on_a_file_without_constants_is_an_input_error(
        capsys, generalized_variants, argv):
    where = COMMITTED if (COMMITTED / argv[1]).exists() else generalized_variants
    code, out, err = run(capsys, argv[0], "--input", str(where / argv[1]),
                         *argv[2:], "--tol", "inf")
    assert (code, out) == (2, "")
    assert err == "regsel: contract violation: tol must be finite, got inf\n"


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
