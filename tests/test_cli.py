import json
import time
from pathlib import Path

import numpy as np
import pytest

from regsel import cli, moduli
from regsel.cli import main
from regsel.moduli import CSV_HEADER

BOX_JSON = {"type": "box", "lower": [-1.0], "upper": [1.0]}

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
    "counter.json": {"version": "1", "kind": "generalized",
                     "fixture": "lsc_counterexample"},
    "hugemesh.json": {"version": "1", "kind": "control",
                      "dynamics": "double_integrator",
                      "control_set": BOX_JSON, "mesh": 10 ** 7},
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
    from regsel import moduli
    scans = []
    ratio_scan = moduli._ratio_scan

    def counted(*args, **kwargs):
        scans.append(1)
        return ratio_scan(*args, **kwargs)

    monkeypatch.setattr(moduli, "_ratio_scan", counted)
    code, out, _ = run(capsys, "verify", "--input", str(fdir / "smooth.json"))
    assert code == 0
    assert len(scans) == 1
    assert out == (
        "kind,value,radius,samples,seed,verdict,witness\n"
        "metric-regularity,1.098901098901099,,,,pass,"
        "-0.80000000000000004;-0.94999999999999996\n"
        "aubin,1.098901098901099,,,,pass,"
        "-1;-0.94999999999999996;-0.76800000000000002\n")
    # the same constant given explicitly goes through verify_metric_regularity
    kappa = 1.05 * float(out.splitlines()[1].split(",")[1])
    code, explicit, _ = run(capsys, "verify", "--input",
                            str(fdir / "smooth.json"), "--kappa", repr(kappa))
    assert code == 0
    assert explicit == out


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
])
def test_resource_caps_refuse_fast(capsys, fdir, argv, flag, cap):
    argv = (argv[0], argv[1], str(fdir / argv[2])) + argv[3:]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith(f"regsel: input error: {flag}:")
    assert cap in err
