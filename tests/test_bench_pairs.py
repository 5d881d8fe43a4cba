import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs",
                                               ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def synthetic_runs(scale: dict, pairs: int = 10, failed=(0, 0)) -> list[dict]:
    """Pairs whose change reads each metric at ``scale[name]`` times the
    parent's value; the parent's values spread over 1.00-1.09."""
    runs = []
    for pair in range(1, pairs + 1):
        for i, side in enumerate(bench_pairs.run_order(pair)):
            base = 1.0 + 0.01 * (pair - 1)
            metrics = {m["name"]: {"value": base * (scale[m["name"]]
                                                    if side == "change" else 1.0),
                                   "unit": "x"} for m in END_TO_END}
            result = {"correct": True, "attempted": 100,
                      "failed": failed[side == "change"], "metrics": metrics}
            runs.append({"pair": pair, "side": side, "ran_first": i == 0,
                         "result": result})
    return runs


def test_run_order_alternates():
    assert [bench_pairs.run_order(k) for k in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_summary_reads_wins_bounds_and_claims():
    scale = {"setup_s": 1.0, "ops_per_s": 0.7, "op_p50_ms": 0.8,
             "op_p90_ms": 1.2, "peak_rss_mb": 1.1}
    rows = {r["name"]: r for r in bench_pairs.summarize(synthetic_runs(scale),
                                                        END_TO_END)}
    assert set(rows) == set(scale)
    # equal values are ties, won by neither side
    assert rows["setup_s"]["wins"] == 0
    assert rows["setup_s"]["worse"] == 0.0 and not rows["setup_s"]["over_bound"]
    # higher is better: a 30 % fall is a regression past the 25 % bound
    assert rows["ops_per_s"]["worse"] == pytest.approx(0.3)
    assert rows["ops_per_s"]["over_bound"] and not rows["ops_per_s"]["gain"]
    # a 20 % fall of a lower-is-better time, won in every pair and wider
    # than the parent's interquartile range, may be claimed
    p50 = rows["op_p50_ms"]
    assert p50["wins"] == 10 and p50["gain"] and not p50["over_bound"]
    assert p50["worse"] == pytest.approx(-0.2)
    assert p50["parent_median"] == pytest.approx(1.045)
    assert p50["parent_quartiles"] == pytest.approx((1.0225, 1.0675))
    assert rows["op_p90_ms"]["worse"] == pytest.approx(0.2)
    assert not rows["op_p90_ms"]["over_bound"]
    assert rows["peak_rss_mb"]["over_bound"]


def test_summary_refuses_a_gain_inside_the_parents_spread():
    # a 1 % fall won in every pair is narrower than the parent's quartiles
    scale = {m["name"]: 1.0 for m in END_TO_END} | {"op_p50_ms": 0.99}
    rows = {r["name"]: r for r in bench_pairs.summarize(synthetic_runs(scale),
                                                        END_TO_END)}
    assert rows["op_p50_ms"]["wins"] == 10 and not rows["op_p50_ms"]["gain"]


def test_summary_needs_ten_pairs_for_a_gain():
    scale = {m["name"]: 1.0 for m in END_TO_END} | {"op_p50_ms": 0.5}
    for pairs, gain in ((9, False), (10, True)):
        rows = {r["name"]: r for r in bench_pairs.summarize(
            synthetic_runs(scale, pairs=pairs), END_TO_END)}
        assert rows["op_p50_ms"]["wins"] == pairs
        assert rows["op_p50_ms"]["gain"] is gain


def test_report_prints_the_failed_share_and_each_verdict():
    scale = {m["name"]: 1.0 for m in END_TO_END} | {"peak_rss_mb": 1.1}
    lines = bench_pairs.report(synthetic_runs(scale, pairs=4, failed=(0, 2)),
                               END_TO_END)
    assert lines[0] == "failed share: parent 0, change 0.02"
    assert len(lines) == 1 + len(END_TO_END)
    assert lines[-1].startswith("peak_rss_mb: parent ")
    assert lines[-1].endswith("worse by +10.00% vs bound 5% (OVER BOUND)")
    assert all("within bound" in line for line in lines[1:-1])


def test_both_sides_run_from_sibling_copies(tmp_path):
    # a throwaway repository with one commit, then a modified tracked file,
    # a new untracked module and an ignored file in its working tree
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*argv):
        bench_pairs.git("-c", "user.name=t", "-c", "user.email=t@t", *argv,
                        root=repo)

    git("init", "-q")
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "pkg").mkdir()
    (repo / "pkg" / "mod.py").write_text("VALUE = 1\n")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "pkg" / "mod.py").write_text("VALUE = 2\n")
    (repo / "pkg" / "new.py").write_text("NEW = True\n")
    (repo / "ignored.txt").write_text("build output\n")

    runs = tmp_path / "runs"
    runs.mkdir()
    where = bench_pairs.prepare("HEAD", runs, root=repo)
    parent, change = where["parent"], where["change"]
    assert repo not in (parent, change) and parent.parent == change.parent
    assert (parent / "pkg" / "mod.py").read_text() == "VALUE = 1\n"
    assert not (parent / "pkg" / "new.py").exists()
    assert (change / "pkg" / "mod.py").read_text() == "VALUE = 2\n"
    assert (change / "pkg" / "new.py").read_text() == "NEW = True\n"
    assert (change / ".gitignore").exists()
    assert not (change / "ignored.txt").exists()
    assert not (change / ".git").exists()


def test_family_lines_are_kept_and_compared_side_by_side():
    # the lines bench/run.py prints after its metrics: a family name of 20
    # characters or more is followed by a single space
    stdout = ["failed_frac                     0 ratio 0 of 42 operations failed",
              "  aubin 2->1 x0.95     n=3      p50 0.923 ms  p90 0.9422 ms",
              "  metric-reg 2->1 x0.95 n=3      p50 8.43 ms  p90 8.536 ms",
              "host scale               0.699892 ratio median over operations"]
    assert bench_pairs.family_p50s(stdout) == {"aubin 2->1 x0.95": 0.923,
                                               "metric-reg 2->1 x0.95": 8.43}
    runs = synthetic_runs({m["name"]: 1.0 for m in END_TO_END}, pairs=3)
    for run in runs:
        pair, faster = run["pair"], run["side"] == "change"
        run["families"] = {"aubin 2->1 x0.95": (9.0 if faster else 10.0) + pair,
                           "lg-bound x1.05": 12.0}
    runs[0]["families"]["parent only"] = 1.0
    rows = {r["name"]: r for r in bench_pairs.family_medians(runs)}
    assert set(rows) == {"aubin 2->1 x0.95", "lg-bound x1.05"}
    assert (rows["aubin 2->1 x0.95"]["parent_median"],
            rows["aubin 2->1 x0.95"]["change_median"]) == (12.0, 11.0)
    assert rows["lg-bound x1.05"]["change"] == 0.0
    lines = bench_pairs.report(runs, END_TO_END)
    assert lines[-2:] == [
        "  aubin 2->1 x0.95: p50 parent 12 ms -> change 11 ms (-8.3%)",
        "  lg-bound x1.05: p50 parent 12 ms -> change 12 ms (+0.0%)"]
