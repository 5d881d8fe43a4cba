"""Paired benchmark runs of a parent revision against the working tree.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload solve-mix \
        --seed 1 --seconds 15 --pairs 10 --out /tmp/pairs.json

Extracts the parent revision (``git archive``) into one temporary
directory and copies the working tree's files (tracked, and untracked ones
git does not ignore) into a sibling, both removed on any exit, then runs
``bench/run.py --trace 0`` from each copy ``--pairs`` times, the parent
first in odd pairs and the working tree first in even ones. Neither side
runs in place: both load from the same kind of location, at the same
path depth. ``--out`` gets the lines of a committed ``BENCH_*.json``
file: a header object, then one object per run with the last stdout line
of that run as ``result`` and the p50 of each operation family that the
run prints as ``families`` (milliseconds by family name). The summary
printed at the end gives, for each end-to-end metric of ``BENCHMARK.json``,
both medians and quartiles, the change's wins (ties count for neither
side), its median against the metric's bound, and whether a gain could be
claimed: at least ten pairs, wins in at least nine tenths of them and
medians further apart than the parent's interquartile range. Then, for
each family, the median of its p50 on both sides, so a claim shows which
operations moved.

An archive, not a worktree, holds the parent: it leaves nothing in the
repository's ``.git``, even when a run is killed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", required=True, help="file for the JSON lines")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def git(*argv, root=ROOT) -> str:
    return subprocess.run(["git", *argv], cwd=root, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, into, root=ROOT):
    """Write the files of ``rev`` under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def copy_worktree(into, root=ROOT):
    """Copy the working tree's files under ``into``: the tracked ones as they
    are on disk (a deleted one is left out) and the untracked ones git does
    not ignore."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                 root=root)
    for name in filter(None, listed.split("\0")):
        source = Path(root, name)
        if source.is_file():
            target = Path(into, name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def prepare(rev: str, tmp, root=ROOT) -> dict:
    """Sibling directories under ``tmp`` to run each side from: the files of
    ``rev`` for the parent, a copy of the working tree for the change."""
    where = {side: Path(tmp, side) for side in ("parent", "change")}
    for path in where.values():
        path.mkdir()
    extract(rev, where["parent"], root)
    copy_worktree(where["change"], root)
    return where


def bench_command(args) -> list[str]:
    return ["python3", "bench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "0"]


# a family line of bench/run.py: "  <family> n=<count> p50 <ms> ms  p90 <ms> ms"
FAMILY_LINE = re.compile(r"  (\S.*?) +n=\d+ +p50 (\S+) ms +p90 \S+ ms")


def run_once(command: list[str], cwd) -> tuple[dict, dict]:
    """The JSON object on the last stdout line of one benchmark run, and
    the p50 in milliseconds of each operation family it printed."""
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(command)} in {cwd} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1]), family_p50s(lines[:-1])


def family_p50s(lines: list[str]) -> dict:
    """Family name -> p50 in milliseconds, from a run's family lines."""
    return {m[1]: float(m[2]) for m in map(FAMILY_LINE.fullmatch, lines) if m}


def run_order(pair: int) -> tuple[str, str]:
    return ("parent", "change") if pair % 2 else ("change", "parent")


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(runs: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric from the run lines of a pairs file.

    ``worse`` is the change's median relative to the parent's, signed so
    that a positive value is a regression; ``over_bound`` says whether it
    exceeds the metric's bound.
    """
    sides = {"parent": {}, "change": {}}
    for run in runs:
        sides[run["side"]][run["pair"]] = run["result"]
    pairs = sorted(set(sides["parent"]) & set(sides["change"]))
    rows = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        if not pairs or any(name not in sides[side][k]["metrics"]
                            for side in sides for k in pairs):
            continue
        values = {side: [sides[side][k]["metrics"][name]["value"] for k in pairs]
                  for side in sides}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        med = {side: statistics.median(v) for side, v in values.items()}
        q = {side: quartiles(v) for side, v in values.items()}
        worse = (med["change"] - med["parent"]) / med["parent"]
        if not lower:
            worse = -worse
        spread = q["parent"][1] - q["parent"][0]
        rows.append({
            "name": name, "pairs": len(pairs), "wins": wins,
            "parent_median": med["parent"], "parent_quartiles": q["parent"],
            "change_median": med["change"], "change_quartiles": q["change"],
            "worse": worse, "bound": metric["bound"],
            "over_bound": worse > metric["bound"],
            "gain": (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                     and worse < 0
                     and abs(med["change"] - med["parent"]) > spread),
        })
    return rows


def family_medians(runs: list[dict]) -> list[dict]:
    """Per operation family that both sides report: the median over runs
    of its p50 on each side, and the change's median relative to the
    parent's (negative is faster)."""
    p50s = {"parent": {}, "change": {}}
    for run in runs:
        for name, value in run.get("families", {}).items():
            p50s[run["side"]].setdefault(name, []).append(value)
    rows = []
    for name in sorted(set(p50s["parent"]) & set(p50s["change"])):
        med = {side: statistics.median(p50s[side][name]) for side in p50s}
        rows.append({"name": name, "parent_median": med["parent"],
                     "change_median": med["change"],
                     "change": med["change"] / med["parent"] - 1.0})
    return rows


def failed_share(runs: list[dict], side: str) -> float:
    results = [r["result"] for r in runs if r["side"] == side]
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def report(runs: list[dict], end_to_end: list[dict]) -> list[str]:
    lines = [f"failed share: parent {failed_share(runs, 'parent'):.4g}, "
             f"change {failed_share(runs, 'change'):.4g}"]
    for row in summarize(runs, end_to_end):
        pq, cq = row["parent_quartiles"], row["change_quartiles"]
        verdict = "OVER BOUND" if row["over_bound"] else "within bound"
        lines.append(
            f"{row['name']}: parent {row['parent_median']:.6g} "
            f"[{pq[0]:.6g}, {pq[1]:.6g}] -> change {row['change_median']:.6g} "
            f"[{cq[0]:.6g}, {cq[1]:.6g}]; change wins {row['wins']}/{row['pairs']}; "
            f"worse by {row['worse']:+.2%} vs bound {row['bound']:.0%} ({verdict})"
            + ("; gain claimable" if row["gain"] else ""))
    for row in family_medians(runs):
        lines.append(f"  {row['name']}: p50 parent {row['parent_median']:.4g} ms "
                     f"-> change {row['change_median']:.4g} ms "
                     f"({row['change']:+.1%})")
    return lines


def main(argv=None):
    args = parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    command = bench_command(args)
    header = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "command": " ".join(command),
              "parent": parent,
              "change": git("describe", "--always", "--dirty"),
              "where": {"parent": "git archive of the parent in a temporary "
                                  "directory",
                        "change": "copy of the working tree's tracked and "
                                  "unignored files in a sibling temporary "
                                  "directory"},
              "protocol": f"{args.pairs} pairs, parent first in odd pairs and "
                          "change first in even pairs; each line below holds "
                          "the last stdout line of one run and the p50 of each "
                          "operation family it printed",
              "host": f"{os.cpu_count()} cores, Python "
                      f"{platform.python_version()}, numpy {numpy.__version__}"}
    runs = []
    # each line is written as its run ends, so an interrupted run keeps them
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp, \
            open(args.out, "w") as out:
        out.write(json.dumps(header) + "\n")
        where = prepare(parent, tmp)
        for pair in range(1, args.pairs + 1):
            for i, side in enumerate(run_order(pair)):
                result, families = run_once(command, where[side])
                run = {"pair": pair, "side": side, "ran_first": i == 0,
                       "result": result, "families": families}
                runs.append(run)
                out.write(json.dumps(run) + "\n")
                out.flush()
                print(f"pair {pair} {side}: "
                      + json.dumps(run["result"]["metrics"]), file=sys.stderr)
    for line in report(runs, end_to_end):
        print(line)


if __name__ == "__main__":
    main()
