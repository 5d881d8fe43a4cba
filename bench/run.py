"""regsel benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload solve-mix --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ./src. The last
line of output is one JSON object: correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones, measured over a timed
closed loop of --seconds. With --trace 1 the run does a fixed amount of work
(so counts repeat exactly), once untraced and once traced, and reports the
per-layer metrics of the traced pass plus the tracing overhead. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

WORKLOAD_NAMES = ("solve-mix", "steer-mesh", "verify-grid", "cli-cold")

# Small-numpy kernel calls timed before and after each set-up (~45 ms).
SETUP_KERNEL_CALLS = 60

# Fixed BLAS thread count for every workload process and its children. At
# 2 OpenBLAS threads the dense SVDs of steer-mesh swing several-fold between
# identical runs; at 1 thread they repeat.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}

# The names the workloads give the generic operation metrics.
ALIASES = {
    "solve-mix": {"ops_per_s": "solves_per_s", "op_p50_ms": "solve_p50_ms",
                  "op_p90_ms": "solve_p90_ms"},
    "steer-mesh": {"ops_per_s": "steers_per_s", "op_p50_ms": "steer_p50_ms",
                   "op_p90_ms": "steer_p90_ms"},
    "verify-grid": {"ops_per_s": "passes_per_s", "op_p50_ms": "verify_s",
                    "op_p90_ms": "verify_p90_ms"},
    "cli-cold": {"ops_per_s": "invocations_per_s", "op_p50_ms": "cold_start_p50_ms",
                 "op_p90_ms": "cold_start_p90_ms"},
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs and short runs, for the self-test")
    return p.parse_args(argv)


def prepare_environment():
    """Pin BLAS threads and put ./src first on the import path."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "regsel", "__init__.py")):
        raise SystemExit("bench: no src/regsel here; run from the repository root")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    sys.path.insert(0, src)


def environment_record() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                  "numpy.libs", "libscipy_openblas*"))
    if libs:
        try:
            threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            threads = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads_env": BLAS_THREADS, "blas_threads_reported": threads}


def percentile(sorted_values: list, q: int) -> float:
    if len(sorted_values) < 2:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def run_ops(workload, state, ks, tracer):
    """Run operations ks in order; returns (durations, ok durations, failures)."""
    clock = time.perf_counter
    durations, ok, failures = [], [], []
    for k in ks:
        call, check = workload.op(state, k, tracer)
        if tracer is not None:
            tracer.query_id = k
        start = clock()
        try:
            result = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            durations.append(clock() - start)
            failures.append(f"{workload.family(k)}: {type(exc).__name__}: {exc}")
            continue
        elapsed = clock() - start
        durations.append(elapsed)
        err = check(result)
        if err:
            failures.append(f"{workload.family(k)}: {err}")
        else:
            ok.append(elapsed)
    if tracer is not None:
        tracer.query_id = -1
    return durations, ok, failures


def time_kernel(kernel, calls: int) -> float:
    """Seconds per call of a reference kernel, timed now."""
    start = time.perf_counter()
    for _ in range(calls):
        kernel()
    return (time.perf_counter() - start) / calls


def host_scales(kernel_times: list, nominal: float, window: int) -> list:
    """Per-operation factor that takes a time measured on the host as it was
    around that operation to the host where the kernel takes ``nominal``.

    Kernel time i is taken just before operation i and kernel time i + 1
    just after it; operation i uses the median of the ``window`` kernel
    times centred on it.
    """
    half = window // 2
    return [nominal / statistics.median(kernel_times[max(0, i + 1 - half):i + 1 + half])
            for i in range(len(kernel_times) - 1)]


def timed_setup(workload, repeats: int):
    """Host-scaled and raw times of ``repeats`` set-ups, and the last state.

    Set-up is library work made of small numpy calls in every workload, so
    it is scaled by the small-numpy kernel timed before and after each one.
    """
    import reference

    kernel, calls = reference.small_numpy, SETUP_KERNEL_CALLS
    kernel()
    kernel_times = [time_kernel(kernel, calls)]
    times, state = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - start)
        kernel_times.append(time_kernel(kernel, calls))
    scales = host_scales(kernel_times, reference.NOMINAL_S["small_numpy"], 2)
    return [t * c for t, c in zip(times, scales)], times, state


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def report_failures(failures: list):
    counts: dict[str, int] = {}
    for f in failures:
        counts[f] = counts.get(f, 0) + 1
    for text, n in sorted(counts.items(), key=lambda kv: -kv[1])[:5]:
        print(f"  FAILED x{n}: {text}")


def run_untraced(workload, seconds: float) -> dict:
    """Set-ups, then whole rounds of operations until ``seconds`` have
    passed, the reference kernel timed between operations."""
    setup_times, raw_setup, state = timed_setup(workload, workload.setup_repeats)
    clock = time.perf_counter
    durations, passed, failures = [], [], []
    workload.kernel()  # warm the kernel's code paths before timing it
    kernel_times = [time_kernel(workload.kernel, workload.kernel_calls)]
    k = 0
    start = clock()
    # Whole rounds, so every run holds each problem or command equally often.
    while clock() < start + seconds or k % workload.round_ops:
        d, o, f = run_ops(workload, state, [k], None)
        durations += d
        passed.append(bool(o))
        failures += f
        kernel_times.append(time_kernel(workload.kernel, workload.kernel_calls))
        k += 1
    elapsed = clock() - start
    scales = host_scales(kernel_times, workload.kernel_nominal_s, workload.scale_window)
    scaled = [d * c for d, c in zip(durations, scales)]
    # A sample is ops_per_sample consecutive operations: one operation, one
    # verify-grid pass, or one cli-cold round of every command. Its time is
    # per unit (per pass, per invocation), and it counts as checked when all
    # of its operations passed.
    per, units = workload.ops_per_sample, workload.units_per_sample
    per_family, ok, raw = {}, [], []
    for i in range(0, len(durations), per):
        if all(passed[i:i + per]):
            ok.append(sum(scaled[i:i + per]) / units)
            raw.append(sum(durations[i:i + per]) / units)
    if not ok:
        report_failures(failures)
        raise SystemExit("bench: no operation succeeded")
    for i, good in enumerate(passed):
        if good:
            per_family.setdefault(workload.family(i), []).append(scaled[i])
    ok_sorted, raw = sorted(ok), sorted(raw)
    scaled_total = sum(scaled)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(ok) * units / scaled_total,
        "op_p50_ms": 1e3 * statistics.median(ok_sorted),
        "op_p90_ms": 1e3 * percentile(ok_sorted, 90),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    alias = ALIASES[workload.name]
    n, noun = len(ok) * units, workload.noun
    if per == 1:
        samples = f"n={n} {noun}"
    elif units == 1:
        samples = f"n={len(ok)} {noun} of {per} timed calls"
    else:
        samples = f"n={len(ok)} rounds of {units} {noun}"
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups "
                   f"(host-scaled; raw {statistics.median(raw_setup):.6g} s)",
        "ops_per_s": f"{n} checked {noun} / {scaled_total:.3f} s of {noun} "
                     f"(host-scaled; raw {n / sum(durations):.6g})",
        "op_p50_ms": f"{samples} (raw {1e3 * statistics.median(raw):.6g} ms)",
        "op_p90_ms": f"{samples} (raw {1e3 * percentile(raw, 90):.6g} ms)",
        "peak_rss_mb": "children" if not workload.in_process else "this process",
    }
    for name, value in metrics.items():
        shown, scale, unit = alias.get(name, name), 1.0, END_TO_END_UNITS[name]
        if shown == "verify_s":
            scale, unit = 1e-3, "s"
        print(f"{shown:<20} {value * scale:>12.6g} {unit:<5} {notes[name]}   [{name}]")
    print(f"{'failed_frac':<20} {len(failures) / len(durations):>12.6g} {'ratio':<5} "
          f"{len(failures)} of {len(durations)} operations failed")
    for fam, lat in sorted(per_family.items()):
        if lat:
            lat = sorted(lat)
            print(f"  {fam:<20} n={len(lat):<6} p50 {1e3 * statistics.median(lat):.4g} ms"
                  f"  p90 {1e3 * percentile(lat, 90):.4g} ms")
    kernel_share = sum(kernel_times[1:]) * workload.kernel_calls / elapsed
    print(f"{'host scale':<20} {statistics.median(scales):>12.6g} {'ratio':<5} "
          f"median over operations; kernel {1e3 * statistics.median(kernel_times):.4g} ms, "
          f"nominal {1e3 * workload.kernel_nominal_s:.4g} ms, "
          f"{100.0 * kernel_share:.0f}% of the timed loop")
    report_failures(failures)
    return {"correct": not failures, "attempted": len(durations),
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                        for name, value in metrics.items()}}


def run_traced(workload) -> dict:
    import numpy as np

    import tracing
    from workloads import bare_interpreter

    ks = range(workload.traced_ops)
    start = time.perf_counter()
    state = workload.setup()
    plain_setup = time.perf_counter() - start
    plain, _, _ = run_ops(workload, state, ks, None)

    tracer = tracing.Tracer()
    if workload.in_process:
        tracer.install()
    os.makedirs(tracing.OUT_DIR, exist_ok=True)
    start = time.perf_counter()
    state = workload.setup()
    traced_setup = time.perf_counter() - start
    durations, _, failures = run_ops(workload, state, ks, tracer)
    if not workload.in_process:
        for k in ks:
            start = time.perf_counter()
            bare_interpreter(os.environ)
            tracer.query_id = k
            tracer.record("cli.interpreter", start, time.perf_counter())
        tracer.query_id = -1

    parts = [tracer.arrays()] + list(getattr(workload, "child_spans", []))
    counters = dict(tracer.counters)
    for part in parts[1:]:
        for key, value in json.loads(str(part.pop("counters"))).items():
            counters[key] = counters.get(key, 0) + value
    spans = tracing.merge(parts)
    rows, values = tracing.summarize(spans, counters)
    path = os.path.join(tracing.OUT_DIR, f"{workload.name}.spans.npz")
    np.savez_compressed(path, **spans, counters=json.dumps(counters))

    print(f"{'span':<26} {'calls':>8} {'total_s':>10} {'self_s':>10} {'wait_s':>10}")
    for name, (calls, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:<26} {calls:>8} {total:>10.4f} {own:>10.4f} {total - own:>10.4f}")
    plain_total = plain_setup + sum(plain)
    traced_total = traced_setup + sum(durations)
    units = len(ks) // workload.ops_per_sample * workload.units_per_sample
    print(f"trace overhead: untraced {plain_total:.4f} s, traced {traced_total:.4f} s, "
          f"overhead {traced_total - plain_total:+.4f} s "
          f"({100.0 * (traced_total / plain_total - 1.0):+.1f}%) "
          f"for set-up + {units} {workload.noun}")
    print(f"spans: {spans['start'].size} written to {path}")
    report_failures(failures)
    return {"correct": not failures, "attempted": len(durations),
            "failed": len(failures),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, (unit, _) in tracing.LAYER_METRICS.items()}}


def run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    prepare_environment()
    import regsel
    from workloads import WORKLOADS

    src_pkg = os.path.realpath(os.path.join("src", "regsel"))
    if os.path.realpath(os.path.dirname(regsel.__file__)) != src_pkg:
        raise SystemExit(f"bench: regsel imported from {regsel.__file__}, not ./src")
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    if args.tiny:
        workload.setup_repeats = 1
    mode = "traced" if args.trace else f"untraced, {args.seconds:g} s"
    print(f"regsel benchmark: workload {args.workload}, seed {args.seed}, {mode}")
    print("env: " + json.dumps(environment_record()))
    result = run_traced(workload) if args.trace else run_untraced(workload, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
