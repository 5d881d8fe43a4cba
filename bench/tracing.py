"""Span tracing for the traced benchmark run.

The tracer wraps regsel's public functions, a few methods of the convex
sets, and the oracles handed to the solver (``finv``, ``g``, ``f``,
``dynamics``, ``forward``) from outside the package: nothing under ``src/``
is edited, the wrappers are installed by rebinding names at run time.

Each call of a wrapped function records one span: name, start, end, the
span it was called from, and the query id of the operation the benchmark
was running (-1 during set-up). Spans stay in flat in-memory arrays and are
written out once, when the run ends. A span's self time is its duration
minus the durations of its direct children; since the benchmark is one
thread, child spans never overlap, so that difference is exactly the part
of the interval no child covers.
"""

from __future__ import annotations

import sys
import time
from array import array

# Where traced runs write their spans, relative to the repository root.
OUT_DIR = ".bench_out"

# Per-layer metrics: name -> (unit, how it is computed). "count:<span>" is
# the number of spans, "self:<span>" the summed self time in seconds,
# "counter:<key>" a value added up by a wrapper, "ratio:<a>/<b>" the ratio
# of two other metrics (0 when the denominator is 0).
LAYER_METRICS = {
    "linalg.svd_calls": ("count", "count:linalg.svd"),
    "linalg.svd_s": ("s", "self:linalg.svd"),
    "convex.affine_builds": ("count", "count:convex.affine_build"),
    "convex.affine_build_s": ("s", "self:convex.affine_build"),
    "convex.project_calls": ("count", "count:convex.project"),
    "convex.project_s": ("s", "self:convex.project"),
    "convex.dykstra_calls": ("count", "count:convex.dykstra"),
    "convex.dykstra_projections": ("count", "counter:convex.dykstra_projections"),
    "convex.projections_per_dykstra": (
        "ratio", "ratio:convex.dykstra_projections/convex.dykstra_calls"),
    "convex.dykstra_s": ("s", "self:convex.dykstra"),
    "convex.support_calls": ("count", "count:convex.support"),
    "convex.support_s": ("s", "self:convex.support"),
    "selection.solve_calls": ("count", "count:selection.solve"),
    "selection.solve_s": ("s", "self:selection.solve"),
    "selection.iterations": ("count", "counter:selection.iterations"),
    "selection.iterations_per_solve": (
        "ratio", "ratio:selection.iterations/selection.solve_calls"),
    "selection.finv_calls": ("count", "count:selection.finv"),
    "selection.g_calls": ("count", "count:selection.g"),
    "selection.g_s": ("s", "self:selection.g"),
    "moduli.lip_calls": ("count", "count:moduli.lip"),
    "moduli.lip_s": ("s", "self:moduli.lip"),
    "moduli.lip_f_evals": ("count", "count:moduli.lip_f"),
    "moduli.verify_mr_s": ("s", "self:moduli.verify_mr"),
    "moduli.verify_aubin_s": ("s", "self:moduli.verify_aubin"),
    "moduli.lg_check_s": ("s", "self:moduli.lg_check"),
    "moduli.forward_calls": ("count", "count:moduli.forward"),
    "smooth.config_s": ("s", "self:smooth.config"),
    "smooth.selection_calls": ("count", "count:smooth.selection"),
    "smooth.selection_s": ("s", "self:smooth.selection"),
    "smooth.f_calls": ("count", "count:smooth.f"),
    "control.setup_s": ("s", "self:control.setup"),
    "control.steer_s": ("s", "self:control.steer"),
    "control.dynamics_calls": ("count", "count:control.dynamics"),
    "control.dynamics_s": ("s", "self:control.dynamics"),
    "control.kalman_s": ("s", "self:control.kalman"),
    "control.interior_s": ("s", "self:control.interior"),
    "problems.load_s": ("s", "self:problems.load"),
    "cli.import_s": ("s", "self:cli.import"),
    "cli.main_s": ("s", "self:cli.main"),
    "cli.interpreter_s": ("s", "self:cli.interpreter"),
}


class Tracer:
    """In-memory span recorder; one per traced run or traced CLI child."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.query_id = -1
        self._stack: list[int] = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, key: str, value: float):
        self.counters[key] = self.counters.get(key, 0) + value

    def record(self, name: str, start: float, end: float):
        """Add a span measured by the caller (no nesting)."""
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.query_id)
        self.start.append(start)
        self.end.append(end)

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``on_call(args, kwargs)`` may return replacement arguments;
        ``on_result(result)`` sees the return value.
        """
        nid = self._nid(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.query.append(self.query_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.bench_span = name
        return traced

    def oracle(self, name: str, fn):
        """Wrap an oracle once; an already traced oracle is returned as is."""
        if fn is None or getattr(fn, "bench_span", None) is not None:
            return fn
        return self.wrap(name, fn)

    # -- install -----------------------------------------------------------

    def install(self):
        """Rebind regsel's public functions and methods to traced wrappers."""
        from regsel import (cli, control, convex, linalg, moduli, problems,
                            selection, smooth)

        def rebind(module, attr, span, **hooks):
            orig = getattr(module, attr)
            wrapped = self.wrap(span, orig, **hooks)
            # Modules import these names directly (from .linalg import svd),
            # so every regsel module binding the same object is rebound.
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("regsel"):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)

        rebind(linalg, "svd", "linalg.svd")
        rebind(convex, "dykstra", "convex.dykstra")
        rebind(selection, "solve", "selection.solve",
               on_result=lambda r: self.add("selection.iterations",
                                            r[1].iterate_count))
        rebind(moduli, "lip_estimate", "moduli.lip",
               on_call=lambda a, k: ((self.wrap("moduli.lip_f", a[0]),) + a[1:], k))
        rebind(moduli, "verify_metric_regularity", "moduli.verify_mr")
        rebind(moduli, "verify_aubin", "moduli.verify_aubin")
        rebind(moduli, "lg_bound_check", "moduli.lg_check")
        rebind(smooth, "config_for", "smooth.config")
        rebind(smooth, "smooth_selection", "smooth.selection")
        rebind(control, "steering_setup", "control.setup")
        rebind(control, "steer", "control.steer")
        rebind(control, "kalman_rank", "control.kalman")
        rebind(control, "reachable_interior", "control.interior")
        rebind(problems, "load_problem", "problems.load")
        rebind(cli, "main", "cli.main")

        convex.AffineSet.__init__ = self.wrap("convex.affine_build",
                                              convex.AffineSet.__init__)
        sets = [convex.AffineSet, convex.Box, convex.Ball, convex.Halfspaces,
                convex._SingleHalfspace, convex.Intersection]
        for cls in sets:
            for method in ("project", "support"):
                if method in vars(cls):
                    setattr(cls, method,
                            self.wrap(f"convex.{method}", vars(cls)[method]))

        # Oracles are wrapped where they enter the package: the fields of
        # the problem objects, before their own validation calls them.
        self._wrap_fields(selection.GeneralizedEquation,
                          finv="selection.finv", g="selection.g")
        self._wrap_fields(moduli.SampledMapping, forward="moduli.forward")
        self._wrap_fields(smooth.SmoothProblem, f="smooth.f")
        self._wrap_fields(control.ControlProblem, dynamics="control.dynamics")

    def _wrap_fields(self, cls, **fields):
        orig = cls.__post_init__

        def post_init(obj):
            for attr, span in fields.items():
                setattr(obj, attr, self.oracle(span, getattr(obj, attr)))
            orig(obj)

        cls.__post_init__ = post_init

    # -- results -----------------------------------------------------------

    def arrays(self):
        import numpy as np
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "query": np.frombuffer(self.query, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str, **extra):
        import numpy as np
        np.savez_compressed(path, **self.arrays(), **extra)


def merge(parts: list[dict]) -> dict:
    """Concatenate span arrays of several tracers (e.g. CLI children)."""
    import numpy as np
    ids: dict[str, int] = {}
    out = {k: [] for k in ("name_id", "parent", "query", "start", "end")}
    offset = 0
    for part in parts:
        remap = np.array([ids.setdefault(str(n), len(ids)) for n in part["names"]],
                         dtype=np.int32)
        out["name_id"].append(remap[part["name_id"]])
        out["parent"].append(np.where(part["parent"] >= 0,
                                      part["parent"] + offset, -1))
        for key in ("query", "start", "end"):
            out[key].append(part[key])
        offset += part["start"].size
    merged = {k: np.concatenate(v) for k, v in out.items()}
    merged["names"] = np.array(list(ids), dtype=str)
    return merged


def summarize(spans: dict, counters: dict):
    """Per-span-name totals and the per-layer metric values.

    Returns (rows, metrics): rows maps span name -> (calls, total_s, self_s),
    metrics maps each LAYER_METRICS name -> value.
    """
    import numpy as np
    dur = spans["end"] - spans["start"]
    parent = spans["parent"].astype(np.int64)
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    names = [str(n) for n in spans["names"]]
    rows = {}
    for i, name in enumerate(names):
        sel = spans["name_id"] == i
        rows[name] = (int(sel.sum()), float(dur[sel].sum()),
                      float(self_time[sel].sum()))
    counters = dict(counters)
    # Member projections made inside dykstra: project spans whose direct
    # parent is a dykstra span.
    if "convex.project" in names and "convex.dykstra" in names:
        proj = spans["name_id"] == names.index("convex.project")
        dyk = spans["name_id"] == names.index("convex.dykstra")
        inside = proj & has_parent
        inside[inside] = dyk[parent[inside]]
        counters["convex.dykstra_projections"] = int(inside.sum())

    values: dict[str, float] = {}

    def value(spec: str) -> float:
        kind, _, key = spec.partition(":")
        if kind == "count":
            return rows.get(key, (0, 0.0, 0.0))[0]
        if kind == "self":
            return rows.get(key, (0, 0.0, 0.0))[2]
        if kind == "counter":
            return counters.get(key, 0)
        num, den = key.split("/")
        return values[num] / values[den] if values[den] else 0.0

    for name, (_, spec) in LAYER_METRICS.items():
        values[name] = value(spec)
    return rows, values
