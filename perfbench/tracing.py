"""Outside-in tracing of the twostrain package for the traced benchmark run.

Every public module-level function of the traced layers is replaced, in
every twostrain module namespace that refers to it, by a wrapper that
records one span: name, start, end, parent span and the exception class
if the call raised. Spans stay in memory; per-layer numbers are derived
from them after the run and the spans are written out once at the end.

Two counts cannot come from spans without making the trace larger than
the work it measures, so they are counted at the same boundaries instead:
field evaluations (the ``scalar_field`` closure that ``integrate`` builds
is wrapped by a counting closure) and the integrator's own return value
(accepted steps and how each run terminated).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("model", "integrate", "equilibria", "stability", "bifurcation", "basin", "figures", "config")

# Computed bytes written per Newton row and iteration: the residual (4
# doubles), the Jacobian (16), the masked Jacobian copy handed to det (16),
# the solve result (4) and the updated iterate (4).
NEWTON_BYTES_PER_ROW_ITER = 8 * (4 + 16 + 16 + 4 + 4)

# name, unit of every per-layer metric, in report order.
PER_LAYER = (
    ("model.field_evals", "count"),
    ("model.jacobian_calls", "count"),
    ("model.self_s", "s"),
    ("integrate.runs", "count"),
    ("integrate.busy_s", "s"),
    ("integrate.evals_per_run", "count"),
    ("integrate.accepted_steps", "count"),
    ("integrate.t_max_runs", "count"),
    ("integrate.undecided_runs", "count"),
    ("integrate.step_failures", "count"),
    ("integrate.csv_s", "s"),
    ("integrate.self_s", "s"),
    ("basin.grid_s", "s"),
    ("basin.grid_runs", "count"),
    ("basin.undecided_nodes", "count"),
    ("basin.edges_s", "s"),
    ("basin.bisect_s", "s"),
    ("basin.bisect_runs", "count"),
    ("basin.bisect_endpoint_reruns", "count"),
    ("basin.segments", "count"),
    ("basin.skipped_segments", "count"),
    ("basin.points_per_segment", "ratio"),
    ("basin.fit_s", "s"),
    ("basin.probe_s", "s"),
    ("basin.probe_runs", "count"),
    ("basin.probe_match_frac", "ratio"),
    ("basin.self_s", "s"),
    ("figures.io_s", "s"),
    ("figures.io_calls", "count"),
    ("figures.self_s", "s"),
    ("config.parse_s", "s"),
    ("config.parse_calls", "count"),
    ("equilibria.catalog_calls", "count"),
    ("equilibria.catalog_s", "s"),
    ("equilibria.compute_calls", "count"),
    ("equilibria.thresholds_calls", "count"),
    ("equilibria.newton_s", "s"),
    ("equilibria.newton_rows_per_s", "1/s"),
    ("equilibria.newton_bytes_computed", "B"),
    ("equilibria.self_s", "s"),
    ("stability.classify_calls", "count"),
    ("stability.classify_s", "s"),
    ("stability.self_s", "s"),
    ("bifurcation.sweep_s", "s"),
    ("bifurcation.sweep_points", "count"),
    ("bifurcation.transcritical_s", "s"),
    ("bifurcation.transcritical_calls", "count"),
    ("bifurcation.transcritical_skipped", "count"),
    ("bifurcation.transcritical_failed", "count"),
    ("bifurcation.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
)
PER_LAYER_UNITS = dict(PER_LAYER)

# fig4 stages: (label, span name) for the split the traced run prints.
FIG4_STAGES = (
    ("grid", "basin.classify_grid"),
    ("bisection", "basin.separatrix_points"),
    ("probe", "basin.probe_surface_sides"),
    ("fit", "basin.fit_surface"),
)

_REACH = "integrate.run_to_attractor"


class Tracer:
    """Span recorder installed over the twostrain modules of one process."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.pass_of: list[int] = []
        self.error: list[str] = []
        self._stack: list[int] = []
        self.active = True
        self.pass_index = 0
        self._field_evals = [0]
        # Per-pass counts taken at span boundaries from arguments and results.
        self.counts: list[Counter] = [Counter()]
        self._grid_starts: set[tuple[float, ...]] = set()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"twostrain.{name}") for name in LAYERS}
        namespaces = [sys.modules["twostrain"], *modules.values(), importlib.import_module("twostrain.cli")]
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(ns, attr, wrappers[id(obj)])

        integ = modules["integrate"]
        evals = self._field_evals
        make_field = inspect.unwrap(integ.scalar_field)

        def counting_scalar_field(params):
            field = make_field(params)

            def counted(P, S, V, W):
                evals[0] += 1
                return field(P, S, V, W)

            return counted

        integ.scalar_field = counting_scalar_field

        core = integ._integrate_core
        tracer = self

        @functools.wraps(core)
        def counted_core(*args, **kwargs):
            times, states, termination = core(*args, **kwargs)
            if tracer.active:
                c = tracer.counts[tracer.pass_index]
                c["integrate.runs"] += 1
                c["integrate.accepted_steps"] += len(times) - 1
                c[f"termination.{termination}"] += 1
            return times, states, termination

        integ._integrate_core = counted_core

    def _wrap(self, name: str, fn):
        tracer = self
        on_return = _RESULT_HOOKS.get(name)
        signature = inspect.signature(fn) if on_return is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.start)
            stack = tracer._stack
            tracer.name.append(name)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.pass_of.append(tracer.pass_index)
            tracer.error.append("")
            tracer.end.append(0.0)
            stack.append(sid)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.error[sid] = type(exc).__name__
                raise
            finally:
                tracer.end[sid] = perf_counter()
                stack.pop()
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                parent = tracer.parent[sid]
                parent_name = tracer.name[parent] if parent >= 0 else ""
                on_return(tracer, tracer.counts[tracer.pass_index], bound.arguments, result, parent_name)
            return result

        return traced

    # -- run control ------------------------------------------------------

    def begin_pass(self, index: int) -> None:
        self.pass_index = index
        while len(self.counts) <= index:
            self.counts.append(Counter())
        self.counts[index]["model.field_evals"] -= self._field_evals[0]
        self._grid_starts.clear()

    def end_pass(self) -> None:
        self.counts[self.pass_index]["model.field_evals"] += self._field_evals[0]

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (correctness checks) leave no spans or counts."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- results ----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("id", "pass", "name", "parent", "start_s", "end_s", "error"))
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                w.writerow((i, self.pass_of[i], self.name[i], self.parent[i],
                            f"{self.start[i] - t0:.9f}", f"{self.end[i] - t0:.9f}", self.error[i]))

    def pass_totals(self, n_passes: int) -> list[defaultdict]:
        """Span time, calls, self time and errors of each pass, keyed by kind:name."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        self_time = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_time[p] -= dur[i]

        totals = [defaultdict(float) for _ in range(n_passes)]
        for i, name in enumerate(self.name):
            t = totals[self.pass_of[i]]
            t[f"time:{name}"] += dur[i]
            t[f"calls:{name}"] += 1
            t[f"self:{name.split('.', 1)[0]}"] += self_time[i]
            if self.error[i]:
                t[f"error:{name}:{self.error[i]}"] += 1
            p = self.parent[i]
            parent_name = self.name[p] if p >= 0 else ""
            if name == _REACH:
                t[f"reach_under:{parent_name}"] += 1
            if parent_name.startswith("figures.") and name.split(".", 1)[1].startswith("write_"):
                t["io_time"] += dur[i]
                t["io_calls"] += 1
            t["spans"] += 1
        return totals

    def pass_metrics(self, totals: list[defaultdict]) -> list[dict[str, float]]:
        """Per-layer metrics of each pass, from its span totals and counts."""
        out = []
        for t, c in zip(totals, self.counts):
            runs = c["integrate.runs"]
            newton_s = t["time:equilibria.batched_newton"]
            segments = c["basin.segments"]
            probes = c["basin.probe_total"]
            m = {
                "model.field_evals": c["model.field_evals"],
                "model.jacobian_calls": t["calls:model.jacobian"],
                "integrate.runs": runs,
                "integrate.busy_s": t[f"time:{_REACH}"] + t["time:integrate.integrate"],
                "integrate.evals_per_run": c["model.field_evals"] / runs if runs else 0.0,
                "integrate.accepted_steps": c["integrate.accepted_steps"],
                "integrate.t_max_runs": c["termination.reached_t_max"],
                "integrate.undecided_runs": c["integrate.undecided_runs"],
                "integrate.step_failures": c["termination.step_failure"],
                "integrate.csv_s": t["time:integrate.write_trajectory_csv"],
                "basin.grid_s": t["time:basin.classify_grid"],
                "basin.grid_runs": t["reach_under:basin.classify_grid"],
                "basin.undecided_nodes": c["basin.undecided_nodes"],
                "basin.edges_s": t["time:basin.boundary_edge_segments"],
                "basin.bisect_s": t["time:basin.separatrix_points"],
                "basin.bisect_runs": t["reach_under:basin.separatrix_points"],
                "basin.bisect_endpoint_reruns": c["basin.bisect_endpoint_reruns"],
                "basin.segments": segments,
                "basin.skipped_segments": c["basin.skipped_segments"],
                "basin.points_per_segment": c["basin.points"] / segments if segments else 0.0,
                "basin.fit_s": t["time:basin.fit_surface"],
                "basin.probe_s": t["time:basin.probe_surface_sides"],
                "basin.probe_runs": t["reach_under:basin.probe_surface_sides"],
                "basin.probe_match_frac": c["basin.probe_matches"] / probes if probes else 0.0,
                "figures.io_s": t["io_time"],
                "figures.io_calls": t["io_calls"],
                "config.parse_s": t["time:config.parse_config"],
                "config.parse_calls": t["calls:config.parse_config"],
                "equilibria.catalog_calls": t["calls:equilibria.catalog"],
                "equilibria.catalog_s": t["time:equilibria.catalog"],
                "equilibria.compute_calls": t["calls:equilibria.compute_equilibrium"],
                "equilibria.thresholds_calls": t["calls:equilibria.thresholds"],
                "equilibria.newton_s": newton_s,
                "equilibria.newton_rows_per_s": c["equilibria.newton_rows"] / newton_s if newton_s else 0.0,
                "equilibria.newton_bytes_computed": c["equilibria.newton_bytes"],
                "stability.classify_calls": t["calls:stability.classify"],
                "stability.classify_s": t["time:stability.classify"],
                "bifurcation.sweep_s": t["time:bifurcation.sweep"],
                "bifurcation.sweep_points": c["bifurcation.sweep_points"],
                "bifurcation.transcritical_s": t["time:bifurcation.find_transcritical"],
                "bifurcation.transcritical_calls": t["calls:bifurcation.find_transcritical"],
                "bifurcation.transcritical_skipped": t["error:bifurcation.find_transcritical:NoSignChangeError"],
                "bifurcation.transcritical_failed": t["error:bifurcation.find_transcritical:RuntimeError"],
                "trace.spans": t["spans"],
            }
            for layer in LAYERS:
                m[f"{layer}.self_s"] = t[f"self:{layer}"]
            out.append(m)
        return out


def fig4_stages(totals: defaultdict) -> dict[str, tuple[float, float, float]]:
    """Seconds, calls and integrator runs of each fig4 stage in one pass."""
    stages = {
        label: (totals[f"time:{span}"], totals[f"calls:{span}"], totals[f"reach_under:{span}"])
        for label, span in FIG4_STAGES
    }
    stages["io"] = (totals["io_time"], totals["io_calls"], 0.0)  # writers never integrate
    return stages


def summarize(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of timings over passes, counts of the first pass.

    Returns the metrics and the names of counts that differed between
    passes, which the caller reports as nondeterminism.
    """
    merged, unsteady = {}, []
    for name, unit in PER_LAYER:
        if name == "trace.wall_s":
            continue
        values = [float(m[name]) for m in per_pass]
        if unit in ("s", "1/s"):
            merged[name] = statistics.median(values)
        else:
            merged[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
    return merged, unsteady


# -- hooks reading counts off arguments and results ---------------------------


def _on_reach(tracer, c, args, result, parent_name):
    if result.attractor_id is None:
        c["integrate.undecided_runs"] += 1
    start = tuple(float(v) for v in args["x0"])
    if parent_name == "basin.classify_grid":
        tracer._grid_starts.add(start)
    elif parent_name == "basin.separatrix_points" and start in tracer._grid_starts:
        c["basin.bisect_endpoint_reruns"] += 1


def _on_grid(tracer, c, args, result, parent_name):
    c["basin.undecided_nodes"] += int((result.labels < 0).sum())


def _on_separatrix(tracer, c, args, result, parent_name):
    c["basin.segments"] += len(args["segments"])
    c["basin.skipped_segments"] += len(result.skipped)
    c["basin.points"] += len(result.points)


def _on_probe(tracer, c, args, result, parent_name):
    matches, total = result
    c["basin.probe_matches"] += matches
    c["basin.probe_total"] += total


def _on_sweep(tracer, c, args, result, parent_name):
    c["bifurcation.sweep_points"] += len(result.values)


def _on_newton(tracer, c, args, result, parent_name):
    rows = len(result[0])
    c["equilibria.newton_rows"] += rows
    c["equilibria.newton_bytes"] += rows * args["iterations"] * NEWTON_BYTES_PER_ROW_ITER


_RESULT_HOOKS = {
    _REACH: _on_reach,
    "basin.classify_grid": _on_grid,
    "basin.separatrix_points": _on_separatrix,
    "basin.probe_surface_sides": _on_probe,
    "bifurcation.sweep": _on_sweep,
    "equilibria.batched_newton": _on_newton,
}
