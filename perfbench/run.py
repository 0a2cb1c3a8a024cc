"""Run one twostrain benchmark workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fig4_basin --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
The run repeats whole passes over the workload's inputs, closed loop and
one job at a time, while the next pass is predicted to end within
``--seconds``; at least one pass always runs. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` wraps the package's public functions
and reports per-layer metrics instead. Times in the result are
calibrated to machine speed (see speed.py); the measured times are
printed next to them. Human-readable lines come first; the last line of
standard output is one JSON object.
"""

from __future__ import annotations

import os

# One BLAS thread: the machine has two cores and the timed kernels are
# small-matrix batches, so extra threads only add run-to-run noise.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("run_p50_ms", "ms"),
    ("run_tail_ms", "ms"),
)


def load_program() -> SimpleNamespace:
    """Import twostrain from this checkout's ``src`` and nowhere else."""
    if not (SRC / "twostrain" / "__init__.py").is_file():
        raise SystemExit(f"error: no twostrain package under {SRC}")
    sys.path.insert(1, str(SRC))
    pkg = importlib.import_module("twostrain")
    if Path(pkg.__file__).resolve().parent != (SRC / "twostrain").resolve():
        raise SystemExit(f"error: imported twostrain from {pkg.__file__}, not {SRC}")
    # importlib, because the package attribute ``integrate`` is the function.
    names = ("model", "integrate", "equilibria", "stability", "bifurcation", "basin", "figures", "config")
    return SimpleNamespace(
        package=pkg, **{n: importlib.import_module(f"twostrain.{n}") for n in names}
    )


def set_up(workload_name: str, seed: int, workdir: Path):
    """Everything before the first timed pass: import, inputs, one warm-up call."""
    prog = load_program()
    workload = workloads.make(workload_name, prog, seed, workdir)
    workload.warm_up()
    return prog, workload


def measure_setup(args, probe) -> tuple[list[float], list[float]]:
    """Start fresh interpreters that set up and report ready; time each.

    Returns (calibrated, measured) seconds. The timer does not sample
    while a child sets up, so calibration samples are taken right before
    and right after each child instead.
    """
    calibrated, measured = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        probe.bracket()
        t0 = perf_counter()
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            ready = perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe exited with {code}")
        probe.bracket()
        measured.append(ready)
        calibrated.append(ready * probe.factor(t0, t0 + ready))
    return calibrated, measured


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it (else the max)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.2f} of {n}"


def run_passes(workload, seconds: float, probe, tracer=None):
    """Whole passes while the next one is predicted to end in time."""
    paused = tracer.paused if tracer is not None else contextlib.nullcontext
    passes = []
    t_start = perf_counter()
    probe.start()
    try:
        while True:
            if tracer is not None:
                tracer.begin_pass(len(passes))
            jobs, other = speed.Stopwatch(probe), speed.Stopwatch(probe)
            t0 = perf_counter()
            result = workload.run_pass(paused, jobs, other)
            result.elapsed, result.jobs, result.other = perf_counter() - t0, jobs, other
            result.max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer is not None:
                tracer.end_pass()
            passes.append(result)
            # Free the pass's garbage now, so the peak memory after the last
            # pass shows growth across passes, not garbage not yet collected.
            gc.collect()
            typical = statistics.median(p.elapsed for p in passes)
            if perf_counter() - t_start + typical > seconds:
                return passes
    finally:
        probe.stop()


def pass_times(passes, calibrated: bool) -> tuple[float, list[float]]:
    """(median pass time, per-job latency) in seconds.

    A pass's time is the sum of its timed work; a job's latency is its
    median over passes, so percentiles run over distinct jobs.
    """
    def pick(watch):
        return watch.calibrated() if calibrated else watch.raw()

    walls = [sum(pick(p.jobs)) + sum(pick(p.other)) for p in passes]
    per_job = [statistics.median(js) for js in zip(*(pick(p.jobs) for p in passes))]
    return statistics.median(walls), per_job


def metadata(args, prog, workload, passes) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "twostrain").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "sizes": workload.sizes(),
        "seed_independent": workload.seed_independent,
        "output_digest": passes[0].digest,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "twostrain_version": prog.package.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def print_checks(passes) -> bool:
    """Print every check with its counts; False if any found a wrong output."""
    correct = True
    first = passes[0]
    for name in first.checks:
        bad = sum(p.checks[name].violations for p in passes)
        base = sum(p.checks[name].base for p in passes)
        kind = "wrong output" if first.checks[name].wrong_output else "failed operation"
        notes = "; ".join(sorted({p.checks[name].note for p in passes if p.checks[name].note}))
        status = "ok" if bad == 0 else kind.upper()
        print(f"check {name}: {bad} of {base} ({kind}) {status}" + (f" [{notes}]" if notes else ""))
        if bad and first.checks[name].wrong_output:
            correct = False
    digests = {p.digest for p in passes}
    same = len(digests) == 1
    print(f"check outputs_identical_across_passes: {'ok' if same else 'WRONG OUTPUT'} ({len(passes)} passes)")
    if not same:
        correct = False
    counts = {(p.attempted, p.failed) for p in passes}
    same = len(counts) == 1
    print(f"check operation_counts_identical_across_passes: {'ok' if same else 'WRONG OUTPUT'} "
          f"({', '.join(f'{f} of {a}' for a, f in sorted(counts))} failed)")
    if not same:
        correct = False
    shown = [e for p in passes[:1] for e in p.errors]
    for line in shown[:20]:
        print(f"  note: {line}")
    if len(shown) > 20:
        print(f"  note: ... {len(shown) - 20} more in the first pass")
    return correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        prog, workload = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        return measure(args, prog, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, prog, workload) -> int:
    probe = speed.SpeedProbe()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    else:
        setup, setup_measured = measure_setup(args, probe)

    passes = run_passes(workload, args.seconds, probe, tracer)
    meta = metadata(args, prog, workload, passes)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes in "
          f"{sum(p.elapsed for p in passes):.2f} s, trace {args.trace}")
    correct = print_checks(passes)
    # Operations of one pass over the seed's inputs: every pass repeats
    # them (checked above), so the counts depend on the seed and the code,
    # not on how many passes fit in the run.
    attempted, failed = passes[0].attempted, passes[0].failed
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations per pass)")

    wall, per_job = pass_times(passes, calibrated=True)
    raw_wall, raw_per_job = pass_times(passes, calibrated=False)
    meta["machine_speed"] = speed.NOMINAL_S / statistics.median(probe.durations)
    if tracer is None:
        tail_value, tail_label = tail(per_job)
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": passes[0].max_rss_kb / 1024.0,
            "run_p50_ms": 1e3 * statistics.median(per_job),
            "run_tail_ms": 1e3 * tail_value,
        }
        measured = {
            "wall_s": raw_wall,
            "setup_s": statistics.median(setup_measured),
            "run_p50_ms": 1e3 * statistics.median(raw_per_job),
            "run_tail_ms": 1e3 * tail(raw_per_job)[0],
        }
        meta["measured"] = measured
        units = dict(END_TO_END)
        details = {
            "wall_s": f"median of {len(passes)} passes",
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "peak_rss_mb": f"ru_maxrss after the first pass; {passes[-1].max_rss_kb / 1024.0:.6g} MB "
                           f"after all {len(passes)}",
            "run_p50_ms": f"median of {len(per_job)} jobs",
            "run_tail_ms": tail_label,
        }
        for name, value in measured.items():
            details[name] += f"; measured {value:.6g} {units[name]}"
    else:
        totals = tracer.pass_totals(len(passes))
        per_pass = tracer.pass_metrics(totals)
        values, unsteady = tracing.summarize(per_pass)
        values["trace.wall_s"] = wall
        meta["measured"] = {"trace.wall_s": raw_wall}
        if unsteady:
            correct = False
            print(f"check counts_identical_across_passes: WRONG OUTPUT ({', '.join(unsteady)})")
        else:
            print(f"check counts_identical_across_passes: ok ({len(passes)} passes)")
        units = tracing.PER_LAYER_UNITS
        details = {}
        if args.workload == "fig4_basin":
            for label, (secs, calls, runs) in tracing.fig4_stages(totals[0]).items():
                print(f"stage {label}: {secs:.4f} s, {calls:.0f} calls, {runs:.0f} integrator runs")
        path = OUT / f"spans_{args.workload}_seed{args.seed}.csv"
        tracer.write_spans(path)
        print(f"wrote {len(tracer.start)} spans to {path.relative_to(ROOT)}")

    for name, value in values.items():
        extra = f" ({details[name]})" if name in details else ""
        print(f"metric {name} = {value:.6g} {units[name]}{extra}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
