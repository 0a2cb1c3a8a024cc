"""Run every workload over a range of seeds and write one result set.

Usage (from the root of a checkout):

    python3 perfbench/suite.py --seeds 1-10 --out .perfbench_out/results.json

Each (seed, workload) pair runs ``run.py`` with tracing off, in its own
process; workloads alternate within each seed so slow drift of the
machine spreads over all of them. Then each workload runs once traced on
the first seed, which gives its per-layer numbers and, against the
untraced run of the same seed, the tracing overhead. Every metric is
printed by name with its unit, every correctness check with its counts,
and each workload's median, quartiles and spread across seeds. The run
length and the workloads are those of ``BENCHMARK.json``. A workload whose
inputs do not depend on the seed must give identical outputs on every
seed, traced or not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(cmd[1:])} exited with {proc.returncode}")
    meta = next(json.loads(l[5:]) for l in lines if l.startswith("meta "))
    checks = [l for l in lines if l.startswith("check ") or l.startswith("failed_frac")]
    return {"workload": workload, "seed": seed, "trace": trace, "result": json.loads(lines[-1]),
            "meta": meta, "checks": checks}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR as a share of the median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    ap.add_argument("--out", type=Path, default=ROOT / ".perfbench_out" / "results.json")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]

    runs = []
    for seed in seeds:
        for workload in names:
            run = run_one(workload, seed, seconds, 0)
            runs.append(run)
            print(f"== {workload} seed {seed}")
            for line in run["checks"]:
                print("  " + line)
            for name, m in run["result"]["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for workload in names:
        run = run_one(workload, seeds[0], seconds, 1)
        runs.append(run)
        print(f"== {workload} seed {seeds[0]} traced")
        for line in run["checks"]:
            print("  " + line)
        for name, m in run["result"]["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")

    print("\nsummary over seeds " + args.seeds)
    ok = True
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in names:
        plain = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        attempted = sum(r["result"]["attempted"] for r in plain)
        failed = sum(r["result"]["failed"] for r in plain)
        correct = all(r["result"]["correct"] for r in runs if r["workload"] == workload)
        if plain[0]["meta"]["seed_independent"]:
            digests = {r["meta"]["output_digest"] for r in runs if r["workload"] == workload}
            same = len(digests) == 1
            print(f"{workload}: check outputs_identical_across_seeds: {'ok' if same else 'WRONG OUTPUT'} "
                  f"({len(digests)} distinct over {len(seeds) + 1} runs)")
            correct &= same
        ok &= correct
        print(f"{workload}: correct {correct}; failed_frac {failed / attempted:.6g} "
              f"({failed} of {attempted} operations over {len(plain)} runs)")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in plain]
            med, q1, q3, rel = spread(values)
            flag = "" if rel < bounds[name] / 3 or name == "setup_s" else "  (spread >= bound/3)"
            print(f"  {name}: median {med:.6g} {metric['unit']} [q1 {q1:.6g}, q3 {q3:.6g}] "
                  f"spread {rel:.2%} of median, bound {bounds[name]:.0%}, n={len(values)}{flag}")
        traced = next(r for r in runs if r["workload"] == workload and r["trace"] == 1)
        twin = next(r for r in plain if r["seed"] == traced["seed"])
        t_wall = traced["result"]["metrics"]["trace.wall_s"]["value"]
        u_wall = twin["result"]["metrics"]["wall_s"]["value"]
        print(f"  tracing overhead: {t_wall - u_wall:+.4g} s ({t_wall:.4g} s traced, "
              f"{u_wall:.4g} s untraced, seed {traced['seed']})")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"seeds": seeds, "seconds": seconds, "runs": runs}, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
