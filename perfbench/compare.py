"""Compare two result sets written by suite.py, run on the same seeds.

Usage (from the root of a checkout):

    python3 perfbench/compare.py perfbench/results/seed.json .perfbench_out/results.json

For each workload and end-to-end metric it prints both sides' median and
quartiles, the share of seed-paired runs the second side wins (ties count
for neither) and a verdict by the rule the benchmark states:

- improved: the second side wins at least 9 of 10 pairs, the medians
  differ by more than the first side's quartile distance, and no more
  operations fail than on the first side;
- no worse within bound: the second median is worse than the first by no
  more than the metric's bound;
- regressed: it is worse by more than the bound;
- unresolved: a side's spread across seeds exceeds the bound, unless
  every run of the second side beats every run of the first.

The verdict is given on the calibrated times and again on the measured
ones kept in each run's ``meta``; where the two differ, the metric is
unresolved. A change that makes the program slow the calibration loop,
for instance by using another core, is otherwise partly divided out.

It also lists traced counts that differ between the two sets' traced runs
of the same seed; counts of one program must repeat exactly. It refuses
two sets that differ in run length, seeds or workload sizes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from suite import ROOT, spread


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]], bound: float, lower: bool,
            more_failures: bool) -> tuple[str, float]:
    sign = 1.0 if lower else -1.0
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    med_a, q1a, q3a, rel_a = spread(a)
    med_b, _, _, rel_b = spread(b)
    worse_by = sign * (med_b - med_a) / med_a
    if win_frac >= 0.9 and abs(med_b - med_a) > q3a - q1a and worse_by < 0 and not more_failures:
        return "improved", win_frac
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(rel_a, rel_b) > bound and not all_better:
        return "unresolved", win_frac
    if worse_by <= bound:
        return "no worse within bound", win_frac
    return "regressed", win_frac


def mismatch(first: dict, second: dict) -> str | None:
    """Why two result sets cannot be compared, or None if they can."""
    for key in ("seconds", "seeds"):
        if first[key] != second[key]:
            return f"{key} differ: {first[key]} vs {second[key]}"
    sizes = [{(r["workload"], r["seed"], r["trace"]): r["meta"]["sizes"] for r in s["runs"]}
             for s in (first, second)]
    for key in sorted(set(sizes[0]) & set(sizes[1])):
        if sizes[0][key] != sizes[1][key]:
            return f"sizes of {key[0]} seed {key[1]} differ: {sizes[0][key]} vs {sizes[1][key]}"
    return None


def line(a: list[float], b: list[float], win_frac: float, pairs: int, text: str) -> str:
    ma, q1a, q3a, _ = spread(a)
    mb, q1b, q3b, _ = spread(b)
    return (f"{ma:.6g} [{q1a:.6g}, {q3a:.6g}] -> {mb:.6g} [{q1b:.6g}, {q3b:.6g}] ({(mb - ma) / ma:+.2%}), "
            f"second wins {win_frac:.0%} of {pairs}: {text}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("first", type=Path, help="result set of the parent (baseline)")
    ap.add_argument("second", type=Path, help="result set of the change")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    data = [json.loads(p.read_text()) for p in (args.first, args.second)]
    why = mismatch(*data)
    if why:
        print(f"error: the result sets are not comparable: {why}")
        return 2
    sets = [d["runs"] for d in data]

    regressed = False
    for w in bench["workloads"]:
        workload = w["name"]
        plain = [{r["seed"]: r["result"] for r in runs if r["workload"] == workload and r["trace"] == 0}
                 for runs in sets]
        measured = [{r["seed"]: r["meta"]["measured"] for r in runs if r["workload"] == workload and r["trace"] == 0}
                    for runs in sets]
        if not plain[0] or not plain[1]:
            print(f"{workload}: missing from one set")
            continue
        common = sorted(set(plain[0]) & set(plain[1]))
        print(f"{workload} ({len(common)} seed pairs)")
        failed = []
        for side, results in zip(("first", "second"), plain):
            att = sum(r["attempted"] for r in results.values())
            failed.append(sum(r["failed"] for r in results.values()) / att)
            correct = all(r["correct"] for r in results.values())
            print(f"  {side}: correct {correct}, failed_frac {failed[-1]:.6g} of {att} operations")
        for metric in bench["end_to_end"]:
            name, unit, bound = metric["name"], metric["unit"], metric["bound"]
            lower, more_failures = metric["better"] == "lower", failed[1] > failed[0]
            a = [plain[0][s]["metrics"][name]["value"] for s in common]
            b = [plain[1][s]["metrics"][name]["value"] for s in common]
            text, win_frac = verdict(a, b, list(zip(a, b)), bound, lower, more_failures)
            shown = line(a, b, win_frac, len(common), text)
            if name in measured[0][common[0]]:
                ra = [measured[0][s][name] for s in common]
                rb = [measured[1][s][name] for s in common]
                raw_text, raw_win = verdict(ra, rb, list(zip(ra, rb)), bound, lower, more_failures)
                shown += f"\n    measured: {line(ra, rb, raw_win, len(common), raw_text)}"
                if raw_text != text:
                    text = "unresolved"
                    shown += "\n    calibrated and measured verdicts differ: unresolved"
            regressed |= text == "regressed"
            print(f"  {name} [{unit}], bound {bound:.0%}: {shown}")

        traced = [{r["seed"]: r["result"]["metrics"] for r in runs if r["workload"] == workload and r["trace"] == 1}
                  for runs in sets]
        for seed in sorted(set(traced[0]) & set(traced[1])):
            ma, mb = traced[0][seed], traced[1][seed]
            counts = [k for k, m in ma.items() if m["unit"] == "count" and k in mb]
            moved = [f"{k} {ma[k]['value']:.0f} -> {mb[k]['value']:.0f}" for k in counts
                     if ma[k]["value"] != mb[k]["value"]]
            print(f"  traced counts, seed {seed}: " + ("; ".join(moved) if moved else f"all {len(counts)} identical"))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
