#!/usr/bin/env python3
"""Summarise or compare benchmark result records.

    python3 perfbench/compare.py RESULTS            # spread of each metric
    python3 perfbench/compare.py BASE RESULTS       # RESULTS against BASE

RESULTS and BASE are directories of records written by run.py (for
example ``perfbench/results``). For each workload and end-to-end metric
it prints the median, the quartiles and the interquartile spread as a
share of the median, beside the metric's bound from BENCHMARK.json; with
two sets it also prints the change of the median, signed so that a
positive share is a regression. Records whose environments differ
(Python, numpy, BLAS/LAPACK, CPU, core and thread counts) are refused:
their timings are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import ENV_COMPARED, ROOT


def load(directory: Path) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(directory.rglob("*.json"))]


def env_differences(records: list[dict]) -> list[str]:
    reference = records[0]["env"]
    diffs = set()
    for rec in records[1:]:
        for key in ENV_COMPARED:
            if rec["env"].get(key) != reference.get(key):
                diffs.add(f"{key}: {reference.get(key)!r} vs {rec['env'].get(key)!r}")
    return sorted(diffs)


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def by_workload(records: list[dict]) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = {}
    for rec in records:
        if rec["trace"] == 0:
            groups.setdefault(rec["workload"], []).append(rec)
    return groups


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(Path(a)) for a in argv]
    if not all(sets):
        print("compare: no result records found", file=sys.stderr)
        return 2
    diffs = env_differences([rec for records in sets for rec in records])
    if diffs:
        print("compare: refusing to compare results from different environments:",
              file=sys.stderr)
        for d in diffs:
            print(f"  {d}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    new = by_workload(sets[-1])
    base = by_workload(sets[0]) if len(sets) == 2 else {}
    for workload, records in sorted(new.items()):
        failed = sum(1 for r in records if not r["correct"])
        print(f"{workload}: {len(records)} runs, {failed} with failed checks")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in records])
            line = (f"  {name:<12} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                    f"  spread {spread:6.3f}  bound {bound:.2f}")
            if workload in base:
                base_med = summary([r["metrics"][name]["value"] for r in base[workload]])[0]
                worse = (med - base_med) / base_med
                if metric["better"] == "higher":
                    worse = -worse
                verdict = "REGRESSION" if worse > bound else "within bound"
                line += f"  base {base_med:10.4f}  worse by {worse:+.3f} ({verdict})"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
