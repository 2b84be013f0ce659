"""Compare two benchmark result files, metric by metric and workload by workload.

Each file holds JSON-lines records written by ``run.py --out``. Only untraced
runs are compared. Runs pair up by workload and seed, in file order. For each
end-to-end metric of BENCHMARK.json the verdict is:

- improved: the new side wins at least nine tenths of all pairs (ties count
  for neither) and the medians differ by more than the base's own
  quartile distance, in the better direction, with no more failures;
- worse: the new median is worse than the base median by more than the
  metric's bound;
- unresolved: neither, and the quartile distance of either side, as a share
  of its median, is wider than the bound, unless every new run beats every
  base run;
- unchanged: within the bound, with spreads inside it.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path) -> dict:
    """workload -> seed -> list of untraced records, in file order."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs[record["workload"]][record["seed"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, pairs, better, bound, more_failures) -> tuple[str, int]:
    """The verdict and the number of pairs the new side won."""
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if (not more_failures and pairs and wins >= 0.9 * len(pairs)
            and sign * (nm - bm) > b3 - b1):
        return "improved", wins
    if -sign * (nm - bm) > bound * abs(bm):
        return "worse", wins
    spread = max((b3 - b1) / abs(bm), (n3 - n1) / abs(nm))
    every_better = all(sign * (n - b) > 0 for n in new for b in base)
    if spread > bound and not every_better:
        return "unresolved", wins
    return "unchanged", wins


def main(base_path, new_path, benchmark) -> int:
    spec = json.loads(Path(benchmark).read_text(encoding="utf-8"))
    base, new = load(base_path), load(new_path)
    print(f"base: {base_path}\nnew:  {new_path}")
    for workload in sorted(set(base) & set(new)):
        b_runs = [r for seed in base[workload].values() for r in seed]
        n_runs = [r for seed in new[workload].values() for r in seed]
        b_fail = statistics.median(r["failed_frac"] for r in b_runs)
        n_fail = statistics.median(r["failed_frac"] for r in n_runs)
        print(f"\n{workload}: {len(b_runs)} base runs, {len(n_runs)} new runs; "
              f"failed_frac {b_fail:.4g} -> {n_fail:.4g}")
        print(f"  {'metric':14} {'unit':5} {'base median [q1, q3]':>32} "
              f"{'new median [q1, q3]':>32} {'change':>8} {'wins':>7}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def value(record):
                return record["metrics"][name]["value"]

            pairs = [(value(b), value(n))
                     for seed in sorted(set(base[workload]) & set(new[workload]))
                     for b, n in zip(base[workload][seed], new[workload][seed])]
            b_vals = [value(r) for r in b_runs]
            n_vals = [value(r) for r in n_runs]
            label, wins = verdict(b_vals, n_vals, pairs, metric["better"], metric["bound"],
                                  n_fail > b_fail)
            b1, bm, b3 = quartiles(b_vals)
            n1, nm, n3 = quartiles(n_vals)
            print(f"  {name:14} {metric['unit']:5} "
                  f"{bm:12.5g} [{b1:8.5g}, {b3:8.5g}] {nm:12.5g} [{n1:8.5g}, {n3:8.5g}] "
                  f"{(nm - bm) / abs(bm):+8.1%} {wins:3d}/{len(pairs):<3d}  {label}")
    only = sorted(set(base) ^ set(new))
    if only:
        print(f"\nin one file only: {', '.join(only)}")
    return 0
