#!/usr/bin/env python3
"""Compare two sets of ledger runs: ``python3 benchmarks/ledger/compare.py A/ B/``.

A and B are ``--out`` directories of untraced ``run.py`` runs (A the parent,
B the change).  One row per workload x metric -- the end-to-end metrics, then
the per-operation detail metrics -- with each side's median and quartiles
and a verdict:

* ``worse``      B's median is worse than A's by more than the metric's bound;
* ``better``     B's median is better by more than the bound, or B wins at
                 least nine tenths of ten or more seed-matched pairs by more
                 than A's own quartile spread;
* ``unresolved`` the run-to-run spread of either side (quartile distance over
                 median) is wider than the bound, unless every B run beats
                 (or loses to) every A run;
* ``unchanged``  otherwise.

A zero bound (``error_rate``) means any increase is worse.  The exit code is
1 when any row is ``worse``, a detail row included: the gated ``op_ms_min``
is a geometric mean over a workload's k operation kinds, so on its own it
lets one kind slow by a factor of (1 + bound) ** k (2.4x for four kinds at
24%).  The per-kind detail rows are what catch that, and they block.
"""

from __future__ import annotations

import glob
import json
import os
import sys
from typing import Dict, List

import catalog


def load(directory: str) -> Dict[str, List[dict]]:
    """Untraced result records of *directory*, grouped by workload."""
    runs: Dict[str, List[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-untraced.json"))):
        with open(path) as handle:
            record = json.load(handle)
        runs.setdefault(record["workload"], []).append(record)
    return runs


def values(records: List[dict], name: str) -> Dict[int, float]:
    """Seed -> value of metric *name* over the records that report it."""
    out = {}
    for r in records:
        m = r["end_to_end"].get(name) or r["detail"].get(name)
        if m is not None:
            out[r["seed"]] = m["value"]
    return out


def spread(xs: List[float]) -> float:
    med = catalog.median(xs)
    return (catalog.quantile(xs, 0.75) - catalog.quantile(xs, 0.25)) / med if med else 0.0


def verdict(a: Dict[int, float], b: Dict[int, float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0       # sign * (b - a) > 0 means worse
    xs, ys = list(a.values()), list(b.values())
    med_a, med_b = catalog.median(xs), catalog.median(ys)
    if bound == 0.0 or med_a == 0.0:
        diff = sign * (med_b - med_a)
        return "worse" if diff > 0 else "better" if diff < 0 else "unchanged"
    change = sign * (med_b - med_a) / med_a
    if max(spread(xs), spread(ys)) > bound:
        if all(sign * (y - x) < 0 for x in xs for y in ys):
            return "better"
        if all(sign * (y - x) > 0 for x in xs for y in ys) and change > bound:
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    pairs = [(a[s], b[s]) for s in a if s in b]
    if len(pairs) >= 10:
        wins = sum(sign * (y - x) < 0 for x, y in pairs)
        iqr_a = catalog.quantile(xs, 0.75) - catalog.quantile(xs, 0.25)
        if wins >= 0.9 * len(pairs) and abs(med_b - med_a) > iqr_a:
            return "better"
    return "unchanged"


def describe(xs: List[float]) -> str:
    return (f"{catalog.median(xs):11.5g} [{catalog.quantile(xs, 0.25):.4g}, "
            f"{catalog.quantile(xs, 0.75):.4g}] n={len(xs)}")


def compare(dir_a: str, dir_b: str) -> List[tuple]:
    runs_a, runs_b = load(dir_a), load(dir_b)
    rows = []
    for workload in catalog.WORKLOADS:
        if workload not in runs_a or workload not in runs_b:
            continue
        for metric in catalog.END_TO_END + catalog.detail_for(workload):
            a = values(runs_a[workload], metric.name)
            b = values(runs_b[workload], metric.name)
            if not a or not b:
                continue
            rows.append((workload, metric, a, b, verdict(a, b, metric.bound, metric.better)))
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    rows = compare(*args)
    if not rows:
        print(f"no workload has untraced results in both {args[0]} and {args[1]}",
              file=sys.stderr)
        return 2
    print(f"{'workload':15s} {'metric':22s} {'unit':6s} {'A median [q1, q3]':>36s}  "
          f"{'B median [q1, q3]':>36s} {'change':>8s} {'bound':>6s}  verdict")
    for workload, metric, a, b, result in rows:
        med_a = catalog.median(list(a.values()))
        change = (catalog.median(list(b.values())) - med_a) / med_a if med_a else 0.0
        print(f"{workload:15s} {metric.name:22s} {metric.unit:6s} "
              f"{describe(list(a.values())):>36s}  {describe(list(b.values())):>36s} "
              f"{change:+8.1%} {metric.bound:6.0%}  {result}")
    return 1 if any(r[-1] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
