"""Compare two result sets (files of records written by run.py --out).

Each workload x end-to-end metric gets its own row: median and quartiles on
both sides, paired wins (runs paired by seed) and a verdict:

- improved: the change wins at least 9 of 10 pairs and its median is better
  than the parent's by more than the parent's interquartile range;
- unresolved: the run-to-run spread (interquartile range over median) of
  either side is wider than the metric's bound, and not every run of the
  change reads better than every run of the parent;
- worse: the change's median is worse than the parent's by more than the
  bound (a share of the parent's median);
- no worse: otherwise.

With a single file, prints each side's median, quartiles and spread against
the bound, which is how the benchmark's own steadiness is checked. Per-layer
metrics from traced runs are listed with their median change.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from stats import quartiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _load(path: str) -> dict:
    """(trace, workload) -> metric -> {seed: value}"""
    table: dict = defaultdict(lambda: defaultdict(dict))
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["result"]["metrics"].items():
                table[(record["trace"], record["workload"])][name][record["seed"]] = metric["value"]
    return table


def _spread(values: list[float]) -> float:
    """Interquartile range over median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)


def verdict(parent: dict, change: dict, better: str, bound: float) -> tuple[str, int, int]:
    """The verdict for one metric (see the module docstring), the change's
    paired wins and the number of pairs; both sides map seed -> value."""
    sign = 1 if better == "higher" else -1
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    p_q1, p_med, p_q3 = quartiles(list(parent.values()))
    c_med = statistics.median(change.values())
    if seeds and wins >= 0.9 * len(seeds) and sign * (c_med - p_med) > p_q3 - p_q1:
        return "improved", wins, len(seeds)
    spread = max(_spread(list(parent.values())), _spread(list(change.values())))
    worst_change = min(change.values(), key=lambda v: sign * v)
    best_parent = max(parent.values(), key=lambda v: sign * v)
    dominates = sign * (worst_change - best_parent) > 0
    if spread > bound and not dominates:
        return "unresolved", wins, len(seeds)
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse", wins, len(seeds)
    return "no worse", wins, len(seeds)


def _fmt(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(parent_path: str, change_path: str | None = None) -> None:
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent = _load(parent_path)
    change = _load(change_path) if change_path else None
    named = [w["name"] for w in spec["workloads"]]
    present = {workload for _trace, workload in parent}
    found = [w for w in named if w in present] + sorted(present - set(named))
    for workload in found:
        if (0, workload) not in parent:
            continue
        for name, metric in metrics.items():
            p = parent[(0, workload)].get(name)
            if not p:
                continue
            row = f"{workload:18s} {name:18s} {metric['unit']:6s} parent {_fmt(list(p.values()))}"
            if change is None or name not in change.get((0, workload), {}):
                spread = _spread(list(p.values()))
                row += f"  n={len(p)} spread {spread:.3f} bound {metric['bound']}"
            else:
                c = change[(0, workload)][name]
                result, wins, pairs = verdict(p, c, metric["better"], metric["bound"])
                row += f"  change {_fmt(list(c.values()))}  wins {wins}/{pairs}  {result}"
            print(row)
    for workload in found:
        p = parent.get((1, workload))
        c = change.get((1, workload)) if change else None
        if not p:
            continue
        print(f"\n{workload}: per-layer medians from traced runs")
        for name in sorted(p):
            p_med = statistics.median(p[name].values())
            row = f"  {name:45s} {p_med:12.4g}"
            if c and name in c:
                c_med = statistics.median(c[name].values())
                ratio = f"{c_med / p_med:.3f}x" if p_med else "-"
                row += f" -> {c_med:12.4g}  delta {c_med - p_med:+.4g} ({ratio})"
            print(row)
