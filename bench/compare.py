"""Summarize one set of benchmark results, or compare two, per workload.

A result set is the JSON-lines file ``run.py`` appends to, one record per
run (typically one per seed). For each metric the summary gives the
median, the quartiles and the spread: the quartile distance as a share
of the median.

A comparison pairs the two sets' runs by seed and judges the per-seed
changes, so that how much inputs differ between seeds does not count as
noise. An end-to-end metric whose per-seed changes spread wider than its
bound is marked unresolved. Metrics in ``EXACT`` repeat exactly for a
seed, so any per-seed change of theirs is reported.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

# Metrics that repeat exactly for a seed: any per-seed change is real.
EXACT = ("backend_call_ratio", "ok_share", "mean_r1")


def load(path) -> dict:
    """(workload, trace) -> list of run records."""
    groups = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                groups[(record["workload"], record["trace"])].append(record)
    return groups


def summary(values: list) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread)."""
    mid = statistics.median(values)
    if len(values) < 2:
        return mid, mid, mid, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, q1, q3, (q3 - q1) / abs(mid) if mid else 0.0


def by_seed(records: list, name: str) -> dict:
    """seed -> median of that seed's values of ``name``."""
    values = defaultdict(list)
    for record in records:
        if name in record["metrics"]:
            values[record["seed"]].append(record["metrics"][name]["value"])
    return {seed: statistics.median(v) for seed, v in values.items()}


def verdict(base: dict, new: dict, metric: dict) -> str:
    """Judge ``new`` against ``base`` (both seed -> value) by the metric's
    bound, on the seeds both sides ran."""
    seeds = sorted(set(base) & set(new))
    if not seeds:
        return "no common seeds"
    sign = 1.0 if metric["better"] == "lower" else -1.0
    # Per-seed relative change, positive when worse.
    worse = [sign * (new[s] - base[s]) / abs(base[s]) if base[s] else 0.0 for s in seeds]
    changed = sum(1 for w in worse if w)
    note = f" (changed on {changed} of {len(seeds)} seeds)" if metric["name"] in EXACT and changed else ""
    bound = metric.get("bound")
    if bound is None:
        return note.strip()
    mid, q1, q3, _ = summary(worse)
    spread = q3 - q1
    wins = sum(1 for w in worse if w < 0)
    if spread > bound:
        return ("better (every seed)" if wins == len(seeds) else "unresolved") + note
    if mid > bound:
        return "WORSE beyond bound" + note
    if -mid > spread and wins >= 0.9 * len(seeds):
        return "better" + note
    return "within bound" + note


def _values(records: list, name: str) -> list:
    return [r["metrics"][name]["value"] for r in records if name in r["metrics"]]


def main(paths, spec: dict) -> int:
    if len(paths) > 2:
        raise SystemExit("--compare takes one or two results files")
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load(path) for path in paths]
    order = [w["name"] for w in spec["workloads"]]
    keys = sorted(
        set().union(*sets),
        key=lambda k: (order.index(k[0]) if k[0] in order else len(order), k),
    )
    for workload, trace in keys:
        runs = [s.get((workload, trace), []) for s in sets]
        print(f"## {workload} ({'traced' if trace else 'untraced'}; runs: "
              f"{', '.join(str(len(r)) for r in runs)})")
        for name, metric in metrics.items():
            columns = [_values(r, name) for r in runs]
            if not all(columns):
                continue
            if len(columns) == 1:
                mid, q1, q3, spread = summary(columns[0])
                bound = metric.get("bound")
                flag = "  spread exceeds bound" if bound is not None and spread > bound else ""
                print(f"{name:34s} {mid:>14.6g} {metric['unit']:12s} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.2%}{flag}")
            else:
                base, new = (summary(c)[0] for c in columns)
                delta = (new - base) / abs(base) if base else 0.0
                paired = verdict(*(by_seed(r, name) for r in runs), metric)
                print(f"{name:34s} {base:>14.6g} -> {new:<14.6g} {metric['unit']:12s} "
                      f"{delta:+.2%}  {paired}")
        for runs_of_set, label in zip(sets, ("", " (second set)")):
            plain = [r["stage_sum_s"] for r in runs_of_set.get((workload, 0), [])]
            traced = [r["stage_sum_s"] for r in runs_of_set.get((workload, 1), [])]
            if trace and plain and traced:
                overhead = statistics.median(traced) / statistics.median(plain) - 1
                print(f"trace overhead{label}: {overhead:+.2%} of the untraced stage time")
    return 0
