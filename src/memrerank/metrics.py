"""Temporal IoU, recall@k at IoU thresholds, and mean R@1 reporting."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .core import MetricCell, MetricsReport, TimeInterval
from .errors import NoQueriesError, SchemaViolation, UnknownQueryIdError
from .ingest import atomic_writer

logger = logging.getLogger(__name__)

DEFAULT_KS = (1, 5)
DEFAULT_IOU_THRESHOLDS = (0.3, 0.5)


@dataclass(frozen=True, slots=True)
class MetricsConfig:
    """Which k values and IoU thresholds to report."""

    ks: tuple[int, ...] = DEFAULT_KS
    iou_thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS

    def __post_init__(self):
        object.__setattr__(self, "ks", tuple(self.ks))
        object.__setattr__(self, "iou_thresholds", tuple(self.iou_thresholds))
        if not self.ks or any(
            not isinstance(k, int) or isinstance(k, bool) or k < 1 for k in self.ks
        ):
            raise SchemaViolation("ks", f"k values must be positive integers, got {self.ks}")
        if not self.iou_thresholds or any(
            not 0.0 < m <= 1.0 for m in self.iou_thresholds
        ):
            raise SchemaViolation(
                "iou_thresholds", f"thresholds must lie in (0, 1], got {self.iou_thresholds}"
            )


def temporal_iou(a: TimeInterval, b: TimeInterval) -> float:
    """Intersection-over-union of two intervals, in [0, 1].

    Two identical zero-length intervals score 1.0; any other pairing with a
    degenerate interval falls back to the standard ratio (which is 0).
    """
    if a.duration_s == 0.0 and b.duration_s == 0.0:
        return 1.0 if a.start_s == b.start_s else 0.0
    intersection = max(0.0, min(a.end_s, b.end_s) - max(a.start_s, b.start_s))
    union = a.duration_s + b.duration_s - intersection
    if union <= 0.0:
        return 0.0
    return intersection / union


def recall_at_k(
    predictions: Mapping[str, Sequence[TimeInterval]],
    ground_truth: Mapping[str, TimeInterval],
    k: int,
    threshold: float,
) -> float:
    """Percentage of queries whose top-k predictions reach IoU >= threshold.

    Queries missing from ``predictions`` (or with empty lists) count as
    misses.
    """
    if not ground_truth:
        raise NoQueriesError("recall over an empty query set")
    hits = 0
    for query_id, gt in ground_truth.items():
        ranked = predictions.get(query_id, ())
        if any(temporal_iou(p, gt) >= threshold for p in ranked[:k]):
            hits += 1
    return 100.0 * hits / len(ground_truth)


def mean_r1(r1_first: float, *r1_rest: float) -> float:
    """Arithmetic mean of R@1 values across IoU thresholds."""
    values = (r1_first,) + r1_rest
    for value in values:
        if not 0.0 <= value <= 100.0:
            raise SchemaViolation("mean_r1", f"percentage out of [0, 100]: {value}")
    return sum(values) / len(values)


def evaluate_run(
    predictions: Mapping[str, Sequence[TimeInterval]],
    dataset,
    cfg: MetricsConfig = MetricsConfig(),
) -> MetricsReport:
    """Score a prediction map against every annotated query of a dataset.

    Missing predictions are flagged and counted as misses; prediction keys
    that do not belong to the dataset are an error.
    """
    ground_truth: dict[str, TimeInterval] = {}
    for query in dataset.iter_queries():
        if query.ground_truth is not None:
            ground_truth[query.query_id] = query.ground_truth
    if not ground_truth:
        raise NoQueriesError("dataset has no annotated queries to score")
    known = {q.query_id for q in dataset.iter_queries()}
    unknown = sorted(set(predictions) - known)
    if unknown:
        raise UnknownQueryIdError(
            f"predictions reference unknown query ids: {', '.join(unknown[:5])}"
        )
    missing = sorted(set(ground_truth) - set(predictions))
    if missing:
        logger.warning(
            "%d of %d queries have no predictions and count as misses (first: %s)",
            len(missing),
            len(ground_truth),
            missing[0],
        )
    cells = []
    for k in sorted(set(cfg.ks)):
        for threshold in sorted(set(cfg.iou_thresholds)):
            cells.append(
                MetricCell(k, threshold, recall_at_k(predictions, ground_truth, k, threshold))
            )
    r1_values = [
        recall_at_k(predictions, ground_truth, 1, threshold)
        for threshold in sorted(set(cfg.iou_thresholds))
    ]
    return MetricsReport(
        cells=tuple(cells),
        mean_r1=mean_r1(*r1_values),
        num_queries=len(ground_truth),
    )


def report_to_dict(report: MetricsReport) -> dict:
    return {
        "cells": [
            {"k": cell.k, "iou": cell.iou, "value": cell.value} for cell in report.cells
        ],
        "mean_r1": report.mean_r1,
        "num_queries": report.num_queries,
    }


def report_from_dict(payload: dict) -> MetricsReport:
    try:
        cells = tuple(
            MetricCell(int(c["k"]), float(c["iou"]), float(c["value"]))
            for c in payload["cells"]
        )
        return MetricsReport(
            cells=cells,
            mean_r1=float(payload["mean_r1"]),
            num_queries=int(payload["num_queries"]),
        )
    except (KeyError, TypeError) as exc:
        raise SchemaViolation("metrics", f"malformed report payload: {exc}") from exc


def write_metrics_report(report: MetricsReport, path: str | Path) -> None:
    with atomic_writer(path) as handle:
        json.dump(report_to_dict(report), handle, sort_keys=True, indent=2)
        handle.write("\n")


def read_metrics_report(path: str | Path) -> MetricsReport:
    with open(path, "r", encoding="utf-8") as handle:
        return report_from_dict(json.load(handle))


def write_comparison(
    before: MetricsReport, after: MetricsReport, path: str | Path
) -> None:
    """Side-by-side report used for base-vs-reranked comparisons."""
    payload = {"before": report_to_dict(before), "after": report_to_dict(after)}
    with atomic_writer(path) as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def read_comparison(path: str | Path) -> tuple[MetricsReport, MetricsReport]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    try:
        return report_from_dict(payload["before"]), report_from_dict(payload["after"])
    except KeyError as exc:
        raise SchemaViolation("metrics", f"comparison file missing {exc}") from exc


def display_value(value: float) -> str:
    """Round half-even to two decimals for human-readable tables."""
    return f"{round(value, 2):.2f}"


def format_comparison_table(
    rows: Sequence[tuple[str, MetricsReport]],
    cfg: MetricsConfig = MetricsConfig(),
) -> str:
    """Text table with one row per method: R@k at each threshold + mean R@1."""
    ks = sorted(set(cfg.ks))
    thresholds = sorted(set(cfg.iou_thresholds))
    headers = ["method"]
    for k in ks:
        for m in thresholds:
            headers.append(f"R@{k}@{m:g}")
    headers.append("Mean R@1")
    table = [headers]
    for name, report in rows:
        row = [name]
        for k in ks:
            for m in thresholds:
                row.append(display_value(report.value_at(k, m)))
        row.append(display_value(report.mean_r1))
        table.append(row)
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for row in table:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
