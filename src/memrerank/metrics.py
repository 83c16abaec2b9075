"""Temporal IoU, recall@k at IoU thresholds, and mean R@1 reporting.

Reports are read and written through :mod:`memrerank.ingest`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .core import NUMBER, TimeInterval, checked
from .errors import MissingGroundTruth, SchemaViolation
from .ingest import read_json_file, write_report_file

logger = logging.getLogger(__name__)

# The reported cells: R@k for each k at each IoU threshold, both ascending;
# files and tables list them in GRID order.
DEFAULT_KS = (1, 5)
DEFAULT_IOU_THRESHOLDS = (0.3, 0.5)
GRID = tuple((k, iou) for k in DEFAULT_KS for iou in DEFAULT_IOU_THRESHOLDS)


@dataclass(frozen=True, slots=True)
class MetricsReport:
    """Recall@k at each IoU threshold plus the mean of the R@1 values.
    ``cells`` maps each ``(k, iou)`` of ``GRID``, and nothing else, to a
    percentage that does not fall as k grows or as the threshold loosens;
    it is kept in ``GRID`` order. ``mean_r1`` is exactly :func:`mean_r1` of
    the R@1 cells, as :func:`evaluate_run` computes it."""

    cells: Mapping[tuple[int, float], float]
    mean_r1: float
    num_queries: int

    def __post_init__(self):
        if self.cells.keys() != set(GRID):
            raise SchemaViolation("cells", f"must be the grid {GRID}, got {list(self.cells)}")
        object.__setattr__(self, "cells", {key: self.cells[key] for key in GRID})
        for name, pct in [*(("cells", v) for v in self.cells.values()), ("mean_r1", self.mean_r1)]:
            if not 0.0 <= pct <= 100.0:
                raise SchemaViolation(name, f"percentage out of [0, 100]: {pct}")
        for iou in DEFAULT_IOU_THRESHOLDS:
            recalls = [self.cells[k, iou] for k in DEFAULT_KS]
            if recalls != sorted(recalls):
                raise SchemaViolation("cells", f"R@k at iou {iou} falls as k grows: {recalls}")
        for k in DEFAULT_KS:
            recalls = [self.cells[k, iou] for iou in DEFAULT_IOU_THRESHOLDS]
            if recalls != sorted(recalls, reverse=True):
                raise SchemaViolation("cells", f"R@{k} rises as the iou threshold grows: {recalls}")
        expected = mean_r1(*(self.cells[1, iou] for iou in DEFAULT_IOU_THRESHOLDS))
        if self.mean_r1 != expected:
            raise SchemaViolation("mean_r1", f"{self.mean_r1} is not the mean R@1, {expected}")


def temporal_iou(a: TimeInterval, b: TimeInterval) -> float:
    """Intersection-over-union of two intervals, in [0, 1].

    Two identical zero-length intervals score 1.0; any other pairing with a
    degenerate interval falls back to the standard ratio (which is 0).
    """
    if a.duration_s == 0.0 and b.duration_s == 0.0:
        return 1.0 if a.start_s == b.start_s else 0.0
    intersection = max(0.0, min(a.end_s, b.end_s) - max(a.start_s, b.start_s))
    union = a.duration_s + b.duration_s - intersection  # > 0: intersection <= each duration
    return intersection / union


def recall_at_k(
    predictions: Mapping[str, Sequence[TimeInterval]],
    ground_truth: Mapping[str, TimeInterval],
    k: int,
    threshold: float,
) -> float:
    """Percentage of the (non-empty) ``ground_truth`` queries whose top-k
    predictions reach IoU >= threshold.

    Queries missing from ``predictions`` (or with empty lists) count as
    misses.
    """
    hits = sum(
        any(temporal_iou(p, gt) >= threshold for p in predictions.get(query_id, ())[:k])
        for query_id, gt in ground_truth.items()
    )
    return 100.0 * hits / len(ground_truth)


def mean_r1(r1_first: float, *r1_rest: float) -> float:
    """Arithmetic mean of R@1 values across IoU thresholds; their range is
    checked by the :class:`MetricsReport` they go into."""
    values = (r1_first,) + r1_rest
    return sum(values) / len(values)


def evaluate_run(
    predictions: Mapping[str, Sequence[TimeInterval]],
    dataset,
    name: str = "predictions",
) -> MetricsReport:
    """Score a prediction map against every annotated query of a dataset.

    Missing predictions are flagged, under the prediction set's ``name``,
    and counted as misses.
    """
    ground_truth = {
        q.query_id: q.ground_truth for q in dataset.iter_queries() if q.ground_truth is not None
    }
    if not ground_truth:
        raise MissingGroundTruth("dataset has no annotated queries to score")
    if missing := sorted(set(ground_truth) - set(predictions)):
        logger.warning(
            "%s: %d of %d queries have no predictions and count as misses (first: %s)",
            name,
            len(missing),
            len(ground_truth),
            missing[0],
        )
    cells = {(k, iou): recall_at_k(predictions, ground_truth, k, iou) for k, iou in GRID}
    return MetricsReport(
        cells=cells,
        mean_r1=mean_r1(*(cells[1, iou] for iou in DEFAULT_IOU_THRESHOLDS)),
        num_queries=len(ground_truth),
    )


def report_to_dict(report: MetricsReport) -> dict:
    return {
        "cells": [{"k": k, "iou": iou, "value": value} for (k, iou), value in report.cells.items()],
        "mean_r1": report.mean_r1,
        "num_queries": report.num_queries,
    }


def report_from_dict(payload) -> MetricsReport:
    """The report of a payload ``report_to_dict`` wrote; ``KeyError`` or
    ``TypeError`` when a value is missing or of the wrong JSON type, and
    ``SchemaViolation`` when a cell is listed twice."""
    checked(payload, (dict,), "report")
    cells = {}
    for c in checked(payload["cells"], (list,), "cells"):
        key = (checked(c["k"], (int,), "k"), float(checked(c["iou"], NUMBER, "iou")))
        if key in cells:
            raise SchemaViolation("cells", f"cell {key} is listed twice")
        cells[key] = float(checked(c["value"], NUMBER, "value"))
    return MetricsReport(
        cells=cells,
        mean_r1=float(checked(payload["mean_r1"], NUMBER, "mean_r1")),
        num_queries=checked(payload["num_queries"], (int,), "num_queries"),
    )


def write_metrics_report(report: MetricsReport, path: str | Path) -> None:
    write_report_file(report_to_dict(report), path)


def write_comparison(
    before: MetricsReport, after: MetricsReport, path: str | Path
) -> None:
    """Side-by-side report used for base-vs-reranked comparisons."""
    write_report_file(
        {"before": report_to_dict(before), "after": report_to_dict(after)}, path
    )


def _comparison_from_dict(payload) -> tuple[MetricsReport, MetricsReport]:
    checked(payload, (dict,), "comparison")
    return report_from_dict(payload["before"]), report_from_dict(payload["after"])


def read_comparison(path: str | Path) -> tuple[MetricsReport, MetricsReport]:
    return read_json_file(path, "report payload", _comparison_from_dict)


def display_value(value: float) -> str:
    """Round half-even to two decimals for human-readable tables."""
    return f"{round(value, 2):.2f}"


def format_comparison_table(rows: Sequence[tuple[str, MetricsReport]]) -> str:
    """Text table with one row per method: R@k at each threshold + mean R@1."""
    headers = ["method", *(f"R@{k}@{iou:g}" for k, iou in GRID), "Mean R@1"]
    table = [headers]
    for name, report in rows:
        values = [*report.cells.values(), report.mean_r1]
        table.append([name, *map(display_value, values)])
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
