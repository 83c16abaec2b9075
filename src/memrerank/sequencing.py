"""Choose one candidate per ordered step query by exact cost minimization.

The objective for a selection is the sum of the chosen candidates' ranks
plus ``lambda_penalty`` times the sum of start-time violation penalties
``max(0, start_i - start_{i+1})`` over adjacent query pairs.

Why the dynamic program is exact: the objective is a sum of one term per
query (the rank) and one term per adjacent pair (the penalty), so the
cost of a suffix depends on earlier choices only through the immediately
preceding choice. Minimizing suffix cost per (query, choice) state and
walking the resulting table forward therefore yields a global minimum in
O(K * C^2) time. Costs are accumulated as integers over a common
power-of-two denominator, equivalent to exact rationals, so tie detection
(and hence tie-breaking) never depends on float summation order; ties
are broken by the lexicographically smallest rank vector. A rank is a
position, so no two selections share a rank vector and the tie-break
always decides.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .core import Selection, SequenceTask
from .errors import SchemaViolation, ValidationError
from .ingest import write_report_file

DEFAULT_LAMBDA_PENALTY = 1.0


class RankSource(str, enum.Enum):
    """Which candidate ordering the optimizer consumes ranks from."""

    PRE_RERANK = "pre_rerank"
    POST_RERANK = "post_rerank"


@dataclass(frozen=True, slots=True)
class OptimizerConfig:
    lambda_penalty: float = DEFAULT_LAMBDA_PENALTY
    rank_source: RankSource = RankSource.POST_RERANK

    def __post_init__(self):
        lam = self.lambda_penalty
        if isinstance(lam, bool) or not isinstance(lam, (int, float)):
            raise SchemaViolation("lambda_penalty", f"must be a number, got {lam!r}")
        lam = float(lam)
        if not math.isfinite(lam) or lam < 0:
            raise SchemaViolation(
                "lambda_penalty", f"must be finite and >= 0, got {lam}"
            )
        object.__setattr__(self, "lambda_penalty", lam)
        object.__setattr__(self, "rank_source", RankSource(self.rank_source))


def start_penalty(start_i: float, start_next: float) -> float:
    """Violation of the non-decreasing start-time prior for one pair."""
    return max(0.0, start_i - start_next)


def _check_selection(task: SequenceTask, sel: Selection) -> None:
    if len(sel.choices) != len(task.queries):
        raise ValidationError(f"{len(sel.choices)} choices for {len(task.queries)} queries")
    for i, choice in enumerate(sel.choices):
        if choice >= len(task.lists[i]):
            raise ValidationError(
                f"choice {choice} out of range for query "
                f"'{task.queries[i].query_id}' ({len(task.lists[i])} candidates)"
            )


def selection_cost(task: SequenceTask, sel: Selection, cfg: OptimizerConfig) -> float:
    """Rank sum plus weighted start-penalty sum for one selection."""
    _check_selection(task, sel)
    rank_sum = sum(choice + 1 for choice in sel.choices)
    penalty_sum = sum(pair_penalties(task, sel))
    return rank_sum + cfg.lambda_penalty * penalty_sum


def pair_penalties(task: SequenceTask, sel: Selection) -> list[float]:
    """Per-adjacent-pair start penalties, in query order."""
    _check_selection(task, sel)
    starts = [
        task.lists[i].candidates[choice].interval.start_s
        for i, choice in enumerate(sel.choices)
    ]
    return [start_penalty(a, b) for a, b in zip(starts, starts[1:])]


def optimize_sequence(task: SequenceTask, cfg: OptimizerConfig = OptimizerConfig()) -> Selection:
    """Globally minimal selection via dynamic programming.

    Ties on cost are broken by the lexicographically smallest rank
    vector: each step takes the first of its minimal choices.
    """
    num_queries = len(task.queries)
    starts = [[c.interval.start_s for c in clist.candidates] for clist in task.lists]
    # Every float is a dyadic rational, so lambda and each pair's penalty
    # are integers over powers of two, and every cost of the task is an
    # integer count of 1/unit.
    lam_num, lam_den = cfg.lambda_penalty.as_integer_ratio()
    ratios = [
        [[start_penalty(a, b).as_integer_ratio() for b in after] for a in before]
        for before, after in zip(starts, starts[1:])
    ]
    den = max((d for pair in ratios for row in pair for _, d in row), default=1)
    unit = lam_den * den
    # penalties[i][j][k]: lambda times the penalty of choice j at query i
    # then choice k at query i + 1, in units of 1/unit.
    penalties = [
        [[lam_num * n * (den // d) for n, d in row] for row in pair] for pair in ratios
    ]

    # suffix[j]: minimal cost of queries i..K-1 when query i picks j.
    suffix = [(j + 1) * unit for j in range(len(task.lists[-1]))]
    next_choice: list[list[int]] = [[] for _ in range(num_queries)]
    for i in range(num_queries - 2, -1, -1):
        new_suffix = []
        pointers = []
        for j, row in enumerate(penalties[i]):
            costs = [p + s for p, s in zip(row, suffix)]
            best = min(costs)
            new_suffix.append((j + 1) * unit + best)
            pointers.append(costs.index(best))
        suffix = new_suffix
        next_choice[i] = pointers

    choices = [suffix.index(min(suffix))]
    for i in range(num_queries - 1):
        choices.append(next_choice[i][choices[-1]])
    return Selection(tuple(choices))


def build_tasks(dataset, lists: Sequence) -> list[SequenceTask]:
    """Group candidate lists into one ordered sequence task per video."""
    by_query = {}
    for clist in lists:
        by_query[(clist.video_id, clist.query_id)] = clist
    tasks = []
    for video in dataset.videos:
        queries = sorted(video.queries, key=lambda q: (q.order_index,))
        aligned = []
        for query in queries:
            if query.order_index is None:
                raise SchemaViolation(
                    "order_index",
                    f"query '{query.query_id}' is unordered; sequence "
                    "optimization needs an ordered track",
                )
            clist = by_query.get((video.video_id, query.query_id))
            if clist is None:
                raise SchemaViolation(
                    "query_id",
                    f"no candidate list for query '{query.query_id}'",
                )
            aligned.append(clist)
        tasks.append(SequenceTask(video.video_id, tuple(queries), tuple(aligned)))
    return tasks


def write_optimizer_report(
    entries: Sequence[tuple[SequenceTask, Selection]],
    cfg: OptimizerConfig,
    path: str | Path,
) -> None:
    """Per-video rank vectors, total cost, and per-pair penalties."""
    payload = {
        "lambda_penalty": cfg.lambda_penalty,
        "rank_source": cfg.rank_source.value,
        "videos": [
            {
                "video_id": task.video_id,
                "choices": list(sel.choices),
                "ranks": [choice + 1 for choice in sel.choices],
                "total_cost": selection_cost(task, sel, cfg),
                "pair_penalties": pair_penalties(task, sel),
            }
            for task, sel in sorted(entries, key=lambda e: e[0].video_id)
        ],
    }
    write_report_file(payload, path)
