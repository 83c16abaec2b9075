"""Choose one candidate per ordered step query by exact cost minimization.

The objective for a selection is the sum of the chosen candidates' ranks
plus ``lambda_penalty`` times the sum of start-time violation penalties
``max(0, start_i - start_{i+1})`` over adjacent query pairs.

Why the dynamic program is exact: the objective is a sum of one term per
query (the rank) and one term per adjacent pair (the penalty), so the
cost of a suffix depends on earlier choices only through the immediately
preceding choice. Minimizing suffix cost per (query, choice) state and
walking the resulting table forward therefore yields a global minimum in
O(K * C^2) time. Costs are accumulated in exact rational arithmetic so
tie detection (and hence tie-breaking) never depends on float summation
order; ties are broken by the lexicographically smallest rank vector,
then earliest start times.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Sequence

from .core import Selection, SequenceTask
from .errors import (
    IndexOutOfRangeError,
    InstanceTooLargeError,
    SchemaViolation,
)
from .ingest import atomic_writer

BRUTE_FORCE_LIMIT = 1_000_000


class RankSource(str, enum.Enum):
    """Which candidate ordering the optimizer consumes ranks from."""

    PRE_RERANK = "pre_rerank"
    POST_RERANK = "post_rerank"


@dataclass(frozen=True, slots=True)
class OptimizerConfig:
    lambda_penalty: float = 1.0
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
        raise IndexOutOfRangeError(
            f"{len(sel.choices)} choices for {len(task.queries)} queries"
        )
    for i, choice in enumerate(sel.choices):
        if choice >= len(task.lists[i]):
            raise IndexOutOfRangeError(
                f"choice {choice} out of range for query "
                f"'{task.queries[i].query_id}' ({len(task.lists[i])} candidates)"
            )


def selection_cost(task: SequenceTask, sel: Selection, cfg: OptimizerConfig) -> float:
    """Rank sum plus weighted start-penalty sum for one selection."""
    _check_selection(task, sel)
    rank_sum = sum(
        task.lists[i].candidates[choice].rank for i, choice in enumerate(sel.choices)
    )
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


def _exact_cost(task: SequenceTask, choices: Sequence[int], lam: Fraction) -> Fraction:
    cost = Fraction(0)
    prev_start = None
    for i, choice in enumerate(choices):
        candidate = task.lists[i].candidates[choice]
        cost += candidate.rank
        start = candidate.interval.start_s
        if prev_start is not None and prev_start > start:
            cost += lam * Fraction(prev_start - start)
        prev_start = start
    return cost


def optimize_sequence(task: SequenceTask, cfg: OptimizerConfig = OptimizerConfig()) -> Selection:
    """Globally minimal selection via dynamic programming.

    Ties on cost are broken by the lexicographically smallest rank
    vector, then earliest start times.
    """
    lam = Fraction(cfg.lambda_penalty)
    num_queries = len(task.queries)
    ranks = [[c.rank for c in clist.candidates] for clist in task.lists]
    starts = [[c.interval.start_s for c in clist.candidates] for clist in task.lists]

    # suffix[j]: exact minimal cost of queries i..K-1 when query i picks j.
    suffix = [Fraction(r) for r in ranks[num_queries - 1]]
    next_choice: list[list[int]] = [[] for _ in range(num_queries)]
    for i in range(num_queries - 2, -1, -1):
        new_suffix = []
        pointers = []
        for j in range(len(ranks[i])):
            start_j = starts[i][j]
            best_val = None
            best_k = -1
            for k in range(len(ranks[i + 1])):
                penalty = start_penalty(start_j, starts[i + 1][k])
                val = suffix[k] if penalty == 0.0 else lam * Fraction(penalty) + suffix[k]
                if (
                    best_val is None
                    or val < best_val
                    or (
                        val == best_val
                        and (ranks[i + 1][k], starts[i + 1][k])
                        < (ranks[i + 1][best_k], starts[i + 1][best_k])
                    )
                ):
                    best_val = val
                    best_k = k
            new_suffix.append(Fraction(ranks[i][j]) + best_val)
            pointers.append(best_k)
        suffix = new_suffix
        next_choice[i] = pointers

    head = min(
        range(len(ranks[0])), key=lambda j: (suffix[j], ranks[0][j], starts[0][j])
    )
    choices = [head]
    for i in range(num_queries - 1):
        choices.append(next_choice[i][choices[-1]])
    return Selection(tuple(choices))


def brute_force_optimize(
    task: SequenceTask, cfg: OptimizerConfig = OptimizerConfig()
) -> Selection:
    """Exhaustive reference search with identical objective and tie-break."""
    size = 1
    for clist in task.lists:
        size *= len(clist)
        if size > BRUTE_FORCE_LIMIT:
            raise InstanceTooLargeError(
                f"selection space exceeds {BRUTE_FORCE_LIMIT} combinations"
            )
    lam = Fraction(cfg.lambda_penalty)
    best_key = None
    best_choices = None
    for choices in product(*(range(len(clist)) for clist in task.lists)):
        rank_vec = tuple(
            task.lists[i].candidates[c].rank for i, c in enumerate(choices)
        )
        start_vec = tuple(
            task.lists[i].candidates[c].interval.start_s for i, c in enumerate(choices)
        )
        key = (_exact_cost(task, choices, lam), rank_vec, start_vec)
        if best_key is None or key < best_key:
            best_key = key
            best_choices = choices
    return Selection(best_choices)


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
                "ranks": [
                    task.lists[i].candidates[c].rank for i, c in enumerate(sel.choices)
                ],
                "total_cost": selection_cost(task, sel, cfg),
                "pair_penalties": pair_penalties(task, sel),
            }
            for task, sel in sorted(entries, key=lambda e: e[0].video_id)
        ],
    }
    with atomic_writer(path) as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")
