"""Choose one candidate per ordered step query by exact cost minimization.

The input is one video's ranked candidate lists in step order, and a
selection is a tuple of 0-based choices, one per list, so choice ``j``
picks the candidate of rank ``j + 1``. The objective for a selection is
the sum of the chosen candidates' ranks plus ``lambda_penalty`` times the
sum of start-time violation penalties ``max(0, start_i - start_{i+1})``
over adjacent steps.

Why the dynamic program is exact: the objective is a sum of one term per
step (the rank) and one term per adjacent pair (the penalty), so the
cost of a suffix depends on earlier choices only through the immediately
preceding choice. Minimizing suffix cost per (step, choice) state and
walking the resulting table forward therefore yields a global minimum in
O(K * C^2) time. Costs are accumulated as integers over a common
power-of-two denominator, equivalent to exact rationals, so tie detection
(and hence tie-breaking) never depends on float summation order; ties
are broken by the lexicographically smallest rank vector. A rank is a
position, so no two selections share a rank vector and the tie-break
always decides.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .core import CandidateList
from .ingest import Dataset, write_report_file

DEFAULT_LAMBDA_PENALTY = 1.0


def start_penalty(start_i: float, start_next: float) -> float:
    """Violation of the non-decreasing start-time prior for one pair."""
    return max(0.0, start_i - start_next)


def selection_cost(
    lists: Sequence[CandidateList], choices: Sequence[int], lambda_penalty: float
) -> float:
    """Rank sum plus weighted start-penalty sum for one selection."""
    rank_sum = sum(choice + 1 for choice in choices)
    return rank_sum + lambda_penalty * sum(pair_penalties(lists, choices))


def pair_penalties(lists: Sequence[CandidateList], choices: Sequence[int]) -> list[float]:
    """Per-adjacent-pair start penalties, in step order."""
    starts = [clist.candidates[choice].interval.start_s for clist, choice in zip(lists, choices)]
    return [start_penalty(a, b) for a, b in zip(starts, starts[1:])]


def optimize_sequence(
    lists: Sequence[CandidateList], lambda_penalty: float = DEFAULT_LAMBDA_PENALTY
) -> tuple[int, ...]:
    """Globally minimal selection over the step-ordered ``lists`` via
    dynamic programming.

    Ties on cost are broken by the lexicographically smallest rank
    vector: each step takes the first of its minimal choices.
    """
    starts = [[c.interval.start_s for c in clist.candidates] for clist in lists]
    # Every float is a dyadic rational, so lambda and each pair's penalty
    # are integers over powers of two, and every cost of the video is an
    # integer count of 1/unit.
    lam_num, lam_den = lambda_penalty.as_integer_ratio()
    ratios = [
        [[start_penalty(a, b).as_integer_ratio() for b in after] for a in before]
        for before, after in zip(starts, starts[1:])
    ]
    den = max((d for pair in ratios for row in pair for _, d in row), default=1)
    unit = lam_den * den
    # penalties[i][j][k]: lambda times the penalty of choice j at step i
    # then choice k at step i + 1, in units of 1/unit.
    penalties = [
        [[lam_num * n * (den // d) for n, d in row] for row in pair] for pair in ratios
    ]

    # suffix[j]: minimal cost of steps i..K-1 when step i picks j.
    suffix = [(j + 1) * unit for j in range(len(lists[-1]))]
    next_choice: list[list[int]] = [[] for _ in lists]
    for i in range(len(lists) - 2, -1, -1):
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
    for i in range(len(lists) - 1):
        choices.append(next_choice[i][choices[-1]])
    return tuple(choices)


def build_tasks(
    dataset: Dataset, lists: Sequence[CandidateList]
) -> list[tuple[CandidateList, ...]]:
    """The candidate lists of each video's step queries, in step order, for
    a goalstep ``dataset``, whose every query has an order index. A
    query without a list is left out, so its neighbours become adjacent
    steps; a video left with no lists has nothing to order and is skipped."""
    by_query = {(clist.video_id, clist.query_id): clist for clist in lists}
    tasks = []
    for video in dataset.videos:
        aligned = []
        for query in sorted(video.queries, key=lambda q: q.order_index):
            clist = by_query.get((video.video_id, query.query_id))
            if clist is not None:
                aligned.append(clist)
        if aligned:
            tasks.append(tuple(aligned))
    return tasks


def write_optimizer_report(
    entries: Sequence[tuple[Sequence[CandidateList], Sequence[int]]],
    lambda_penalty: float,
    rank_source: str,
    path: str | Path,
    left_out: Sequence[Sequence[CandidateList]] = (),
) -> None:
    """Per-video rank vectors, total cost, and per-pair penalties, for the
    ``(lists, choices)`` of each video; and, when a video's lists were
    ``left_out`` of its chain, their query ids by video."""
    payload = {
        "lambda_penalty": lambda_penalty,
        "rank_source": rank_source,
        "videos": [
            {
                "video_id": lists[0].video_id,
                "choices": list(choices),
                "ranks": [choice + 1 for choice in choices],
                "total_cost": selection_cost(lists, choices, lambda_penalty),
                "pair_penalties": pair_penalties(lists, choices),
            }
            for lists, choices in sorted(entries, key=lambda e: e[0][0].video_id)
        ],
    }
    if left_out:
        payload["left_out"] = {lists[0].video_id: [c.query_id for c in lists] for lists in left_out}
    write_report_file(payload, path)
