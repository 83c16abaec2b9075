"""Select the best-matching candidate from episodic memories.

The backend sees one document containing the query and every candidate's
rendered memory, labeled "Candidate 1".."Candidate C", and must answer
with a single integer. Parsing is forgiving (first in-range integer
anywhere in the reply); anything else, a failed call included, falls
back to the original order, so reranking can never lose candidates or
fail a run. The rerank log is JSON Lines written through
:mod:`memrerank.ingest`.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .core import CandidateList, EpisodicMemory, Query
from .errors import BackendError, SchemaViolation, ValidationError
from .ingest import write_jsonl
from .narration import Backend, dispatch, render_memory

QUERY_LINE_PREFIX = "Query: "
CANDIDATE_HEADING = "Candidate {index}"

# Digit runs embedded in decimals (e.g. the "5" of "0.5") are not
# integer tokens.
_INTEGER_TOKEN = re.compile(r"(?<!\d)(?<!\d\.)(\d+)(?!\.?\d)")


@dataclass(frozen=True, slots=True)
class RerankOutcome:
    """Result of reranking one query's candidate list."""

    query_id: str
    original: CandidateList
    reranked: CandidateList
    selected_rank: int
    fallback_used: bool
    raw_answer: str

    def __post_init__(self):
        def multiset(clist: CandidateList):
            return sorted(
                (c.interval.start_s, c.interval.end_s, c.score) for c in clist.candidates
            )

        if multiset(self.original) != multiset(self.reranked):
            raise SchemaViolation(
                "reranked", "reranked candidates are not a permutation of the original"
            )
        selected = self.original.candidates[self.selected_rank - 1]
        promoted = self.reranked.candidates[0]
        if (promoted.interval, promoted.score) != (selected.interval, selected.score):
            raise SchemaViolation(
                "selected_rank", "promoted candidate does not match selected rank"
            )
        rest = [
            (c.interval, c.score)
            for i, c in enumerate(self.original.candidates)
            if i != self.selected_rank - 1
        ]
        kept = [(c.interval, c.score) for c in self.reranked.candidates[1:]]
        if rest != kept:
            raise SchemaViolation(
                "reranked", "non-promoted candidates changed relative order"
            )


def build_rerank_prompt(
    query: Query,
    memories: Sequence[EpisodicMemory],
    num_candidates: int,
    *,
    scores: Sequence[float] | None = None,
) -> str:
    """One reasoning document over all candidates' memories.

    ``scores`` optionally annotates each candidate with its model
    confidence; by default the backend sees only positional labels.
    """
    if len(memories) != num_candidates:
        raise ValidationError(f"{len(memories)} memories for {num_candidates} candidates")
    if scores is not None and len(scores) != num_candidates:
        raise ValidationError(f"{len(scores)} scores for {num_candidates} candidates")
    lines = [
        "Below are frame-by-frame narrations of candidate video segments.",
        f"{QUERY_LINE_PREFIX}{query.text}",
        "",
    ]
    for i, memory in enumerate(memories, start=1):
        lines.append(CANDIDATE_HEADING.format(index=i))
        if scores is not None:
            lines.append(f"model score: {scores[i - 1]}")
        lines.append(render_memory(memory))
        lines.append("")
    lines.append(
        "Which candidate best matches the query? "
        f"Answer with a single integer between 1 and {num_candidates}."
    )
    return "\n".join(lines)


def parse_selection(answer: str, num_candidates: int) -> int | None:
    """First integer token in [1, num_candidates], or None for fallback."""
    for match in _INTEGER_TOKEN.finditer(answer):
        value = int(match.group(1))
        if 1 <= value <= num_candidates:
            return value
    return None


def promote(clist: CandidateList, selected_rank: int) -> CandidateList:
    """Move the candidate at ``selected_rank`` to the front, keep the rest
    in order, and reassign positional ranks."""
    index = selected_rank - 1
    reordered = [clist.candidates[index]]
    reordered.extend(c for i, c in enumerate(clist.candidates) if i != index)
    return CandidateList(
        clist.video_id,
        clist.query_id,
        tuple(replace(c, rank=position + 1) for position, c in enumerate(reordered)),
    )


def identity_outcome(
    query_id: str, clist: CandidateList, raw_answer: str = "", fallback_used: bool = False
) -> RerankOutcome:
    return RerankOutcome(
        query_id=query_id,
        original=clist,
        reranked=clist,
        selected_rank=1,
        fallback_used=fallback_used,
        raw_answer=raw_answer,
    )


def rerank(
    query: Query,
    clist: CandidateList,
    memories: Sequence[EpisodicMemory],
    backend: Backend,
    *,
    include_scores: bool = False,
    fallback: bool = True,
) -> RerankOutcome:
    """Promote the backend's pick; fall back to the original order on any
    parse or backend failure (unless ``fallback`` is disabled)."""
    num_candidates = len(clist.candidates)
    if len(memories) != num_candidates:
        raise ValidationError(
            f"{len(memories)} memories for {num_candidates} candidates of "
            f"query '{query.query_id}'"
        )
    if num_candidates == 1:
        return identity_outcome(query.query_id, clist)
    prompt = build_rerank_prompt(
        query,
        memories,
        num_candidates,
        scores=[c.score for c in clist.candidates] if include_scores else None,
    )
    try:
        answer = backend.select(prompt).text
    except BackendError:
        if not fallback:
            raise
        answer = ""  # no pick: the fallback below, logged with an empty answer
    selected = parse_selection(answer, num_candidates)
    if selected is None:
        return identity_outcome(query.query_id, clist, answer, fallback_used=True)
    return RerankOutcome(
        query_id=query.query_id,
        original=clist,
        reranked=promote(clist, selected),
        selected_rank=selected,
        fallback_used=False,
        raw_answer=answer,
    )


def rerank_many(
    items: Sequence[tuple[Query, CandidateList, Sequence[EpisodicMemory]]],
    backend: Backend,
    *,
    c_max: int,
    include_scores: bool = False,
) -> list[RerankOutcome]:
    """Rerank several queries, up to ``c_max`` selection calls in flight.
    ``rerank`` falls back on a backend error, so no selection is retried."""
    calls = [
        functools.partial(rerank, *item, backend, include_scores=include_scores)
        for item in items
    ]
    return dispatch(calls, c_max)


def log_record(outcome: RerankOutcome, skipped: bool = False, reason: str = "") -> dict:
    record = {
        "query_id": outcome.query_id,
        "video_id": outcome.original.video_id,
        "num_candidates": len(outcome.original.candidates),
        "original_ranks": [c.rank for c in outcome.original.candidates],
        "selected_rank": outcome.selected_rank,
        "fallback_used": outcome.fallback_used,
        "raw_answer": outcome.raw_answer,
        "skipped": skipped,
    }
    if reason:
        record["skip_reason"] = reason
    return record


def write_rerank_log(records: Sequence[dict], path: str | Path) -> None:
    write_jsonl(records, path)
