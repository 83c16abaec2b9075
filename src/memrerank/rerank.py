"""Select the best-matching candidate from episodic memories.

The backend sees one document containing the query and every candidate's
rendered memory, labeled "Candidate 1".."Candidate C", and must answer
with a single integer. The document is a :class:`SelectionPrompt`, whose
fields the scripted selectors read. Parsing is forgiving (first in-range
integer anywhere in the reply); anything else, a failed call included,
falls back to the original order, so reranking can never lose candidates
or fail a run. An outcome holds the pick as a rank; :func:`promote` is the
one place a list is reordered.

Replies go through :func:`memrerank.narration.dispatch` and are cached in
a :class:`SelectionCache` keyed by the sha256 of the exact prompt and the
backend id, so a warm or resumed run asks the backend only for the picks
it lacks. A failed call is never cached, nor is a blank reply; an
unparseable one is, since it is the model's answer. A selector that reads
what its prompt's text does not hold (the oracle) is never cached.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .core import CandidateList, EpisodicMemory, Query, checked
from .errors import BackendError, MemoryMismatch
from .ingest import read_jsonl
from .narration import Backend, ReplyCache, dispatch, render_memory

QUERY_LINE_PREFIX = "Query: "
CANDIDATE_HEADING = "Candidate {index}"

# Digit runs embedded in decimals (e.g. the "5" of "0.5") are not
# integer tokens.
_INTEGER_TOKEN = re.compile(r"(?<!\d)(?<!\d\.)(\d+)(?!\.?\d)")


def build_rerank_prompt(
    query: Query, memories: Sequence[EpisodicMemory], *, scores: Sequence[float] | None = None
) -> str:
    """One reasoning document over the candidates' memories, one memory per
    candidate in rank order.

    ``scores``, one per memory, optionally annotates each candidate with
    its model confidence; by default the backend sees only positional labels.
    """
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
        f"Answer with a single integer between 1 and {len(memories)}."
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
    """Move the candidate at ``selected_rank`` to the front and keep the
    rest in order. Rank 1 keeps ``clist`` itself."""
    if selected_rank == 1:
        return clist
    candidates = clist.candidates
    index = selected_rank - 1
    reordered = (candidates[index], *candidates[:index], *candidates[index + 1 :])
    return CandidateList(clist.video_id, clist.query_id, reordered)


class SelectionCacheKey(NamedTuple):
    """A selection prompt, by the sha256 of its UTF-8 text, and the backend
    that answers it."""

    prompt_sha256: str
    backend_id: str

    @classmethod
    def from_dict(cls, payload: dict) -> "SelectionCacheKey":
        return cls(
            checked(payload["prompt_sha256"], (str,), "prompt_sha256"),
            checked(payload["backend_id"], (str,), "backend_id"),
        )


class SelectionCache(ReplyCache):
    """Selection replies, keyed by their prompt and backend."""

    key_type = SelectionCacheKey


@dataclass(frozen=True, slots=True)
class RerankOutcome:
    """Result of reranking one query's candidate list: the backend's pick,
    or rank 1 when there was none to make or it fell back."""

    original: CandidateList
    selected_rank: int = 1
    fallback_used: bool = False
    raw_answer: str = ""

    @property
    def reranked(self) -> CandidateList:
        return promote(self.original, self.selected_rank)

    def log_record(self, skip_reason: str = "") -> dict:
        """The rerank-log record; a ``skip_reason`` marks it skipped."""
        record = {
            "query_id": self.original.query_id,
            "video_id": self.original.video_id,
            "num_candidates": len(self.original),
            "original_ranks": list(range(1, len(self.original) + 1)),
            "selected_rank": self.selected_rank,
            "fallback_used": self.fallback_used,
            "raw_answer": self.raw_answer,
            "skipped": bool(skip_reason),
        }
        if skip_reason:
            record["skip_reason"] = skip_reason
        return record


class SelectionPrompt(str):
    """A selection prompt's text, holding the query, candidate list and
    memories it was rendered from. It compares and hashes as its text, and
    every ``str`` method returns a plain ``str``."""

    query: Query
    clist: CandidateList
    memories: tuple[EpisodicMemory, ...]

    def __new__(cls, text: str, query: Query, clist: CandidateList, memories):
        prompt = super().__new__(cls, text)
        prompt.query, prompt.clist, prompt.memories = query, clist, tuple(memories)
        return prompt


def read_abstentions(path: str | Path) -> set[str]:
    """The ids of the queries whose selection abstained, from the rerank log
    at ``path``: a fallback from a reply that is not blank. A failed call
    left no reply, a query past the limit no fallback, and a query without
    candidates no ``fallback_used``; none of them abstained."""

    def parse(record) -> str | None:
        checked(record, (dict,), "rerank log record")
        fallback = checked(record.get("fallback_used", False), (bool,), "fallback_used")
        answer = checked(record.get("raw_answer", ""), (str,), "raw_answer")
        abstained = fallback and answer.strip()
        return checked(record["query_id"], (str,), "query_id") if abstained else None

    return set(read_jsonl(path, "rerank log", parse)) - {None}


def _selection_prompt(
    query: Query, clist: CandidateList, memories: Sequence[EpisodicMemory], include_scores: bool
) -> SelectionPrompt | None:
    """The prompt of one query's pick, None when it has one candidate; its
    memories must be its candidates', in rank order."""
    num_candidates = len(clist.candidates)
    if len(memories) != num_candidates:
        raise MemoryMismatch(
            f"{len(memories)} memories for {num_candidates} candidates of "
            f"query '{query.query_id}'"
        )
    for rank, (candidate, memory) in enumerate(zip(clist.candidates, memories), start=1):
        span, interval = memory.span, candidate.interval
        if span != interval:
            raise MemoryMismatch(
                f"the memory of rank {rank} of query '{query.query_id}' spans "
                f"[{span.start_s}, {span.end_s}) but the candidate spans "
                f"[{interval.start_s}, {interval.end_s}); re-run plan and narrate"
            )
    if num_candidates == 1:
        return None
    scores = [c.score for c in clist.candidates] if include_scores else None
    text = build_rerank_prompt(query, memories, scores=scores)
    return SelectionPrompt(text, query, clist, memories)


def rerank_many(
    items: Sequence[tuple[Query, CandidateList, Sequence[EpisodicMemory]]],
    backend: Backend,
    *,
    c_max: int,
    include_scores: bool = False,
    cache: SelectionCache | None = None,
    count: Callable[..., None] = lambda **amounts: None,
) -> list[RerankOutcome]:
    """Rerank several queries, up to ``c_max`` selection calls in flight;
    fall back to the original order on any parse or backend failure.

    Every prompt is built, and its memories checked, before any backend
    call. The distinct prompts go to one :func:`dispatch`, which serves
    them from ``cache`` or the backend (each prompt, for a selector that
    reads past its text) and tells ``count`` its cache hits and misses. A
    failed call is not retried."""
    # A selector that reads past the text (the oracle) may answer two equal
    # texts apart, so each of its prompts is a call of its own, kept in this
    # call's cache only.
    per_item = not backend.selects_from_prompt
    if cache is None or per_item:
        cache = SelectionCache()  # this call's replies only
    prompts = [_selection_prompt(*item, include_scores) for item in items]
    keys = [
        None if prompt is None else SelectionCacheKey(
            hashlib.sha256(prompt.encode("utf-8", "surrogatepass")).hexdigest()
            + (f"#{index}" if per_item else ""),
            backend.backend_id,
        )
        for index, prompt in enumerate(prompts)
    ]
    prompt_of = {key: prompt for key, prompt in zip(keys, prompts) if key is not None}

    def call(key: SelectionCacheKey) -> str:
        try:
            return backend.select(prompt_of[key])
        except BackendError:
            return ""  # no pick, and nothing cached: the next run asks again

    answers = dispatch(call, prompt_of, cache, c_max, count=count)
    outcomes = []
    for (_, clist, _), key in zip(items, keys):
        if key is None:
            outcomes.append(RerankOutcome(clist))
            continue
        selected = parse_selection(answers[key], len(clist.candidates))
        outcomes.append(RerankOutcome(clist, selected or 1, selected is None, answers[key]))
    return outcomes
