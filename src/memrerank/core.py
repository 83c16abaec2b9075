"""Immutable domain types shared by every pipeline stage.

All types are frozen dataclasses (or named tuples) validated on
construction: once built, a value is safe to share across threads and
compares structurally. Times are real seconds; candidate ranks are
1-based positions (rank 1 = best). A video's step sequence is just its
``CandidateList``s in step order and a selection a tuple of positions, so
the optimizer in ``sequencing`` needs no type of its own here.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

from .errors import SchemaViolation, ValidationError

# Entries of an episodic memory must tile the candidate interval; adjacent
# clips may disagree by at most this much (float noise from serialization).
CONTIGUITY_TOLERANCE_S = 1e-6

NUMBER = (int, float)  # the types of parsed JSON numbers; a bool is not one


def checked(value, kinds: tuple[type, ...], what: str):
    """``value`` when its type is exactly one of ``kinds``, so a bool is
    not taken for an int; ``TypeError`` naming ``what`` otherwise."""
    if type(value) not in kinds:
        names = " or ".join(kind.__name__ for kind in kinds)
        raise TypeError(f"{what} must be {names}, got {reprlib.repr(value)}")
    return value


def setting(flag: str, help: str | None = None, default=None, choices=(), range=None):
    """A dataclass field declaring a setting once: its flag, the flag's help, any
    values it is limited to, and any inclusive ``(low, high)`` range, ``high`` None for none."""
    return field(default=default, metadata=dict(flag=flag, help=help, choices=choices, range=range))


def check_ranges(settings) -> None:
    """Refuse the first field of the dataclass ``settings`` outside its declared
    range (None aside; no range holds NaN or infinity) with a ``ValidationError``:
    "<name> must be >= <low>, got <value>" or "<name> must lie in [<low>, <high>], got <value>"."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if f.metadata.get("range") and value is not None:
            low, high = f.metadata["range"]
            if not low <= value < math.inf or high is not None and value > high:
                bound = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
                raise ValidationError(f"{f.name} must {bound}, got {reprlib.repr(value)}")


def _finite(value, what: str) -> float:
    """``value`` as a float; NaN and infinities, which ``json.loads`` accepts, are refused."""
    value = float(value)  # a number: every reader checks the type first
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class TimeInterval:
    """A half-open time span ``[start_s, end_s)`` in seconds.

    Zero-length intervals are allowed (degenerate ground-truth
    annotations); candidate segments reject them at their own level.
    """

    start_s: float
    end_s: float

    def __post_init__(self):
        start, end = self.start_s, self.end_s
        if type(start) is float and type(end) is float and 0.0 <= start <= end < math.inf:
            return  # the common case: valid floats, nothing to convert
        object.__setattr__(self, "start_s", _finite(self.start_s, "start_s"))
        object.__setattr__(self, "end_s", _finite(self.end_s, "end_s"))
        if self.start_s < 0:
            raise ValidationError(f"start_s must be >= 0, got {self.start_s}")
        if self.end_s < self.start_s:
            raise ValidationError(f"end_s {self.end_s} precedes start_s {self.start_s}")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def overlaps(self, other: "TimeInterval") -> bool:
        """True when the two spans share a positive-length stretch."""
        return self.start_s < other.end_s and other.start_s < self.end_s


@dataclass(frozen=True, slots=True)
class CandidateSegment:
    """One proposed segment: a non-degenerate interval and a model score.
    Its rank is its position in its :class:`CandidateList`."""

    interval: TimeInterval
    score: float

    def __post_init__(self):
        if self.interval.duration_s <= 0:
            raise ValidationError(
                f"candidate interval must have positive length, got "
                f"[{self.interval.start_s}, {self.interval.end_s})"
            )
        object.__setattr__(self, "score", _finite(self.score, "score"))


class CandidateKey(NamedTuple):
    """Addresses one candidate of one query: (video, query, rank)."""

    video_id: str
    query_id: str
    rank: int

    @classmethod
    def from_record(cls, record) -> "CandidateKey":
        """The key of a stage-file record; ``TypeError`` when an id is not a
        string or the rank is not an integer."""
        return cls(
            checked(record["video_id"], (str,), "video_id"),
            checked(record["query_id"], (str,), "query_id"),
            checked(record["rank"], (int,), "rank"),
        )


def interval_of(record, start: str = "start_s", end: str = "end_s") -> TimeInterval:
    """The interval ``[record[start], record[end])`` of a stage-file record;
    ``TypeError`` when a bound is not a JSON number, ``OverflowError`` when
    it is an integer past the float range, and ``ValidationError`` when the
    bounds are not ``0 <= start <= end < inf``."""
    return TimeInterval(checked(record[start], NUMBER, start), checked(record[end], NUMBER, end))


def _require_id(value, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise SchemaViolation(what, f"must be a non-empty string, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class CandidateList:
    """Ordered candidates for one query; a candidate's rank is its 1-based
    position. Descending-score order is the canonical form of
    :func:`canonical_order`; reranked lists deliberately break it.
    """

    video_id: str
    query_id: str
    candidates: tuple[CandidateSegment, ...]

    def __post_init__(self):
        _require_id(self.video_id, "video_id")
        _require_id(self.query_id, "query_id")
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if not self.candidates:
            raise ValidationError(f"query '{self.query_id}' has no candidates")

    def __len__(self) -> int:
        return len(self.candidates)

    def intervals(self) -> tuple[TimeInterval, ...]:
        return tuple(c.interval for c in self.candidates)


def canonical_order(
    candidates: Sequence[CandidateSegment], limit: int | None = None
) -> tuple[CandidateSegment, ...]:
    """The first ``limit`` (default all) candidates by descending score,
    ties broken by earlier start then shorter duration; the sort is stable."""
    ordered = sorted(candidates, key=lambda c: (-c.score, c.interval.start_s, c.interval.duration_s))
    return tuple(ordered[:limit])


@dataclass(frozen=True, slots=True)
class Query:
    """One localization request against one video."""

    query_id: str
    video_id: str
    text: str
    order_index: int | None = None
    ground_truth: TimeInterval | None = None

    def __post_init__(self):
        _require_id(self.query_id, "query_id")
        _require_id(self.video_id, "video_id")
        if self.order_index is not None:
            if not isinstance(self.order_index, int) or isinstance(self.order_index, bool):
                raise SchemaViolation(
                    "order_index", f"must be an integer, got {self.order_index!r}"
                )
            if self.order_index < 0:
                raise SchemaViolation(
                    "order_index", f"must be >= 0, got {self.order_index}"
                )


@dataclass(frozen=True, slots=True)
class MemoryEntry:
    """One clip of a candidate paired with its narration."""

    clip: TimeInterval
    narration: str

    def __post_init__(self):
        if not isinstance(self.narration, str) or not self.narration.strip():
            raise ValidationError(
                f"clip [{self.clip.start_s}, {self.clip.end_s}) has no narration"
            )


@dataclass(frozen=True, slots=True)
class EpisodicMemory:
    """Ordered per-clip narrations tiling one candidate segment."""

    candidate_key: CandidateKey
    entries: tuple[MemoryEntry, ...]
    prompt_version: str
    backend_id: str

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValidationError(f"memory for {self.candidate_key} has no entries")
        previous = None
        for entry in self.entries:
            if previous is not None:
                gap = entry.clip.start_s - previous.end_s
                if abs(gap) > CONTIGUITY_TOLERANCE_S:
                    raise ValidationError(
                        f"memory for {self.candidate_key} is not contiguous at "
                        f"{previous.end_s} -> {entry.clip.start_s}"
                    )
            previous = entry.clip

    @property
    def span(self) -> TimeInterval:
        """The candidate interval covered by the entries."""
        return TimeInterval(self.entries[0].clip.start_s, self.entries[-1].clip.end_s)

