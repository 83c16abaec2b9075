"""Load annotations and candidate files, write prediction files.

Validation is strict: malformed records are rejected, never repaired.
All files are UTF-8 JSON. Timestamps (and other floats) are written as
plain decimals with at least three fractional digits, extended as needed
so the value round-trips exactly.
"""

from __future__ import annotations

import contextlib
import enum
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

from .core import (
    CandidateList,
    CandidateSegment,
    Query,
    TimeInterval,
    validate_candidate_list,
)
from .errors import (
    GtOutOfBoundsError,
    ParseError,
    SchemaViolation,
    UnknownQueryIdError,
)

PREDICTIONS_VERSION = "emc-1"


class Track(str, enum.Enum):
    """Which localization track a dataset belongs to."""

    NLQ = "nlq"
    GOALSTEP = "goalstep"


@dataclass(frozen=True, slots=True)
class VideoRecord:
    video_id: str
    duration_s: float
    queries: tuple[Query, ...]

    def __post_init__(self):
        object.__setattr__(self, "queries", tuple(self.queries))
        if not math.isfinite(self.duration_s) or self.duration_s <= 0:
            raise SchemaViolation(
                "duration_s", f"must be a positive number, got {self.duration_s!r}"
            )


@dataclass(frozen=True, slots=True)
class Dataset:
    """All videos and queries of one track, fully validated."""

    track: Track
    videos: tuple[VideoRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "videos", tuple(self.videos))
        seen_videos: set[str] = set()
        seen_queries: set[str] = set()
        for video in self.videos:
            if video.video_id in seen_videos:
                raise SchemaViolation("video_id", f"duplicate '{video.video_id}'")
            seen_videos.add(video.video_id)
            order_indices: set[int] = set()
            for query in video.queries:
                if query.video_id != video.video_id:
                    raise SchemaViolation(
                        "video_id",
                        f"query '{query.query_id}' names video '{query.video_id}' "
                        f"inside video '{video.video_id}'",
                    )
                if query.query_id in seen_queries:
                    raise SchemaViolation("query_id", f"duplicate '{query.query_id}'")
                seen_queries.add(query.query_id)
                if self.track is Track.GOALSTEP and query.order_index is None:
                    raise SchemaViolation(
                        "order_index",
                        f"goalstep query '{query.query_id}' has no order index",
                    )
                if self.track is Track.NLQ and query.order_index is not None:
                    raise SchemaViolation(
                        "order_index",
                        f"nlq query '{query.query_id}' carries an order index",
                    )
                if query.order_index is not None:
                    if query.order_index in order_indices:
                        raise SchemaViolation(
                            "order_index",
                            f"duplicate order index {query.order_index} in video "
                            f"'{video.video_id}'",
                        )
                    order_indices.add(query.order_index)
                gt = query.ground_truth
                if gt is not None and gt.end_s > video.duration_s:
                    raise GtOutOfBoundsError(
                        query.query_id,
                        f"[{gt.start_s}, {gt.end_s}] exceeds duration {video.duration_s}",
                    )

    def iter_queries(self) -> Iterator[Query]:
        """Queries in file order (video order, then in-video order)."""
        for video in self.videos:
            yield from video.queries

    def video(self, video_id: str) -> VideoRecord:
        for video in self.videos:
            if video.video_id == video_id:
                return video
        raise KeyError(video_id)

    def query_ids(self) -> set[str]:
        return {q.query_id for q in self.iter_queries()}


def format_seconds(value: float) -> str:
    """Render a float as a plain decimal with >= 3 fractional digits.

    Extra digits are added until the text parses back to the exact value,
    so files round-trip losslessly.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value!r}")
    text = repr(value)
    if "e" not in text and "E" not in text and "." in text:
        if len(text.split(".", 1)[1]) >= 3:
            return text
    digits = 3
    while digits <= 1100:
        text = f"{value:.{digits}f}"
        if float(text) == value:
            return text
        # Values below 1e-14 need roughly -log10|value| + 17 digits.
        digits = 17 if digits == 3 else digits + 10
    raise ValueError(f"cannot render {value!r} as a plain decimal")


def _emit_json(value, out: list[str]) -> None:
    if value is None or isinstance(value, bool):
        out.append(json.dumps(value))
    elif isinstance(value, float):
        out.append(format_seconds(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, Mapping):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _emit_json(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _emit_json(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dump_json(value) -> str:
    """Deterministic JSON text using the seconds formatter for floats."""
    out: list[str] = []
    _emit_json(value, out)
    return "".join(out)


@contextlib.contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """Text handle on a temporary file beside ``path``.

    When the block completes, the file replaces ``path`` in one rename, so
    a reader sees the old content or the new, never a partial write. When
    the block raises, the temporary file is removed and ``path`` is left
    as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json_file(value, path: str | Path) -> None:
    with atomic_writer(path) as handle:
        handle.write(dump_json(value))
        handle.write("\n")


def read_json_file(path: str | Path):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), exc.lineno, exc.colno, exc.msg) from exc


def _as_object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaViolation(field, f"expected an object, got {type(value).__name__}")
    return value


def _as_array(value, field: str) -> list:
    if not isinstance(value, list):
        raise SchemaViolation(field, f"expected an array, got {type(value).__name__}")
    return value


def _as_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaViolation(field, f"expected a number, got {value!r}")
    return float(value)


def _as_string(value, field: str) -> str:
    if not isinstance(value, str):
        raise SchemaViolation(field, f"expected a string, got {value!r}")
    return value


def _parse_query(raw, video_id: str) -> Query:
    raw = _as_object(raw, "queries[]")
    query_id = _as_string(raw.get("query_id"), "query_id")
    text = _as_string(raw.get("text"), "text")
    order_index = raw.get("order_index")
    if order_index is not None:
        if isinstance(order_index, bool) or not isinstance(order_index, int):
            raise SchemaViolation("order_index", f"expected an integer, got {order_index!r}")
    gt = None
    if raw.get("gt") is not None:
        gt_obj = _as_object(raw["gt"], "gt")
        gt = TimeInterval(
            _as_number(gt_obj.get("start_s"), "gt.start_s"),
            _as_number(gt_obj.get("end_s"), "gt.end_s"),
        )
    return Query(
        query_id=query_id,
        video_id=video_id,
        text=text,
        order_index=order_index,
        ground_truth=gt,
    )


def load_annotations(path: str | Path) -> Dataset:
    """Parse and fully validate an annotations file."""
    root = _as_object(read_json_file(path), "<root>")
    track_text = _as_string(root.get("track"), "track")
    try:
        track = Track(track_text)
    except ValueError:
        raise SchemaViolation("track", f"unknown track {track_text!r}") from None
    videos = []
    for raw_video in _as_array(root.get("videos"), "videos"):
        raw_video = _as_object(raw_video, "videos[]")
        video_id = _as_string(raw_video.get("video_id"), "video_id")
        duration = _as_number(raw_video.get("duration_s"), "duration_s")
        queries = []
        with_order = without_order = 0
        for raw_query in _as_array(raw_video.get("queries"), "queries"):
            query = _parse_query(raw_query, video_id)
            if query.order_index is None:
                without_order += 1
            else:
                with_order += 1
            queries.append(query)
        if with_order and without_order:
            raise SchemaViolation(
                "order_index",
                f"video '{video_id}' mixes ordered and unordered queries",
            )
        videos.append(VideoRecord(video_id, duration, tuple(queries)))
    return Dataset(track=track, videos=tuple(videos))


def write_annotations(dataset: Dataset, path: str | Path) -> None:
    payload = {
        "track": dataset.track.value,
        "videos": [
            {
                "video_id": video.video_id,
                "duration_s": video.duration_s,
                "queries": [
                    {
                        "query_id": q.query_id,
                        "text": q.text,
                        **({"order_index": q.order_index} if q.order_index is not None else {}),
                        **(
                            {
                                "gt": {
                                    "start_s": q.ground_truth.start_s,
                                    "end_s": q.ground_truth.end_s,
                                }
                            }
                            if q.ground_truth is not None
                            else {}
                        ),
                    }
                    for q in video.queries
                ],
            }
            for video in dataset.videos
        ],
    }
    write_json_file(payload, path)


def load_candidates(
    path: str | Path,
    top_k: int = 5,
    dataset: Dataset | None = None,
    canonical: bool = True,
) -> list[CandidateList]:
    """Load, validate, and truncate candidate lists to the top-k.

    With ``canonical=True`` (base-model output) candidates are reordered
    by descending score and ranked by position. Reranked files are loaded
    with ``canonical=False``: file order is the ranking and is preserved.
    """
    if not isinstance(top_k, int) or isinstance(top_k, bool) or top_k < 1:
        raise SchemaViolation("top_k", f"must be a positive integer, got {top_k!r}")
    root = _as_object(read_json_file(path), "<root>")
    known = dataset.query_ids() if dataset is not None else None
    lists: list[CandidateList] = []
    seen: set[tuple[str, str]] = set()
    for raw in _as_array(root.get("predictions"), "predictions"):
        raw = _as_object(raw, "predictions[]")
        video_id = _as_string(raw.get("video_id"), "video_id")
        query_id = _as_string(raw.get("query_id"), "query_id")
        if (video_id, query_id) in seen:
            raise SchemaViolation(
                "query_id", f"duplicate candidate list for query '{query_id}'"
            )
        seen.add((video_id, query_id))
        if known is not None and query_id not in known:
            raise UnknownQueryIdError(f"candidates for unknown query '{query_id}'")
        segments = []
        for position, raw_candidate in enumerate(
            _as_array(raw.get("candidates"), "candidates")
        ):
            raw_candidate = _as_object(raw_candidate, "candidates[]")
            segments.append(
                CandidateSegment(
                    interval=TimeInterval(
                        _as_number(raw_candidate.get("start_s"), "start_s"),
                        _as_number(raw_candidate.get("end_s"), "end_s"),
                    ),
                    score=_as_number(raw_candidate.get("score"), "score"),
                    rank=position + 1,
                )
            )
        parsed = CandidateList(video_id, query_id, tuple(segments))
        if canonical:
            parsed = validate_candidate_list(parsed)
        lists.append(CandidateList(video_id, query_id, parsed.candidates[:top_k]))
    return lists


def write_candidates(lists: Iterable[CandidateList], path: str | Path) -> None:
    payload = {
        "predictions": [
            {
                "video_id": clist.video_id,
                "query_id": clist.query_id,
                "candidates": [
                    {
                        "start_s": c.interval.start_s,
                        "end_s": c.interval.end_s,
                        "score": c.score,
                    }
                    for c in clist.candidates
                ],
            }
            for clist in lists
        ]
    }
    write_json_file(payload, path)


def write_predictions(
    results: Mapping[str, Sequence[TimeInterval]], path: str | Path
) -> None:
    """Write a predictions file; every query must have >= 1 interval."""
    records = []
    for query_id in sorted(results):
        intervals = list(results[query_id])
        if not intervals:
            raise SchemaViolation(
                "intervals", f"query '{query_id}' has no predicted intervals"
            )
        records.append(
            {
                "query_id": query_id,
                "intervals": [[iv.start_s, iv.end_s] for iv in intervals],
            }
        )
    write_json_file({"version": PREDICTIONS_VERSION, "results": records}, path)


def load_predictions(path: str | Path) -> dict[str, tuple[TimeInterval, ...]]:
    root = _as_object(read_json_file(path), "<root>")
    version = root.get("version")
    if version != PREDICTIONS_VERSION:
        raise SchemaViolation(
            "version", f"expected {PREDICTIONS_VERSION!r}, got {version!r}"
        )
    results: dict[str, tuple[TimeInterval, ...]] = {}
    for raw in _as_array(root.get("results"), "results"):
        raw = _as_object(raw, "results[]")
        query_id = _as_string(raw.get("query_id"), "query_id")
        if query_id in results:
            raise SchemaViolation("query_id", f"duplicate result for '{query_id}'")
        intervals = []
        for pair in _as_array(raw.get("intervals"), "intervals"):
            pair = _as_array(pair, "intervals[]")
            if len(pair) != 2:
                raise SchemaViolation(
                    "intervals", f"expected [start_s, end_s], got {pair!r}"
                )
            intervals.append(
                TimeInterval(
                    _as_number(pair[0], "intervals[0]"), _as_number(pair[1], "intervals[1]")
                )
            )
        results[query_id] = tuple(intervals)
    return results
