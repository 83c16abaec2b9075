"""Read and write every stage file; load annotations, candidates and
predictions.

Stage modules map their records to and from plain values; only this
module encodes them, and every writer goes through ``atomic_writer``.
Data files (``write_json_file``) take only JSON's own types and write
floats as plain decimals with at least three fractional digits that
round-trip exactly (``format_seconds``). JSON Lines stage files
(``write_jsonl``) and indented reports (``write_report_file``) keep the
standard encoder's float text, which round-trips too; both styles stay
so that every output keeps the bytes earlier runs wrote.

Validation is strict: malformed records are rejected, never repaired. A
malformed file raises a ``ValidationError`` (exit code 4): a
``ParseError`` at the file's line and column when it is not JSON, and a
``SchemaViolation`` naming the file (``read_json_file``) or the file and
line of the bad record (``read_jsonl``) when its shape or types are wrong.
"""

from __future__ import annotations

import contextlib
import enum
import json
import math
import os
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence, TextIO

from .core import (
    NUMBER,
    CandidateList,
    CandidateSegment,
    Query,
    TimeInterval,
    canonical_order,
    checked,
    interval_of,
)
from .errors import ParseError, SchemaViolation, ValidationError

PREDICTIONS_VERSION = "emc-1"
DEFAULT_TOP_K = 5
encode_record = json.JSONEncoder(sort_keys=True).encode  # json.dumps(record, sort_keys=True)
# What a record's reader raises when the record is malformed: a value
# missing, of the wrong type or out of range, an integer past the float
# range, or a domain type refusing it.
MALFORMED = (KeyError, TypeError, ValueError, OverflowError, ValidationError)


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
                    raise ValidationError(
                        f"ground truth out of bounds for query '{query.query_id}': "
                        f"[{gt.start_s}, {gt.end_s}] exceeds duration {video.duration_s}"
                    )

    def iter_queries(self) -> Iterator[Query]:
        """Queries in file order (video order, then in-video order)."""
        for video in self.videos:
            yield from video.queries


def format_seconds(value: float) -> str:
    """A finite float as a plain decimal with at least three fractional
    digits that parses back to exactly ``value``: ``repr(value)``, the
    fewest digits that round-trip, when it has no exponent and three or
    more decimals; else ``value`` rounded to 3 decimals when those hold
    ``repr``'s digits, or (below 1e-4) to the first of 17, 27, 37, ...
    decimals that holds them, or 10 more when that does not round-trip."""
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value!r}")
    text = repr(value)
    mantissa, _, exponent = text.partition("e")
    decimals = len(mantissa.partition(".")[2]) - int(exponent or 0)
    if not exponent and decimals >= 3:
        return text
    if decimals <= 3:
        return f"{value:.3f}"
    decimals = 17 + 10 * max(0, math.ceil((decimals - 17) / 10))
    text = f"{value:.{decimals}f}"
    # Only 2**-569 fails here (at 187 decimals): as a power of two, its gap below is half.
    return text if float(text) == value else f"{value:.{decimals + 10}f}"


def _emit_json(value, out: list[str]) -> None:
    kind = type(value)
    if kind is str:
        out.append(encode_basestring(value))  # what json.dumps applies to any str
    elif kind is float:
        out.append(format_seconds(value))
    elif kind is int:
        out.append(str(value))
    elif kind is bool or value is None:
        out.append("null" if value is None else "true" if value else "false")
    elif kind is dict:
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if type(key) is not str:
                raise TypeError(f"cannot serialize {type(key).__name__} key")
            if i:
                out.append(",")
            out.append(encode_basestring(key))
            out.append(":")
            _emit_json(value[key], out)
        out.append("}")
    elif kind is list or kind is tuple:
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _emit_json(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {kind.__name__}")


def dump_json(value) -> str:
    """Deterministic JSON text of ``value``, of JSON's own types only, each by
    its exact type (``TypeError`` otherwise), with ``format_seconds`` floats."""
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


def read_json_file(path: str | Path, what: str, parse: Callable):
    """``parse`` applied to the JSON value of ``path``, a file of ``what``.

    A file that is not UTF-8 JSON raises ``ParseError`` at its line and
    column. Any other file ``json.loads`` refuses (an integer past its
    digit limit), and an error of ``MALFORMED`` from ``parse``, raises
    ``SchemaViolation(what)`` naming ``path`` (and, for a wrapped schema
    violation, its field).
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        value = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), exc.lineno, exc.colno, exc.msg) from exc
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        raise ParseError(str(path), line, column, f"not UTF-8 ({exc.reason})") from exc
    except ValueError as exc:
        raise SchemaViolation(what, f"{path}: malformed {what}: {exc}") from exc
    try:
        return parse(value)
    except KeyError as exc:
        raise SchemaViolation(what, f"{path}: malformed {what}: missing key {exc}") from exc
    except MALFORMED as exc:
        reason = exc.reason if isinstance(exc, SchemaViolation) else exc
        raise SchemaViolation(what, f"{path}: malformed {what}: {reason}") from exc


def write_report_file(value, path: str | Path) -> None:
    """Indented JSON with sorted keys and a final newline."""
    with atomic_writer(path) as handle:
        json.dump(value, handle, sort_keys=True, indent=2)
        handle.write("\n")


def write_jsonl(records: Iterable[Mapping], path: str | Path) -> None:
    """One compact JSON record per line, keys sorted."""
    with atomic_writer(path) as handle:
        for record in records:
            handle.write(encode_record(record) + "\n")


def read_jsonl(path: str | Path, field: str, parse: Callable) -> list:
    """``parse`` applied to the JSON value of each non-blank line, in order.

    A line that is not UTF-8 JSON, or that ``parse`` rejects with an error
    of ``MALFORMED``, raises ``SchemaViolation(field)`` naming ``path:line``
    (and, for a wrapped schema violation, its field).
    """
    records = []
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                records.append(parse(json.loads(line.decode("utf-8"))))
            except MALFORMED as exc:
                reason = exc.reason if isinstance(exc, SchemaViolation) else exc
                raise SchemaViolation(
                    field, f"{path}:{line_no}: malformed record ({reason})"
                ) from exc
    return records


def _number(raw: dict, key: str) -> float:
    return float(checked(raw[key], NUMBER, key))


def _parse_query(raw, video_id: str) -> Query:
    checked(raw, (dict,), "query")
    gt = raw.get("gt")
    if gt is not None:
        checked(gt, (dict,), "gt")
        gt = interval_of(gt)
    return Query(
        query_id=checked(raw["query_id"], (str,), "query_id"),
        video_id=video_id,
        text=checked(raw["text"], (str,), "text"),
        order_index=raw.get("order_index"),
        ground_truth=gt,
    )


def _parse_annotations(root) -> Dataset:
    checked(root, (dict,), "annotations")
    track = Track(checked(root["track"], (str,), "track"))
    videos = []
    for raw in checked(root["videos"], (list,), "videos"):
        checked(raw, (dict,), "video")
        video_id = checked(raw["video_id"], (str,), "video_id")
        queries = checked(raw["queries"], (list,), "queries")
        videos.append(
            VideoRecord(
                video_id,
                _number(raw, "duration_s"),
                tuple(_parse_query(query, video_id) for query in queries),
            )
        )
    return Dataset(track=track, videos=tuple(videos))


def load_annotations(path: str | Path) -> Dataset:
    """Parse and fully validate an annotations file."""
    return read_json_file(path, "annotations file", _parse_annotations)


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
    top_k: int = DEFAULT_TOP_K,
    dataset: Dataset | None = None,
    canonical: bool = True,
) -> list[CandidateList]:
    """Load, validate, and truncate candidate lists to the top-k.

    Every candidate is validated, kept or not. With ``canonical=True``
    (base-model output) candidates are reordered by descending score.
    Reranked files are loaded with ``canonical=False``: file order is the
    ranking and is preserved. A query has at most one list, and with a
    ``dataset`` each list must name a known query and that query's video.
    """
    video_of = None
    if dataset is not None:
        video_of = {query.query_id: query.video_id for query in dataset.iter_queries()}

    def parse(root) -> list[CandidateList]:
        checked(root, (dict,), "candidates")
        lists: list[CandidateList] = []
        seen: set[str] = set()
        for raw in checked(root["predictions"], (list,), "predictions"):
            checked(raw, (dict,), "prediction")
            video_id = checked(raw["video_id"], (str,), "video_id")
            query_id = checked(raw["query_id"], (str,), "query_id")
            if query_id in seen:
                raise ValueError(f"duplicate candidate list for query '{query_id}'")
            seen.add(query_id)
            if video_of is not None:
                if query_id not in video_of:
                    raise ValidationError(f"candidates for unknown query '{query_id}'")
                if video_id != video_of[query_id]:
                    raise ValueError(
                        f"candidate list for query '{query_id}' names video "
                        f"'{video_id}', but the query is in '{video_of[query_id]}'"
                    )
            segments = []
            candidates = checked(raw["candidates"], (list,), "candidates")
            for c in candidates:
                checked(c, (dict,), "candidate")
                segments.append(CandidateSegment(interval_of(c), _number(c, "score")))
            kept = canonical_order(segments, top_k) if canonical else segments[:top_k]
            lists.append(CandidateList(video_id, query_id, kept))
        return lists

    return read_json_file(path, "candidates file", parse)


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
    """Write a predictions file, its results sorted by query id."""
    records = [
        {"query_id": query_id, "intervals": [[iv.start_s, iv.end_s] for iv in results[query_id]]}
        for query_id in sorted(results)
    ]
    write_json_file({"version": PREDICTIONS_VERSION, "results": records}, path)


def _parse_predictions(root, known: Collection[str] | None) -> dict[str, tuple[TimeInterval, ...]]:
    checked(root, (dict,), "predictions")
    version = root.get("version")
    if version != PREDICTIONS_VERSION:
        raise ValueError(f"version: expected {PREDICTIONS_VERSION!r}, got {version!r}")
    results: dict[str, tuple[TimeInterval, ...]] = {}
    for raw in checked(root["results"], (list,), "results"):
        checked(raw, (dict,), "result")
        query_id = checked(raw["query_id"], (str,), "query_id")
        if query_id in results:
            raise ValueError(f"duplicate result for '{query_id}'")
        if known is not None and query_id not in known:
            raise ValidationError(f"predictions for unknown query '{query_id}'")
        intervals = []
        for pair in checked(raw["intervals"], (list,), "intervals"):
            if len(checked(pair, (list,), "interval")) != 2:
                raise ValueError(f"interval: expected [start_s, end_s], got {pair!r}")
            start, end = (float(checked(t, NUMBER, "interval bound")) for t in pair)
            intervals.append(TimeInterval(start, end))
        if not intervals:
            raise ValueError(f"query '{query_id}' has no predicted intervals")
        results[query_id] = tuple(intervals)
    return results


def load_predictions(
    path: str | Path, dataset: Dataset | None = None
) -> dict[str, tuple[TimeInterval, ...]]:
    """The predictions file ``path``; with a ``dataset`` every result must
    name one of its queries."""
    known = None if dataset is None else {query.query_id for query in dataset.iter_queries()}
    return read_json_file(path, "predictions file", lambda root: _parse_predictions(root, known))
