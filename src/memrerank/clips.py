"""Decompose candidate segments into fixed-length clips and frame manifests.

A candidate interval is cut into contiguous clips of ``clip_len_s``
seconds (a shorter tail is kept in full), and each clip is sampled at
``fps`` from its own start time (:func:`clip_frames`). Intervals are
half-open, so clip boundaries are never double-counted. A manifest holds
one JSON-Lines record per clip, written and read through
:mod:`memrerank.ingest`: its bounds and the run's ``fps`` and
``clip_len_s``, from which the frames are derived, not stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .core import NUMBER, CandidateKey, TimeInterval, checked, clip_bounds
from .errors import SchemaViolation, ValidationError
from .ingest import read_jsonl, write_jsonl

DEFAULT_CLIP_LEN_S = 20.0
DEFAULT_FPS = 1.0

# Tolerance for the clip-cover property; also guards against a float
# overshoot creating an empty tail clip.
COVER_TOLERANCE_S = 1e-9


@dataclass(frozen=True, slots=True)
class ClipPlan:
    """Clips covering one candidate, sampled as :func:`clip_frames` says."""

    candidate_key: CandidateKey
    clips: tuple[TimeInterval, ...]
    fps: float
    clip_len_s: float

    def __post_init__(self):
        object.__setattr__(self, "clips", tuple(self.clips))
        for name in ("fps", "clip_len_s"):
            value = getattr(self, name)
            if type(value) not in NUMBER or not 0 < value < math.inf:
                raise SchemaViolation(name, f"must be a positive number, got {value!r}")
        if not self.clips:
            raise SchemaViolation("clips", "plan has no clips")
        previous = None
        for clip in self.clips:
            if clip.duration_s <= 0:
                raise SchemaViolation("clips", f"clip [{clip.start_s}, {clip.end_s}) is empty")
            if previous is not None and abs(clip.start_s - previous.end_s) > 1e-6:
                raise SchemaViolation(
                    "clips", f"gap between clips at {previous.end_s} -> {clip.start_s}"
                )
            previous = clip

    @property
    def frames(self) -> tuple[tuple[float, ...], ...]:
        """The frame timestamps of each clip."""
        return tuple(clip_frames(clip, self.fps, self.clip_len_s) for clip in self.clips)


def plan_clips(segment: TimeInterval, clip_len_s: float = DEFAULT_CLIP_LEN_S) -> tuple[TimeInterval, ...]:
    """Cut a segment into contiguous clips of ``clip_len_s`` seconds.

    All clips have length ``clip_len_s`` except a possibly shorter tail,
    which is kept whatever its length. The union of the clips is exactly
    the input segment.
    """
    if clip_len_s <= 0 or not math.isfinite(clip_len_s):
        raise SchemaViolation("clip_len_s", f"must be a positive number, got {clip_len_s}")
    if segment.duration_s <= 0:
        raise ValidationError(f"segment [{segment.start_s}, {segment.end_s}) has no duration")
    count = max(1, math.ceil(segment.duration_s / clip_len_s))
    bounds = [segment.start_s]
    for i in range(1, count):
        cut = segment.start_s + i * clip_len_s
        if cut < segment.end_s - COVER_TOLERANCE_S:
            bounds.append(cut)
    bounds.append(segment.end_s)
    return tuple(TimeInterval(a, b) for a, b in zip(bounds, bounds[1:]))


def sample_frames(clip: TimeInterval, fps: float = DEFAULT_FPS) -> tuple[float, ...]:
    """Timestamps ``start + n/fps`` for n = 0, 1, ... strictly inside the clip.

    The first timestamp (the clip start) is always included, so the result
    is never empty even for degenerate clips.
    """
    if fps <= 0 or not math.isfinite(fps):
        raise SchemaViolation("fps", f"must be a positive number, got {fps}")
    timestamps = [clip.start_s]
    n = 1
    while True:
        t = clip.start_s + n / fps
        if t >= clip.end_s:
            break
        timestamps.append(t)
        n += 1
    return tuple(timestamps)


def clip_frames(clip: TimeInterval, fps: float, clip_len_s: float) -> tuple[float, ...]:
    """``sample_frames`` capped at ``ceil(clip_len_s * fps)``: a full clip
    can be a few ulps longer than ``clip_len_s`` (cut points and the
    candidate end are separate sums), which would give it one frame more."""
    return sample_frames(clip, fps)[: math.ceil(clip_len_s * fps)]


def plan_candidate(
    key: CandidateKey,
    interval: TimeInterval,
    clip_len_s: float = DEFAULT_CLIP_LEN_S,
    fps: float = DEFAULT_FPS,
) -> ClipPlan:
    """Cut candidate ``key``, which spans ``interval``, into clips, to be
    sampled at ``fps``."""
    return ClipPlan(key, plan_clips(interval, clip_len_s), fps, clip_len_s)


def write_frame_manifests(plans: Iterable[ClipPlan], path: str | Path) -> int:
    """Write one JSON-Lines record per clip; returns the record count."""
    records = []
    for plan in plans:
        for clip in plan.clips:
            records.append(
                {
                    "video_id": plan.candidate_key.video_id,
                    "query_id": plan.candidate_key.query_id,
                    "rank": plan.candidate_key.rank,
                    "clip_start_s": clip.start_s,
                    "clip_end_s": clip.end_s,
                    "fps": plan.fps,
                    "clip_len_s": plan.clip_len_s,
                }
            )
    records.sort(
        key=lambda r: (r["video_id"], r["query_id"], r["rank"], r["clip_start_s"])
    )
    write_jsonl(records, path)
    return len(records)


def _manifest_entry(record) -> tuple[CandidateKey, TimeInterval, tuple[float, float]]:
    if "frame_timestamps" in record:
        raise ValueError("frame_timestamps is the old manifest format; re-run plan")
    sampling = (
        checked(record["fps"], NUMBER, "fps"),
        checked(record["clip_len_s"], NUMBER, "clip_len_s"),
    )
    return CandidateKey.from_record(record), TimeInterval(*clip_bounds(record)), sampling


def read_frame_manifests(path: str | Path) -> list[ClipPlan]:
    """Rebuild per-candidate clip plans from a manifest file.

    The clips of one candidate must share their ``fps`` and ``clip_len_s``.
    """
    groups: dict[CandidateKey, list[tuple[TimeInterval, tuple[float, float]]]] = {}
    for key, clip, sampling in read_jsonl(path, "manifest", _manifest_entry):
        groups.setdefault(key, []).append((clip, sampling))
    plans = []
    for key in sorted(groups):
        entries = sorted(groups[key], key=lambda item: item[0].start_s)
        samplings = {sampling for _, sampling in entries}
        if len(samplings) > 1:
            raise SchemaViolation("fps", f"clips of {key} differ in (fps, clip_len_s)")
        plans.append(ClipPlan(key, tuple(clip for clip, _ in entries), *samplings.pop()))
    return plans
