"""Decompose candidate segments into fixed-length clips and frame manifests.

A candidate interval is cut into contiguous clips of ``clip_len_s``
seconds (a shorter tail is kept in full), and each clip is sampled at
``fps`` starting from its own start time. Intervals are half-open, so
clip boundaries are never double-counted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .core import CandidateKey, CandidateSegment, TimeInterval
from .errors import SchemaViolation, ZeroLengthSegmentError
from .ingest import atomic_writer

DEFAULT_CLIP_LEN_S = 20.0
DEFAULT_FPS = 1.0

# Tolerance for the clip-cover property; also guards against a float
# overshoot creating an empty tail clip.
COVER_TOLERANCE_S = 1e-9


@dataclass(frozen=True, slots=True)
class ClipPlan:
    """Clips covering one candidate plus the frame timestamps per clip."""

    candidate_key: CandidateKey
    clips: tuple[TimeInterval, ...]
    frames: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "clips", tuple(self.clips))
        object.__setattr__(self, "frames", tuple(tuple(f) for f in self.frames))
        if not self.clips:
            raise SchemaViolation("clips", "plan has no clips")
        if len(self.clips) != len(self.frames):
            raise SchemaViolation(
                "frames",
                f"{len(self.frames)} frame groups for {len(self.clips)} clips",
            )
        previous = None
        for clip, timestamps in zip(self.clips, self.frames):
            if previous is not None and abs(clip.start_s - previous.end_s) > 1e-6:
                raise SchemaViolation(
                    "clips", f"gap between clips at {previous.end_s} -> {clip.start_s}"
                )
            previous = clip
            if not timestamps:
                raise SchemaViolation(
                    "frame_timestamps",
                    f"clip [{clip.start_s}, {clip.end_s}) has no frames",
                )
            for t in timestamps:
                if not clip.start_s <= t < clip.end_s:
                    raise SchemaViolation(
                        "frame_timestamps",
                        f"timestamp {t} outside clip [{clip.start_s}, {clip.end_s})",
                    )

    @property
    def interval(self) -> TimeInterval:
        return TimeInterval(self.clips[0].start_s, self.clips[-1].end_s)

    @property
    def total_frames(self) -> int:
        return sum(len(group) for group in self.frames)


def plan_clips(segment: TimeInterval, clip_len_s: float = DEFAULT_CLIP_LEN_S) -> tuple[TimeInterval, ...]:
    """Cut a segment into contiguous clips of ``clip_len_s`` seconds.

    All clips have length ``clip_len_s`` except a possibly shorter tail,
    which is kept whatever its length. The union of the clips is exactly
    the input segment.
    """
    if clip_len_s <= 0 or not math.isfinite(clip_len_s):
        raise SchemaViolation("clip_len_s", f"must be a positive number, got {clip_len_s}")
    if segment.duration_s <= 0:
        raise ZeroLengthSegmentError(
            f"segment [{segment.start_s}, {segment.end_s}) has no duration"
        )
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


def plan_candidate(
    candidate: CandidateSegment,
    clip_len_s: float = DEFAULT_CLIP_LEN_S,
    fps: float = DEFAULT_FPS,
    *,
    video_id: str,
    query_id: str,
) -> ClipPlan:
    """Compose clip cutting and frame sampling for one candidate.

    No clip gets more than ``ceil(clip_len_s * fps)`` frames. Cut points
    and the candidate end are separate sums, so a full clip can be a few
    ulps longer than ``clip_len_s``; ``sample_frames`` would then give it
    one frame more.
    """
    clips = plan_clips(candidate.interval, clip_len_s)
    frames = tuple(
        sample_frames(clip, fps)[: math.ceil(clip_len_s * fps)] for clip in clips
    )
    key = CandidateKey(video_id, query_id, candidate.rank)
    return ClipPlan(key, clips, frames)


def write_frame_manifests(plans: Iterable[ClipPlan], path: str | Path) -> int:
    """Write one JSON-Lines record per clip; returns the record count."""
    records = []
    for plan in plans:
        for clip, timestamps in zip(plan.clips, plan.frames):
            records.append(
                {
                    "video_id": plan.candidate_key.video_id,
                    "query_id": plan.candidate_key.query_id,
                    "rank": plan.candidate_key.rank,
                    "clip_start_s": clip.start_s,
                    "clip_end_s": clip.end_s,
                    "frame_timestamps": list(timestamps),
                }
            )
    records.sort(
        key=lambda r: (r["video_id"], r["query_id"], r["rank"], r["clip_start_s"])
    )
    with atomic_writer(path) as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def read_frame_manifests(path: str | Path) -> list[ClipPlan]:
    """Rebuild per-candidate clip plans from a manifest file."""
    groups: dict[CandidateKey, list[tuple[TimeInterval, tuple[float, ...]]]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaViolation(
                    "manifest", f"{path}:{line_no}: invalid JSON ({exc.msg})"
                ) from exc
            try:
                key = CandidateKey(
                    record["video_id"], record["query_id"], record["rank"]
                )
                clip = TimeInterval(record["clip_start_s"], record["clip_end_s"])
                timestamps = tuple(float(t) for t in record["frame_timestamps"])
            except KeyError as exc:
                raise SchemaViolation(
                    "manifest", f"{path}:{line_no}: missing field {exc}"
                ) from exc
            groups.setdefault(key, []).append((clip, timestamps))
    plans = []
    for key in sorted(groups):
        entries = sorted(groups[key], key=lambda item: item[0].start_s)
        plans.append(
            ClipPlan(
                key,
                tuple(clip for clip, _ in entries),
                tuple(timestamps for _, timestamps in entries),
            )
        )
    return plans
