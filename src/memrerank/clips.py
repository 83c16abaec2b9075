"""Decompose candidate segments into fixed-length clips and frame manifests.

A candidate interval is cut into contiguous clips of ``clip_len_s``
seconds (a shorter tail is kept in full), and each clip is sampled at
``fps`` from its own start time (:func:`clip_frames`). Intervals are
half-open, so clip boundaries are never double-counted. A manifest holds
one JSON-Lines record per candidate, written and read through
:mod:`memrerank.ingest`: its span and the run's ``fps`` and
``clip_len_s``, from which its clips and their frames are derived, not
stored.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .core import NUMBER, CandidateKey, TimeInterval, interval_of
from .errors import SchemaViolation, ValidationError
from .ingest import read_jsonl, write_jsonl

DEFAULT_CLIP_LEN_S = 20.0
DEFAULT_FPS = 1.0
# The most clips a candidate is cut into; a shorter clip_len_s is refused.
MAX_CLIPS_PER_CANDIDATE = 10_000
# The most frames a clip is sampled into: the images one narration request holds.
MAX_FRAMES_PER_CLIP = 20

# Tolerance for the clip-cover property; also guards against a float
# overshoot creating an empty tail clip.
COVER_TOLERANCE_S = 1e-9


def check_sampling(fps, clip_len_s) -> None:
    """The sampling rule, or ``SchemaViolation`` naming its field: ``fps`` and
    ``clip_len_s`` are positive finite numbers, and a clip's ``ceil(clip_len_s *
    fps)`` frames are at most ``MAX_FRAMES_PER_CLIP``, exactly when the product is."""
    for name, value in (("fps", fps), ("clip_len_s", clip_len_s)):
        # An integer past the float range is refused before any product overflows.
        if type(value) not in NUMBER or not 0 < value <= sys.float_info.max:
            raise SchemaViolation(
                name, f"must be a positive finite number, got {reprlib.repr(value)}"
            )
    if clip_len_s * fps > MAX_FRAMES_PER_CLIP:
        raise SchemaViolation(
            "clip_len_s * fps",
            f"{reprlib.repr(clip_len_s)} s clips at {reprlib.repr(fps)} fps exceed the "
            f"per-request cap of {MAX_FRAMES_PER_CLIP} frames",
        )


@dataclass(frozen=True, slots=True)
class ClipPlan:
    """One candidate's span and a sampling that keeps :func:`check_sampling`.
    Its clips (:func:`plan_clips`) are derived once, when it is built;
    their frames (:func:`clip_frames`) on each read."""

    candidate_key: CandidateKey
    span: TimeInterval
    fps: float
    clip_len_s: float
    clips: tuple[TimeInterval, ...] = field(init=False)

    def __post_init__(self):
        check_sampling(self.fps, self.clip_len_s)
        object.__setattr__(self, "clips", plan_clips(self.span, self.clip_len_s))

    @property
    def frames(self) -> tuple[tuple[float, ...], ...]:
        """The frame timestamps of each clip."""
        return tuple(clip_frames(clip, self.fps, self.clip_len_s) for clip in self.clips)


def plan_clips(segment: TimeInterval, clip_len_s: float = DEFAULT_CLIP_LEN_S) -> tuple[TimeInterval, ...]:
    """Cut a segment into contiguous clips of ``clip_len_s`` seconds.

    All clips have length ``clip_len_s`` except a possibly shorter tail,
    which is kept whatever its length. The union of the clips is exactly
    the input segment. A ``clip_len_s`` that would make more than
    ``MAX_CLIPS_PER_CANDIDATE`` clips is refused before any is built.
    """
    if segment.duration_s <= 0:
        raise ValidationError(f"segment [{segment.start_s}, {segment.end_s}) has no duration")
    count = segment.duration_s / clip_len_s  # inf for a subnormal clip_len_s
    if count > MAX_CLIPS_PER_CANDIDATE:
        raise SchemaViolation(
            "clip_len_s",
            f"{clip_len_s!r} cuts a {segment.duration_s!r} s candidate into more than "
            f"{MAX_CLIPS_PER_CANDIDATE} clips",
        )
    count = max(1, math.ceil(count))
    bounds = [segment.start_s]
    for i in range(1, count):
        cut = segment.start_s + i * clip_len_s
        if cut < segment.end_s - COVER_TOLERANCE_S:
            bounds.append(cut)
    bounds.append(segment.end_s)
    return tuple(TimeInterval(a, b) for a, b in zip(bounds, bounds[1:]))


def sample_frames(clip: TimeInterval, fps: float = DEFAULT_FPS) -> tuple[float, ...]:
    """Timestamps ``start + n/fps`` for n = 0, 1, ... strictly inside the clip.

    The clip start is always included, so the result is never empty, even
    for a degenerate clip. ``fps`` is positive and finite, as ClipPlan checks.
    """
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
    return ClipPlan(key, interval, fps, clip_len_s)


def write_frame_manifests(plans: Iterable[ClipPlan], path: str | Path) -> int:
    """Write one JSON-Lines record per candidate, in key order; returns
    the number of clips they are cut into."""
    plans = sorted(plans, key=lambda plan: plan.candidate_key)
    write_jsonl(
        (
            {
                **plan.candidate_key._asdict(),
                "start_s": plan.span.start_s,
                "end_s": plan.span.end_s,
                "fps": plan.fps,
                "clip_len_s": plan.clip_len_s,
            }
            for plan in plans
        ),
        path,
    )
    return sum(len(plan.clips) for plan in plans)


def read_frame_manifests(path: str | Path) -> list[ClipPlan]:
    """The plans of a manifest file, in file order. A candidate listed
    twice, or a record of one clip (the format before this one), names
    its ``path:line``."""
    seen: set[CandidateKey] = set()

    def parse(record) -> ClipPlan:
        if "clip_start_s" in record:
            raise ValueError("a record per clip is the old manifest format; re-run plan")
        key, span = CandidateKey.from_record(record), interval_of(record)
        plan = ClipPlan(key, span, record["fps"], record["clip_len_s"])
        if plan.candidate_key in seen:
            raise ValueError(f"{plan.candidate_key} is listed twice")
        seen.add(plan.candidate_key)
        return plan

    return read_jsonl(path, "manifest", parse)
