import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memrerank.clips import (
    MAX_CLIPS_PER_CANDIDATE,
    MAX_FRAMES_PER_CLIP,
    ClipPlan,
    clip_frames,
    plan_candidate,
    plan_clips,
    read_frame_manifests,
    sample_frames,
    write_frame_manifests,
)
from memrerank.core import CandidateKey
from memrerank.errors import SchemaViolation, ValidationError

from helpers import frame_count_oracle, interval


class TestPlanClips:
    def test_exact_multiple(self):
        clips = plan_clips(interval(100.0, 160.0), 20.0)
        assert [(c.start_s, c.end_s) for c in clips] == [
            (100.0, 120.0),
            (120.0, 140.0),
            (140.0, 160.0),
        ]

    def test_short_tail_kept(self):
        clips = plan_clips(interval(0.0, 45.0), 20.0)
        assert [(c.start_s, c.end_s) for c in clips] == [
            (0.0, 20.0),
            (20.0, 40.0),
            (40.0, 45.0),
        ]

    def test_degenerate_short_segment(self):
        clips = plan_clips(interval(10.0, 10.4), 20.0)
        assert [(c.start_s, c.end_s) for c in clips] == [(10.0, 10.4)]

    def test_zero_length_rejected(self):
        with pytest.raises(
            ValidationError, match=r"^segment \[5\.0, 5\.0\) has no duration$"
        ):
            plan_clips(interval(5.0, 5.0), 20.0)

    def test_clip_cap_reached_exactly(self):
        segment = interval(0.0, float(MAX_CLIPS_PER_CANDIDATE))
        assert len(plan_clips(segment, 1.0)) == MAX_CLIPS_PER_CANDIDATE

    @pytest.mark.parametrize("clip_len_s", [1e-320, 1e-9, 0.99])
    def test_clip_len_past_the_clip_cap_rejected(self, clip_len_s):
        with pytest.raises(SchemaViolation) as info:
            plan_clips(interval(0.0, float(MAX_CLIPS_PER_CANDIDATE)), clip_len_s)
        assert info.value.field == "clip_len_s"

    def test_cover_property_on_random_segments(self):
        rng = random.Random(20260809)
        for _ in range(1000):
            start = rng.uniform(0.0, 500.0)
            length = rng.uniform(0.05, 90.0)
            segment = interval(start, start + length)
            clips = plan_clips(segment, 20.0)
            assert clips[0].start_s == segment.start_s
            assert clips[-1].end_s == segment.end_s
            total = sum(c.duration_s for c in clips)
            assert abs(total - segment.duration_s) < 1e-9
            for a, b in zip(clips, clips[1:]):
                assert a.end_s == b.start_s
            for c in clips[:-1]:
                assert abs(c.duration_s - 20.0) < 1e-9


class TestSampleFrames:
    def test_full_clip_at_one_fps(self):
        assert sample_frames(interval(0.0, 20.0), 1.0) == tuple(float(t) for t in range(20))

    def test_tail_clip(self):
        assert sample_frames(interval(40.0, 45.0), 1.0) == (40.0, 41.0, 42.0, 43.0, 44.0)

    def test_minimum_one_frame(self):
        assert sample_frames(interval(10.0, 10.4), 1.0) == (10.0,)

    def test_higher_fps(self):
        assert sample_frames(interval(0.0, 1.0), 4.0) == (0.0, 0.25, 0.5, 0.75)

    def test_frame_count_matches_step_walk_oracle(self):
        rng = random.Random(7)
        for _ in range(1000):
            start = rng.uniform(0.0, 500.0)
            length = rng.uniform(0.05, 90.0)
            frames = sample_frames(interval(start, start + length), 1.0)
            assert len(frames) == frame_count_oracle(start, start + length)


class TestPlanCandidate:
    def test_three_clip_plan(self):
        # Independent total: walk t from 0 in 1 s steps over [0, 45).
        expected_total = frame_count_oracle(0.0, 45.0)
        plan = plan_candidate(CandidateKey("v0", "q0", 1), interval(0.0, 45.0), 20.0, 1.0)
        assert [len(group) for group in plan.frames] == [20, 20, 5]
        assert sum(map(len, plan.frames)) == expected_total == 45

    def test_single_clip(self):
        plan = plan_candidate(CandidateKey("v0", "q0", 1), interval(0.0, 20.0), 20.0, 1.0)
        assert len(plan.clips) == 1
        assert [len(group) for group in plan.frames] == [20]

    def test_full_clip_a_few_ulps_long_keeps_its_frame_cap(self):
        # 25.511 + 20 rounds below the cut 5.511 + 40, so stepping
        # sample_frames would give the second clip a 21st frame.
        plan = plan_candidate(CandidateKey("v0", "q0", 1), interval(5.511, 81.704), 20.0, 1.0)
        assert plan.clips[1] == interval(25.511, 45.511)
        assert len(sample_frames(plan.clips[1], 1.0)) == 21
        assert [len(group) for group in plan.frames] == [20, 20, 20, 17]
        assert plan.frames[1] == sample_frames(plan.clips[1], 1.0)[:20]

    def test_sub_second_candidate(self):
        plan = plan_candidate(CandidateKey("v0", "q0", 2), interval(3.5, 4.0), 20.0, 1.0)
        assert plan.clips == (interval(3.5, 4.0),)
        assert plan.frames == ((3.5,),)
        assert plan.candidate_key == CandidateKey("v0", "q0", 2)

    def test_determinism(self):
        a = plan_candidate(CandidateKey("v1", "q9", 3), interval(7.25, 63.1), 20.0, 1.0)
        b = plan_candidate(CandidateKey("v1", "q9", 3), interval(7.25, 63.1), 20.0, 1.0)
        assert a == b


class TestClipPlanInvariants:
    @settings(max_examples=300)
    @given(
        start_ms=st.integers(min_value=0, max_value=500_000),
        length_ms=st.integers(min_value=1, max_value=90_000),
        clip_len_s=st.sampled_from([20.0, 10.0, 7.5, 3.0]),
        fps=st.sampled_from([1.0, 0.5, 2 / 3, 0.3, 2.0]),
    )
    def test_frames_must_lie_inside_clip(self, start_ms, length_ms, clip_len_s, fps):
        # Millisecond bounds, like the 3-decimal candidate files, give
        # clips a few ulps over clip_len_s.
        # A plan refuses 20 s clips at 2 fps, past the request cap, so those
        # draws cut and sample the span without one.
        start, end = start_ms / 1000, (start_ms + length_ms) / 1000
        span = interval(start, end)
        cap = math.ceil(clip_len_s * fps)
        if cap <= MAX_FRAMES_PER_CLIP:
            plan = plan_candidate(CandidateKey("v0", "q0", 1), span, clip_len_s, fps)
            clips, sampled = plan.clips, plan.frames
        else:
            clips = plan_clips(span, clip_len_s)
            sampled = tuple(clip_frames(clip, fps, clip_len_s) for clip in clips)
        assert len(sampled) == len(clips)
        for clip, frames in zip(clips, sampled):
            assert 1 <= len(frames) <= cap
            assert all(clip.start_s <= t < clip.end_s for t in frames)
            assert frames == clip_frames(clip, fps, clip_len_s)

    @pytest.mark.parametrize(
        "fps, clip_len_s",
        [
            (0.0, 20.0), (1.0, -20.0), (math.nan, 20.0), (1.0, math.inf), (True, 20.0), ("1", 20.0),
            (10**400, 20.0), (1.0, 10**400),
        ],
    )
    def test_sampling_must_be_positive_numbers(self, fps, clip_len_s):
        with pytest.raises(SchemaViolation):
            ClipPlan(CandidateKey("v0", "q0", 1), interval(0, 10), fps, clip_len_s)


class TestManifestRoundTrip:
    def test_round_trip(self, tmp_path):
        plans = [
            plan_candidate(CandidateKey("v0", "q0", 1), interval(0.0, 45.0), 20.0, 1.0),
            plan_candidate(CandidateKey("v0", "q0", 2), interval(12.5, 30.0), 20.0, 1.0),
        ]
        path = tmp_path / "manifests.jsonl"
        count = write_frame_manifests(plans, path)
        assert count == 4
        loaded = read_frame_manifests(path)
        assert sorted(loaded, key=lambda p: p.candidate_key) == sorted(
            plans, key=lambda p: p.candidate_key
        )

    @settings(max_examples=100)
    @given(
        spans=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=500_000),
                st.integers(min_value=1, max_value=90_000),
            ).map(lambda ms: (ms[0] / 1000, (ms[0] + ms[1]) / 1000)),
            min_size=1,
            max_size=5,
        ),
        clip_len_s=st.sampled_from([20.0, 10.0, 7.5]),
        fps=st.sampled_from([1.0, 0.5, 2 / 3]),
    )
    # Full clips a few ulps over clip_len_s: the cuts and the end are separate sums.
    @example(spans=[(25.511, 45.511), (5.511, 81.704)], clip_len_s=20.0, fps=1.0)
    def test_read_after_write_gives_the_planned_plans(
        self, tmp_path_factory, spans, clip_len_s, fps
    ):
        plans = [
            plan_candidate(CandidateKey("v0", "q0", rank), interval(*span), clip_len_s, fps)
            for rank, span in enumerate(spans, start=1)
        ]
        path = tmp_path_factory.mktemp("manifest") / "manifests.jsonl"
        assert write_frame_manifests(reversed(plans), path) == sum(len(p.clips) for p in plans)
        assert read_frame_manifests(path) == plans

    def test_write_is_deterministic(self, tmp_path):
        plans = [
            plan_candidate(CandidateKey("v0", "q0", 1), interval(1.0, 33.0), 20.0, 1.0)
        ]
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_frame_manifests(plans, first)
        write_frame_manifests(plans, second)
        assert first.read_bytes() == second.read_bytes()

    def test_record_holds_bounds_and_sampling_not_frames(self, tmp_path):
        plans = [
            plan_candidate(CandidateKey("v0", "q0", 1), interval(5.0, 30.0), 20.0, 0.5)
        ]
        path = tmp_path / "manifests.jsonl"
        write_frame_manifests(plans, path)
        assert [json.loads(line) for line in path.read_text().splitlines()] == [
            {"video_id": "v0", "query_id": "q0", "rank": 1, "start_s": 5.0, "end_s": 30.0,
             "fps": 0.5, "clip_len_s": 20.0}
        ]
        (loaded,) = read_frame_manifests(path)
        assert loaded.frames == ((5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0, 19.0, 21.0, 23.0), (25.0, 27.0, 29.0))

    def test_old_format_record_asks_for_a_new_plan(self, tmp_path):
        path = tmp_path / "manifests.jsonl"
        path.write_text(
            '{"video_id": "v0", "query_id": "q0", "rank": 1, "clip_start_s": 0.0, '
            '"clip_end_s": 2.0, "frame_timestamps": [0.0, 1.0]}\n'
        )
        with pytest.raises(SchemaViolation, match=r"manifests\.jsonl:1: .*re-run plan"):
            read_frame_manifests(path)
