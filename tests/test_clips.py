import random

import pytest

from memrerank import plan_candidate, plan_clips, sample_frames
from memrerank.clips import ClipPlan, read_frame_manifests, write_frame_manifests
from memrerank.core import CandidateKey
from memrerank.errors import SchemaViolation, ZeroLengthSegmentError

from helpers import candidate, frame_count_oracle, interval


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
        with pytest.raises(ZeroLengthSegmentError):
            plan_clips(interval(5.0, 5.0), 20.0)

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
        plan = plan_candidate(
            candidate(0.0, 45.0, 0.9, 1), 20.0, 1.0, video_id="v0", query_id="q0"
        )
        assert [len(group) for group in plan.frames] == [20, 20, 5]
        assert plan.total_frames == expected_total == 45

    def test_single_clip(self):
        plan = plan_candidate(
            candidate(0.0, 20.0, 0.9, 1), 20.0, 1.0, video_id="v0", query_id="q0"
        )
        assert len(plan.clips) == 1
        assert plan.total_frames == 20

    def test_full_clip_a_few_ulps_long_keeps_its_frame_cap(self):
        # 25.511 + 20 rounds below the cut 5.511 + 40, so stepping
        # sample_frames would give the second clip a 21st frame.
        plan = plan_candidate(
            candidate(5.511, 81.704, 0.9, 1), 20.0, 1.0, video_id="v0", query_id="q0"
        )
        assert plan.clips[1] == interval(25.511, 45.511)
        assert len(sample_frames(plan.clips[1], 1.0)) == 21
        assert [len(group) for group in plan.frames] == [20, 20, 20, 17]
        assert plan.frames[1] == sample_frames(plan.clips[1], 1.0)[:20]

    def test_sub_second_candidate(self):
        plan = plan_candidate(
            candidate(3.5, 4.0, 0.9, 2), 20.0, 1.0, video_id="v0", query_id="q0"
        )
        assert plan.clips == (interval(3.5, 4.0),)
        assert plan.frames == ((3.5,),)
        assert plan.candidate_key == CandidateKey("v0", "q0", 2)

    def test_determinism(self):
        a = plan_candidate(
            candidate(7.25, 63.1, 0.4, 3), 20.0, 1.0, video_id="v1", query_id="q9"
        )
        b = plan_candidate(
            candidate(7.25, 63.1, 0.4, 3), 20.0, 1.0, video_id="v1", query_id="q9"
        )
        assert a == b


class TestClipPlanInvariants:
    def test_frames_must_lie_inside_clip(self):
        with pytest.raises(SchemaViolation):
            ClipPlan(
                CandidateKey("v0", "q0", 1),
                (interval(0, 10),),
                ((12.0,),),
            )

    def test_clips_must_be_contiguous(self):
        with pytest.raises(SchemaViolation):
            ClipPlan(
                CandidateKey("v0", "q0", 1),
                (interval(0, 10), interval(11, 20)),
                ((0.0,), (11.0,)),
            )


class TestManifestRoundTrip:
    def test_round_trip(self, tmp_path):
        plans = [
            plan_candidate(
                candidate(0.0, 45.0, 0.9, 1), 20.0, 1.0, video_id="v0", query_id="q0"
            ),
            plan_candidate(
                candidate(12.5, 30.0, 0.8, 2), 20.0, 1.0, video_id="v0", query_id="q0"
            ),
        ]
        path = tmp_path / "manifests.jsonl"
        count = write_frame_manifests(plans, path)
        assert count == 4
        loaded = read_frame_manifests(path)
        assert sorted(loaded, key=lambda p: p.candidate_key) == sorted(
            plans, key=lambda p: p.candidate_key
        )

    def test_write_is_deterministic(self, tmp_path):
        plans = [
            plan_candidate(
                candidate(1.0, 33.0, 0.9, 1), 20.0, 1.0, video_id="v0", query_id="q0"
            )
        ]
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_frame_manifests(plans, first)
        write_frame_manifests(plans, second)
        assert first.read_bytes() == second.read_bytes()
