import sys
import threading
import time

import pytest

from memrerank import (
    Backend,
    BackendRequest,
    BackendResponse,
    FrameRef,
    NarrationCache,
    NarrationEngine,
    PromptTemplate,
    build_episodic_memory,
    plan_candidate,
    render_memory,
)
from memrerank import narration
from memrerank.errors import (
    BackendUnavailableError,
    EmptyNarrationError,
    ImageLimitExceededError,
    MissingNarrationError,
)
from memrerank.narration import NarrationCacheKey
from memrerank.synth import ScenarioKnobs, generate_scenario, stub_backend

from helpers import candidate, interval, tiny_scenario


class FixedBackend(Backend):
    """Replies with a constant narration; optionally fails first."""

    backend_id = "fixed"

    def __init__(self, text="a steady narration", failures=0, empties=0):
        super().__init__()
        self.failures = failures
        self.empties = empties

    def _narrate(self, request):
        if self.failures > 0:
            self.failures -= 1
            raise BackendUnavailableError("flaky")
        if self.empties > 0:
            self.empties -= 1
            return BackendResponse(text="   ", backend_id=self.backend_id)
        return BackendResponse(
            text=f"a steady narration of {len(request.images)} frames",
            backend_id=self.backend_id,
        )

    def _select(self, prompt):
        return BackendResponse(text="1", backend_id=self.backend_id)


class GaugeBackend(Backend):
    """Records the most narration requests it ever had in flight at once."""

    backend_id = "gauge"

    def __init__(self, delay_s=0.005):
        super().__init__()
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0

    def _narrate(self, request):
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(self.delay_s)
        with self.lock:
            self.in_flight -= 1
        return BackendResponse(text="ok", backend_id=self.backend_id)

    def _select(self, prompt):
        return BackendResponse(text="1", backend_id=self.backend_id)


def plan_for(start, end, rank=1, video_id="v0", query_id="v0-q000"):
    return plan_candidate(
        candidate(start, end, 0.9, rank), 20.0, 1.0, video_id=video_id, query_id=query_id
    )


class TestBackendRequest:
    def test_image_cap_enforced(self):
        frames = tuple(FrameRef("v0", float(t)) for t in range(21))
        with pytest.raises(ImageLimitExceededError):
            BackendRequest("v0", interval(0, 21), frames)

    def test_at_least_one_image(self):
        with pytest.raises(ImageLimitExceededError):
            BackendRequest("v0", interval(0, 21), ())


class TestNarrateClip:
    def test_stub_digest_lists_overlapping_events(self):
        # Clip [55, 75) overlaps scripted e1 [50, 62) and e2 [70, 95);
        # overlap computed here by direct interval intersection.
        scenario = tiny_scenario()
        script = scenario.script_by_video()["v0"]
        clip = interval(55, 75)
        expected = [e.label for e in script if e.interval.overlaps(clip)]
        assert expected == ["e1", "e2"]
        engine = NarrationEngine(stub_backend(scenario))
        text = engine.narrate_clip("v0", clip, (55.0, 60.0, 70.0))
        assert text == "events: e1; e2"

    def test_clip_overlapping_nothing(self):
        scenario = tiny_scenario()
        engine = NarrationEngine(stub_backend(scenario))
        assert engine.narrate_clip("v0", interval(42, 48), (42.0,)) == "events: none"

    def test_cache_hit_skips_backend(self):
        backend = FixedBackend()
        engine = NarrationEngine(backend)
        first = engine.narrate_clip("v0", interval(0, 10), (0.0, 1.0))
        calls_after_first = backend.narrate_calls
        second = engine.narrate_clip("v0", interval(0, 10), (0.0, 1.0))
        assert first == second
        assert backend.narrate_calls == calls_after_first
        assert engine.stats()["cache_hits"] == 1

    def test_frame_cap(self):
        engine = NarrationEngine(FixedBackend())
        with pytest.raises(ImageLimitExceededError):
            engine.narrate_clip("v0", interval(0, 21), tuple(float(t) for t in range(21)))

    def test_retries_then_succeeds(self):
        sleeps = []
        backend = FixedBackend(failures=2)
        engine = NarrationEngine(backend, sleep=sleeps.append)
        text = engine.narrate_clip("v0", interval(0, 5), (0.0,))
        assert "steady narration" in text
        assert sleeps == [1.0, 2.0]
        assert backend.narrate_calls == 3

    def test_persistent_failure_exhausts_backoff(self):
        sleeps = []
        backend = FixedBackend(failures=99)
        engine = NarrationEngine(backend, sleep=sleeps.append)
        with pytest.raises(BackendUnavailableError):
            engine.narrate_clip("v0", interval(0, 5), (0.0,))
        assert sleeps == [1.0, 2.0, 4.0]
        assert backend.narrate_calls == 4

    def test_empty_output_retried_then_reported(self):
        sleeps = []
        backend = FixedBackend(empties=99)
        engine = NarrationEngine(backend, sleep=sleeps.append)
        with pytest.raises(EmptyNarrationError):
            engine.narrate_clip("v0", interval(0, 5), (0.0,))
        assert sleeps == [1.0, 2.0, 4.0]

    def test_empty_then_good_output(self):
        backend = FixedBackend(empties=1)
        engine = NarrationEngine(backend, sleep=lambda s: None)
        assert "steady narration" in engine.narrate_clip("v0", interval(0, 5), (0.0,))


class TestNarrationCache:
    def _key(self, start=0.0, end=10.0):
        return NarrationCacheKey("v0", start, end, "narr-x", "fixed")

    def test_persistent_round_trip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = NarrationCache(path)
        cache.put(self._key(), "hello")
        cache.close()
        reloaded = NarrationCache(path)
        assert reloaded.get(self._key()) == "hello"
        assert len(reloaded) == 1

    def test_corrupt_record_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        cache = NarrationCache(path)
        cache.put(self._key(), "hello")
        cache.put(self._key(5.0, 15.0), "world")
        cache.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.insert(1, "{ this is not json")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            reloaded = NarrationCache(path)
        assert len(reloaded) == 2
        assert any("corrupt" in message for message in caplog.messages)

    def test_warm_cache_issues_zero_backend_calls(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        plan = plan_for(0.0, 45.0)
        first_backend = FixedBackend()
        with NarrationEngine(first_backend, NarrationCache(path)) as engine:
            [memory_first] = engine.narrate_plans([plan])
        assert first_backend.narrate_calls == 3
        second_backend = FixedBackend()
        with NarrationEngine(second_backend, NarrationCache(path)) as engine:
            [memory_second] = engine.narrate_plans([plan])
        assert second_backend.narrate_calls == 0
        assert memory_first == memory_second
        assert render_memory(memory_first) == render_memory(memory_second)


class TestBuildEpisodicMemory:
    def test_entries_ordered_regardless_of_mapping_order(self):
        plan = plan_for(0.0, 60.0)
        narrations = {
            plan.clips[2]: "third",
            plan.clips[0]: "first",
            plan.clips[1]: "second",
        }
        memory = build_episodic_memory(
            plan.candidate_key, plan, narrations, prompt_version="p1", backend_id="b"
        )
        assert [e.narration for e in memory.entries] == ["first", "second", "third"]
        assert memory.span == interval(0, 60)

    def test_single_clip(self):
        plan = plan_for(3.0, 9.0)
        memory = build_episodic_memory(
            plan.candidate_key,
            plan,
            {plan.clips[0]: "only"},
            prompt_version="p1",
            backend_id="b",
        )
        assert len(memory.entries) == 1

    def test_missing_narration_rejected(self):
        plan = plan_for(0.0, 60.0)
        narrations = {plan.clips[0]: "first", plan.clips[2]: "third"}
        with pytest.raises(MissingNarrationError):
            build_episodic_memory(
                plan.candidate_key, plan, narrations, prompt_version="p1", backend_id="b"
            )

    def test_zero_entry_memory_is_unrepresentable(self):
        from memrerank import EpisodicMemory
        from memrerank.core import CandidateKey

        with pytest.raises(MissingNarrationError):
            EpisodicMemory(
                candidate_key=CandidateKey("v0", "q0", 1),
                entries=(),
                prompt_version="p1",
                backend_id="b",
            )


class TestRenderMemory:
    def _memory(self):
        plan = plan_for(0.0, 40.0, rank=2)
        return build_episodic_memory(
            plan.candidate_key,
            plan,
            {plan.clips[0]: "A", plan.clips[1]: "B"},
            prompt_version="p1",
            backend_id="b",
        )

    def test_format(self):
        text = render_memory(self._memory())
        assert text.splitlines() == [
            "candidate 2 [0-40]s",
            "[0-20]s: A",
            "[20-40]s: B",
        ]

    def test_byte_identical_rendering(self):
        memory = self._memory()
        assert render_memory(memory) == render_memory(memory)


class TestConcurrency:
    def test_bounded_fan_out(self):
        c_max = 3
        backend = GaugeBackend()
        plan = plan_for(0.0, 400.0)
        assert len(plan.clips) == 20
        with NarrationEngine(backend, c_max=c_max) as engine:
            engine.narrate_plans([plan])
        assert backend.narrate_calls == 20
        assert 1 <= backend.max_in_flight <= c_max

    def test_memory_invariant_to_completion_order(self):
        scenario = tiny_scenario()
        plan = plan_for(10.0, 95.0)
        with NarrationEngine(stub_backend(scenario), c_max=4) as engine:
            concurrent = engine.narrate_plans([plan])
        with NarrationEngine(stub_backend(scenario), c_max=1) as engine:
            sequential = engine.narrate_plans([plan])
        assert concurrent == sequential


class TestNarratePlans:
    def test_fan_out_spans_candidates(self):
        # Eight single-clip candidates: a per-candidate pool never has more
        # than one request in flight.
        backend = GaugeBackend(delay_s=0.05)
        plans = [plan_for(20.0 * i, 20.0 * i + 10.0, rank=i + 1) for i in range(8)]
        with NarrationEngine(backend, c_max=4) as engine:
            engine.narrate_plans(plans)
        assert backend.narrate_calls == 8
        assert backend.max_in_flight == 4

    def test_shared_clip_narrated_once(self):
        backend = GaugeBackend(delay_s=0.01)
        plans = [
            plan_for(30.0, 45.0, rank=1, query_id="v0-q000"),
            plan_for(30.0, 45.0, rank=3, query_id="v0-q001"),
        ]
        with NarrationEngine(backend, c_max=4) as engine:
            first, second = engine.narrate_plans(plans)
            stats = engine.stats()
        assert backend.narrate_calls == 1
        assert [e.narration for e in first.entries] == ["ok"]
        assert [e.narration for e in second.entries] == ["ok"]
        assert stats["clips_requested"] == 2
        assert stats["clips_unique"] == 1
        assert stats["cache_misses"] == 1

    def test_each_key_narrated_once_under_thread_churn(self):
        # More workers than cores and a short switch interval: a lost update
        # in the hand-out would narrate some key twice or not at all.
        plans = [
            plan_for(20.0 * (i % 50), 20.0 * (i % 50) + 10.0, query_id=f"v0-q{i:03d}")
            for i in range(200)
        ]
        backend = FixedBackend()
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with NarrationEngine(backend, c_max=8) as engine:
                memories = engine.narrate_plans(plans)
        finally:
            sys.setswitchinterval(switch_interval)
        assert backend.narrate_calls == 50
        assert engine.stats()["clips_unique"] == 50
        assert [m.candidate_key for m in memories] == [p.candidate_key for p in plans]

    def test_warm_cache_starts_no_thread(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        plans = [plan_for(0.0, 45.0, rank=1), plan_for(50.0, 70.0, rank=2)]
        with NarrationEngine(FixedBackend(), NarrationCache(path), c_max=4) as engine:
            cold = engine.narrate_plans(plans)

        def no_threads(*args, **kwargs):
            raise AssertionError("a warm cache must not start a worker thread")

        monkeypatch.setattr(narration.threading, "Thread", no_threads)
        backend = FixedBackend()
        with NarrationEngine(backend, NarrationCache(path), c_max=4) as engine:
            warm = engine.narrate_plans(plans)
            stats = engine.stats()
        assert backend.narrate_calls == 0
        assert warm == cold
        assert stats["cache_hits"] == 4
        assert stats["cache_misses"] == 0

    def test_exhausted_retries_keep_finished_narrations(self, tmp_path):
        class BrokenClipBackend(GaugeBackend):
            def _narrate(self, request):
                if request.images[0].timestamp_s == 40.0:
                    raise BackendUnavailableError("down for this clip")
                return super()._narrate(request)

        path = tmp_path / "cache.jsonl"
        plans = [plan_for(20.0 * i, 20.0 * i + 10.0, rank=i + 1) for i in range(8)]
        backend = BrokenClipBackend(delay_s=0.02)
        engine = NarrationEngine(
            backend, NarrationCache(path), c_max=2, sleep=lambda s: None
        )
        with pytest.raises(BackendUnavailableError):
            engine.narrate_plans(plans)
        engine.close()
        # The third clip fails four attempts; the hand-out stops there, so
        # the second worker finishes at most one more clip.
        finished = backend.narrate_calls - 4
        assert 2 <= finished <= 3
        assert len(NarrationCache(path)) == finished
        resumed = GaugeBackend(delay_s=0.0)
        with NarrationEngine(resumed, NarrationCache(path)) as engine:
            engine.narrate_plans(plans)
        assert resumed.narrate_calls == 8 - finished

    def test_interrupt_stops_the_hand_out(self, monkeypatch):
        started = []
        thread_class = threading.Thread

        class InterruptedJoin(thread_class):
            def start(self):
                started.append(self)
                super().start()

            def join(self, timeout=None):
                raise KeyboardInterrupt

        monkeypatch.setattr(narration.threading, "Thread", InterruptedJoin)
        backend = GaugeBackend(delay_s=0.05)
        plans = [plan_for(20.0 * i, 20.0 * i + 10.0, rank=i + 1) for i in range(20)]
        with pytest.raises(KeyboardInterrupt):
            NarrationEngine(backend, c_max=2).narrate_plans(plans)
        for worker in started:
            thread_class.join(worker, timeout=5)
            assert not worker.is_alive()
        assert backend.narrate_calls <= 4

    def test_memories_independent_of_c_max(self):
        knobs = ScenarioKnobs(num_videos=3, queries_per_video=3, candidates_per_query=5)
        scenario = generate_scenario(knobs, seed=11)
        plans = [
            plan_candidate(c, 20.0, 1.0, video_id=clist.video_id, query_id=clist.query_id)
            for clist in scenario.candidates
            for c in clist.candidates
        ]
        assert len({plan.candidate_key.video_id for plan in plans}) == 3
        with NarrationEngine(stub_backend(scenario), c_max=4) as engine:
            concurrent = engine.narrate_plans(plans)
        with NarrationEngine(stub_backend(scenario), c_max=1) as engine:
            sequential = engine.narrate_plans(plans)
        assert concurrent == sequential
        assert [m.candidate_key for m in concurrent] == [p.candidate_key for p in plans]


class TestPromptTemplate:
    def test_version_tracks_text(self):
        a = PromptTemplate("describe the frames")
        b = PromptTemplate("describe the frames differently")
        assert a.version != b.version
        assert a.version == PromptTemplate("describe the frames").version

    def test_from_file(self, tmp_path):
        path = tmp_path / "prompt.txt"
        path.write_text("narrate the clip\n", encoding="utf-8")
        template = PromptTemplate.from_file(path)
        assert template.text == "narrate the clip"

    def test_engine_keys_cache_by_prompt_version(self):
        backend = FixedBackend()
        cache = NarrationCache()
        engine_a = NarrationEngine(backend, cache, prompt=PromptTemplate("one"))
        engine_b = NarrationEngine(backend, cache, prompt=PromptTemplate("two"))
        engine_a.narrate_clip("v0", interval(0, 5), (0.0,))
        engine_b.narrate_clip("v0", interval(0, 5), (0.0,))
        assert backend.narrate_calls == 2
