import json
import re
import sys
import threading
import time

import pytest

import memrerank.narration as narration
from memrerank.clips import plan_candidate, plan_clips
from memrerank.core import CandidateKey, EpisodicMemory, MemoryEntry
from memrerank.errors import BackendUnavailableError, SchemaViolation, ValidationError
from memrerank.narration import (
    Backend,
    BackendRequest,
    FrameRef,
    NarrationCache,
    NarrationCacheKey,
    NarrationEngine,
    prompt_version,
    render_memory,
)
from memrerank.synth import ScenarioKnobs, generate_scenario, stub_backend

from helpers import interval, plan_list, tiny_scenario


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
            return "   "
        return f"a steady narration of {len(request.images)} frames"

    def _select(self, prompt):
        return "1"


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
        return "ok"

    def _select(self, prompt):
        return "1"


class FakeClock(narration.Clock):
    """Advances by each wait instead of blocking; records the waits."""

    def __init__(self):
        self.t = 0.0
        self.waits = []

    def now(self):
        return self.t

    def wait(self, condition, timeout):
        self.waits.append(timeout)
        self.t += timeout


class FastClock(narration.Clock):
    """Real time run 100 times faster: a 1 s backoff takes 10 ms."""

    def now(self):
        return time.monotonic() * 100

    def wait(self, condition, timeout):
        condition.wait(timeout / 100)


def plan_for(start, end, rank=1, video_id="v0", query_id="v0-q000"):
    return plan_candidate(CandidateKey(video_id, query_id, rank), interval(start, end), 20.0, 1.0)


def fanned_out(count):
    """``count`` one-clip plans, clip ``i`` at [20 i, 20 i + 10)."""
    return [plan_for(20.0 * i, 20.0 * i + 10.0, rank=i + 1) for i in range(count)]


def interrupt_join(monkeypatch, before=lambda: None):
    """Make the calling thread's join of a worker raise ``KeyboardInterrupt``
    once ``before()`` returns. Returns a function that joins the started
    workers, bounded at 5 s each, and checks that each has ended."""
    started, thread_class = [], threading.Thread

    class InterruptedJoin(thread_class):
        def start(self):
            started.append(self)
            super().start()

        def join(self, timeout=None):
            before()
            raise KeyboardInterrupt

    monkeypatch.setattr(narration.threading, "Thread", InterruptedJoin)

    def join_workers():
        for worker in started:
            thread_class.join(worker, timeout=5)
            assert not worker.is_alive()

    return join_workers


class TestBackendRequest:
    def test_image_cap_enforced(self):
        # A 21 s clip sampled as 20 s clips at 1 fps holds ceil(20 * 1) frames.
        request = BackendRequest("v0", interval(0, 21), 1.0, 20.0)
        assert request.images == tuple(FrameRef("v0", float(t)) for t in range(20))

    def test_at_least_one_image(self):
        request = BackendRequest("v0", interval(3, 3.25), 1.0, 20.0)
        assert request.images == (FrameRef("v0", 3.0),)


class TestNarrateClip:
    def test_stub_digest_lists_overlapping_events(self):
        # Clip [55, 75) overlaps scripted e1 [50, 62) and e2 [70, 95);
        # overlap computed here by direct interval intersection.
        scenario = tiny_scenario()
        script = scenario.event_script["v0"]
        clip = interval(55, 75)
        expected = [e.label for e in script if e.interval.overlaps(clip)]
        assert expected == ["e1", "e2"]
        engine = NarrationEngine(stub_backend(lambda: scenario.event_script))
        text = engine.narrate_clip("v0", clip, 1.0, 20.0)
        assert text == "events: e1; e2"
        assert engine.stats()["clips_requested"] == engine.stats()["clips_unique"] == 1

    def test_clip_overlapping_nothing(self):
        scenario = tiny_scenario()
        engine = NarrationEngine(stub_backend(lambda: scenario.event_script))
        assert engine.narrate_clip("v0", interval(42, 48), 1.0, 20.0) == "events: none"

    def test_cache_hit_skips_backend(self):
        backend = FixedBackend()
        engine = NarrationEngine(backend)
        first = engine.narrate_clip("v0", interval(0, 10), 1.0, 20.0)
        calls_after_first = backend.narrate_calls
        second = engine.narrate_clip("v0", interval(0, 10), 1.0, 20.0)
        assert first == second
        assert backend.narrate_calls == calls_after_first
        assert engine.stats()["cache_hits"] == 1

    def test_frame_cap(self):
        backend = FixedBackend()
        engine = NarrationEngine(backend)
        message = (
            r"^schema violation in field 'clip_len_s \* fps': "
            r"21\.0 s clips at 1\.0 fps exceed the per-request cap of 20 frames$"
        )
        with pytest.raises(SchemaViolation, match=message):
            engine.narrate_clip("v0", interval(0, 21), 1.0, 21.0)
        assert backend.narrate_calls == 0

    def test_retries_then_succeeds(self):
        clock = FakeClock()
        backend = FixedBackend(failures=2)
        engine = NarrationEngine(backend, clock=clock)
        text = engine.narrate_clip("v0", interval(0, 5), 1.0, 20.0)
        assert "steady narration" in text
        assert clock.waits == [1.0, 2.0]
        assert backend.narrate_calls == 3
        assert engine.stats()["retries"] == 2

    def test_persistent_failure_exhausts_backoff(self):
        clock = FakeClock()
        backend = FixedBackend(failures=99)
        engine = NarrationEngine(backend, clock=clock)
        with pytest.raises(BackendUnavailableError, match="failed after 4 attempts"):
            engine.narrate_clip("v0", interval(0, 5), 1.0, 20.0)
        assert clock.waits == [1.0, 2.0, 4.0]
        assert backend.narrate_calls == 4

    def test_empty_output_retried_then_reported(self):
        clock = FakeClock()
        backend = FixedBackend(empties=99)
        engine = NarrationEngine(backend, clock=clock)
        with pytest.raises(
            BackendUnavailableError, match="failed after 4 attempts: .*returned empty text"
        ):
            engine.narrate_clip("v0", interval(0, 5), 1.0, 20.0)
        assert clock.waits == [1.0, 2.0, 4.0]

    def test_empty_then_good_output(self):
        backend = FixedBackend(empties=1)
        engine = NarrationEngine(backend, clock=FakeClock())
        assert "steady narration" in engine.narrate_clip("v0", interval(0, 5), 1.0, 20.0)

    def test_fps_and_clip_len_key_the_narration(self):
        backend = FixedBackend()
        engine = NarrationEngine(backend)
        one = engine.narrate_clip("v0", interval(0, 5), 1.0, 20.0)
        half = engine.narrate_clip("v0", interval(0, 5), 0.5, 20.0)
        engine.narrate_clip("v0", interval(0, 5), 1.0, 10.0)
        assert (one, half) == ("a steady narration of 5 frames", "a steady narration of 3 frames")
        assert backend.narrate_calls == 3
        assert engine.stats()["cache_hits"] == 0


class TestNarrationCache:
    def _key(self, start=0.0, end=10.0):
        return NarrationCacheKey("v0", start, end, 1.0, 20.0, "narr-x", "fixed")

    def test_record_bytes_are_the_sorted_json_dump(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = NarrationCache(path)
        cache.put(self._key(), "a caf\u00e9 \u2014 \u65e5\u672c\u306e\u53f0\u6240")
        cache.put(self._key(5.0, 15.0), "plain")
        cache.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert [json.dumps(json.loads(line), sort_keys=True) for line in lines] == lines

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

    @pytest.mark.parametrize(
        "field, bound",
        [
            *(("clip_start_s", bound) for bound in ["5.0", "x", True, float("nan"), -1.0]),
            ("clip_end_s", 10**400),  # past the float range: a key no request can hit
            ("video_id", 5),
            ("fps", "1.0"),
            # A sampling no request can have (clips.check_sampling): a key no request can hit.
            ("fps", float("nan")),
            ("fps", 0),
            ("fps", 10**400),
            ("clip_len_s", -1.0),
            ("fps", 2.0),  # 20 s clips at 2 fps: 40 frames, past the cap of 20
            ("prompt_version", 5),
            ("backend_id", None),
        ],
        ids=["5.0", "x", "True", "nan", "-1.0", "end-past-float-range", "video_id-number",
             "fps-string", "fps-nan", "fps-zero", "fps-past-float-range",
             "clip_len_s-negative", "sampling-past-the-frame-cap", "prompt_version-number",
             "backend_id-null"],
    )
    def test_malformed_bound_skipped_with_warning(self, tmp_path, caplog, field, bound):
        path = tmp_path / "cache.jsonl"
        cache = NarrationCache(path)
        cache.put(self._key(), "hello")
        cache.put(self._key(5.0, 15.0), "world")
        cache.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record["key"][field] = bound
        path.write_text("\n".join([lines[0], json.dumps(record)]) + "\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            reloaded = NarrationCache(path)
        assert len(reloaded) == 1
        assert reloaded.get(self._key(5.0, 15.0)) is None
        assert any(f"corrupt cache record {path}:2" in m for m in caplog.messages)
        assert path.read_text(encoding="utf-8").splitlines() == lines[:1]  # dropped

    def test_record_without_sampling_skipped_and_dropped(self, tmp_path, caplog):
        # A record written before the key carried the clip's sampling.
        path = tmp_path / "cache.jsonl"
        cache = NarrationCache(path)
        cache.put(self._key(), "hello")
        cache.close()
        valid = path.read_bytes()
        record = {"key": self._key(5.0, 15.0)._asdict(), "text": "world"}
        del record["key"]["fps"], record["key"]["clip_len_s"]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        with caplog.at_level("WARNING"):
            reloaded = NarrationCache(path)
        assert len(reloaded) == 1
        assert any(f"corrupt cache record {path}:2 ('fps')" in m for m in caplog.messages)
        assert path.read_bytes() == valid

    def test_blank_text_record_skipped_with_warning_and_dropped(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        with NarrationCache(path) as cache:
            cache.put(self._key(), "hello")
        valid = path.read_bytes()
        record = {"key": self._key(5.0, 15.0)._asdict(), "text": " \n"}
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        with caplog.at_level("WARNING"):
            reloaded = NarrationCache(path)
        assert len(reloaded) == 1
        assert caplog.messages == [f"skipping corrupt cache record {path}:2 (empty reply text)"]
        assert path.read_bytes() == valid

    def test_blank_line_skipped_silently(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        with NarrationCache(path) as cache:
            cache.put(self._key(), "hello")
            cache.put(self._key(5.0, 15.0), "world")
        first, second = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(first + b"\n \t\n" + second)
        with caplog.at_level("WARNING"):
            reloaded = NarrationCache(path)
        assert caplog.messages == []
        assert [reloaded.get(self._key()), reloaded.get(self._key(5.0, 15.0))] == ["hello", "world"]
        assert path.read_bytes() == first + b"\n \t\n" + second

    def test_record_torn_inside_a_character_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        cache = NarrationCache(path)
        cache.put(self._key(), "hello")
        cache.close()
        record = {"key": self._key(5.0, 15.0)._asdict(), "text": "café"}
        line = json.dumps(record, ensure_ascii=False).encode("utf-8")
        with open(path, "ab") as handle:
            handle.write(line[: line.index("é".encode("utf-8")) + 1])
        with caplog.at_level("WARNING"):
            reloaded = NarrationCache(path)
        assert len(reloaded) == 1
        assert any(f"corrupt cache record {path}:2" in m for m in caplog.messages)

    def test_put_after_a_torn_tail_starts_a_new_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = NarrationCache(path)
        cache.put(self._key(), "hello")
        cache.close()
        with open(path, "ab") as handle:
            handle.write(b'{"key": {"video_id": "v0"')
        repaired = NarrationCache(path)
        assert len(repaired) == 1
        repaired.put(self._key(5.0, 15.0), "world")
        repaired.close()
        reloaded = NarrationCache(path)
        assert len(reloaded) == 2
        assert reloaded.get(self._key(5.0, 15.0)) == "world"

    def test_corrupt_record_dropped_after_one_warning(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        cache = NarrationCache(path)
        cache.put(self._key(), "hello")
        cache.put(self._key(5.0, 15.0), "world")
        cache.close()
        valid = path.read_bytes()
        first, second = valid.splitlines(keepends=True)
        path.write_bytes(first + b"GARBAGE\n" + second)
        with caplog.at_level("WARNING"):
            NarrationCache(path)
        assert any("corrupt" in m for m in caplog.messages)
        caplog.clear()
        with caplog.at_level("WARNING"):
            reloaded = NarrationCache(path)
        assert caplog.messages == []
        assert path.read_bytes() == valid
        assert len(reloaded) == 2

    def test_last_record_without_newline_gets_one(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        cache = NarrationCache(path)
        cache.put(self._key(), "hello")
        cache.close()
        valid = path.read_bytes()
        path.write_bytes(valid.removesuffix(b"\n"))
        with caplog.at_level("WARNING"):
            assert len(NarrationCache(path)) == 1
        assert caplog.messages == []
        assert path.read_bytes() == valid

    def test_clean_cache_is_not_rewritten(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = NarrationCache(path)
        cache.put(self._key(), "hello")
        cache.close()
        before = path.stat()
        assert len(NarrationCache(path)) == 1
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_concurrent_puts_append_whole_records(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        keys = [[self._key(1000.0 * t + i, 1000.0 * t + i + 10) for i in range(500)]
                for t in range(8)]
        put = {key: f"reply {key.clip_start_s}" for thread_keys in keys for key in thread_keys}

        def put_all(cache, thread_keys):
            for key in thread_keys:
                cache.put(key, put[key])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # a thread switch between any two bytecodes
        try:
            with NarrationCache(path) as cache:
                threads = [threading.Thread(target=put_all, args=(cache, ks)) for ks in keys]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4000
        assert [json.dumps(json.loads(line), sort_keys=True) for line in lines] == lines
        reloaded = NarrationCache(path)
        assert len(reloaded) == len(put)
        assert {key: reloaded.get(key) for key in put} == put

    def test_put_does_not_wait_for_another_puts_write(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        real_write, entered, release = narration.os.write, threading.Event(), threading.Event()

        def first_write_blocks(fd, data):
            if not entered.is_set():
                entered.set()
                release.wait(10)  # bounded, so a put that waits for it fails, not hangs
            return real_write(fd, data)

        monkeypatch.setattr(narration.os, "write", first_write_blocks)
        with NarrationCache(path) as cache:
            blocked = threading.Thread(target=cache.put, args=(self._key(), "first"))
            blocked.start()
            assert entered.wait(5)
            start = time.monotonic()
            cache.put(self._key(5.0, 15.0), "second")
            assert time.monotonic() - start < 5
            assert blocked.is_alive()
            release.set()
            blocked.join(10)
            assert not blocked.is_alive()
        reloaded = NarrationCache(path)
        assert reloaded.get(self._key()) == "first"
        assert reloaded.get(self._key(5.0, 15.0)) == "second"

    def test_record_is_in_the_file_before_close(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with NarrationCache(path) as cache:
            cache.put(self._key(), "hello")
            assert NarrationCache(path).get(self._key()) == "hello"

    def test_blank_text_is_not_stored(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with NarrationCache(path) as cache:
            cache.put(self._key(), " \n")
            assert cache.get(self._key()) is None
        assert not path.exists()

    def test_warm_cache_issues_zero_backend_calls(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        plan = plan_for(0.0, 45.0)
        first_backend = FixedBackend()
        with NarrationCache(path) as cache:
            engine = NarrationEngine(first_backend, cache)
            [memory_first] = engine.narrate_plans([plan])
        assert first_backend.narrate_calls == 3
        second_backend = FixedBackend()
        with NarrationCache(path) as cache:
            engine = NarrationEngine(second_backend, cache)
            [memory_second] = engine.narrate_plans([plan])
        assert second_backend.narrate_calls == 0
        assert memory_first == memory_second
        assert render_memory(memory_first) == render_memory(memory_second)


class TestBuildEpisodicMemory:
    def test_entries_ordered_regardless_of_mapping_order(self):
        plan = plan_for(0.0, 60.0)
        cache = NarrationCache()
        engine = NarrationEngine(FixedBackend(), cache)
        keys = [
            NarrationCacheKey("v0", clip.start_s, clip.end_s, plan.fps, plan.clip_len_s,
                              prompt_version(engine.prompt), "fixed")
            for clip in plan.clips
        ]
        for key, text in reversed(list(zip(keys, ["first", "second", "third"]))):
            cache.put(key, text)
        [memory] = engine.narrate_plans([plan])
        assert [e.narration for e in memory.entries] == ["first", "second", "third"]
        assert memory.span == interval(0, 60)
        assert engine.backend.narrate_calls == 0

    def test_single_clip(self):
        plan = plan_for(3.0, 9.0)
        [memory] = NarrationEngine(FixedBackend()).narrate_plans([plan])
        assert len(memory.entries) == 1
        assert memory.span == interval(3, 9)

    def test_missing_narration_rejected(self):
        with pytest.raises(
            ValidationError, match=re.escape("clip [20.0, 40.0) has no narration")
        ):
            MemoryEntry(interval(20, 40), None)

    def test_zero_entry_memory_is_unrepresentable(self):
        with pytest.raises(ValidationError, match=r"^memory for .* has no entries$"):
            EpisodicMemory(
                candidate_key=CandidateKey("v0", "q0", 1),
                entries=(),
                prompt_version="p1",
                backend_id="b",
            )


class TestRenderMemory:
    def _memory(self):
        entries = (MemoryEntry(interval(0, 20), "A"), MemoryEntry(interval(20, 40), "B"))
        return EpisodicMemory(CandidateKey("v0", "v0-q000", 2), entries, "p1", "b")

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
        NarrationEngine(backend, c_max=c_max).narrate_plans([plan])
        assert backend.narrate_calls == 20
        assert 1 <= backend.max_in_flight <= c_max

    def test_memory_invariant_to_completion_order(self):
        scenario = tiny_scenario()
        plan = plan_for(10.0, 95.0)
        engine = NarrationEngine(stub_backend(lambda: scenario.event_script), c_max=4)
        concurrent = engine.narrate_plans([plan])
        engine = NarrationEngine(stub_backend(lambda: scenario.event_script), c_max=1)
        sequential = engine.narrate_plans([plan])
        assert concurrent == sequential


class TestNarratePlans:
    def test_request_frames_are_the_plan_frames(self):
        # The second clip of [5.511, 81.704), [25.511, 45.511), is a few
        # ulps longer than 20 s; it still gets 20 frames.
        class RecordingBackend(FixedBackend):
            def _narrate(self, request):
                sent[request.clip] = request.images
                return super()._narrate(request)

        sent = {}
        plan = plan_for(5.511, 81.704)
        assert plan.clips[1] == interval(25.511, 45.511)
        NarrationEngine(RecordingBackend()).narrate_plans([plan])
        assert [sent[clip] for clip in plan.clips] == [
            tuple(FrameRef("v0", t) for t in frames) for frames in plan.frames
        ]
        assert len(sent[interval(25.511, 45.511)]) == 20

    def test_frame_cap_checked_on_cache_hits_too(self):
        # The clips of an over-cap plan are cached; the plan is still refused,
        # as it is built, so no engine ever sees it.
        backend = FixedBackend()
        engine = NarrationEngine(backend)
        for clip in plan_clips(interval(0, 30), 20.0):
            key = NarrationCacheKey("v0", clip.start_s, clip.end_s, 2.0, 20.0,
                                    prompt_version(engine.prompt), "fixed")
            engine.cache.put(key, "cached")
        message = r"20\.0 s clips at 2\.0 fps exceed the per-request cap of 20 frames$"
        with pytest.raises(SchemaViolation, match=message):
            plan_candidate(CandidateKey("v0", "v0-q000", 1), interval(0, 30), 20.0, 2.0)
        assert backend.narrate_calls == 0

    def test_fan_out_spans_candidates(self):
        # Eight single-clip candidates: a per-candidate pool never has more
        # than one request in flight.
        backend = GaugeBackend(delay_s=0.05)
        plans = fanned_out(8)
        NarrationEngine(backend, c_max=4).narrate_plans(plans)
        assert backend.narrate_calls == 8
        assert backend.max_in_flight == 4

    def test_shared_clip_narrated_once(self):
        backend = GaugeBackend(delay_s=0.01)
        plans = [
            plan_for(30.0, 45.0, rank=1, query_id="v0-q000"),
            plan_for(30.0, 45.0, rank=3, query_id="v0-q001"),
        ]
        engine = NarrationEngine(backend, c_max=4)
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
            engine = NarrationEngine(backend, c_max=8)
            memories = engine.narrate_plans(plans)
        finally:
            sys.setswitchinterval(switch_interval)
        assert backend.narrate_calls == 50
        assert engine.stats()["clips_unique"] == 50
        assert [m.candidate_key for m in memories] == [p.candidate_key for p in plans]

    def test_warm_cache_starts_no_thread(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        plans = [plan_for(0.0, 45.0, rank=1), plan_for(50.0, 70.0, rank=2)]
        with NarrationCache(path) as cache:
            cold = NarrationEngine(FixedBackend(), cache, c_max=4).narrate_plans(plans)

        def no_threads(*args, **kwargs):
            raise AssertionError("a warm cache must not start a worker thread")

        monkeypatch.setattr(narration.threading, "Thread", no_threads)
        backend = FixedBackend()
        with NarrationCache(path) as cache:
            engine = NarrationEngine(backend, cache, c_max=4)
            warm = engine.narrate_plans(plans)
            stats = engine.stats()
        assert backend.narrate_calls == 0
        assert warm == cold
        assert stats["cache_hits"] == 4
        assert stats["cache_misses"] == 0

    def test_exhausted_retries_keep_finished_narrations(self, tmp_path):
        class BrokenClipBackend(GaugeBackend):
            """Clip [40, 50) always fails. Its last failure waits until the
            other worker is inside a call, then marks every later call late."""

            failures = late = 0
            exhausted = False

            def _narrate(self, request):
                if self.exhausted:
                    self.late += 1
                if request.images[0].timestamp_s == 40.0:
                    self.failures += 1
                    if self.failures == 4:
                        deadline = time.monotonic() + 5
                        while self.in_flight == 0 and time.monotonic() < deadline:
                            time.sleep(0.001)
                        self.exhausted = True
                    raise BackendUnavailableError("down for this clip")
                return super()._narrate(request)

        path = tmp_path / "cache.jsonl"
        plans = fanned_out(40)
        backend = BrokenClipBackend(delay_s=0.02)
        with NarrationCache(path) as cache:
            engine = NarrationEngine(backend, cache, c_max=2, clock=FastClock())
            with pytest.raises(BackendUnavailableError, match="failed after 4 attempts"):
                engine.narrate_plans(plans)
        # The retries freed their slot, so other clips finished meanwhile;
        # after the last failure no further clip was handed out.
        finished = backend.narrate_calls - 4
        assert backend.late == 0
        assert 3 <= finished < 39
        assert len(NarrationCache(path)) == finished
        resumed = GaugeBackend(delay_s=0.0)
        with NarrationCache(path) as cache:
            NarrationEngine(resumed, cache).narrate_plans(plans)
        assert resumed.narrate_calls == 40 - finished

    def test_interrupt_stops_the_hand_out(self, monkeypatch):
        join_workers = interrupt_join(monkeypatch)
        backend = GaugeBackend(delay_s=0.05)
        plans = fanned_out(20)
        with pytest.raises(KeyboardInterrupt):
            NarrationEngine(backend, c_max=2).narrate_plans(plans)
        join_workers()
        assert backend.narrate_calls <= 4

    def test_memories_independent_of_c_max(self):
        knobs = ScenarioKnobs(num_videos=3, queries_per_video=3, candidates_per_query=5)
        scenario = generate_scenario(knobs, seed=11)
        plans = [plan for clist in scenario.candidates for plan in plan_list(clist)]
        assert len({plan.candidate_key.video_id for plan in plans}) == 3
        engine = NarrationEngine(stub_backend(lambda: scenario.event_script), c_max=4)
        concurrent = engine.narrate_plans(plans)
        engine = NarrationEngine(stub_backend(lambda: scenario.event_script), c_max=1)
        sequential = engine.narrate_plans(plans)
        assert concurrent == sequential
        assert [m.candidate_key for m in concurrent] == [p.candidate_key for p in plans]


class FirstAttemptFailsBackend(GaugeBackend):
    """The first request for each clip that starts at one of ``starts`` is
    in flight for ``delay_s``, then fails; every other request succeeds."""

    def __init__(self, delay_s, starts):
        super().__init__(delay_s)
        self.starts = set(starts)
        self.failed = threading.Event()  # clip [0, 10) has failed
        self.retried_at = None  # when clip [0, 10) was retried
        self.last_failure = 0.0  # of the other clips

    def _narrate(self, request):
        start = request.images[0].timestamp_s
        with self.lock:
            first = start in self.starts
            self.starts.discard(start)
            if start == 0.0 and not first:
                self.retried_at = time.monotonic()
        response = super()._narrate(request)
        if not first:
            return response
        with self.lock:
            if start == 0.0:
                self.max_in_flight = self.in_flight  # count from the failure on
                self.failed.set()
            else:
                self.last_failure = max(self.last_failure, time.monotonic())
        raise BackendUnavailableError("first attempt")


def dispatched(call_results, items, c_max=1):
    """Dispatch ``items`` under a ``FakeClock``; ``call_results[item]`` is a
    list of outcomes, one per attempt, an exception class to raise or a
    result. Returns the results, the order of the calls and the waits."""
    calls, clock = [], FakeClock()

    def call(item):
        calls.append(item)
        outcome = call_results[item].pop(0)
        if isinstance(outcome, type):
            raise outcome("scripted")
        return outcome

    return narration.dispatch(call, items, c_max, clock), calls, clock.waits


class TestDispatch:
    def test_backoff_frees_the_slot(self):
        # Every clip fails its first attempt, so no call is answered before
        # clip [0, 10)'s retry: it waits out a real 1 s backoff, while the
        # other six clips still run two at a time and fail before its retry.
        backend = FirstAttemptFailsBackend(0.02, starts=[20.0 * i for i in range(7)])
        engine = NarrationEngine(backend, c_max=2)
        engine.narrate_plans(fanned_out(7))
        assert engine.stats()["retries"] == 7
        assert backend.max_in_flight == 2
        assert backend.narrate_calls == 14
        assert backend.last_failure < backend.retried_at

    def test_answered_call_releases_a_first_retry(self):
        # Item 0 fails; item 1 is answered; item 0 runs next, unwaited.
        results, calls, waits = dispatched({0: [BackendUnavailableError, "a"], 1: ["b"]}, [0, 1])
        assert results == ["a", "b"]
        assert calls == [0, 1, 0]
        assert waits == []

    def test_second_failure_keeps_its_backoff(self):
        script = {0: [BackendUnavailableError] * 2 + ["a"], 1: ["b"], 2: ["c"]}
        results, calls, waits = dispatched(script, [0, 1, 2])
        assert results == ["a", "b", "c"]
        assert calls == [0, 1, 0, 2, 0]
        assert waits == [2.0]  # item 2's answer did not release the second retry

    def test_one_answer_releases_one_retry(self):
        # Items 0 and 1 fail; item 2's answer releases item 0 only, whose
        # retry fails: item 1 still waits out its 1 s.
        unavailable = BackendUnavailableError
        script = {0: [unavailable, unavailable, "a"], 1: [unavailable, "b"], 2: ["c"]}
        results, calls, waits = dispatched(script, [0, 1, 2])
        assert results == ["a", "b", "c"]
        assert calls == [0, 1, 2, 0, 1, 0]
        assert waits == [1.0, 1.0]

    def test_stopped_hand_out_releases_nothing(self, monkeypatch):
        # Item 0 fails and waits out its backoff while item 1 is in flight;
        # the run is interrupted; only then is item 1 answered.
        failed, in_flight, answer = threading.Event(), threading.Event(), threading.Event()
        calls = []

        def call(item):
            calls.append(item)
            if item == 0 and calls.count(0) == 1:
                failed.set()
                raise BackendUnavailableError("once")
            if item == 1:
                in_flight.set()
                answer.wait(5)
            return item

        join_workers = interrupt_join(monkeypatch, lambda: (failed.wait(5), in_flight.wait(5)))
        with pytest.raises(KeyboardInterrupt):
            narration.dispatch(call, [0, 1], c_max=2)
        answer.set()
        join_workers()
        assert sorted(calls) == [0, 1]  # item 1's answer did not release item 0

    def test_one_failure_costs_no_backoff(self):
        # Real clock: the failed clip is retried after the next answer, so
        # the run does not wait out the 1 s backoff.
        backend = FirstAttemptFailsBackend(0.005, starts=[0.0])
        engine = NarrationEngine(backend, c_max=2)
        began = time.monotonic()
        engine.narrate_plans(fanned_out(20))
        assert time.monotonic() - began < 0.5
        assert engine.stats()["retries"] == 1
        assert backend.narrate_calls == 21

    def test_retries_under_thread_churn(self):
        # Every clip fails its first attempt: a lost update of the retry
        # queue or count would drop a clip, run one twice or miscount.
        plans = fanned_out(50)
        backend = FirstAttemptFailsBackend(0.0, starts=[20.0 * i for i in range(50)])
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            engine = NarrationEngine(backend, c_max=8, clock=FastClock())
            memories = engine.narrate_plans(plans)
        finally:
            sys.setswitchinterval(switch_interval)
        assert backend.narrate_calls == 100
        assert engine.stats()["retries"] == 50
        assert all(m.entries[0].narration == "ok" for m in memories)

    def test_interrupt_during_backoff_returns_at_once(self, monkeypatch):
        # Both clips fail, so no call is answered to release a retry.
        backend = FirstAttemptFailsBackend(0.0, starts=[0.0, 20.0])

        def both_back_off():
            backend.failed.wait(5)
            time.sleep(0.1)  # both workers now wait for the 1 s backoff

        join_workers = interrupt_join(monkeypatch, both_back_off)
        with pytest.raises(KeyboardInterrupt):
            NarrationEngine(backend, c_max=2).narrate_plans(fanned_out(2))
        interrupted = time.monotonic()
        join_workers()
        assert time.monotonic() - interrupted < 0.5
        assert backend.narrate_calls == 2  # the retry never ran

    def test_interrupt_raised_in_a_call_stops_the_run(self):
        called = []

        def call(item):
            called.append(item)
            if item == 2:
                raise KeyboardInterrupt
            return item

        with pytest.raises(KeyboardInterrupt):
            narration.dispatch(call, [1, 2, 3, 4], c_max=1)
        assert called == [1, 2]


class TestPromptTemplate:
    def test_version_tracks_text(self):
        a = prompt_version("describe the frames")
        b = prompt_version("describe the frames differently")
        assert a != b
        assert a == prompt_version("describe the frames")

    def test_default_version_is_unchanged(self):
        # Every cached narration under the default prompt carries this version.
        assert prompt_version(narration.DEFAULT_PROMPT) == "narr-9a7f157309da"

    def test_engine_keys_cache_by_prompt_version(self):
        backend = FixedBackend()
        cache = NarrationCache()
        engine_a = NarrationEngine(backend, cache, prompt="one")
        engine_b = NarrationEngine(backend, cache, prompt="two")
        engine_a.narrate_clip("v0", interval(0, 5), 1.0, 20.0)
        engine_b.narrate_clip("v0", interval(0, 5), 1.0, 20.0)
        assert backend.narrate_calls == 2
