import base64
import json
import re
import threading

import pytest

from memrerank.errors import BackendError, BackendUnavailableError, ConfigError
from memrerank import cli, ingest, narration, synth
from memrerank.clips import plan_candidate, read_frame_manifests
from memrerank.core import CandidateKey, TimeInterval
from memrerank.narration import BackendRequest, FrameRef, NarrationCache, NarrationEngine
from memrerank.remote import (
    ENV_API_BASE,
    ENV_API_KEY,
    FrameProvider,
    RemoteBackend,
    frame_filename,
)
from memrerank.rerank import _selection_prompt, build_rerank_prompt, rerank_many
from memrerank.synth import stub_backend

from helpers import (
    MALFORMED,
    LoopbackEndpoint,
    candidates_by_query,
    interval,
    plan_list,
    status,
    tiny_scenario,
)


def assert_permanent(error):
    """A permanent failure is not the type the dispatcher retries."""
    assert not isinstance(error, BackendUnavailableError)


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload if payload is not None else {"text": "a narration"}
        self.text = text

    def json(self):
        return self._payload


class FakeSession:
    def __init__(self, response=None, error=None):
        self.response = response or FakeResponse()
        self.error = error
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        if self.error is not None:
            raise self.error
        return self.response


class TestFrameFilename:
    def test_millisecond_rounding_and_padding(self):
        assert frame_filename(12.5) == "0000012500.jpg"
        assert frame_filename(0.0004) == "0000000000.jpg"
        assert frame_filename(3601.2345) == "0003601234.jpg"


class TestFrameProvider:
    def test_reads_layout(self, tmp_path):
        frame_dir = tmp_path / "v0"
        frame_dir.mkdir()
        (frame_dir / frame_filename(7.0)).write_bytes(b"jpegdata")
        provider = FrameProvider(tmp_path)
        assert provider.load(FrameRef("v0", 7.0)) == b"jpegdata"

    def test_missing_frame_without_extractor(self, tmp_path):
        provider = FrameProvider(tmp_path)
        missing = tmp_path / "v0" / frame_filename(7.0)
        message = f"^no frame image at {re.escape(str(missing))}$"
        with pytest.raises(BackendError, match=message) as info:
            provider.load(FrameRef("v0", 7.0))
        assert_permanent(info.value)

    def test_extraction_command_template(self, tmp_path):
        marker = tmp_path / "observed_args.txt"
        script = tmp_path / "fake_extract.py"
        script.write_text(
            "import pathlib, sys\n"
            "video, t, out = sys.argv[1:4]\n"
            f"pathlib.Path({str(marker)!r}).write_text(' '.join([video, t]))\n"
            "pathlib.Path(out).write_bytes(b'extracted')\n"
        )
        import sys

        provider = FrameProvider(
            tmp_path, extract_cmd=f"{sys.executable} {script} {{video}} {{t}} {{out}}"
        )
        data = provider.load(FrameRef("v9", 2.5))
        assert data == b"extracted"
        assert marker.read_text() == "v9 2.500"

    def test_failed_extraction_reported(self, tmp_path):
        import sys

        provider = FrameProvider(
            tmp_path, extract_cmd=f"{sys.executable} -c import_sys_fail {{video}} {{t}} {{out}}"
        )
        with pytest.raises(BackendError, match="^frame extraction failed for ") as info:
            provider.load(FrameRef("v0", 1.0))
        assert_permanent(info.value)


class TestRemoteBackend:
    def _request(self):
        return BackendRequest("v0", TimeInterval(1.0, 3.0), 1.0, 20.0)

    def test_narrate_payload_and_auth(self, tmp_path):
        frame_dir = tmp_path / "v0"
        frame_dir.mkdir()
        (frame_dir / frame_filename(1.0)).write_bytes(b"one")
        (frame_dir / frame_filename(2.0)).write_bytes(b"two")
        session = FakeSession()
        backend = RemoteBackend(
            "https://api.example.test/v1/",
            "sekret",
            frame_provider=FrameProvider(tmp_path),
            session=session,
        )
        reply = backend.narrate(self._request())
        assert reply == "a narration"
        (sent,) = session.requests
        assert sent["url"] == "https://api.example.test/v1/generate"
        assert sent["headers"]["Authorization"] == "Bearer sekret"
        images = sent["json"]["images"]
        assert [img["timestamp_s"] for img in images] == [1.0, 2.0]
        assert base64.b64decode(images[0]["data_b64"]) == b"one"

    def test_narration_payload_is_pinned(self):
        # The instruction is rendered from the structured request only
        # here, on the way out; its text is part of the wire format.
        session = FakeSession()
        backend = RemoteBackend("https://api.example.test", "k", session=session)
        request = BackendRequest("v0", TimeInterval(25.511, 45.511), 1.0, 2.0)
        assert backend.narrate(request) == "a narration"
        (sent,) = session.requests
        assert sent["json"] == {
            "instruction": (
                "Describe what happens in these frames in one to three sentences. "
                "Mention the visible objects, the actions performed, and any "
                "hand-object interactions.\n"
                "Video: v0\n"
                "Clip: 25.511 to 45.511 seconds\n"
                "Frames: 2 sampled in order"
            ),
            "images": [
                {"video_id": "v0", "timestamp_s": 25.511},
                {"video_id": "v0", "timestamp_s": 26.511},
            ],
            "max_output_chars": 2000,
        }

    def test_select_sends_text_only(self):
        session = FakeSession(response=FakeResponse(payload={"text": "3"}))
        backend = RemoteBackend("https://api.example.test", "k", session=session)
        reply = backend.select("pick one")
        assert reply == "3"
        (sent,) = session.requests
        assert sent["json"]["images"] == []
        assert sent["json"]["instruction"] == "pick one"

    def test_selection_prompt_is_sent_as_its_text(self):
        # The fields a scripted selector reads never reach the wire.
        scenario = tiny_scenario()
        clist = candidates_by_query(scenario)["v0-q000"]
        query = next(q for q in scenario.dataset.iter_queries() if q.query_id == "v0-q000")
        memories = NarrationEngine(stub_backend(lambda: scenario.event_script)).narrate_plans(
            plan_list(clist)
        )
        prompt = _selection_prompt(query, clist, memories, include_scores=False)
        session = FakeSession(response=FakeResponse(payload={"text": "2"}))
        RemoteBackend("https://api.example.test", "k", session=session).select(prompt)
        (sent,) = session.requests
        text = build_rerank_prompt(query, memories)
        assert json.dumps(sent["json"]) == json.dumps(
            {"instruction": text, "images": [], "max_output_chars": 64}
        )

    def test_server_error_is_transient(self):
        session = FakeSession(response=FakeResponse(status_code=503))
        backend = RemoteBackend("https://api.example.test", "k", session=session)
        with pytest.raises(BackendUnavailableError):
            backend.select("x")

    def test_rate_limit_is_transient(self):
        session = FakeSession(response=FakeResponse(status_code=429, text="slow down"))
        backend = RemoteBackend("https://api.example.test", "k", session=session)
        with pytest.raises(BackendUnavailableError, match="^transient status 429$"):
            backend.select("x")

    def test_client_error_is_permanent(self):
        session = FakeSession(response=FakeResponse(status_code=403, text="denied"))
        backend = RemoteBackend("https://api.example.test", "k", session=session)
        with pytest.raises(
            BackendError, match="^request rejected with status 403: denied$"
        ) as info:
            backend.select("x")
        assert_permanent(info.value)

    def test_connection_error_is_transient(self):
        import requests

        session = FakeSession(error=requests.ConnectionError("refused"))
        backend = RemoteBackend("https://api.example.test", "k", session=session)
        with pytest.raises(BackendUnavailableError):
            backend.select("x")

    def test_malformed_reply_rejected(self):
        session = FakeSession(response=FakeResponse(payload={"unexpected": 1}))
        backend = RemoteBackend("https://api.example.test", "k", session=session)
        with pytest.raises(BackendError, match="^malformed backend reply: 'text'$") as info:
            backend.select("x")
        assert_permanent(info.value)

    @pytest.mark.parametrize("call", ["narrate", "select"])
    @pytest.mark.parametrize(
        "body",
        [{"text": None}, {"text": 3}, ["text"], "x"],
        ids=["null", "number", "array", "string"],
    )
    def test_reply_without_a_text_string_is_permanent(self, body, call):
        session = FakeSession(response=FakeResponse(payload=body))
        backend = RemoteBackend("https://api.example.test", "k", session=session)
        if call == "narrate":  # the stage fails at once, so narrate exits 5
            plan = plan_candidate(CandidateKey("v0", "q0", 1), interval(1.0, 3.0), 20.0, 1.0)
            with pytest.raises(BackendError, match="^malformed backend reply: ") as info:
                NarrationEngine(backend).narrate_plans([plan])
            assert_permanent(info.value)
        else:  # the selection falls back with an empty answer
            scenario = tiny_scenario()
            clist = candidates_by_query(scenario)["v0-q000"]
            query = next(q for q in scenario.dataset.iter_queries() if q.query_id == "v0-q000")
            memories = NarrationEngine(stub_backend(lambda: scenario.event_script)).narrate_plans(plan_list(clist))
            [outcome] = rerank_many([(query, clist, memories)], backend, c_max=1)
            assert (outcome.fallback_used, outcome.raw_answer) == (True, "")
        assert len(session.requests) == 1  # not retried

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("MEMRERANK_API_BASE", raising=False)
        monkeypatch.delenv("MEMRERANK_API_KEY", raising=False)
        with pytest.raises(ConfigError):
            RemoteBackend.from_env()
        monkeypatch.setenv("MEMRERANK_API_BASE", "https://api.example.test")
        monkeypatch.setenv("MEMRERANK_API_KEY", "sekret")
        backend = RemoteBackend.from_env(session=FakeSession())
        assert re.fullmatch(r"remote-[0-9a-f]{12}", backend.backend_id)

    def test_backend_id_is_derived_from_the_base_url(self):
        ids = [
            RemoteBackend(base, "k", session=FakeSession()).backend_id
            for base in ("https://a.example.test", "https://a.example.test/", "https://b.example.test")
        ]
        assert ids[0] == ids[1] != ids[2]
        assert "example" not in ids[0]

    def test_two_endpoints_key_one_clip_differently(self):
        cache = NarrationCache()
        sessions = [FakeSession(), FakeSession()]
        for base, session in zip(("https://a.example.test", "https://b.example.test"), sessions):
            engine = NarrationEngine(RemoteBackend(base, "k", session=session), cache)
            assert engine.narrate_clip("v0", interval(0, 5), 1.0, 20.0) == "a narration"
        assert [len(session.requests) for session in sessions] == [1, 1]
        assert len(cache) == 2

    @pytest.mark.parametrize(
        "base", ["localhost:8000", "ftp://example", "http://", "http://:80", "http://[::1"]
    )
    def test_malformed_base_url_rejected(self, base):
        session = FakeSession()
        with pytest.raises(ConfigError, match="^MEMRERANK_API_BASE must be an http or https URL"):
            RemoteBackend(base, "k", session=session)
        assert session.requests == []


@pytest.fixture
def loopback(monkeypatch):
    """A loopback endpoint that picks candidate 2, named by the remote
    backend's environment variables; no proxy setting reroutes it."""
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.lower(), raising=False)
    threads = set(threading.enumerate())
    with LoopbackEndpoint(select_reply="2") as endpoint:
        monkeypatch.setenv(ENV_API_BASE, endpoint.base_url)
        monkeypatch.setenv(ENV_API_KEY, "loopback-key")
        yield endpoint
    assert set(threading.enumerate()) == threads  # the server's threads are joined


def run(*args):
    return cli.main([str(arg) for arg in args])


def planned(out):
    assert run("simulate", "--out", out, "--seed", 3, "--videos", 2, "--queries-per-video", 3) == 0
    assert run("plan", "--out", out) == 0


def rerank_log(out):
    return [json.loads(line) for line in (out / cli.RERANK_LOG_FILE).read_text().splitlines()]


def memory_records(out, drop=()):
    lines = (out / cli.MEMORIES_FILE).read_text().splitlines()
    return [{k: v for k, v in json.loads(line).items() if k not in drop} for line in lines]


class TestLoopbackPipeline:
    """``narrate`` and ``rerank --backend remote`` through real HTTP."""

    @pytest.fixture
    def narrated(self, tmp_path, loopback, monkeypatch):
        monkeypatch.setattr(narration, "RETRY_BACKOFF_S", (0.01, 0.02, 0.04))  # keeps it quick
        out = tmp_path / "remote"
        planned(out)
        dataset = ingest.load_annotations(out / cli.ANNOTATIONS_FILE)
        loopback.event_script = synth.load_scenario(out / cli.SCENARIO_FILE, dataset)
        loopback.script["narrate"].append(status(429))
        assert run("narrate", "--out", out, "--backend", "remote") == 0
        return out

    def test_remote_run_matches_the_stub_run(self, tmp_path, loopback, narrated):
        stub = tmp_path / "stub"
        planned(stub)
        assert run("narrate", "--out", stub, "--backend", "stub") == 0
        assert memory_records(narrated, drop={"backend_id"}) == memory_records(
            stub, drop={"backend_id"}
        )
        stats = json.loads((narrated / "cache" / cli.NARRATE_STATS_FILE).read_text())
        assert stats["retries"] == 1
        assert stats["backend_calls"] == stats["cache_misses"] + 1

        del loopback.payloads[:]
        assert run("rerank", "--out", narrated, "--backend", "remote") == 0
        log = rerank_log(narrated)
        assert all(r["num_candidates"] > 1 for r in log)
        assert [(r["selected_rank"], r["fallback_used"]) for r in log] == [(2, False)] * len(log)
        dataset = ingest.load_annotations(narrated / cli.ANNOTATIONS_FILE)
        memories = narration.read_memories(narrated / cli.MEMORIES_FILE)
        rendered = [
            build_rerank_prompt(
                query,
                sorted(
                    (m for m in memories if m.candidate_key.query_id == query.query_id),
                    key=lambda m: m.candidate_key.rank,
                ),
            )
            for query in dataset.iter_queries()
        ]
        assert sorted(p["instruction"] for p in loopback.payloads) == sorted(rendered)

    def test_frames_root_sends_each_frame(self, tmp_path, loopback):
        out = tmp_path / "remote"
        planned(out)
        frames = tmp_path / "frames"
        for plan in read_frame_manifests(out / cli.MANIFESTS_FILE):
            video = frames / plan.candidate_key.video_id
            video.mkdir(parents=True, exist_ok=True)
            for timestamp in (t for clip in plan.frames for t in clip):
                (video / frame_filename(timestamp)).write_bytes(frame_filename(timestamp).encode())
        code = run("narrate", "--out", out, "--backend", "remote", "--frames-root", frames)
        assert code == 0
        images = [image for payload in loopback.payloads for image in payload["images"]]
        assert images
        for image in images:
            assert base64.b64decode(image["data_b64"]) == frame_filename(image["timestamp_s"]).encode()

    def test_failed_selections_fall_back_and_are_asked_again(self, loopback, narrated):
        loopback.script["select"] += [status(503), MALFORMED]
        assert run("rerank", "--out", narrated, "--backend", "remote") == 0
        log = rerank_log(narrated)
        assert sorted((r["fallback_used"], r["raw_answer"]) for r in log) == [
            (False, "2")
        ] * (len(log) - 2) + [(True, "")] * 2
        del loopback.payloads[:]
        assert run("rerank", "--out", narrated, "--backend", "remote") == 0
        assert len(loopback.payloads) == 2
        log = rerank_log(narrated)
        assert {r["selected_rank"] for r in log} == {2}
