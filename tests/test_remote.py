import base64

import pytest

from memrerank.errors import (
    BackendRejectedError,
    BackendUnavailableError,
    ConfigError,
    FrameUnavailableError,
)
from memrerank.core import TimeInterval
from memrerank.narration import BackendRequest, FrameRef, NarrationEngine
from memrerank.remote import FrameProvider, RemoteBackend, frame_filename


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
        with pytest.raises(FrameUnavailableError):
            provider.load(FrameRef("v0", 7.0))

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
        with pytest.raises(FrameUnavailableError):
            provider.load(FrameRef("v0", 1.0))


class TestRemoteBackend:
    def _request(self):
        return BackendRequest(
            "v0",
            TimeInterval(1.0, 3.0),
            (FrameRef("v0", 1.0), FrameRef("v0", 2.0)),
        )

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
        assert reply.text == "a narration"
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
        engine = NarrationEngine(backend)
        assert engine.narrate_clip("v0", TimeInterval(25.511, 45.511), (25.511, 26.511)) == (
            "a narration"
        )
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
        assert reply.text == "3"
        (sent,) = session.requests
        assert sent["json"]["images"] == []
        assert sent["json"]["instruction"] == "pick one"

    def test_server_error_is_transient(self):
        session = FakeSession(response=FakeResponse(status_code=503))
        backend = RemoteBackend("https://api.example.test", "k", session=session)
        with pytest.raises(BackendUnavailableError):
            backend.select("x")

    def test_client_error_is_permanent(self):
        session = FakeSession(response=FakeResponse(status_code=403, text="denied"))
        backend = RemoteBackend("https://api.example.test", "k", session=session)
        with pytest.raises(BackendRejectedError):
            backend.select("x")

    def test_connection_error_is_transient(self):
        import requests

        session = FakeSession(error=requests.ConnectionError("refused"))
        backend = RemoteBackend("https://api.example.test", "k", session=session)
        with pytest.raises(BackendUnavailableError):
            backend.select("x")

    def test_malformed_reply_rejected(self):
        session = FakeSession(response=FakeResponse(payload={"unexpected": 1}))
        backend = RemoteBackend("https://api.example.test", "k", session=session)
        with pytest.raises(BackendRejectedError):
            backend.select("x")

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("MEMRERANK_API_BASE", raising=False)
        monkeypatch.delenv("MEMRERANK_API_KEY", raising=False)
        with pytest.raises(ConfigError):
            RemoteBackend.from_env()
        monkeypatch.setenv("MEMRERANK_API_BASE", "https://api.example.test")
        monkeypatch.setenv("MEMRERANK_API_KEY", "sekret")
        backend = RemoteBackend.from_env(session=FakeSession())
        assert backend.backend_id == "remote"
