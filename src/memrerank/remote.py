"""HTTP backend client and frame image provider for remote narration.

The endpoint and key come from the ``MEMRERANK_API_BASE`` and
``MEMRERANK_API_KEY`` environment variables. Frames are read from
``<frames_root>/<video_id>/<timestamp in ms, zero-padded to 10>.jpg``; a
missing frame can be produced on demand by a user-supplied command
template with ``{video}``, ``{t}``, and ``{out}`` placeholders.
"""

from __future__ import annotations

import base64
import os
import shlex
import subprocess
from pathlib import Path

import requests

from .errors import (
    BackendRejectedError,
    BackendUnavailableError,
    ConfigError,
    FrameUnavailableError,
)
from .narration import Backend, BackendRequest, BackendResponse, FrameRef

ENV_API_BASE = "MEMRERANK_API_BASE"
ENV_API_KEY = "MEMRERANK_API_KEY"
DEFAULT_TIMEOUT_S = 120.0


def narration_instruction(request: BackendRequest) -> str:
    """Instruction text for one clip; embeds exact clip bounds as context."""
    return (
        f"{request.prompt.text}\n"
        f"Video: {request.video_id}\n"
        f"Clip: {request.clip.start_s!r} to {request.clip.end_s!r} seconds\n"
        f"Frames: {len(request.images)} sampled in order"
    )


def frame_filename(timestamp_s: float) -> str:
    """Millisecond-rounded, zero-padded frame file name."""
    return f"{round(timestamp_s * 1000):010d}.jpg"


class FrameProvider:
    """Resolves frame references to JPEG bytes on disk."""

    def __init__(self, frames_root: str | Path, extract_cmd: str | None = None):
        self.frames_root = Path(frames_root)
        self.extract_cmd = extract_cmd

    def path_for(self, ref: FrameRef) -> Path:
        return self.frames_root / ref.video_id / frame_filename(ref.timestamp_s)

    def load(self, ref: FrameRef) -> bytes:
        path = self.path_for(ref)
        if not path.exists() and self.extract_cmd:
            self._extract(ref, path)
        if not path.exists():
            raise FrameUnavailableError(f"no frame image at {path}")
        return path.read_bytes()

    def _extract(self, ref: FrameRef, out_path: Path) -> None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        args = [
            token.format(
                video=ref.video_id,
                t=f"{ref.timestamp_s:.3f}",
                out=str(out_path),
            )
            for token in shlex.split(self.extract_cmd)
        ]
        result = subprocess.run(args, capture_output=True, text=True)
        if result.returncode != 0:
            raise FrameUnavailableError(
                f"frame extraction failed for {ref}: {result.stderr.strip()[:500]}"
            )


class RemoteBackend(Backend):
    """Authenticated JSON-over-HTTP backend.

    Both narration and selection requests POST to ``<base>/generate``
    with an instruction, an ordered (possibly empty) image list, and an
    output-length cap; the response carries a ``text`` field.
    """

    def __init__(
        self,
        base_url: str,
        api_key: str,
        frame_provider: FrameProvider | None = None,
        session=None,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        backend_id: str = "remote",
    ):
        super().__init__()
        self.backend_id = backend_id
        self._url = base_url.rstrip("/") + "/generate"
        self._headers = {"Authorization": f"Bearer {api_key}"}
        self._frames = frame_provider
        self._session = session if session is not None else requests.Session()
        self._timeout_s = timeout_s

    @classmethod
    def from_env(
        cls, frame_provider: FrameProvider | None = None, **kwargs
    ) -> "RemoteBackend":
        base = os.environ.get(ENV_API_BASE)
        key = os.environ.get(ENV_API_KEY)
        if not base or not key:
            raise ConfigError(
                f"remote backend needs {ENV_API_BASE} and {ENV_API_KEY} set"
            )
        return cls(base, key, frame_provider=frame_provider, **kwargs)

    def _post(self, payload: dict) -> BackendResponse:
        try:
            response = self._session.post(
                self._url, json=payload, headers=self._headers, timeout=self._timeout_s
            )
        except requests.RequestException as exc:
            raise BackendUnavailableError(f"request failed: {exc}") from exc
        if response.status_code >= 500:
            raise BackendUnavailableError(f"server error {response.status_code}")
        if response.status_code >= 400:
            raise BackendRejectedError(
                f"request rejected with status {response.status_code}: "
                f"{response.text[:500]}"
            )
        try:
            text = response.json()["text"]
        except (ValueError, KeyError) as exc:
            raise BackendRejectedError(f"malformed backend reply: {exc}") from exc
        return BackendResponse(text=text, backend_id=self.backend_id)

    def _encode_image(self, ref: FrameRef) -> dict:
        payload = {"video_id": ref.video_id, "timestamp_s": ref.timestamp_s}
        if self._frames is not None:
            payload["data_b64"] = base64.b64encode(self._frames.load(ref)).decode("ascii")
        return payload

    def _narrate(self, request: BackendRequest) -> BackendResponse:
        return self._post(
            {
                "instruction": narration_instruction(request),
                "images": [self._encode_image(ref) for ref in request.images],
                "max_output_chars": request.max_output_chars,
            }
        )

    def _select(self, prompt: str) -> BackendResponse:
        return self._post({"instruction": prompt, "images": [], "max_output_chars": 64})
