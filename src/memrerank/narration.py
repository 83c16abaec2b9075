"""Drive a multimodal backend to narrate clips into episodic memories.

The backend is pluggable: deterministic stubs and oracles live in
:mod:`memrerank.synth`; the HTTP client lives in :mod:`memrerank.remote`.
A narration request is structured (video id, clip bounds, frame refs and
prompt template): the scripted backends read its fields, and only the
HTTP client renders them into instruction text.
Narrations are cached on disk keyed by (video, clip, prompt version,
backend), so re-running a dataset with a warm cache issues zero backend
calls. One narrate run schedules every distinct clip of every plan at
once: each cache key reaches the backend at most once, and at most
``c_max`` requests are in flight across the whole run.
"""

from __future__ import annotations

import abc
import hashlib
import json
import logging
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .clips import ClipPlan
from .core import CandidateKey, EpisodicMemory, MemoryEntry, TimeInterval
from .errors import (
    BackendUnavailableError,
    EmptyNarrationError,
    ImageLimitExceededError,
    MissingNarrationError,
    SchemaViolation,
)
from .ingest import atomic_writer

logger = logging.getLogger(__name__)

MAX_IMAGES_PER_REQUEST = 20
DEFAULT_MAX_OUTPUT_CHARS = 2000
DEFAULT_C_MAX = 4
RETRY_BACKOFF_S = (1.0, 2.0, 4.0)

DEFAULT_NARRATION_TEMPLATE = (
    "Describe what happens in these frames in one to three sentences. "
    "Mention the visible objects, the actions performed, and any "
    "hand-object interactions."
)


class FrameRef(NamedTuple):
    """A frame addressed by video id and timestamp; pixels live elsewhere."""

    video_id: str
    timestamp_s: float


@dataclass(frozen=True, slots=True)
class PromptTemplate:
    """Versioned narration instruction; the version tracks the text."""

    text: str

    @property
    def version(self) -> str:
        digest = hashlib.sha256(self.text.encode("utf-8")).hexdigest()[:12]
        return f"narr-{digest}"

    @classmethod
    def from_file(cls, path: str | Path) -> "PromptTemplate":
        return cls(Path(path).read_text(encoding="utf-8").strip())


DEFAULT_PROMPT = PromptTemplate(DEFAULT_NARRATION_TEMPLATE)


@dataclass(frozen=True, slots=True)
class BackendRequest:
    """One narration request: a clip of a video, its ordered frame refs
    and the prompt template the instruction is rendered from."""

    video_id: str
    clip: TimeInterval
    images: tuple[FrameRef, ...]
    prompt: PromptTemplate = DEFAULT_PROMPT
    max_output_chars: int = DEFAULT_MAX_OUTPUT_CHARS

    def __post_init__(self):
        object.__setattr__(
            self, "images", tuple(FrameRef(*ref) for ref in self.images)
        )
        if not 1 <= len(self.images) <= MAX_IMAGES_PER_REQUEST:
            raise ImageLimitExceededError(
                f"{len(self.images)} images; allowed 1..{MAX_IMAGES_PER_REQUEST}"
            )


@dataclass(frozen=True, slots=True)
class BackendResponse:
    text: str
    backend_id: str


class Backend(abc.ABC):
    """Multimodal model interface: narrate frame batches, answer selections.

    Subclasses implement ``_narrate`` and ``_select``; the public methods
    count invocations so cache coherence can be asserted.
    """

    backend_id: str = "backend"

    def __init__(self):
        self._call_lock = threading.Lock()
        self.narrate_calls = 0
        self.select_calls = 0

    def narrate(self, request: BackendRequest) -> BackendResponse:
        with self._call_lock:
            self.narrate_calls += 1
        return self._narrate(request)

    def select(self, prompt: str) -> BackendResponse:
        with self._call_lock:
            self.select_calls += 1
        return self._select(prompt)

    @abc.abstractmethod
    def _narrate(self, request: BackendRequest) -> BackendResponse: ...

    @abc.abstractmethod
    def _select(self, prompt: str) -> BackendResponse: ...


class NarrationCacheKey(NamedTuple):
    video_id: str
    clip_start_s: float
    clip_end_s: float
    prompt_version: str
    backend_id: str

    def to_dict(self) -> dict:
        return {
            "video_id": self.video_id,
            "clip_start_s": self.clip_start_s,
            "clip_end_s": self.clip_end_s,
            "prompt_version": self.prompt_version,
            "backend_id": self.backend_id,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NarrationCacheKey":
        return cls(
            payload["video_id"],
            float(payload["clip_start_s"]),
            float(payload["clip_end_s"]),
            payload["prompt_version"],
            payload["backend_id"],
        )


class NarrationCache:
    """Append-only keyed narration store, optionally persisted as JSONL.

    Corrupt records are skipped with a warning. Writes are serialized and
    flushed per record; reads are lock-free after load.
    """

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        self._entries: dict[NarrationCacheKey, str] = {}
        self._lock = threading.Lock()
        self._handle = None
        if self._path is not None:
            if self._path.exists():
                self._load()
            else:
                self._path.parent.mkdir(parents=True, exist_ok=True)

    def _load(self) -> None:
        with open(self._path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    key = NarrationCacheKey.from_dict(record["key"])
                    text = record["text"]
                    if not isinstance(text, str) or not text.strip():
                        raise ValueError("empty narration text")
                except (ValueError, KeyError, TypeError) as exc:
                    logger.warning(
                        "skipping corrupt cache record %s:%d (%s)",
                        self._path,
                        line_no,
                        exc,
                    )
                    continue
                self._entries[key] = text

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: NarrationCacheKey) -> str | None:
        return self._entries.get(key)

    def put(self, key: NarrationCacheKey, text: str) -> None:
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = text
            if self._path is None:
                return
            if self._handle is None:
                self._handle = open(self._path, "a", encoding="utf-8")
            record = {
                "key": key.to_dict(),
                "text": text,
                "created_at": datetime.now(timezone.utc).isoformat(),
            }
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class NarrationEngine:
    """Narrates the clips of many plans through one backend, with a cache,
    retries, one request per distinct clip and at most ``c_max`` requests
    in flight across all plans."""

    def __init__(
        self,
        backend: Backend,
        cache: NarrationCache | None = None,
        *,
        prompt: PromptTemplate = DEFAULT_PROMPT,
        max_images: int = MAX_IMAGES_PER_REQUEST,
        c_max: int = DEFAULT_C_MAX,
        retry_backoff_s: Sequence[float] = RETRY_BACKOFF_S,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if c_max < 1:
            raise SchemaViolation("c_max", f"must be >= 1, got {c_max}")
        self.backend = backend
        self.cache = cache if cache is not None else NarrationCache()
        self.prompt = prompt
        self.max_images = min(max_images, MAX_IMAGES_PER_REQUEST)
        self.c_max = c_max
        self._retry_backoff = tuple(retry_backoff_s)
        self._sleep = sleep
        self._stats_lock = threading.Lock()
        self._cache_hits = 0
        self._cache_misses = 0
        self._clips_requested = 0
        self._clips_unique = 0

    def stats(self) -> dict:
        """Cache hits and misses count distinct clips; ``clips_requested``
        counts clip references across all plans."""
        with self._stats_lock:
            return {
                "backend_calls": self.backend.narrate_calls,
                "cache_hits": self._cache_hits,
                "cache_misses": self._cache_misses,
                "clips_requested": self._clips_requested,
                "clips_unique": self._clips_unique,
            }

    def close(self) -> None:
        self.cache.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _check_frames(self, frame_timestamps: Sequence[float]) -> None:
        if not frame_timestamps:
            raise SchemaViolation("frame_timestamps", "clip has no frames to narrate")
        if len(frame_timestamps) > self.max_images:
            raise ImageLimitExceededError(
                f"{len(frame_timestamps)} frames exceed the per-request cap "
                f"of {self.max_images}"
            )

    def _key(self, video_id: str, clip: TimeInterval) -> NarrationCacheKey:
        version, backend = self.prompt.version, self.backend.backend_id
        return NarrationCacheKey(video_id, clip.start_s, clip.end_s, version, backend)

    def narrate_clip(
        self, video_id: str, clip: TimeInterval, frame_timestamps: Sequence[float]
    ) -> str:
        """Cached narration for one clip; retries transient failures."""
        self._check_frames(frame_timestamps)
        key = self._key(video_id, clip)
        cached = self.cache.get(key)
        if cached is not None:
            with self._stats_lock:
                self._cache_hits += 1
            return cached
        with self._stats_lock:
            self._cache_misses += 1
        request = BackendRequest(
            video_id,
            clip,
            tuple(FrameRef(video_id, t) for t in frame_timestamps),
            self.prompt,
        )
        text = self._call_with_retries(request)
        self.cache.put(key, text)
        return text

    def _call_with_retries(self, request: BackendRequest) -> str:
        last_error: Exception | None = None
        attempts = 1 + len(self._retry_backoff)
        for attempt in range(attempts):
            if attempt > 0:
                self._sleep(self._retry_backoff[attempt - 1])
            try:
                response = self.backend.narrate(request)
            except BackendUnavailableError as exc:
                last_error = exc
                continue
            text = response.text.strip()
            if text:
                return text
            last_error = EmptyNarrationError(
                f"backend '{self.backend.backend_id}' returned empty text"
            )
        if isinstance(last_error, EmptyNarrationError):
            raise last_error
        raise BackendUnavailableError(
            f"backend '{self.backend.backend_id}' failed after {attempts} attempts"
        ) from last_error

    def narrate_plans(self, plans: Sequence[ClipPlan]) -> list[EpisodicMemory]:
        """Narrate every clip of every plan; one memory per plan, in order.

        Frame counts are checked before any backend call. Each distinct
        cache key is narrated at most once: hits are served inline, misses
        by ``min(c_max, misses)`` threads pulling from one shared iterator.
        The first failure stops the hand-out and is re-raised once every
        thread has joined; narrations finished before it stay cached.
        """
        jobs: dict[NarrationCacheKey, tuple] = {}
        for plan in plans:
            video_id = plan.candidate_key.video_id
            for clip, frames in zip(plan.clips, plan.frames):
                self._check_frames(frames)
                jobs.setdefault(self._key(video_id, clip), (video_id, clip, frames))
        misses = [job for key, job in jobs.items() if self.cache.get(key) is None]
        with self._stats_lock:
            self._clips_requested += sum(len(plan.clips) for plan in plans)
            self._clips_unique += len(jobs)
            self._cache_hits += len(jobs) - len(misses)
        pending, lock, errors = iter(misses), threading.Lock(), []

        def work() -> None:
            while True:
                with lock:
                    job = None if errors else next(pending, None)
                if job is None:
                    return
                try:
                    self.narrate_clip(*job)
                except Exception as exc:  # re-raised on the calling thread
                    errors.append(exc)
                    return

        workers = [threading.Thread(target=work) for _ in misses[: self.c_max]]
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        except BaseException as exc:  # an interrupt: stop the hand-out, then leave
            errors.append(exc)
            raise
        if errors:
            raise errors[0]
        return [
            build_episodic_memory(
                plan.candidate_key,
                plan,
                {
                    clip: self.cache.get(self._key(plan.candidate_key.video_id, clip))
                    for clip in plan.clips
                },
                prompt_version=self.prompt.version,
                backend_id=self.backend.backend_id,
            )
            for plan in plans
        ]


def build_episodic_memory(
    candidate_key: CandidateKey,
    plan: ClipPlan,
    narrations: Mapping[TimeInterval, str],
    *,
    prompt_version: str,
    backend_id: str,
) -> EpisodicMemory:
    """Assemble ordered memory entries from per-clip narrations.

    The result depends only on the mapping's contents, never on the order
    in which narrations completed.
    """
    entries = []
    for clip in sorted(plan.clips, key=lambda c: c.start_s):
        text = narrations.get(clip)
        if text is None:
            raise MissingNarrationError(
                f"no narration for clip [{clip.start_s}, {clip.end_s}) of "
                f"{candidate_key}"
            )
        entries.append(MemoryEntry(clip, text))
    return EpisodicMemory(
        candidate_key=candidate_key,
        entries=tuple(entries),
        prompt_version=prompt_version,
        backend_id=backend_id,
    )


def _compact_seconds(value: float) -> str:
    text = f"{value:.3f}".rstrip("0").rstrip(".")
    return text or "0"


def render_memory(memory: EpisodicMemory) -> str:
    """Human-readable document: a header line, then one line per entry."""
    span = memory.span
    lines = [
        f"candidate {memory.candidate_key.rank} "
        f"[{_compact_seconds(span.start_s)}-{_compact_seconds(span.end_s)}]s"
    ]
    for entry in memory.entries:
        lines.append(
            f"[{_compact_seconds(entry.clip.start_s)}-"
            f"{_compact_seconds(entry.clip.end_s)}]s: {entry.narration}"
        )
    return "\n".join(lines)


def write_memories(memories: Sequence[EpisodicMemory], path: str | Path) -> None:
    """One JSON-Lines record per candidate memory, deterministically ordered."""
    ordered = sorted(memories, key=lambda m: m.candidate_key)
    with atomic_writer(path) as handle:
        for memory in ordered:
            record = {
                "video_id": memory.candidate_key.video_id,
                "query_id": memory.candidate_key.query_id,
                "rank": memory.candidate_key.rank,
                "prompt_version": memory.prompt_version,
                "backend_id": memory.backend_id,
                "entries": [
                    {
                        "clip_start_s": entry.clip.start_s,
                        "clip_end_s": entry.clip.end_s,
                        "narration": entry.narration,
                    }
                    for entry in memory.entries
                ],
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_memories(path: str | Path) -> list[EpisodicMemory]:
    memories = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                memory = EpisodicMemory(
                    candidate_key=CandidateKey(
                        record["video_id"], record["query_id"], record["rank"]
                    ),
                    entries=tuple(
                        MemoryEntry(
                            TimeInterval(e["clip_start_s"], e["clip_end_s"]),
                            e["narration"],
                        )
                        for e in record["entries"]
                    ),
                    prompt_version=record["prompt_version"],
                    backend_id=record["backend_id"],
                )
            except (KeyError, TypeError, json.JSONDecodeError) as exc:
                raise SchemaViolation(
                    "memories", f"{path}:{line_no}: malformed record ({exc})"
                ) from exc
            memories.append(memory)
    return memories
