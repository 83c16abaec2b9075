"""Drive a multimodal backend to narrate clips into episodic memories.

The backend is pluggable: deterministic stubs and oracles live in
:mod:`memrerank.synth`; the HTTP client lives in :mod:`memrerank.remote`.
A narration request is structured (video id, clip bounds, the clip's
sampling and prompt text): the scripted backends read its fields, and
only the HTTP client derives its frames and renders the instruction text.
Narrations are cached on disk keyed by (video, clip, sampling, prompt
version, backend), so re-running a dataset with a warm cache issues zero
backend calls. One narrate run schedules every distinct clip of every plan
at once: each cache key reaches the backend at most once, and at most
``c_max`` requests are in flight across the whole run; a clip waiting out
a retry backoff holds none of them, and its first retry runs as soon as
another call is answered (:func:`dispatch`, which the rerank stage's
selections go through too). A blank narration is retried as an
unavailable backend is. Memories files are JSON Lines written and read
through :mod:`memrerank.ingest`. The cache is a :class:`ReplyCache`, the
append-only log the rerank stage keeps its selection replies in too; torn
or corrupt records are skipped and then removed from it.
"""

from __future__ import annotations

import abc
import hashlib
import heapq
import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import clips
from .core import CandidateKey, EpisodicMemory, MemoryEntry, TimeInterval, checked, interval_of
from .errors import BackendUnavailableError, SchemaViolation
from .ingest import MALFORMED, atomic_writer, encode_record, read_jsonl, write_jsonl

logger = logging.getLogger(__name__)

DEFAULT_C_MAX = 4
# The most requests in flight a run may ask for; each is one worker thread.
MAX_C_MAX = 64
RETRY_BACKOFF_S = (1.0, 2.0, 4.0)

DEFAULT_PROMPT = (
    "Describe what happens in these frames in one to three sentences. "
    "Mention the visible objects, the actions performed, and any "
    "hand-object interactions."
)


class FrameRef(NamedTuple):
    """A frame addressed by video id and timestamp; pixels live elsewhere."""

    video_id: str
    timestamp_s: float


def prompt_version(prompt: str) -> str:
    """The version of a narration prompt that its cache keys carry; it tracks the text."""
    return f"narr-{hashlib.sha256(prompt.encode('utf-8')).hexdigest()[:12]}"


@dataclass(frozen=True, slots=True)
class BackendRequest:
    """One narration request: a clip of a video, the clip's sampling and
    the prompt the instruction is rendered from."""

    video_id: str
    clip: TimeInterval
    fps: float
    clip_len_s: float
    prompt: str = DEFAULT_PROMPT

    @property
    def images(self) -> tuple[FrameRef, ...]:
        """The clip's frames in order (:func:`clips.clip_frames`), derived on each read."""
        frames = clips.clip_frames(self.clip, self.fps, self.clip_len_s)
        return tuple(FrameRef(self.video_id, t) for t in frames)


class Backend(abc.ABC):
    """Multimodal model interface: narrate frame batches, answer selections.

    Subclasses implement ``_narrate`` and ``_select``, each returning the
    reply text; the public methods count invocations so cache coherence
    can be asserted.
    """

    backend_id: str = "backend"
    # False for a selector that reads what its prompt's text does not hold
    # (the oracle's ground truth): its replies are never cached.
    selects_from_prompt: bool = True

    def __init__(self):
        self._call_lock = threading.Lock()
        self.narrate_calls = 0
        self.select_calls = 0

    def narrate(self, request: BackendRequest) -> str:
        with self._call_lock:
            self.narrate_calls += 1
        return self._narrate(request)

    def select(self, prompt: str) -> str:
        with self._call_lock:
            self.select_calls += 1
        return self._select(prompt)

    @abc.abstractmethod
    def _narrate(self, request: BackendRequest) -> str: ...

    @abc.abstractmethod
    def _select(self, prompt: str) -> str: ...


class NarrationCacheKey(NamedTuple):
    """Everything a narration request is built from: a clip of a video,
    sampled as :func:`clips.clip_frames` says, and who narrates it how."""

    video_id: str
    clip_start_s: float
    clip_end_s: float
    fps: float
    clip_len_s: float
    prompt_version: str
    backend_id: str

    @classmethod
    def from_dict(cls, payload: dict) -> "NarrationCacheKey":
        """The key of a cache record, refused when no request can have it."""
        clip = interval_of(payload, "clip_start_s", "clip_end_s")
        clips.check_sampling(payload["fps"], payload["clip_len_s"])
        return cls(
            checked(payload["video_id"], (str,), "video_id"),
            clip.start_s,
            clip.end_s,
            payload["fps"],
            payload["clip_len_s"],
            checked(payload["prompt_version"], (str,), "prompt_version"),
            checked(payload["backend_id"], (str,), "backend_id"),
        )


class ReplyCache:
    """Append-only store of backend replies keyed by ``key_type``, optionally
    persisted as JSONL. Blank replies are never stored.

    Corrupt records are skipped with a warning. Each record is one write to
    a file opened ``O_APPEND``, made outside the lock: whole, never
    interleaved with another put's, and in the file when ``put`` returns.
    Reads are lock-free after load.
    """

    key_type: type  # a NamedTuple class with a ``from_dict`` constructor

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        self._entries: dict = {}
        self._lock = threading.Lock()
        self._fd = None
        if self._path is not None and self._path.exists():
            self._load()

    def _load(self) -> None:
        """Read the records. When one is corrupt (it is warned about), or the
        last line lacks its newline, the file is read again and rewritten
        from the valid records, byte for byte, so no warning repeats and the
        next put starts a line of its own; a clean file is left as it is."""
        bad, raw = set(), b"\n"  # the line numbers of corrupt records
        with open(self._path, "rb") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line.decode("utf-8"))
                    key = self.key_type.from_dict(record["key"])
                    text = record["text"]
                    if not isinstance(text, str) or not text.strip():
                        raise ValueError("empty reply text")
                except MALFORMED as exc:
                    logger.warning(
                        "skipping corrupt cache record %s:%d (%s)", self._path, line_no, exc
                    )
                    bad.add(line_no)
                    continue
                self._entries[key] = text
        if bad or not raw.endswith(b"\n"):
            with open(self._path, "rb") as source, atomic_writer(self._path) as handle:
                handle.writelines(
                    line.decode("utf-8").removesuffix("\n") + "\n"
                    for line_no, line in enumerate(source, start=1)
                    if line.strip() and line_no not in bad
                )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: NamedTuple) -> str | None:
        return self._entries.get(key)

    def put(self, key: NamedTuple, text: str) -> None:
        """Store ``text`` under ``key`` unless it is blank (the loader would
        reject it) or the key holds a reply already."""
        if not text.strip():
            return
        with self._lock:  # not held across the encoding and write, which would convoy the workers
            if key in self._entries:
                return
            self._entries[key] = text
            if self._path is None:
                return
            if self._fd is None:
                self._fd = os.open(self._path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            fd = self._fd
        created_at = datetime.now(timezone.utc).isoformat()
        line = encode_record({"key": key._asdict(), "text": text, "created_at": created_at})
        data = (line + "\n").encode("utf-8")
        if os.write(fd, data) != len(data):
            raise OSError(f"short write to {self._path}")

    def close(self) -> None:
        """Close the file once no put is writing; a later put opens it again."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class NarrationCache(ReplyCache):
    """Narrations, keyed by everything their request is built from."""

    key_type = NarrationCacheKey


class Clock:
    """Backoff time; tests substitute a clock whose ``wait`` advances ``now``."""

    now = staticmethod(time.monotonic)

    def wait(self, condition: threading.Condition, timeout: float) -> None:
        condition.wait(timeout)  # returns early when notified


def dispatch(
    call: Callable, items: Sequence, c_max: int, clock: Clock = Clock(), on_retry=lambda: None
) -> list:
    """Run ``call`` on each of ``items`` on at most ``min(c_max,
    len(items))`` threads; return the results in order. A transient failure
    (``BackendUnavailableError``, which a blank narration raises too) is
    queued again, due ``RETRY_BACKOFF_S[n - 1]`` s after the n-th, and
    reported to ``on_retry``, while its worker takes the next ready call (a
    due retry first). A call that returns releases the earliest queued
    first retry, which its worker runs next: a backend that answers need
    not be waited out; later retries keep their backoff. Any other error
    (an interrupt raised in a call too), or a last transient failure,
    wrapped as ``failed after N attempts``, stops the hand-out (no retry is
    released after that) and is re-raised here once the calls in flight
    finish; an interrupt of the calling thread wakes every waiter."""
    if c_max < 1:
        raise SchemaViolation("c_max", f"must be >= 1, got {c_max}")
    results, errors, delayed = [None] * len(items), [], []  # (due, index, failures)
    fresh, ready = ((i, 0) for i in range(len(items))), threading.Condition()

    def next_call(answered: bool) -> tuple[int, int] | None:
        with ready:
            if answered and not errors and (firsts := [job for job in delayed if job[2] == 1]):
                delayed.remove(released := min(firsts))  # the earliest first retry
                heapq.heapify(delayed)
                return released[1:]
            while not errors:
                now = clock.now()
                if delayed and delayed[0][0] <= now:
                    return heapq.heappop(delayed)[1:]
                job = next(fresh, None)
                if job or not delayed:
                    return job  # None: a call in flight is retried by its own worker
                clock.wait(ready, delayed[0][0] - now)

    def stop(exc: BaseException) -> None:
        with ready:
            errors.append(exc)
            ready.notify_all()

    def work() -> None:
        answered = False
        while job := next_call(answered):
            index, failures = job
            try:
                results[index], answered = call(items[index]), True
            except BaseException as exc:  # re-raised on the calling thread
                answered = False
                transient = isinstance(exc, BackendUnavailableError)
                if transient and failures < len(RETRY_BACKOFF_S):
                    with ready:
                        due = clock.now() + RETRY_BACKOFF_S[failures]
                        heapq.heappush(delayed, (due, index, failures + 1))
                    on_retry()
                    continue
                if transient:
                    exc = BackendUnavailableError(f"failed after {failures + 1} attempts: {exc}")
                return stop(exc)

    workers = [threading.Thread(target=work) for _ in items[:c_max]]
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    except BaseException as exc:  # an interrupt: stop the hand-out, then leave
        stop(exc)
        raise
    if errors:
        raise errors[0]
    return results


class NarrationEngine:
    """Narrates the clips of many plans through one backend, with a cache,
    retries, one request per distinct clip and at most ``c_max`` requests
    in flight across all plans. A file cache is the caller's to close."""

    def __init__(
        self,
        backend: Backend,
        cache: NarrationCache | None = None,
        *,
        prompt: str = DEFAULT_PROMPT,
        c_max: int = DEFAULT_C_MAX,
        clock: Clock = Clock(),
    ):
        self.backend = backend
        self.cache = cache if cache is not None else NarrationCache()
        self.prompt = prompt
        self.c_max = c_max
        self.clock = clock
        self._stats_lock = threading.Lock()
        self._counts = dict.fromkeys(
            ("cache_hits", "cache_misses", "clips_requested", "clips_unique", "retries"), 0
        )

    def stats(self) -> dict:
        """Cache hits and misses count distinct clips; ``clips_requested``
        counts clip references across all plans; ``retries`` counts the
        transient failures that were queued again."""
        with self._stats_lock:
            return {"backend_calls": self.backend.narrate_calls, **self._counts}

    def _count(self, **amounts: int) -> None:
        with self._stats_lock:
            for name, amount in amounts.items():
                self._counts[name] += amount

    def narrate_clip(
        self, video_id: str, clip: TimeInterval, fps: float, clip_len_s: float
    ) -> str:
        """Cached narration for one clip, sampled as a plan of ``fps`` and
        ``clip_len_s`` samples it: a one-candidate :meth:`narrate_plans`.
        A clip longer than ``clip_len_s`` is cut as a candidate is, each
        piece narrated and cached, and the first piece's narration returned."""
        plan = clips.ClipPlan(CandidateKey(video_id, "", 1), clip, fps, clip_len_s)
        return self.narrate_plans([plan])[0].entries[0].narration

    def narrate_plans(self, plans: Sequence[clips.ClipPlan]) -> list[EpisodicMemory]:
        """Narrate every clip of every plan; one memory per plan, in order.

        Each distinct cache key is narrated at most once: hits are served
        inline and misses by one :func:`dispatch`. Narrations finished
        before a failure stay cached.
        """
        version, backend_id = prompt_version(self.prompt), self.backend.backend_id
        plan_keys = [
            [NarrationCacheKey(plan.candidate_key.video_id, clip.start_s, clip.end_s, plan.fps,
                               plan.clip_len_s, version, backend_id) for clip in plan.clips]
            for plan in plans
        ]
        unique = dict.fromkeys(key for keys in plan_keys for key in keys)
        misses = [key for key in unique if self.cache.get(key) is None]

        def call(key: NarrationCacheKey) -> None:
            clip = TimeInterval(key.clip_start_s, key.clip_end_s)
            request = BackendRequest(key.video_id, clip, key.fps, key.clip_len_s, self.prompt)
            text = self.backend.narrate(request)
            if not text.strip():
                raise BackendUnavailableError(f"backend '{backend_id}' returned empty text")
            self.cache.put(key, text.strip())

        self._count(clips_requested=sum(map(len, plan_keys)), clips_unique=len(unique))
        self._count(cache_hits=len(unique) - len(misses), cache_misses=len(misses))
        dispatch(call, misses, self.c_max, self.clock, on_retry=lambda: self._count(retries=1))
        get = self.cache.get
        return [
            EpisodicMemory(
                plan.candidate_key,
                tuple(MemoryEntry(clip, get(key)) for clip, key in zip(plan.clips, keys)),
                version,
                backend_id,
            )
            for plan, keys in zip(plans, plan_keys)
        ]


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
    write_jsonl(
        (
            {
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
            for memory in sorted(memories, key=lambda m: m.candidate_key)
        ),
        path,
    )


def _memory_from_record(record) -> EpisodicMemory:
    return EpisodicMemory(
        candidate_key=CandidateKey.from_record(record),
        entries=tuple(
            MemoryEntry(interval_of(e, "clip_start_s", "clip_end_s"), e["narration"])
            for e in record["entries"]
        ),
        prompt_version=checked(record["prompt_version"], (str,), "prompt_version"),
        backend_id=checked(record["backend_id"], (str,), "backend_id"),
    )


def read_memories(path: str | Path) -> list[EpisodicMemory]:
    return read_jsonl(path, "memories", _memory_from_record)
