"""Shared builders and independent oracles used across the test suite."""

from __future__ import annotations

import json
import logging
import random
import re
import threading
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import product
from typing import Sequence

from memrerank.cli import main
from memrerank.clips import ClipPlan, plan_candidate
from memrerank.core import (
    CandidateKey,
    CandidateList,
    CandidateSegment,
    Query,
    TimeInterval,
)
from memrerank.errors import ValidationError
from memrerank.ingest import Dataset, Track, VideoRecord
from memrerank.narration import BackendRequest
from memrerank.sequencing import DEFAULT_LAMBDA_PENALTY
from memrerank.synth import (
    EventScript,
    OracleSelectorBackend,
    Scenario,
    ScenarioKnobs,
    ScriptedEvent,
    query_text,
    stub_backend,
)


class ErrorRecords(logging.Handler):
    """The messages of the error records it is handed."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def run_logged(argv) -> tuple[int, list[str]]:
    """Exit code and error messages of ``cli.main(argv)``; its progress
    records are not made."""
    handler = ErrorRecords()
    logger = logging.getLogger("memrerank")
    logger.addHandler(handler)
    logger.setLevel(logging.ERROR)
    try:
        code = main([str(arg) for arg in argv])
    finally:
        logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)
    return code, handler.messages


def interval(start, end) -> TimeInterval:
    return TimeInterval(float(start), float(end))


def candidate(start, end, score) -> CandidateSegment:
    return CandidateSegment(interval(start, end), float(score))


def clist(video_id, query_id, triples) -> CandidateList:
    """Candidate list from (start, end, score) triples, in that order."""
    return CandidateList(video_id, query_id, tuple(candidate(*t) for t in triples))


def plan_list(clist_: CandidateList, clip_len_s=20.0, fps=1.0) -> list[ClipPlan]:
    """One clip plan per candidate of ``clist_``, keyed by its rank."""
    return [
        plan_candidate(
            CandidateKey(clist_.video_id, clist_.query_id, rank), c.interval, clip_len_s, fps
        )
        for rank, c in enumerate(clist_.candidates, start=1)
    ]


def frame_count_oracle(start: float, end: float) -> int:
    """Walk t from start in 1-second steps, counting frames strictly before
    the end; at least one frame is always produced."""
    count = 0
    t = start
    while t < end:
        count += 1
        t += 1.0
    return max(count, 1)


def iou_grid_oracle(a: TimeInterval, b: TimeInterval, points: int = 10_000) -> float:
    """Discretized IoU: midpoint sampling over the joint span."""
    lo = min(a.start_s, b.start_s)
    hi = max(a.end_s, b.end_s)
    if hi == lo:
        return 1.0 if (a.start_s, a.end_s) == (b.start_s, b.end_s) else 0.0
    h = (hi - lo) / points
    inter = union = 0
    for i in range(points):
        t = lo + (i + 0.5) * h
        in_a = a.start_s <= t < a.end_s
        in_b = b.start_s <= t < b.end_s
        inter += in_a and in_b
        union += in_a or in_b
    return inter / union if union else 0.0


def random_sequence_task(
    rng: random.Random, max_k: int = 6, max_c: int = 5
) -> tuple[CandidateList, ...]:
    """One video's step lists with random list sizes, starts, and scores."""
    k = rng.randint(1, max_k)
    lists = []
    for i in range(k):
        c = rng.randint(1, max_c)
        triples = []
        for _ in range(c):
            start = rng.uniform(0.0, 600.0)
            length = rng.uniform(1.0, 60.0)
            triples.append((start, start + length, rng.random()))
        # Positions stand in for descending-score order; the optimizer
        # only consumes ranks and starts.
        lists.append(clist("rv0", f"rv0-q{i}", triples))
    return tuple(lists)


BRUTE_FORCE_LIMIT = 1_000_000


def _exact_cost(lists: Sequence[CandidateList], choices: Sequence[int], lam: Fraction) -> Fraction:
    cost = Fraction(0)
    prev_start = None
    for clist_, choice in zip(lists, choices):
        cost += choice + 1
        start = clist_.candidates[choice].interval.start_s
        if prev_start is not None and prev_start > start:
            cost += lam * Fraction(prev_start - start)
        prev_start = start
    return cost


def brute_force_optimize(
    lists: Sequence[CandidateList], lambda_penalty: float = DEFAULT_LAMBDA_PENALTY
) -> tuple[int, ...]:
    """Exhaustive reference for ``optimize_sequence`` in ``Fraction``
    arithmetic: the least cost, ties broken by the smallest rank vector."""
    size = 1
    for clist_ in lists:
        size *= len(clist_)
        if size > BRUTE_FORCE_LIMIT:
            raise ValidationError(f"selection space exceeds {BRUTE_FORCE_LIMIT} combinations")
    lam = Fraction(lambda_penalty)
    choices = product(*(range(len(clist_)) for clist_ in lists))
    return min(choices, key=lambda c: (_exact_cost(lists, c, lam), c))


class WorstSelectorBackend(OracleSelectorBackend):
    """Adversarial selector: always picks the lowest-IoU candidate."""

    backend_id = "adversarial"

    def _select(self, prompt: str) -> str:
        ious = self._ious(prompt)
        worst = min(range(len(ious)), key=lambda i: (ious[i], i))
        return str(worst + 1)


def tiny_scenario() -> Scenario:
    """A handcrafted two-query scenario with a known event script.

    Video v0 (duration 200 s) scripts events e0 [10, 40), e1 [50, 62),
    e2 [70, 95), e3 [100, 130), e4 [140, 165). Query q0 targets e1,
    q1 targets e3. Candidate lists are fixed so tests can enumerate
    IoUs by hand.
    """
    video_id = "v0"
    events = (
        ScriptedEvent(interval(10, 40), "e0"),
        ScriptedEvent(interval(50, 62), "e1"),
        ScriptedEvent(interval(70, 95), "e2"),
        ScriptedEvent(interval(100, 130), "e3"),
        ScriptedEvent(interval(140, 165), "e4"),
    )
    q0 = Query(
        query_id="v0-q000",
        video_id=video_id,
        text=query_text("v0-q000", "e1"),
        order_index=0,
        ground_truth=interval(50, 62),
    )
    q1 = Query(
        query_id="v0-q001",
        video_id=video_id,
        text=query_text("v0-q001", "e3"),
        order_index=1,
        ground_truth=interval(100, 130),
    )
    lists = (
        clist(
            video_id,
            "v0-q000",
            [(10, 40, 0.9), (48, 60, 0.8), (70, 95, 0.7), (140, 165, 0.6), (12, 35, 0.5)],
        ),
        clist(
            video_id,
            "v0-q001",
            [(70, 95, 0.95), (10, 40, 0.85), (102, 131, 0.75), (140, 165, 0.65), (50, 62, 0.55)],
        ),
    )
    dataset = Dataset(
        track=Track.GOALSTEP,
        videos=(VideoRecord(video_id, 200.0, (q0, q1)),),
    )
    return Scenario(
        seed=0,
        knobs=ScenarioKnobs(num_videos=1, queries_per_video=2),
        dataset=dataset,
        event_script={video_id: events},
        candidates=lists,
    )


def candidates_by_query(scenario: Scenario) -> dict[str, CandidateList]:
    return {clist.query_id: clist for clist in scenario.candidates}


def ground_truth_by_query(scenario: Scenario) -> dict[str, TimeInterval]:
    return {
        q.query_id: q.ground_truth
        for q in scenario.dataset.iter_queries()
        if q.ground_truth is not None
    }


def selector(backend_class, scenario: Scenario):
    """A ground-truth selector class narrating from a scenario's event script."""
    return backend_class(lambda: scenario.event_script)


def reply(text: str) -> tuple[int, bytes]:
    """A scripted ``/generate`` answer: status 200 with ``{"text": text}``."""
    return 200, json.dumps({"text": text}).encode("utf-8")


def status(code: int) -> tuple[int, bytes]:
    """A scripted ``/generate`` answer with status ``code`` (a 429 or a 5xx)."""
    return code, b'{"error": "scripted"}'


MALFORMED = (200, b"not json")

_CONTEXT_LINES = re.compile(r"^Video: (.*)\nClip: (\S+) to (\S+) seconds$", re.MULTILINE)


class LoopbackEndpoint:
    """A stdlib HTTP server on 127.0.0.1 answering the remote backend's
    ``/generate`` protocol in place of a remote model, for tests that send
    real requests through ``requests``.

    A narration (a request with images) is answered by a stub over
    ``event_script``, for the clip its instruction's ``Video:`` and
    ``Clip:`` lines name. Every selection is answered with
    ``select_reply``. An answer queued in ``script[kind]`` ("narrate" or "select") goes to the next
    request of that kind instead (:func:`reply`, :func:`status`,
    :data:`MALFORMED`). ``payloads`` holds each request's JSON body in
    arrival order. Use it as a context manager, which shuts it down and
    joins its threads on exit."""

    def __init__(self, event_script: EventScript | None = None, select_reply: str = "1"):
        self.event_script = event_script or {}
        self.select_reply = select_reply
        self.script: dict[str, list[tuple[int, bytes]]] = {"narrate": [], "select": []}
        self.payloads: list[dict] = []
        self._lock = threading.Lock()
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            # Without it, Nagle's algorithm and delayed ACKs hold each
            # reply's body back for tens of milliseconds.
            disable_nagle_algorithm = True

            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                code, answer = endpoint._answer(json.loads(body))
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(answer)))
                self.end_headers()
                self.wfile.write(answer)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = False  # so closing joins every request thread
        # A short poll interval lets ``shutdown`` return at once.
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.02,))
        self._thread.start()

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_port}"

    def _answer(self, payload: dict) -> tuple[int, bytes]:
        kind = "narrate" if payload["images"] else "select"
        with self._lock:
            self.payloads.append(payload)
            if self.script[kind]:
                return self.script[kind].pop(0)
        if kind == "select":
            return reply(self.select_reply)
        video_id, start, end = _CONTEXT_LINES.search(payload["instruction"]).groups()
        clip = TimeInterval(float(start), float(end))
        # The stub narrates from the video and clip alone.
        request = BackendRequest(video_id, clip, 1.0, clip.end_s - clip.start_s)
        return reply(stub_backend(lambda: self.event_script).narrate(request))

    def __enter__(self) -> "LoopbackEndpoint":
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()  # joins the request threads
        self._thread.join(timeout=5)
