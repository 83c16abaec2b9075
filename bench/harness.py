"""Workloads, the latency/failure backend wrapper and the pass runner.

Every stage runs in-process through ``memrerank.cli.main``. The synthetic
backend is injected by replacing ``memrerank.synth.stub_backend`` (the
factory ``cli`` looks up by module attribute) with one that wraps the
stub it returns in a :class:`LatencyBackend`.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import logging
import math
import os
import resource
import shutil
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

if not (SRC / "memrerank" / "cli.py").is_file():
    raise ImportError(f"memrerank sources not found under {SRC}")
sys.path.insert(0, str(SRC))

# ``memrerank`` re-exports functions named like some of its modules, so
# modules are fetched by their full names.
cli, clips, ingest, synth = (
    importlib.import_module(f"memrerank.{name}") for name in ("cli", "clips", "ingest", "synth")
)
from memrerank.errors import BackendUnavailableError  # noqa: E402
from memrerank.narration import Backend, FrameRef  # noqa: E402
from memrerank.rerank import QUERY_LINE_PREFIX  # noqa: E402

STAGES = ("plan", "narrate", "rerank", "optimize", "eval", "report")
SIMULATE_FILES = (cli.SCENARIO_FILE, cli.ANNOTATIONS_FILE, cli.CANDIDATES_FILE)
# The byte-compared outputs of the end-to-end determinism criterion.
COMPARED_FILES = (
    cli.MEMORIES_FILE,
    cli.RERANK_LOG_FILE,
    cli.RERANKED_FILE,
    cli.PREDICTIONS_RERANK_FILE,
    cli.OPTIMIZER_REPORT_FILE,
    cli.PREDICTIONS_FINAL_FILE,
    cli.METRICS_BEFORE_FILE,
    cli.METRICS_AFTER_FILE,
    cli.METRICS_COMPARE_FILE,
)
TOP_K = 5
C_MAX = 4
# The planner's clip length as of the first benchmarked commit, kept as a
# fixed yardstick: the narration requests a workload needs are counted from
# its inputs with it, so a change to planning or caching shows in
# ``backend_call_ratio``.
YARDSTICK_CLIP_S = 20.0


@dataclass(frozen=True)
class Workload:
    """One seed-fixed input shape plus the backend and cache regime."""

    name: str
    track: str
    videos: int
    queries_per_video: int
    latency_s: float = 0.0
    # "cold": empty cache every pass; "warm": filled at set-up and shared;
    # "snapshot": filled at set-up at top-k ``snapshot_top_k``, copied
    # into each pass.
    cache: str = "cold"
    snapshot_top_k: int = TOP_K
    # First attempts failed, content-keyed. Fixed counts, not rates, keep
    # the retry backoff and the fallbacks the same from seed to seed.
    narration_failures: int = 0
    select_failures: int = 0
    setup_reps: int = 5

    @property
    def stages(self) -> tuple[str, ...]:
        if self.track == "nlq":
            return tuple(s for s in STAGES if s != "optimize")
        return STAGES


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold-latency", "goalstep", 60, 5, latency_s=0.012, setup_reps=21),
        Workload("warm-local", "goalstep", 150, 5, cache="warm", setup_reps=6),
        Workload(
            "flaky-nlq",
            "nlq",
            60,
            5,
            latency_s=0.003,
            cache="snapshot",
            snapshot_top_k=3,
            narration_failures=4,
            select_failures=6,
            setup_reps=12,
        ),
    )
}


def _unit_hash(seed: int, text: str) -> float:
    digest = hashlib.sha256(f"{seed}:{text}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _query_line(prompt: str) -> str:
    return prompt.split(QUERY_LINE_PREFIX, 1)[-1].split("\n", 1)[0]


@dataclass(frozen=True)
class FailureSchedule:
    """Which first attempts fail: narration requests keyed by their frames,
    and selection prompts keyed by their query text."""

    narration_keys: frozenset = frozenset()
    select_queries: frozenset = frozenset()


@dataclass
class CallLog:
    """Backend calls of one pass: counts always, intervals when tracing."""

    trace: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock)
    calls: dict = field(default_factory=lambda: {"narrate": 0, "select": 0})
    inflight: dict = field(default_factory=lambda: {"narrate": 0, "select": 0})
    peak: dict = field(default_factory=lambda: {"narrate": 0, "select": 0})
    injected: int = 0
    # (kind, key) -> [calls, injected failures]
    per_key: dict = field(default_factory=dict)
    failed_keys: set = field(default_factory=set)
    spans: list = field(default_factory=list)  # (kind, start, end)

    def begin(self, kind: str, key, fail: bool) -> bool:
        """Count a call; True if this call must raise an injected failure."""
        with self.lock:
            self.calls[kind] += 1
            self.inflight[kind] += 1
            self.peak[kind] = max(self.peak[kind], self.inflight[kind])
            counts = self.per_key.setdefault((kind, key), [0, 0])
            counts[0] += 1
            inject = fail and (kind, key) not in self.failed_keys
            if inject:
                self.failed_keys.add((kind, key))
                self.injected += 1
                counts[1] += 1
            return inject

    def end(self, kind: str, start: float) -> None:
        end = time.perf_counter()
        with self.lock:
            self.inflight[kind] -= 1
            if self.trace:
                self.spans.append((kind, start, end))

    def key_stats(self, kind: str) -> tuple[int, int, int]:
        """(unique keys, retries, duplicate calls) for one call kind.

        A retry is a call that follows an injected failure of its key; any
        other repeat call for a key is a duplicate."""
        unique = retries = duplicates = 0
        for (k, _), (calls, failures) in self.per_key.items():
            if k != kind:
                continue
            unique += 1
            again = calls - 1
            retries += min(again, failures)
            duplicates += again - min(again, failures)
        return unique, retries, duplicates


class LatencyBackend(Backend):
    """Wraps a scripted backend: fixed sleep per call, injected transient
    failures on scheduled first attempts, in-flight counting.

    Keeps the wrapped backend's ``backend_id`` so cache keys and outputs
    are byte-identical to an unwrapped run."""

    def __init__(self, inner: Backend, latency_s: float, schedule: FailureSchedule, log: CallLog):
        super().__init__()
        self.backend_id = inner.backend_id
        self._inner = inner
        self._latency_s = latency_s
        self._schedule = schedule
        self._log = log

    def _call(self, kind: str, key, fail: bool, answer):
        start = time.perf_counter()
        inject = self._log.begin(kind, key, fail)
        try:
            if self._latency_s:
                time.sleep(self._latency_s)
            if inject:
                raise BackendUnavailableError(f"injected transient {kind} failure")
            return answer()
        finally:
            self._log.end(kind, start)

    def _narrate(self, request):
        key = request.images
        return self._call(
            "narrate",
            key,
            key in self._schedule.narration_keys,
            lambda: self._inner._narrate(request),
        )

    def _select(self, prompt):
        return self._call(
            "select",
            hash(prompt),
            _query_line(prompt) in self._schedule.select_queries,
            lambda: self._inner._select(prompt),
        )


@contextlib.contextmanager
def injected_backend(latency_s: float, schedule: FailureSchedule, log: CallLog):
    """Make ``synth.stub_backend`` return wrapped stubs inside the block."""
    original = synth.stub_backend

    def factory(scenario):
        return LatencyBackend(original(scenario), latency_s, schedule, log)

    synth.stub_backend = factory
    try:
        yield
    finally:
        synth.stub_backend = original


def run_cli(argv: list[str]) -> int:
    """One stage through the user entry point; ``report`` prints its table,
    which is kept off the bench's own standard output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system


@dataclass
class PassResult:
    stage_s: dict
    cpu_s: float
    exit_codes: dict
    log: CallLog
    out: Path
    cache_dir: Path

    @property
    def ok(self) -> bool:
        return all(code == 0 for code in self.exit_codes.values())

    @property
    def wall_s(self) -> float:
        return sum(self.stage_s.values())


def run_pass(
    workload: Workload,
    out: Path,
    cache_dir: Path,
    *,
    c_max: int,
    latency_s: float,
    schedule: FailureSchedule,
    tracer=None,
) -> PassResult:
    """Run plan -> report once; stops at the first stage that exits non-zero.

    With a ``tracer`` each stage is a span and backend calls keep their
    intervals."""
    log = CallLog(trace=tracer is not None)
    common = [
        "--out", str(out),
        "--cache-dir", str(cache_dir),
        "--top-k", str(TOP_K),
        "--c-max", str(c_max),
        "--backend", "stub",
    ]
    stage_s, exit_codes = {}, {}
    cpu0 = _cpu_s()
    with injected_backend(latency_s, schedule, log):
        for stage in workload.stages:
            span = tracer.stage(stage) if tracer is not None else contextlib.nullcontext()
            start = time.perf_counter()
            with span:
                code = run_cli([stage, *common])
            stage_s[stage] = time.perf_counter() - start
            exit_codes[stage] = code
            if code != 0:
                break
    return PassResult(stage_s, _cpu_s() - cpu0, exit_codes, log, out, cache_dir)


def fresh_run_dir(source: Path, target: Path) -> None:
    """An output directory holding only the simulate outputs of ``source``."""
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    for name in SIMULATE_FILES:
        shutil.copyfile(source / name, target / name)


@dataclass
class Prepared:
    """A workload made ready for timed passes."""

    workload: Workload
    seed: int
    base: Path  # simulate outputs (and, for warm, the warm cache)
    setup_s: list
    schedule: FailureSchedule
    queries: int
    needed: int  # backend requests a pass needs, from ``needed_requests``
    snapshot: Path | None = None


def _setup_once(workload: Workload, seed: int, out: Path) -> float:
    """Simulation plus cache warm-up; returns its wall time."""
    shutil.rmtree(out, ignore_errors=True)
    start = time.perf_counter()
    steps = [[
        "simulate", "--out", str(out), "--seed", str(seed),
        "--videos", str(workload.videos),
        "--queries-per-video", str(workload.queries_per_video),
        "--track", workload.track,
    ]]
    if workload.cache != "cold":
        warm = ["--out", str(out), "--top-k", str(workload.snapshot_top_k),
                "--c-max", str(C_MAX)]
        steps += [["plan", *warm], ["narrate", *warm, "--backend", "stub"]]
    for argv in steps:
        code = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"set-up step {argv[0]} exited with code {code}")
    return time.perf_counter() - start


def _frame_keys(manifest: Path) -> dict:
    """Narration request key (the frame refs) -> owning candidate."""
    keys = {}
    for plan in clips.read_frame_manifests(manifest):
        video_id = plan.candidate_key.video_id
        for frames in plan.frames:
            keys.setdefault(
                tuple(FrameRef(video_id, t) for t in frames), plan.candidate_key
            )
    return keys


def _narration_failures(workload: Workload, seed: int, base: Path, work: Path) -> frozenset:
    """``workload.narration_failures`` requests that will reach the backend,
    ranked by a seeded content hash, at most one per candidate so that
    each costs one retry backoff on the critical path."""
    if not workload.narration_failures:
        return frozenset()
    plan_dir = work / "schedule"
    shutil.rmtree(plan_dir, ignore_errors=True)
    code = run_cli([
        "plan", "--out", str(plan_dir), "--top-k", str(TOP_K),
        "--candidates", str(base / cli.CANDIDATES_FILE),
        "--annotations", str(base / cli.ANNOTATIONS_FILE),
    ])
    if code != 0:
        raise RuntimeError(f"schedule plan exited with code {code}")
    cached = set(_frame_keys(base / cli.MANIFESTS_FILE)) if workload.cache != "cold" else set()
    misses = {k: c for k, c in _frame_keys(plan_dir / cli.MANIFESTS_FILE).items() if k not in cached}
    chosen, owners = [], set()
    for key in sorted(misses, key=lambda k: _unit_hash(seed, repr(k))):
        if misses[key] not in owners:
            owners.add(misses[key])
            chosen.append(key)
        if len(chosen) == workload.narration_failures:
            break
    shutil.rmtree(plan_dir)
    return frozenset(chosen)


def _select_failures(workload: Workload, seed: int, dataset) -> frozenset:
    """The query texts of ``workload.select_failures`` queries, ranked by a
    seeded hash of their ids. Selection has no retry, so each one becomes
    a fallback."""
    queries = sorted(dataset.iter_queries(), key=lambda q: _unit_hash(seed, q.query_id))
    return frozenset(q.text for q in queries[: workload.select_failures])


def _yardstick_clips(candidates: Path, top_k: int) -> set:
    """Distinct clips of the top-k candidates, cut at ``YARDSTICK_CLIP_S``."""
    keys = set()
    for clist in ingest.load_candidates(candidates, top_k=top_k):
        for candidate in clist.candidates:
            start, end = candidate.interval.start_s, candidate.interval.end_s
            for i in range(max(1, math.ceil((end - start) / YARDSTICK_CLIP_S))):
                clip_start = start + i * YARDSTICK_CLIP_S
                keys.add((clist.video_id, clip_start, min(clip_start + YARDSTICK_CLIP_S, end)))
    return keys


def needed_requests(workload: Workload, candidates: Path, queries: int) -> int:
    """Backend requests a pass needs: one narration per clip not in the
    cache it starts from, and one selection per query."""
    clips_needed = _yardstick_clips(candidates, TOP_K)
    if workload.cache == "warm":
        clips_needed = set()
    elif workload.cache == "snapshot":
        clips_needed -= _yardstick_clips(candidates, workload.snapshot_top_k)
    return len(clips_needed) + queries


def prepare(workload: Workload, seed: int, work: Path) -> Prepared:
    """Set up once (timed) and derive the failure schedule."""
    base = work / "base"
    setup_s = [_setup_once(workload, seed, base)]
    dataset = ingest.load_annotations(base / cli.ANNOTATIONS_FILE)
    schedule = FailureSchedule(
        _narration_failures(workload, seed, base, work),
        _select_failures(workload, seed, dataset),
    )
    queries = sum(1 for _ in dataset.iter_queries())
    needed = needed_requests(workload, base / cli.CANDIDATES_FILE, queries)
    snapshot = base / "cache" / cli.CACHE_FILE if workload.cache == "snapshot" else None
    return Prepared(workload, seed, base, setup_s, schedule, queries, needed, snapshot)


def repeat_setup(prep: Prepared, work: Path, count: int) -> None:
    """Time ``count`` more set-ups in a scratch directory; passes keep
    using the first one."""
    for _ in range(count):
        prep.setup_s.append(_setup_once(prep.workload, prep.seed, work / "setup_rep"))
    shutil.rmtree(work / "setup_rep", ignore_errors=True)


def pass_dirs(prep: Prepared, out: Path, *, reference: bool = False) -> Path:
    """Fresh output directory for a pass; returns the cache directory.

    The reference pass always starts from an empty cache, so its
    narrations are produced independently of the set-up warm-up."""
    fresh_run_dir(prep.base, out)
    cache_dir = out / "cache"
    cache_dir.mkdir()
    if reference or prep.workload.cache == "cold":
        return cache_dir
    if prep.workload.cache == "warm":
        return prep.base / "cache"
    shutil.copyfile(prep.snapshot, cache_dir / cli.CACHE_FILE)
    return cache_dir


def run_reference(prep: Prepared, work: Path) -> PassResult:
    """The correctness reference: same commit, seed and failure schedule,
    one request in flight, no added latency."""
    out = work / "reference"
    cache_dir = pass_dirs(prep, out, reference=True)
    return run_pass(prep.workload, out, cache_dir, c_max=1, latency_s=0.0, schedule=prep.schedule)


def fallbacks(out: Path) -> tuple[int, int]:
    """(backend-error, unparseable) selection fallbacks from the rerank log.

    A backend error leaves no raw answer; an unparseable reply keeps it."""
    backend_error = unparseable = 0
    with open(out / cli.RERANK_LOG_FILE, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    for record in records:
        if record.get("fallback_used"):
            if record.get("raw_answer"):
                unparseable += 1
            else:
                backend_error += 1
    return backend_error, unparseable


def read_compare(out: Path) -> dict:
    with open(out / cli.METRICS_COMPARE_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def _recall_cells(report: dict, k: int) -> list:
    return sorted((c["iou"], c["value"]) for c in report["cells"] if c["k"] == k)


def check_pass(result: PassResult, reference: PassResult, workload: Workload) -> list[str]:
    """Correctness gate; returns the problems found (empty when correct)."""
    problems = [f"{stage} exited with code {code}" for stage, code in result.exit_codes.items() if code]
    if problems or not reference.ok:
        return problems or ["reference pass failed"]
    for name in COMPARED_FILES:
        mine, theirs = result.out / name, reference.out / name
        if mine.exists() != theirs.exists():
            problems.append(f"{name} present in only one of pass and reference")
        elif theirs.exists() and mine.read_bytes() != theirs.read_bytes():
            problems.append(f"{name} differs from the reference pass")
    compare = read_compare(result.out)
    if _recall_cells(compare["before"], 5) != _recall_cells(compare["after"], 5):
        problems.append("R@5 changed between before and after")
    if workload.cache == "warm" and result.log.calls["narrate"]:
        problems.append(f"warm cache made {result.log.calls['narrate']} narration calls")
    return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quiet_logging() -> None:
    """Stage INFO lines would swamp the bench output; warnings still show."""
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
