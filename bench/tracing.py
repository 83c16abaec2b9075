"""In-memory spans around calls into each memrerank module, and the
per-layer metrics derived from them.

Each traced name is patched where its caller looks it up: ``cli`` reaches
most layers through module attributes (``clips.plan_candidate``), but
imports ``rerank_many`` by name, so that one is patched on ``cli``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import Counter
from typing import NamedTuple

import harness

# ``memrerank.rerank`` names both a module and a function the package
# re-exports, so the modules are fetched by their full names.
cli, clips, ingest, metrics, narration, rerank, sequencing = (
    importlib.import_module(f"memrerank.{name}")
    for name in ("cli", "clips", "ingest", "metrics", "narration", "rerank", "sequencing")
)


class Span(NamedTuple):
    span_id: int
    name: str
    pass_index: int  # spans of one pass share it
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.pass_index = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._stage_span: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        # Pool threads start with an empty stack; their cause is the stage.
        parent = stack[-1] if stack else self._stage_span
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, self.pass_index, start, end, parent))

    @contextlib.contextmanager
    def stage(self, stage: str):
        with self.span(f"cli.{stage}") as span_id:
            self._stage_span = span_id
            try:
                yield
            finally:
                self._stage_span = None

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[(self.pass_index, name)] += amount

    def _wrap(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, result, args)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the spans for the duration of the block."""
        tracer = self
        original_cache = narration.NarrationCache

        class TracedCache(original_cache):
            def __init__(self, *args, **kwargs):
                with tracer.span("narration.cache_load"):
                    super().__init__(*args, **kwargs)

        replacements = [(narration, "NarrationCache", TracedCache)]
        for owner, attr, name, after in _TARGETS:
            replacements.append((owner, attr, self._wrap(getattr(owner, attr), name, after)))
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        try:
            yield
        finally:
            for owner, attr, value in saved:
                setattr(owner, attr, value)

    def write(self, path, call_logs: dict) -> None:
        """Spans as JSON lines, backend calls included, one file per run."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")
            for pass_index, log in call_logs.items():
                for kind, start, end in log.spans:
                    record = {"name": f"backend.{kind}", "pass_index": pass_index,
                              "start": start, "end": end}
                    handle.write(json.dumps(record) + "\n")


def _count_plan(tracer, plan, args):
    tracer.count("clips.clips_planned", len(plan.clips))
    tracer.count("clips.frames_planned", sum(len(f) for f in plan.frames))


def _count_bytes(name):
    def after(tracer, result, args):
        tracer.count(name, os.path.getsize(args[1]))

    return after


def _count_call(name):
    def after(tracer, result, args):
        tracer.count(name)

    return after


_TARGETS = [
    (clips, "plan_candidate", "clips.plan", _count_plan),
    (clips, "write_frame_manifests", "clips.manifest_write", _count_bytes("clips.manifest_bytes")),
    (clips, "read_frame_manifests", "clips.manifest_read", None),
    (ingest, "load_annotations", "ingest.load", None),
    (ingest, "load_candidates", "ingest.load", None),
    (ingest, "load_predictions", "ingest.load", None),
    (ingest, "write_candidates", "ingest.write", _count_bytes("ingest.bytes_written")),
    (ingest, "write_predictions", "ingest.write", _count_bytes("ingest.bytes_written")),
    (narration, "write_memories", "narration.memories_write", None),
    (narration, "read_memories", "narration.memories_read", None),
    (narration.NarrationEngine, "narrate_clip", "", _count_call("narration.clip_calls")),
    (cli, "rerank_many", "rerank.many", None),
    (rerank, "build_rerank_prompt", "rerank.prompt_build", None),
    (sequencing, "optimize_sequence", "sequencing.optimize", None),
    (sequencing, "write_optimizer_report", "sequencing.report_write", None),
    (metrics, "evaluate_run", "metrics.evaluate", None),
    (metrics, "write_metrics_report", "metrics.write", None),
    (metrics, "write_comparison", "metrics.write", None),
]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def clipped_sum(intervals, lo: float, hi: float) -> float:
    """Sum of the parts of ``intervals`` inside [lo, hi] (overlaps count
    once per interval, so divided by hi - lo it is the mean in flight)."""
    return sum(max(0.0, min(e, hi) - max(s, lo)) for s, e in intervals)


def layer_metrics(tracer: Tracer, result: harness.PassResult) -> dict:
    """Per-layer metrics of the pass ``tracer.pass_index``."""
    spans = [s for s in tracer.spans if s.pass_index == tracer.pass_index]
    counts = {name: n for (p, name), n in tracer.counts.items() if p == tracer.pass_index}

    def total(name):
        return sum((s.duration for s in spans if s.name == name), 0.0)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def window(name):
        found = [s for s in spans if s.name == name]
        return (found[0].start, found[0].end) if found else (0.0, 0.0)

    log = result.log
    narr = [(s, e) for kind, s, e in log.spans if kind == "narrate"]
    sel = [(s, e) for kind, s, e in log.spans if kind == "select"]
    prompts = [(s.start, s.end) for s in spans if s.name == "rerank.prompt_build"]
    out = {f"cli.{stage}_s": total(f"cli.{stage}") for stage in harness.STAGES}

    n_lo, n_hi = window("cli.narrate")
    narrate_s = n_hi - n_lo
    stats_path = result.cache_dir / cli.NARRATE_STATS_FILE
    stats = json.loads(stats_path.read_text()) if stats_path.exists() else {}
    hits, misses = stats.get("cache_hits", 0), stats.get("cache_misses", 0)
    unique, retries, duplicates = log.key_stats("narrate")
    out.update({
        "narration.inflight_peak": log.peak["narrate"],
        "narration.inflight_mean": clipped_sum(narr, n_lo, n_hi) / narrate_s if narrate_s else 0.0,
        "narration.backend_calls": log.calls["narrate"],
        "narration.backend_busy_s": sum((e - s for s, e in narr), 0.0),
        "narration.self_s": narrate_s - covered(narr, n_lo, n_hi),
        "narration.clip_calls": counts.get("narration.clip_calls", 0),
        "narration.cache_hits": hits,
        "narration.cache_misses": misses,
        "narration.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "narration.duplicate_calls": duplicates,
        # With no calls nothing was wasted.
        "narration.useful_call_ratio": unique / log.calls["narrate"] if log.calls["narrate"] else 1.0,
        "narration.retries": retries,
        "narration.cache_load_s": total("narration.cache_load"),
        "narration.memories_write_s": total("narration.memories_write"),
        "narration.memories_read_s": total("narration.memories_read"),
    })

    r_lo, r_hi = window("cli.rerank")
    rerank_s = r_hi - r_lo
    m_lo, m_hi = window("rerank.many")
    backend_error, unparseable = harness.fallbacks(result.out) if result.ok else (0, 0)
    out.update({
        "rerank.select_calls": log.calls["select"],
        "rerank.select_busy_s": sum((e - s for s, e in sel), 0.0),
        "rerank.select_inflight_peak": log.peak["select"],
        "rerank.select_inflight_mean": clipped_sum(sel, r_lo, r_hi) / rerank_s if rerank_s else 0.0,
        "rerank.prompt_build_s": total("rerank.prompt_build"),
        "rerank.self_s": (m_hi - m_lo) - covered(sel + prompts, m_lo, m_hi),
        "rerank.fallbacks_backend_error": backend_error,
        "rerank.fallbacks_unparseable": unparseable,
    })
    out.update({
        "clips.plan_s": total("clips.plan"),
        "clips.clips_planned": counts.get("clips.clips_planned", 0),
        "clips.frames_planned": counts.get("clips.frames_planned", 0),
        "clips.manifest_write_s": total("clips.manifest_write"),
        "clips.manifest_read_s": total("clips.manifest_read"),
        "clips.manifest_bytes": counts.get("clips.manifest_bytes", 0),
        "ingest.load_s": total("ingest.load"),
        "ingest.load_calls": calls("ingest.load"),
        "ingest.write_s": total("ingest.write"),
        "ingest.bytes_written": counts.get("ingest.bytes_written", 0),
        "sequencing.optimize_s": total("sequencing.optimize"),
        "sequencing.optimize_calls": calls("sequencing.optimize"),
        "sequencing.report_write_s": total("sequencing.report_write"),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.write_s": total("metrics.write"),
        "proc.cpu_s": result.cpu_s,
        "backend.injected_failures": log.injected,
    })
    return out
