"""Tests of the benchmark itself, on a tiny scenario.

    PYTHONPATH=src python3 -m pytest bench -q -s

``-s`` shows the measured tracing overhead.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402

TINY = harness.Workload("tiny", "goalstep", 3, 3, latency_s=0.02, setup_reps=1)
FLAKY = harness.Workload(
    "tiny-flaky", "goalstep", 3, 3, latency_s=0.02, cache="snapshot", snapshot_top_k=3,
    narration_failures=1, select_failures=2, setup_reps=1,
)


def outputs(out: Path) -> dict:
    return {name: (out / name).read_bytes() for name in harness.COMPARED_FILES}


def wrapped_pass(prep, out: Path, **kwargs) -> harness.PassResult:
    cache_dir = harness.pass_dirs(prep, out)
    return harness.run_pass(
        prep.workload, out, cache_dir, c_max=harness.C_MAX,
        latency_s=prep.workload.latency_s, schedule=prep.schedule, **kwargs,
    )


def test_wrapper_leaves_outputs_byte_identical(tmp_path):
    prep = harness.prepare(TINY, 7, tmp_path)
    plain = tmp_path / "plain"
    harness.fresh_run_dir(prep.base, plain)
    for stage in TINY.stages:
        assert harness.run_cli([stage, "--out", str(plain), "--backend", "stub"]) == 0
    result = wrapped_pass(prep, tmp_path / "wrapped")
    assert result.ok and result.log.calls["narrate"] > 0
    assert outputs(result.out) == outputs(plain)
    # An empty cache: every needed request reaches the backend once.
    assert result.log.calls["narrate"] + result.log.calls["select"] == prep.needed


def test_inflight_counter_and_failure_schedule_repeat(tmp_path):
    prep = harness.prepare(FLAKY, 7, tmp_path)
    assert len(prep.schedule.narration_keys) == 1
    reference = harness.run_reference(prep, tmp_path)
    logs = []
    for name in ("one", "two"):
        result = wrapped_pass(prep, tmp_path / name)
        assert harness.check_pass(result, reference, FLAKY) == []
        logs.append(result.log)
    one, two = logs
    assert one.injected == 3 and one.key_stats("narrate")[1] == 1
    assert harness.fallbacks(tmp_path / "two") == (2, harness.fallbacks(reference.out)[1])
    assert (one.calls, one.peak, one.injected, one.failed_keys) == (
        two.calls, two.peak, two.injected, two.failed_keys,
    )
    assert one.peak["narrate"] >= 2


def test_gate_rejects_a_changed_output(tmp_path):
    prep = harness.prepare(TINY, 7, tmp_path)
    reference = harness.run_reference(prep, tmp_path)
    result = wrapped_pass(prep, tmp_path / "pass")
    path = result.out / harness.cli.RERANK_LOG_FILE
    path.write_text(path.read_text() + "\n")
    assert harness.check_pass(result, reference, TINY) == [
        f"{harness.cli.RERANK_LOG_FILE} differs from the reference pass"
    ]


def test_traced_pass_matches_untraced_and_reports_overhead(tmp_path):
    prep = harness.prepare(TINY, 7, tmp_path)
    start = time.perf_counter()
    plain = wrapped_pass(prep, tmp_path / "plain")
    plain_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    start = time.perf_counter()
    with tracer.patched():
        traced = wrapped_pass(prep, tmp_path / "traced", tracer=tracer)
    traced_s = time.perf_counter() - start
    assert outputs(traced.out) == outputs(plain.out)
    layers = tracing.layer_metrics(tracer, traced)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert layers["narration.backend_calls"] == plain.log.calls["narrate"]
    assert layers["narration.cache_hits"] == 0
    assert layers["sequencing.optimize_calls"] == TINY.videos
    print(f"\ntracing overhead on the tiny pass: {traced_s / plain_s - 1:+.1%}")


def test_interval_helpers():
    intervals = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]
    assert tracing.covered(intervals, 0.0, 10.0) == 4.0
    assert tracing.covered(intervals, 1.5, 5.5) == 2.0
    assert tracing.clipped_sum(intervals, 0.0, 10.0) == 5.0


def seeds(*values) -> dict:
    return dict(enumerate(values, start=501))


@pytest.mark.parametrize(
    "base, new, expected",
    [
        (seeds(10.0, 10.1, 9.9, 10.0), seeds(10.0, 10.05, 9.95, 10.0), "within bound"),
        (seeds(10.0, 10.1, 9.9, 10.0), seeds(7.0, 7.1, 6.9, 7.0), "WORSE beyond bound"),
        (seeds(10.0, 14.0, 6.0, 10.0), seeds(10.0, 10.0, 10.0, 10.0), "unresolved"),
        # Inputs that differ between seeds are not noise: changes are paired.
        (seeds(10.0, 14.0, 6.0, 12.0), seeds(11.0, 15.4, 6.6, 13.2), "better"),
    ],
)
def test_compare_verdicts(base, new, expected):
    metric = {"name": "queries_per_s", "better": "higher", "bound": 0.2}
    assert compare.verdict(base, new, metric) == expected


def test_compare_reports_any_change_of_an_exact_metric():
    metric = {"name": "mean_r1", "better": "higher", "bound": 0.1}
    base = seeds(77.0, 80.0, 70.0, 75.0)
    assert compare.verdict(base, dict(base), metric) == "within bound"
    new = seeds(77.0, 79.0, 70.0, 75.0)
    assert compare.verdict(base, new, metric) == "within bound (changed on 1 of 4 seeds)"
    drop = {seed: value * 63 / 77 for seed, value in base.items()}
    assert compare.verdict(base, drop, metric) == "WORSE beyond bound (changed on 4 of 4 seeds)"


def test_compare_prints_each_metric_of_two_result_sets(tmp_path, capsys):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    paths = []
    for side, scale in (("base", 1.0), ("new", 0.5)):
        path = tmp_path / f"{side}.jsonl"
        records = [
            {"workload": "warm-local", "seed": seed, "trace": 0, "stage_sum_s": 1.0,
             "metrics": {"queries_per_s": {"value": 100.0 * scale + seed % 3, "unit": "1/s"},
                         "mean_r1": {"value": 70.0 + seed % 5, "unit": "%"}}}
            for seed in range(501, 511)
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        paths.append(path)
    assert compare.main(paths, spec) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "## warm-local (untraced; runs: 10, 10)"
    assert lines[1].startswith("queries_per_s") and lines[1].endswith("WORSE beyond bound")
    assert lines[2].startswith("mean_r1") and lines[2].endswith("within bound")


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cold-latency", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
