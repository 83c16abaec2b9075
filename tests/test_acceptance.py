"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) so the whole gate can be read at a glance:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from memrerank.cli import main as cli_main
from memrerank.clips import plan_clips, sample_frames
from memrerank.metrics import mean_r1, recall_at_k, temporal_iou
from memrerank.narration import NarrationEngine
from memrerank.rerank import rerank_many
from memrerank.sequencing import optimize_sequence, selection_cost
from memrerank.synth import (
    OracleSelectorBackend,
    ScenarioKnobs,
    generate_scenario,
    stub_backend,
)

from helpers import (
    WorstSelectorBackend,
    brute_force_optimize,
    frame_count_oracle,
    ground_truth_by_query,
    interval,
    iou_grid_oracle,
    plan_list,
    random_sequence_task,
    selector,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


# --- shared heavy fixtures ---------------------------------------------------


@pytest.fixture(scope="module")
def big_scenario():
    """Seed-fixed scenario with 1000 queries."""
    knobs = ScenarioKnobs(
        num_videos=200,
        queries_per_video=5,
        candidates_per_query=5,
        recall_rho=0.7,
        jitter_s=2.0,
        latent_positive_rate=0.1,
    )
    return generate_scenario(knobs, seed=1729)


@pytest.fixture(scope="module")
def big_memories(big_scenario):
    """Stub-narrated memories for every candidate of the big scenario."""
    engine = NarrationEngine(stub_backend(lambda: big_scenario.event_script))
    queries = {q.query_id: q for q in big_scenario.dataset.iter_queries()}
    items = {}
    for clist in big_scenario.candidates:
        memories = engine.narrate_plans(plan_list(clist))
        items[clist.query_id] = (queries[clist.query_id], clist, memories)
    return items


def rerank_all(items, backend):
    return dict(zip(items, rerank_many(list(items.values()), backend, c_max=1)))


# --- criteria ----------------------------------------------------------------


def test_01_leaderboard_mean_arithmetic():
    rows = [
        (63.02, 54.21, 58.61),
        (56.27, 40.20, 48.24),
        (53.39, 45.43, 49.41),
        (52.41, 44.55, 48.48),
        (36.47, 22.65, 29.56),
    ]
    with criterion(1, "leaderboard mean R@1 arithmetic"):
        for r1_03, r1_05, printed in rows:
            assert abs(mean_r1(r1_03, r1_05) - printed) <= 0.01


def test_02_optimizer_oracle_equivalence():
    with criterion(2, "optimizer equals exhaustive oracle on 500 instances"):
        rng = random.Random(20260101)
        lambdas = [0.0, 0.1, 1.0, 10.0]
        t0 = time.perf_counter()
        for i in range(500):
            task = random_sequence_task(rng, max_k=6, max_c=5)
            lam = lambdas[i % len(lambdas)]
            fast = optimize_sequence(task, lam)
            slow = brute_force_optimize(task, lam)
            assert fast == slow, f"instance {i}: {fast} != {slow}"
            assert selection_cost(task, fast, lam) == selection_cost(task, slow, lam)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_03_optimizer_scale():
    with criterion(3, "optimizer solves K=500, C=5 under one second"):
        from helpers import clist

        rng = random.Random(555)
        lists = []
        for i in range(500):
            triples = []
            for _ in range(5):
                start = rng.uniform(0.0, 600.0)
                triples.append((start, start + rng.uniform(1.0, 60.0), rng.random()))
            lists.append(clist("s", f"s-q{i}", triples))
        t0 = time.perf_counter()
        selection = optimize_sequence(lists)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        assert selection_cost(lists, selection, 1.0) <= selection_cost(lists, (0,) * 500, 1.0)


def test_04_r5_permutation_invariance(big_scenario, big_memories):
    with criterion(4, "R@5 bit-identical under any reranking backend"):
        gt = ground_truth_by_query(big_scenario)
        assert len(gt) >= 1000
        base_predictions = {
            query_id: clist.intervals()
            for query_id, (_, clist, _) in big_memories.items()
        }
        backends = [
            stub_backend(lambda: big_scenario.event_script),
            selector(OracleSelectorBackend, big_scenario),
            selector(WorstSelectorBackend, big_scenario),
        ]
        for backend in backends:
            outcomes = rerank_all(big_memories, backend)
            after_predictions = {
                query_id: outcome.reranked.intervals()
                for query_id, outcome in outcomes.items()
            }
            for threshold in (0.3, 0.5):
                before = recall_at_k(base_predictions, gt, 5, threshold)
                after = recall_at_k(after_predictions, gt, 5, threshold)
                assert before == after, (backend.backend_id, threshold)


def test_05_oracle_upper_bound(big_scenario, big_memories):
    with criterion(5, "oracle rerank lifts R@1 exactly to base R@5"):
        gt = ground_truth_by_query(big_scenario)
        base_predictions = {
            query_id: clist.intervals()
            for query_id, (_, clist, _) in big_memories.items()
        }
        outcomes = rerank_all(big_memories, selector(OracleSelectorBackend, big_scenario))
        after_predictions = {
            query_id: outcome.reranked.intervals()
            for query_id, outcome in outcomes.items()
        }
        for threshold in (0.3, 0.5):
            r1_after = recall_at_k(after_predictions, gt, 1, threshold)
            r5_base = recall_at_k(base_predictions, gt, 5, threshold)
            assert r1_after == r5_base, threshold


def test_06_iou_against_discretized_oracle():
    with criterion(6, "temporal IoU matches the discretized oracle"):
        assert temporal_iou(interval(3, 7), interval(3, 7)) == 1.0
        assert temporal_iou(interval(0, 10), interval(20, 30)) == 0.0
        assert temporal_iou(interval(0, 10), interval(5, 15)) == pytest.approx(
            5.0 / 15.0, abs=1e-12
        )
        rng = random.Random(606)
        for _ in range(100):
            a_start = rng.uniform(0.0, 100.0)
            b_start = rng.uniform(0.0, 100.0)
            a = interval(a_start, a_start + rng.uniform(0.5, 80.0))
            b = interval(b_start, b_start + rng.uniform(0.5, 80.0))
            assert abs(temporal_iou(a, b) - iou_grid_oracle(a, b, 10_000)) <= 1e-3


def test_07_clip_and_frame_arithmetic():
    with criterion(7, "clip cover and frame counts match the step oracle"):
        rng = random.Random(707)
        for _ in range(1000):
            start = rng.uniform(0.0, 500.0)
            length = rng.uniform(0.05, 90.0)
            segment = interval(start, start + length)
            clips = plan_clips(segment, 20.0)
            total = sum(c.duration_s for c in clips)
            assert abs(total - segment.duration_s) < 1e-9
            frames = sum(len(sample_frames(c, 1.0)) for c in clips)
            walked = sum(
                frame_count_oracle(c.start_s, c.end_s) for c in clips
            )
            assert frames == walked
            # Whole-segment sampling agrees with the oracle as well.
            assert len(sample_frames(segment, 1.0)) == frame_count_oracle(
                segment.start_s, segment.end_s
            )


def _run_pipeline(out_dir, seed=7):
    steps = [
        ["simulate", "--out", str(out_dir), "--seed", str(seed), "--videos", "5",
         "--queries-per-video", "4"],
        ["plan", "--out", str(out_dir)],
        ["narrate", "--out", str(out_dir), "--backend", "stub"],
        ["rerank", "--out", str(out_dir), "--backend", "oracle"],
        ["optimize", "--out", str(out_dir)],
        ["eval", "--out", str(out_dir)],
    ]
    for step in steps:
        assert cli_main(step) == 0, step


def test_08_end_to_end_determinism(tmp_path):
    with criterion(8, "two stub/oracle pipeline runs are byte-identical"):
        compared = [
            "memories.jsonl",
            "rerank_log.jsonl",
            "reranked_candidates.json",
            "predictions_rerank.json",
            "optimizer_report.json",
            "predictions_final.json",
            "metrics_before.json",
            "metrics_after.json",
            "metrics_compare.json",
        ]
        timings = []
        outputs = []
        for run_dir in ("one", "two"):
            out = tmp_path / run_dir
            t0 = time.perf_counter()
            _run_pipeline(out, seed=7)
            timings.append(time.perf_counter() - t0)
            outputs.append({name: (out / name).read_bytes() for name in compared})
        assert max(timings) < 30.0, f"slowest run took {max(timings):.1f}s"
        for name in compared:
            assert outputs[0][name] == outputs[1][name], name


def test_09_cache_coherence(tmp_path):
    with criterion(9, "second narrate run issues zero backend calls"):
        out = tmp_path / "cache_run"
        assert cli_main(["simulate", "--out", str(out), "--seed", "7"]) == 0
        assert cli_main(["plan", "--out", str(out)]) == 0
        assert cli_main(["narrate", "--out", str(out), "--backend", "stub"]) == 0
        stats_path = out / "cache" / "narrate_stats.json"
        first = json.loads(stats_path.read_text())
        assert first["backend_calls"] > 0
        memories_first = (out / "memories.jsonl").read_bytes()
        assert cli_main(["narrate", "--out", str(out), "--backend", "stub"]) == 0
        second = json.loads(stats_path.read_text())
        assert second["backend_calls"] == 0
        assert (out / "memories.jsonl").read_bytes() == memories_first


def test_10_monotone_input_fixpoint(tmp_path):
    with criterion(10, "perfect-recall scenario scores 100 everywhere"):
        out = tmp_path / "perfect"
        steps = [
            ["simulate", "--out", str(out), "--seed", "21", "--videos", "6",
             "--queries-per-video", "5", "--recall-rho", "1.0", "--jitter", "0.0",
             "--latent-rate", "0.0"],
            ["plan", "--out", str(out)],
            ["narrate", "--out", str(out), "--backend", "stub"],
            ["rerank", "--out", str(out), "--backend", "stub"],
            ["optimize", "--out", str(out)],
            ["eval", "--out", str(out)],
        ]
        for step in steps:
            assert cli_main(step) == 0, step
        report = json.loads((out / "optimizer_report.json").read_text())
        for video in report["videos"]:
            assert all(rank == 1 for rank in video["ranks"]), video["video_id"]
            assert video["total_cost"] == len(video["ranks"])
        compare = json.loads((out / "metrics_compare.json").read_text())
        for side in ("before", "after"):
            assert compare[side]["mean_r1"] == 100.0
            assert all(cell["value"] == 100.0 for cell in compare[side]["cells"])
