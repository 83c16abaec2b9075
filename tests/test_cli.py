import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import memrerank
from memrerank.cli import main


def run(args):
    return main([str(a) for a in args])


def simulate(out, seed=7, videos=2, queries=3, **extra):
    argv = [
        "simulate", "--out", out, "--seed", seed, "--videos", videos,
        "--queries-per-video", queries,
    ]
    for flag, value in extra.items():
        argv.extend([flag, value])
    assert run(argv) == 0


def cell(compare, side, k, iou):
    return next(
        c["value"] for c in compare[side]["cells"] if c["k"] == k and c["iou"] == iou
    )


def rewrite_candidates(out, change):
    """Apply ``change`` to every candidate record of ``candidates.json``."""
    path = out / "candidates.json"
    payload = json.loads(path.read_text())
    for prediction in payload["predictions"]:
        for position, record in enumerate(prediction["candidates"]):
            change(prediction, position, record)
    path.write_text(json.dumps(payload))


def pipeline(out, seed=7, rerank_backend="oracle"):
    simulate(out, seed=seed)
    assert run(["plan", "--out", out]) == 0
    assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
    assert run(["rerank", "--out", out, "--backend", rerank_backend]) == 0
    assert run(["optimize", "--out", out]) == 0
    assert run(["eval", "--out", out]) == 0


class TestPipeline:
    def test_full_run_produces_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        pipeline(out)
        assert run(["report", "--out", out]) == 0
        for name in [
            "scenario.json",
            "annotations.json",
            "candidates.json",
            "manifests.jsonl",
            "memories.jsonl",
            "reranked_candidates.json",
            "rerank_log.jsonl",
            "predictions_rerank.json",
            "optimizer_report.json",
            "predictions_final.json",
            "metrics_before.json",
            "metrics_after.json",
            "metrics_compare.json",
            "report.txt",
        ]:
            assert (out / name).exists(), name
        assert (out / "cache" / "narrations.jsonl").exists()
        table = capsys.readouterr().out
        assert "base" in table and "reranked" in table

    def test_eval_without_predictions_names_rerank_stage(self, tmp_path, caplog):
        out = tmp_path / "run"
        simulate(out)
        with caplog.at_level("ERROR"):
            code = run(["eval", "--out", out])
        assert code == 3
        assert any("rerank" in message for message in caplog.messages)

    def test_narrate_before_plan_names_plan_stage(self, tmp_path, caplog):
        out = tmp_path / "run"
        simulate(out)
        with caplog.at_level("ERROR"):
            code = run(["narrate", "--out", out, "--backend", "stub"])
        assert code == 3
        assert any("plan" in message for message in caplog.messages)

    def test_second_narrate_run_hits_cache_only(self, tmp_path):
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        stats_path = out / "cache" / "narrate_stats.json"
        first = json.loads(stats_path.read_text())
        assert first["backend_calls"] > 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        second = json.loads(stats_path.read_text())
        assert second["backend_calls"] == 0
        assert second["cache_hits"] == first["backend_calls"]

    def test_stage_reruns_are_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        pipeline(out)
        tracked = [
            "memories.jsonl",
            "reranked_candidates.json",
            "rerank_log.jsonl",
            "predictions_rerank.json",
            "optimizer_report.json",
            "predictions_final.json",
            "metrics_compare.json",
        ]
        before = {name: (out / name).read_bytes() for name in tracked}
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        assert run(["rerank", "--out", out, "--backend", "oracle"]) == 0
        assert run(["optimize", "--out", out]) == 0
        assert run(["eval", "--out", out]) == 0
        for name in tracked:
            assert (out / name).read_bytes() == before[name], name

    def test_rerank_limit_skips_and_logs(self, tmp_path):
        out = tmp_path / "run"
        simulate(out, videos=2, queries=3)
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        assert run(["rerank", "--out", out, "--backend", "oracle", "--limit", 2]) == 0
        records = [
            json.loads(line)
            for line in (out / "rerank_log.jsonl").read_text().splitlines()
        ]
        assert len(records) == 6
        assert sum(1 for r in records if not r["skipped"]) == 2
        skipped = [r for r in records if r["skipped"]]
        assert all(r["skip_reason"] == "limit" for r in skipped)
        # Skipped queries still appear in the reranked output unchanged.
        reranked = json.loads((out / "reranked_candidates.json").read_text())
        assert len(reranked["predictions"]) == 6

    def test_optimize_rejects_unordered_track(self, tmp_path, caplog):
        out = tmp_path / "run"
        simulate(out, **{"--track": "nlq"})
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        assert run(["rerank", "--out", out, "--backend", "oracle"]) == 0
        with caplog.at_level("ERROR"):
            code = run(["optimize", "--out", out])
        assert code == 2

    def test_oracle_rerank_lifts_r1_to_base_r5(self, tmp_path):
        # Without the sequence stage, the oracle selector realizes the
        # R@5 ceiling as R@1 at both thresholds.
        out = tmp_path / "run"
        simulate(out, seed=7, videos=5, queries=4)
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        assert run(["rerank", "--out", out, "--backend", "oracle"]) == 0
        assert run(["eval", "--out", out]) == 0
        compare = json.loads((out / "metrics_compare.json").read_text())
        for threshold in (0.3, 0.5):
            assert cell(compare, "after", 1, threshold) == cell(compare, "before", 5, threshold)
            assert cell(compare, "after", 5, threshold) == cell(compare, "before", 5, threshold)

    def test_oracle_scores_the_rescored_candidate_list(self, tmp_path):
        # Reversed scores reverse each loaded list; the oracle must score
        # the list in the prompt, not the order the scenario was made in.
        out = tmp_path / "run"
        simulate(out, seed=7, videos=5, queries=4)
        rewrite_candidates(out, lambda _, position, record: record.update(score=position))
        for stage in ("plan", "narrate", "rerank", "eval"):
            backend = "stub" if stage == "narrate" else "oracle"
            assert run([stage, "--out", out, "--backend", backend]) == 0, stage
        compare = json.loads((out / "metrics_compare.json").read_text())
        for threshold in (0.3, 0.5):
            assert cell(compare, "before", 1, threshold) < cell(compare, "before", 5, threshold)
            assert cell(compare, "after", 1, threshold) == cell(compare, "before", 5, threshold)

    def test_scenario_of_another_run_rejected(self, tmp_path, caplog):
        out, other = tmp_path / "run", tmp_path / "other"
        simulate(out, seed=7)
        simulate(other, seed=8)
        (out / "scenario.json").write_bytes((other / "scenario.json").read_bytes())
        assert run(["plan", "--out", out]) == 0
        with caplog.at_level("ERROR"):
            code = run(["narrate", "--out", out, "--backend", "stub"])
        assert code == 4
        assert any("missing from script" in message for message in caplog.messages)

    def test_clip_a_few_ulps_long_gets_no_extra_frame(self, tmp_path):
        # The second 20 s clip of [5.511, 81.704) is a few ulps longer
        # than 20 s; 21 frames would exceed the per-request cap.
        out = tmp_path / "run"
        simulate(out)

        def widen_first(prediction, position, record):
            if prediction["query_id"] == "v000-q000" and position == 0:
                record.update(start_s=5.511, end_s=81.704)

        rewrite_candidates(out, widen_first)
        assert run(["plan", "--out", out]) == 0
        records = [json.loads(line) for line in (out / "manifests.jsonl").read_text().splitlines()]
        clip = next(r for r in records if r["clip_start_s"] == 25.511)
        assert clip["clip_end_s"] == 45.511
        assert len(clip["frame_timestamps"]) == 20
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0

    def test_nlq_eval_uses_rerank_predictions(self, tmp_path):
        out = tmp_path / "run"
        simulate(out, **{"--track": "nlq"})
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        assert run(["rerank", "--out", out, "--backend", "oracle"]) == 0
        assert run(["eval", "--out", out]) == 0
        compare = json.loads((out / "metrics_compare.json").read_text())
        assert compare["before"]["num_queries"] == 6
        assert compare["after"]["num_queries"] == 6


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, tmp_path):
        out = tmp_path / "run"
        simulate(out)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"top_k": 3, "paths": {"output_dir": str(out)}}))

        assert run(["plan", "--config", config]) == 0
        manifests = (out / "manifests.jsonl").read_text().splitlines()
        ranks = {json.loads(line)["rank"] for line in manifests}
        assert max(ranks) == 3  # config value overrides the default 5

        assert run(["plan", "--config", config, "--top-k", 2]) == 0
        manifests = (out / "manifests.jsonl").read_text().splitlines()
        ranks = {json.loads(line)["rank"] for line in manifests}
        assert max(ranks) == 2  # flag overrides the config

    def test_unknown_config_key_rejected(self, tmp_path, caplog):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"no_such_key": 1}))
        with caplog.at_level("ERROR"):
            code = run(["plan", "--config", config])
        assert code == 2

    def test_missing_config_file_rejected(self, tmp_path):
        assert run(["plan", "--config", tmp_path / "absent.json"]) == 2

    def test_frames_per_clip_over_request_cap_rejected(self, tmp_path, caplog):
        # 20 s clips at 2 fps need 40 frames; a narration request holds 20.
        out = tmp_path / "run"
        simulate(out)
        with caplog.at_level("ERROR"):
            code = run(["plan", "--out", out, "--fps", 2])
        assert code == 2
        assert not (out / "manifests.jsonl").exists()
        assert any("frames per clip" in message for message in caplog.messages)

    def test_bad_backend_mode_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["narrate", "--out", tmp_path, "--backend", "imaginary"])


class TestRankSource:
    def test_pre_rerank_uses_base_candidates(self, tmp_path):
        out = tmp_path / "run"
        pipeline(out)
        post = json.loads((out / "optimizer_report.json").read_text())
        assert run(["optimize", "--out", out, "--rank-source", "pre_rerank"]) == 0
        pre = json.loads((out / "optimizer_report.json").read_text())
        assert post["rank_source"] == "post_rerank"
        assert pre["rank_source"] == "pre_rerank"


class TestEntryPoints:
    def test_module_invocation(self):
        # The package directory may reach pytest only through its own
        # ``pythonpath`` setting, which the child process does not inherit.
        src = str(Path(memrerank.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "memrerank", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert "simulate" in result.stdout

    def test_remote_backend_requires_env(self, tmp_path, monkeypatch, caplog):
        monkeypatch.delenv("MEMRERANK_API_BASE", raising=False)
        monkeypatch.delenv("MEMRERANK_API_KEY", raising=False)
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        with caplog.at_level("ERROR"):
            code = run(["narrate", "--out", out, "--backend", "remote"])
        assert code == 2
