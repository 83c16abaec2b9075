import gc
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests

import memrerank
import memrerank.cli as cli
import memrerank.clips as clips
import memrerank.errors as errors
import memrerank.ingest as ingest
import memrerank.metrics as metrics
import memrerank.narration as narration
import memrerank.synth as synth
from memrerank.cli import RunConfig, build_parser, main
from memrerank.clips import clip_frames, read_frame_manifests
from memrerank.errors import BackendError, BackendUnavailableError
from memrerank.narration import Backend
from memrerank.rerank import QUERY_LINE_PREFIX, read_abstentions
from memrerank.synth import ScenarioKnobs

from helpers import WorstSelectorBackend, interval, plan_list


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


def child_env():
    """The environment of a child process that imports ``memrerank``. The
    package directory may reach pytest only through its own ``pythonpath``
    setting, which a child process does not inherit."""
    src = str(Path(memrerank.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


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


# Corruptions of a simulated run's inputs, one per malformed-input case.
def first_candidate(**values):
    def change(out):
        rewrite_candidates(
            out,
            lambda prediction, position, record: record.update(values)
            if prediction["query_id"] == "v000-q000" and position == 0
            else None,
        )

    return change


def gt_past_duration(out):
    path = out / "annotations.json"
    payload = json.loads(path.read_text())
    video = payload["videos"][0]
    video["duration_s"] = 1.5
    video["queries"][0]["gt"] = {"start_s": 1.0, "end_s": 2.0}
    path.write_text(json.dumps(payload))


def in_candidates(detail):
    """The message of a domain error in ``{out}/candidates.json``."""
    return (
        "schema violation in field 'candidates file': {out}/candidates.json: "
        f"malformed candidates file: {detail}"
    )


def edit(name, change):
    """The corruption that applies ``change`` to the payload of stage file ``name``."""

    def corrupt(out):
        path = out / name
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload))

    return corrupt


def first_query(**values):
    return edit("annotations.json", lambda p: p["videos"][0]["queries"][0].update(values))


def in_annotations(detail):
    """The message of a domain error in ``{out}/annotations.json``."""
    return (
        "schema violation in field 'annotations file': {out}/annotations.json: "
        f"malformed annotations file: {detail}"
    )


def predictions_file(*results):
    """The corruption that writes ``results`` as the rerank predictions."""

    def corrupt(out):
        payload = {"version": ingest.PREDICTIONS_VERSION, "results": list(results)}
        (out / "predictions_rerank.json").write_text(json.dumps(payload))

    return corrupt


def in_predictions(detail):
    return (
        "schema violation in field 'predictions file': {out}/predictions_rerank.json: "
        f"malformed predictions file: {detail}"
    )


def evaluated_with_mean_r1(value):
    """Evaluate the base candidates as the rerank predictions, then set the
    after side's ``mean_r1`` of ``metrics_compare.json`` to ``value``."""

    def corrupt(out):
        lists = ingest.load_candidates(out / "candidates.json")
        predictions = {clist.query_id: clist.intervals() for clist in lists}
        ingest.write_predictions(predictions, out / "predictions_rerank.json")
        assert run(["eval", "--out", out]) == 0
        edit("metrics_compare.json", lambda p: p["after"].update(mean_r1=value))(out)

    return corrupt


def grid(*values) -> list[dict]:
    """A metrics report's cells holding ``values`` in grid order."""
    return [{"k": k, "iou": iou, "value": v} for (k, iou), v in zip(metrics.GRID, values)]


def planned_with_knob(**knobs):
    """Plan, then add ``knobs`` to the scenario file's knobs."""

    def corrupt(out):
        assert run(["plan", "--out", out]) == 0
        edit("scenario.json", lambda p: p["knobs"].update(knobs))(out)

    return corrupt


class TestPipeline:
    def test_full_run_produces_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        pipeline(out)
        assert run(["report", "--out", out]) == 0
        for stage in cli.STAGES:
            for name in stage.writes:
                assert (out / name).exists(), (stage.name, name)
        assert (out / "cache" / "narrations.jsonl").exists()
        table = capsys.readouterr().out
        assert "base" in table and "reranked" in table

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"video_id": "v000", "query_id": "v000-q000", "rank": 1, '
            '"start_s": 1.0, "end_s": 2.0, "fps": "x", "clip_len_s": 20.0}',
            "[1, 2]",
            '{"video_id": "v000", "query_id": "v000-q000", "rank": "1", '
            '"start_s": 1.0, "end_s": 2.0, "fps": 1.0, "clip_len_s": 20.0}',
        ],
        ids=["non-numeric-frame", "array-record", "string-rank"],
    )
    def test_malformed_manifest_line_exits_4(self, tmp_path, caplog, bad_line):
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        manifest = out / "manifests.jsonl"
        manifest.write_text(manifest.read_text() + "\n" + bad_line + "\n")
        lines = len(manifest.read_text().splitlines())
        with caplog.at_level("ERROR"):
            code = run(["narrate", "--out", out, "--backend", "stub"])
        assert code == 4
        assert any(f"manifests.jsonl:{lines}:" in m for m in caplog.messages)

    @staticmethod
    def per_clip_records(manifest):
        """The records of ``manifest`` in the format before one record per
        candidate: one per clip, with its bounds and its plan's sampling."""
        return [
            {**plan.candidate_key._asdict(), "clip_start_s": clip.start_s,
             "clip_end_s": clip.end_s, "fps": plan.fps, "clip_len_s": plan.clip_len_s}
            for plan in read_frame_manifests(manifest)
            for clip in plan.clips
        ]

    def test_old_format_manifest_asks_for_a_new_plan(self, tmp_path, caplog):
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        manifest = out / "manifests.jsonl"
        records = self.per_clip_records(manifest)
        for record in records:
            fps, clip_len_s = record.pop("fps"), record.pop("clip_len_s")
            clip = interval(record["clip_start_s"], record["clip_end_s"])
            record["frame_timestamps"] = list(clip_frames(clip, fps, clip_len_s))
        manifest.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        with caplog.at_level("ERROR"):
            code = run(["narrate", "--out", out, "--backend", "stub"])
        assert code == 4
        assert any("manifests.jsonl:1:" in m and "re-run plan" in m for m in caplog.messages)
        assert not (out / "memories.jsonl").exists()

    def test_per_clip_manifest_asks_for_a_new_plan(self, tmp_path, caplog):
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        manifest = out / "manifests.jsonl"
        records = self.per_clip_records(manifest)
        manifest.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        with caplog.at_level("ERROR"):
            code = run(["narrate", "--out", out, "--backend", "stub"])
        assert code == 4
        assert any("manifests.jsonl:1:" in m and "re-run plan" in m for m in caplog.messages)
        assert not (out / "memories.jsonl").exists()

    def test_candidate_listed_twice_exits_4(self, tmp_path, caplog):
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        manifest = out / "manifests.jsonl"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join([*lines, lines[0]]) + "\n")
        with caplog.at_level("ERROR"):
            code = run(["narrate", "--out", out, "--backend", "stub"])
        assert code == 4
        assert any(
            f"manifests.jsonl:{len(lines) + 1}:" in m and "listed twice" in m
            for m in caplog.messages
        )
        assert not (out / "memories.jsonl").exists()

    def test_candidate_longer_than_a_clip_is_narrated_whole(self, tmp_path):
        # A 21.29 s span at 20 s clips: a full clip and a 1.29 s tail, each narrated.
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        manifest = out / "manifests.jsonl"
        record = json.loads(manifest.read_text().splitlines()[0])
        record.update(start_s=36.57, end_s=57.86, fps=1.0, clip_len_s=20.0)
        manifest.write_text(json.dumps(record) + "\n")
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        (memory,) = narration.read_memories(out / "memories.jsonl")
        assert [entry.clip for entry in memory.entries] == [
            interval(36.57, 36.57 + 20.0), interval(36.57 + 20.0, 57.86)
        ]
        stats = json.loads((out / "cache" / "narrate_stats.json").read_text())
        assert stats["backend_calls"] == 2

    @pytest.mark.parametrize("field, value", [("fps", 2.0), ("clip_len_s", 40.0)])
    def test_hand_edited_sampling_over_the_request_cap_exits_4(
        self, tmp_path, caplog, field, value
    ):
        # 20 s clips at 2 fps, or 40 s clips at 1 fps, need 40 frames; a
        # narration request holds 20. The manifest is refused as it is
        # read, before a backend or a cache is built.
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        manifest = out / "manifests.jsonl"
        records = [json.loads(line) for line in manifest.read_text().splitlines()]
        manifest.write_text(
            "".join(json.dumps({**r, field: value}, sort_keys=True) + "\n" for r in records)
        )
        with caplog.at_level("ERROR"):
            code = run(["narrate", "--out", out, "--backend", "stub"])
        assert code == 4
        assert any(
            f"{manifest}:1: " in m and field in m and "per-request cap of 20 frames" in m
            for m in caplog.messages
        )
        assert not (out / "cache" / "narrations.jsonl").exists()
        assert not (out / "cache" / "narrate_stats.json").exists()
        assert not (out / "memories.jsonl").exists()

    def test_string_rank_in_memories_exits_4(self, tmp_path, caplog):
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        memories = out / "memories.jsonl"
        lines = memories.read_text().splitlines()
        record = json.loads(lines[0])
        record["rank"] = "2"
        memories.write_text("\n".join([*lines, json.dumps(record)]) + "\n")
        with caplog.at_level("ERROR"):
            code = run(["rerank", "--out", out, "--backend", "oracle"])
        assert code == 4
        assert any(f"memories.jsonl:{len(lines) + 1}:" in m for m in caplog.messages)

    @pytest.mark.parametrize(
        "defect", ["empty-narration", "not-contiguous", "prompt-version-number", "backend-id-null"]
    )
    def test_memory_refused_by_its_type_names_the_line(self, tmp_path, caplog, defect):
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        memories = out / "memories.jsonl"
        lines = memories.read_text().splitlines()
        line_no, record = next(
            (n, r)
            for n, r in enumerate(map(json.loads, lines), start=1)
            if len(r["entries"]) > 1
        )
        second = record["entries"][1]
        if defect == "empty-narration":
            second["narration"] = ""
        elif defect == "not-contiguous":  # a gap between the first and the second clip
            second["clip_start_s"] = (second["clip_start_s"] + second["clip_end_s"]) / 2
        elif defect == "prompt-version-number":
            record["prompt_version"] = 5
        else:
            record["backend_id"] = None
        lines[line_no - 1] = json.dumps(record)
        memories.write_text("\n".join(lines) + "\n")
        with caplog.at_level("ERROR"):
            code = run(["rerank", "--out", out, "--backend", "oracle"])
        assert code == 4
        assert any(f"memories.jsonl:{line_no}: malformed record" in m for m in caplog.messages)

    # A clip bound must be a finite, non-negative JSON number no later
    # than the clip's end: not a string (even of a number) or a bool.
    BAD_BOUNDS = pytest.mark.parametrize(
        "bound",
        [
            str,
            lambda value: "x",
            lambda value: True,
            lambda value: float("nan"),
            lambda value: -1.0,
        ],
        ids=["numeric-string", "non-numeric-string", "bool", "nan", "negative"],
    )

    @BAD_BOUNDS
    def test_malformed_clip_bound_in_manifest_exits_4(self, tmp_path, caplog, bound):
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        manifest = out / "manifests.jsonl"
        first, *rest = manifest.read_text().splitlines()
        record = json.loads(first)
        record["start_s"] = bound(record["start_s"])
        manifest.write_text("\n".join([json.dumps(record), *rest]) + "\n")
        with caplog.at_level("ERROR"):
            code = run(["narrate", "--out", out, "--backend", "stub"])
        assert code == 4
        assert any("manifests.jsonl:1:" in m for m in caplog.messages)

    @BAD_BOUNDS
    def test_malformed_clip_bound_in_memories_exits_4(self, tmp_path, caplog, bound):
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        memories = out / "memories.jsonl"
        first, *rest = memories.read_text().splitlines()
        record = json.loads(first)
        entry = record["entries"][0]
        entry["clip_end_s"] = bound(entry["clip_end_s"])
        memories.write_text("\n".join([json.dumps(record), *rest]) + "\n")
        with caplog.at_level("ERROR"):
            code = run(["rerank", "--out", out, "--backend", "oracle"])
        assert code == 4
        assert any("memories.jsonl:1:" in m for m in caplog.messages)

    def test_truncated_metrics_comparison_exits_4(self, tmp_path, caplog):
        out = tmp_path / "run"
        pipeline(out)
        compare = out / "metrics_compare.json"
        compare.write_text(compare.read_text()[:40])
        with caplog.at_level("ERROR"):
            code = run(["report", "--out", out])
        assert code == 4
        assert any("metrics_compare.json" in m for m in caplog.messages)
        assert not (out / "report.txt").exists()

    MALFORMED_INPUTS = [
        (
            "plan",
            first_candidate(start_s=10.0, end_s=5.0),
            in_candidates("end_s 5.0 precedes start_s 10.0"),
        ),
        ("plan", first_candidate(start_s=-1.0), in_candidates("start_s must be >= 0, got -1.0")),
        (
            "plan",
            first_candidate(start_s=5.0, end_s=5.0),
            in_candidates("candidate interval must have positive length, got [5.0, 5.0)"),
        ),
        ("plan", first_candidate(score=float("nan")), in_candidates("score must be finite, got nan")),
        (
            "plan",
            gt_past_duration,
            "schema violation in field 'annotations file': {out}/annotations.json: "
            "malformed annotations file: "
            "ground truth out of bounds for query 'v000-q000': [1.0, 2.0] exceeds duration 1.5",
        ),
        (
            "plan",
            edit("annotations.json", lambda p: p["videos"][0].update(duration_s=-3.0)),
            "schema violation in field 'annotations file': {out}/annotations.json: "
            "malformed annotations file: field 'duration_s': must be a positive number, got -3.0",
        ),
        (
            "plan",
            edit("candidates.json", lambda p: p["predictions"][0].update(query_id="nope")),
            in_candidates("candidates for unknown query 'nope'"),
        ),
        (
            "eval",
            predictions_file({"query_id": "nope", "intervals": [[1.0, 2.0]]}),
            in_predictions("predictions for unknown query 'nope'"),
        ),
        (
            "plan",
            first_query(query_id=""),
            in_annotations("field 'query_id': must be a non-empty string, got ''"),
        ),
        (
            "plan",
            edit("annotations.json", lambda p: p["videos"][1].update(video_id="v000")),
            in_annotations("field 'video_id': duplicate 'v000'"),
        ),
        (
            "plan",
            first_query(order_index=-1),
            in_annotations("field 'order_index': must be >= 0, got -1"),
        ),
        (
            "plan",
            first_query(order_index=True),
            in_annotations("field 'order_index': must be an integer, got True"),
        ),
        (
            "plan",
            first_query(order_index=1.5),
            in_annotations("field 'order_index': must be an integer, got 1.5"),
        ),
        (
            "eval",
            predictions_file(*[{"query_id": "v000-q000", "intervals": [[1.0, 2.0]]}] * 2),
            in_predictions("duplicate result for 'v000-q000'"),
        ),
        (
            "eval",
            predictions_file({"query_id": "v000-q000", "intervals": [[1.0, 2.0, 3.0]]}),
            in_predictions("interval: expected [start_s, end_s], got [1.0, 2.0, 3.0]"),
        ),
        (
            "report",
            evaluated_with_mean_r1(150),
            "schema violation in field 'report payload': {out}/metrics_compare.json: "
            "malformed report payload: field 'mean_r1': percentage out of [0, 100]: 150.0",
        ),
        (
            "narrate",
            planned_with_knob(speed=2),
            "schema violation in field 'scenario file': {out}/scenario.json: "
            "malformed scenario file: unknown knobs ['speed']",
        ),
        (
            "narrate",
            planned_with_knob(recall_rho=1.5),
            "schema violation in field 'scenario file': {out}/scenario.json: "
            "malformed scenario file: recall_rho must lie in [0, 1], got 1.5",
        ),
    ]

    @pytest.mark.parametrize(
        "stage, corrupt, message",
        MALFORMED_INPUTS,
        ids=[
            "inverted-candidate", "negative-start", "zero-length-candidate", "nan-score",
            "gt-past-duration", "negative-duration", "candidates-for-unknown-query",
            "predictions-for-unknown-query", "empty-query-id", "duplicate-video-id",
            "negative-order-index", "bool-order-index", "fractional-order-index",
            "duplicate-prediction", "three-element-interval", "mean-r1-over-100",
            "unknown-scenario-knob", "out-of-range-scenario-knob",
        ],
    )
    def test_malformed_input_exit_code_and_message(
        self, tmp_path, caplog, stage, corrupt, message
    ):
        out = tmp_path / "run"
        simulate(out)
        corrupt(out)
        with caplog.at_level("ERROR"):
            code = run([stage, "--out", out])
        assert (code, caplog.messages) == (4, [message.format(out=out)])

    # Each whole-file JSON stage file, through the stage that reads it:
    # (file, stage, fault on its payload, the key the fault removes).
    READER_CASES = {
        "annotations-wrong-type": (
            "annotations.json", "plan", lambda p: p["videos"][0].update(duration_s="60"), None,
        ),
        "annotations-missing-key": (
            "annotations.json", "plan", lambda p: p["videos"][0]["queries"][0].pop("text"), "text",
        ),
        "annotations-array-for-object": (
            "annotations.json", "plan", lambda p: p.update(videos=[["v000", 60.0]]), None,
        ),
        "candidates-wrong-type": (
            "candidates.json", "plan",
            lambda p: p["predictions"][0]["candidates"][0].update(score="x"), None,
        ),
        "candidates-missing-key": (
            "candidates.json", "plan",
            lambda p: p["predictions"][0]["candidates"][0].pop("end_s"), "end_s",
        ),
        "candidates-array-for-object": (
            "candidates.json", "plan",
            lambda p: p["predictions"][0].update(candidates=[[1.0, 2.0, 0.5]]), None,
        ),
        "candidates-under-another-video": (
            "candidates.json", "plan", lambda p: p["predictions"][0].update(video_id="v001"), None,
        ),
        "candidates-second-list-for-a-query": (
            "candidates.json", "plan",
            lambda p: p["predictions"].append({**p["predictions"][0], "video_id": "v001"}), None,
        ),
        "predictions-wrong-type": (
            "predictions_rerank.json", "eval", lambda p: p["results"][0].update(query_id=5), None,
        ),
        "predictions-missing-key": (
            "predictions_rerank.json", "eval", lambda p: p["results"][0].pop("intervals"),
            "intervals",
        ),
        "predictions-array-for-object": (
            "predictions_rerank.json", "eval", lambda p: p.update(results=[["v000-q000"]]), None,
        ),
        "predictions-empty-intervals": (
            "predictions_rerank.json", "eval", lambda p: p["results"][0].update(intervals=[]), None,
        ),
        "scenario-wrong-type": ("scenario.json", "narrate", lambda p: p.update(seed="3"), None),
        "scenario-missing-key": (
            "scenario.json", "narrate", lambda p: p.pop("event_script"), "event_script",
        ),
        "scenario-array-for-object": (
            "scenario.json", "narrate", lambda p: p.update(knobs=[]), None,
        ),
        "metrics-wrong-type": (
            "metrics_compare.json", "report", lambda p: p["after"].update(num_queries=6.9), None,
        ),
        "metrics-missing-key": (
            "metrics_compare.json", "report", lambda p: p["after"].pop("mean_r1"), "mean_r1",
        ),
        "metrics-array-for-object": (
            "metrics_compare.json", "report", lambda p: p.update(before=[]), None,
        ),
    }

    @pytest.mark.parametrize("case", list(READER_CASES))
    def test_malformed_stage_file_names_itself(self, tmp_path, caplog, case):
        name, stage, fault, missing = self.READER_CASES[case]
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        lists = ingest.load_candidates(out / "candidates.json")
        ingest.write_predictions(
            {clist.query_id: clist.intervals() for clist in lists}, out / "predictions_rerank.json"
        )
        assert run(["eval", "--out", out]) == 0
        path = out / name
        payload = json.loads(path.read_text())
        fault(payload)
        path.write_text(json.dumps(payload))
        with caplog.at_level("ERROR"):
            code = run([stage, "--out", out, "--backend", "stub"])  # narrate runs cold
        assert code == 4
        (message,) = caplog.messages
        assert str(path) in message
        if missing is not None:
            assert f"missing key '{missing}'" in message

    # An integer past the float range, or past json.loads' digit limit,
    # exits 4 naming its stage file, and 2 naming its float setting.
    @pytest.mark.parametrize(
        "stage, name, key, digits",
        [
            ("plan", "candidates.json", "score", 401),
            ("plan", "candidates.json", "score", 5001),
            ("narrate", "manifests.jsonl", "end_s", 401),
            ("narrate", "manifests.jsonl", "fps", 401),
            ("narrate", "manifests.jsonl", "clip_len_s", 401),
            ("plan", "config.json", "lambda_penalty", 401),
        ],
        ids=[
            "score-past-float-range", "score-past-digit-limit", "manifest-bound-past-float-range",
            "manifest-fps-past-float-range", "manifest-clip-len-past-float-range",
            "setting-past-float-range",
        ],
    )
    def test_oversized_integer_exits_with_a_message(
        self, tmp_path, caplog, stage, name, key, digits
    ):
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        config = out / "config.json"
        config.write_text('{"lambda_penalty": 1}')
        path = out / name
        text, count = re.subn(rf'"{key}": ?[0-9.]+', f'"{key}": {"9" * digits}', path.read_text(), 1)
        assert count == 1
        path.write_text(text)
        with caplog.at_level("ERROR"):
            code = run([stage, "--out", out, "--config", config, "--backend", "stub"])
        (message,) = caplog.messages
        if name == "config.json":
            assert code == 2
            assert re.fullmatch(r"setting lambda_penalty=9+ must be a finite number", message)
        else:
            assert code == 4
            assert f"{path}:1:" in message if name == "manifests.jsonl" else str(path) in message
            if key in ("fps", "clip_len_s"):
                assert f"field '{key}': must be a positive finite number" in message
                assert "9" * 41 not in message  # the value is shortened

    # A metrics value must have its JSON type: never converted from a
    # string, a bool or a fraction. The cells must be the R@1/R@5 x IoU
    # 0.3/0.5 grid, each listed once, a recall must not rise with the IoU
    # threshold, and mean_r1 must be the mean of the R@1 cells.
    @pytest.mark.parametrize(
        "change",
        [
            lambda report: report["cells"][0].update(k="1"),
            lambda report: report["cells"][0].update(iou="0.3"),
            lambda report: report["cells"][0].update(value="50"),
            lambda report: report.update(mean_r1=True),
            lambda report: report.update(num_queries=6.9),
            lambda report: report.update(cells=[]),
            lambda report: report.update(
                cells=[c for c in report["cells"] if (c["k"], c["iou"]) != (5, 0.5)]
            ),
            lambda report: report["cells"].append(report["cells"][1]),
            lambda report: report["cells"].append({"k": 10, "iou": 0.7, "value": 90.0}),
            lambda report: report.update(cells=grid(0.0, 100.0, 100.0, 100.0), mean_r1=50.0),
            lambda report: report.update(cells=grid(50.0, 40.0, 75.0, 60.0), mean_r1=3.0),
        ],
        ids=[
            "k-string", "iou-string", "value-string", "mean_r1-bool", "num_queries-fraction",
            "cells-empty", "cell-dropped", "cell-twice", "cell-extra", "rises-with-iou",
            "mean_r1-not-the-mean",
        ],
    )
    def test_mistyped_metrics_value_exits_4(self, tmp_path, caplog, change):
        out = tmp_path / "run"
        pipeline(out)
        compare = out / "metrics_compare.json"
        payload = json.loads(compare.read_text())
        change(payload["after"])
        compare.write_text(json.dumps(payload))
        with caplog.at_level("ERROR"):
            code = run(["report", "--out", out])
        assert code == 4
        assert any(f"{compare}: malformed report payload" in m for m in caplog.messages)
        assert not (out / "report.txt").exists()

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

    def test_replan_at_another_fps_narrates_again(self, tmp_path):
        # The cache key carries the clip's sampling: the same clip bounds
        # sampled at another fps are other frames, so no hit serves them.
        out = tmp_path / "run"
        simulate(out, videos=3, queries=4)
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        assert run(["plan", "--out", out, "--fps", 0.5]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        stats = json.loads((out / "cache" / "narrate_stats.json").read_text())
        assert stats["clips_unique"] > 0
        assert stats["backend_calls"] == stats["cache_misses"] == stats["clips_unique"]
        assert stats["cache_hits"] == 0

    def test_warm_narrate_derives_no_frames(self, tmp_path, monkeypatch):
        derived = []

        def counting_clip_frames(clip, fps, clip_len_s):
            derived.append(clip)
            return clip_frames(clip, fps, clip_len_s)

        monkeypatch.setattr(clips, "clip_frames", counting_clip_frames)
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        stats_path = out / "cache" / "narrate_stats.json"
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        cold = json.loads(stats_path.read_text())
        assert cold["cache_misses"] == cold["backend_calls"] > 0
        assert derived == []  # the stub reads no frames of the requests it answers
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        assert json.loads(stats_path.read_text())["cache_misses"] == 0
        assert derived == []

    def test_failed_narrate_writes_its_own_stats(self, tmp_path, monkeypatch):
        class Down(Backend):
            backend_id = "down"

            def _narrate(self, request):
                raise BackendUnavailableError("down")

            def _select(self, prompt):
                raise BackendUnavailableError("down")

        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        stats_path = out / "cache" / "narrate_stats.json"
        first = json.loads(stats_path.read_text())
        assert (first["backend_calls"], first["retries"]) == (first["cache_misses"], 0)
        # One worker and no backoff: the first clip is tried 4 times, then
        # the run stops.
        monkeypatch.setattr(narration, "RETRY_BACKOFF_S", (0.0, 0.0, 0.0))
        monkeypatch.setattr(synth, "stub_backend", lambda load_script: Down())
        assert run(["narrate", "--out", out, "--backend", "stub", "--c-max", 1]) == 5
        second = json.loads(stats_path.read_text())
        assert second == {
            "backend_calls": 4,
            "cache_hits": 0,
            "cache_misses": first["cache_misses"],
            "clips_requested": first["clips_requested"],
            "clips_unique": first["clips_unique"],
            "retries": 3,
        }

    def test_blank_narrations_are_retried_then_exit_5(self, tmp_path, monkeypatch, caplog):
        class Blank(Backend):
            backend_id = "blank"

            def _narrate(self, request):
                return " "

            def _select(self, prompt):
                return " "

        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        monkeypatch.setattr(narration, "RETRY_BACKOFF_S", (0.0, 0.0, 0.0))
        monkeypatch.setattr(synth, "stub_backend", lambda load_script: Blank())
        with caplog.at_level("ERROR"):
            code = run(["narrate", "--out", out, "--backend", "stub", "--c-max", 1])
        stats = json.loads((out / "cache" / "narrate_stats.json").read_text())
        assert (code, stats["backend_calls"], stats["retries"]) == (5, 4, 3)
        assert re.fullmatch(
            r"failed after 4 attempts: backend 'blank\S*' returned empty text", caplog.messages[-1]
        )

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

    def test_plan_limit_narrates_only_the_queries_rerank_sends(self, tmp_path, caplog):
        # The candidates file lists the queries in reverse, and v000-q001 has
        # none: the first two queries with a list, in dataset order, are
        # v000-q000 and v000-q002, and the third is v001-q000.
        out = tmp_path / "run"
        simulate(out, videos=2, queries=3)
        edit("candidates.json", lambda p: p.update(predictions=[
            record for record in reversed(p["predictions"]) if record["query_id"] != "v000-q001"
        ]))(out)
        lists = {clist.query_id: clist for clist in ingest.load_candidates(out / "candidates.json")}
        assert run(["plan", "--out", out, "--limit", 2]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        stats = json.loads((out / "cache" / "narrate_stats.json").read_text())
        kept = [plan for query_id in ("v000-q000", "v000-q002") for plan in plan_list(lists[query_id])]
        assert stats["clips_requested"] == sum(len(plan.clips) for plan in kept)
        assert run(["rerank", "--out", out, "--backend", "stub", "--limit", 2]) == 0
        with caplog.at_level("ERROR"):
            code = run(["rerank", "--out", out, "--backend", "stub", "--limit", 3])
        assert (code, caplog.messages) == (4, [
            f"{out / 'memories.jsonl'} does not match the candidates: "
            "0 memories for 5 candidates of query 'v001-q000'"
        ])

    def test_prompt_file_versions_the_memories_and_the_cache(self, tmp_path):
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        prompt = tmp_path / "prompt.txt"
        prompt.write_text("Say what the hands do.\n")
        version = narration.prompt_version("Say what the hands do.")
        assert run(["narrate", "--out", out, "--backend", "stub", "--prompt-file", prompt]) == 0
        assert {m.prompt_version for m in narration.read_memories(out / "memories.jsonl")} == {
            version
        }
        cache = out / "cache" / "narrations.jsonl"
        first = cache.read_text().splitlines()
        assert {json.loads(line)["key"]["prompt_version"] for line in first} == {version}
        # Without the flag every clip is narrated again, under the default
        # prompt; the first template's records stay.
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        stats = json.loads((out / "cache" / "narrate_stats.json").read_text())
        assert (stats["backend_calls"], stats["cache_hits"]) == (len(first), 0)
        both = cache.read_text().splitlines()
        assert both[: len(first)] == first
        default = narration.prompt_version(narration.DEFAULT_PROMPT)
        assert {json.loads(line)["key"]["prompt_version"] for line in both[len(first) :]} == {
            default
        }
        assert {m.prompt_version for m in narration.read_memories(out / "memories.jsonl")} == {
            default
        }

    def test_rerank_log_records_in_dataset_order(self, tmp_path):
        # v001-q001 loses its candidate list; the limit covers video v000.
        out = tmp_path / "run"
        simulate(out, seed=21, videos=2, queries=3)
        candidates = json.loads((out / "candidates.json").read_text())
        base = {p["query_id"]: p["candidates"] for p in candidates["predictions"]}
        candidates["predictions"] = [
            p for p in candidates["predictions"] if p["query_id"] != "v001-q001"
        ]
        (out / "candidates.json").write_text(json.dumps(candidates))
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        assert run(["rerank", "--out", out, "--backend", "stub", "--limit", 3]) == 0

        def record(query_id, selected_rank=1, fallback_used=False, raw_answer="", skip=""):
            entry = {
                "query_id": query_id, "video_id": query_id[:4], "num_candidates": 5,
                "original_ranks": [1, 2, 3, 4, 5], "selected_rank": selected_rank,
                "fallback_used": fallback_used, "raw_answer": raw_answer,
                "skipped": bool(skip),
            }
            return {**entry, "skip_reason": skip} if skip else entry

        log = (out / "rerank_log.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in log] == [
            record("v000-q000", fallback_used=True,
                   raw_answer="none of the candidates match the query events"),
            record("v000-q001", raw_answer="1"),
            record("v000-q002", selected_rank=2, raw_answer="2"),
            record("v001-q000", skip="limit"),
            {"query_id": "v001-q001", "skipped": True, "skip_reason": "no candidates"},
            record("v001-q002", skip="limit"),
        ]
        reranked = json.loads((out / "reranked_candidates.json").read_text())
        lists = {p["query_id"]: p["candidates"] for p in reranked["predictions"]}
        first, second, *rest = base["v000-q002"]
        assert lists["v000-q002"] == [second, first, *rest]
        assert lists["v000-q000"] == base["v000-q000"]
        assert "v001-q001" not in lists

    def test_optimize_skips_a_video_without_queries(self, tmp_path):
        out = tmp_path / "run"
        simulate(out)
        path = out / "annotations.json"
        payload = json.loads(path.read_text())
        payload["videos"].append({"video_id": "v999", "duration_s": 100.0, "queries": []})
        path.write_text(json.dumps(payload))
        for stage in ("plan", "narrate", "rerank", "optimize", "eval"):
            assert run([stage, "--out", out]) == 0, stage
        report = json.loads((out / "optimizer_report.json").read_text())
        assert [video["video_id"] for video in report["videos"]] == ["v000", "v001"]

    def test_optimize_leaves_out_a_query_without_candidates(self, tmp_path, caplog):
        # v000-q001 loses its list: v000-q000 and v000-q002 become adjacent
        # steps, and eval counts v000-q001 as a miss.
        out = tmp_path / "run"
        simulate(out, seed=7, videos=2, queries=3)
        path = out / "candidates.json"
        candidates = json.loads(path.read_text())
        candidates["predictions"] = [
            p for p in candidates["predictions"] if p["query_id"] != "v000-q001"
        ]
        path.write_text(json.dumps(candidates))
        for stage in ("plan", "narrate", "rerank", "optimize"):
            assert run([stage, "--out", out]) == 0, stage
        with caplog.at_level("WARNING"):
            assert run(["eval", "--out", out]) == 0
        report = json.loads((out / "optimizer_report.json").read_text())
        assert [len(video["choices"]) for video in report["videos"]] == [2, 3]
        final = json.loads((out / "predictions_final.json").read_text())
        assert [r["query_id"] for r in final["results"]] == [
            "v000-q000", "v000-q002", "v001-q000", "v001-q001", "v001-q002",
        ]
        compare = json.loads((out / "metrics_compare.json").read_text())
        assert compare["after"]["num_queries"] == 6
        # One warning per prediction set, each naming its set.
        warned = [m for m in caplog.messages if "have no predictions" in m]
        assert warned == [
            f"{name}: 1 of 6 queries have no predictions and count as misses (first: v000-q001)"
            for name in ("base candidates", "predictions_final.json")
        ]

    def test_optimize_rejects_unordered_track(self, tmp_path, caplog):
        out = tmp_path / "run"
        simulate(out, **{"--track": "nlq"})
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        assert run(["rerank", "--out", out, "--backend", "oracle"]) == 0
        with caplog.at_level("ERROR"):
            code = run(["optimize", "--out", out])
        assert (code, caplog.messages) == (
            2,
            [
                f"{out / 'annotations.json'} holds an unordered (nlq) dataset; sequence "
                "optimization needs an ordered (goalstep) one, so evaluate the rerank predictions"
            ],
        )

    def test_eval_without_ground_truth_names_the_annotations(self, tmp_path, caplog):
        out = tmp_path / "run"
        narrated(out)
        assert run(["rerank", "--out", out, "--backend", "stub"]) == 0
        annotations = out / "annotations.json"
        payload = json.loads(annotations.read_text())
        for video in payload["videos"]:
            for query in video["queries"]:
                del query["gt"]
        annotations.write_text(json.dumps(payload))
        with caplog.at_level("ERROR"):
            code = run(["eval", "--out", out])
        assert (code, caplog.messages) == (
            4, [f"{annotations}: dataset has no annotated queries to score"]
        )
        assert not (out / "metrics_compare.json").exists()

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
        assert any(
            f"{out / 'scenario.json'}: malformed scenario file" in message
            and "missing from script" in message
            for message in caplog.messages
        )

    def test_memories_of_another_scenario_rejected(self, tmp_path, caplog):
        # Memories narrated at seed 7 do not cover the candidates of seed 8.
        out = tmp_path / "run"
        simulate(out, seed=7, videos=3, queries=4)
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        memories = (out / "memories.jsonl").read_bytes()
        simulate(out, seed=8, videos=3, queries=4)  # deletes the memories it makes stale
        (out / "memories.jsonl").write_bytes(memories)
        with caplog.at_level("ERROR"):
            code = run(["rerank", "--out", out, "--backend", "stub"])
        assert code == 4
        stale = re.compile(
            re.escape(f"{out / 'memories.jsonl'} does not match the candidates: ")
            + r"the memory of rank \d+ of query 'v\d{3}-q\d{3}' spans \[[\d.]+, [\d.]+\) "
            r"but the candidate spans \[[\d.]+, [\d.]+\); re-run plan and narrate"
        )
        assert [message for message in caplog.messages if stale.fullmatch(message)] != []
        assert not (out / "reranked_candidates.json").exists()

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
        plans = read_frame_manifests(out / "manifests.jsonl")
        plan = next(p for p in plans if interval(25.511, 45.511) in p.clips)
        assert plan.clips[1] == interval(25.511, 45.511)
        assert (plan.fps, plan.clip_len_s) == (1.0, 20.0)
        assert len(plan.frames[1]) == 20
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


def writer_of(name):
    """The stage of ``cli.STAGES`` that writes stage file ``name``."""
    return next(stage.name for stage in cli.STAGES if name in stage.writes)


def missing_input_cases():
    """(stage, input) for every input each stage reads. ``eval`` reads the
    final predictions only when they exist, so missing they are no error:
    its missing-predictions case is the rerank predictions one."""
    for stage in cli.STAGES:
        for name in stage.reads:
            if (stage.name, name) != ("eval", cli.PREDICTIONS_FINAL_FILE):
                yield pytest.param(stage.name, name, id=f"{stage.name}-{name}")


# The flags under which a stage reads the input, when its defaults do not.
READ_FLAGS = {("optimize", cli.CANDIDATES_FILE): ["--rank-source", "pre_rerank"]}


def readme_section(heading):
    """The text of README.md under ``heading`` (a line with its ``#``s), up
    to the next heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n{heading}\n", 1)[1].split("\n#", 1)[0]


def readme_stage_rows():
    """Stage name -> (reads, writes) of README.md § Stage artifacts, each
    the backticked file names of its cell."""
    rows = {}
    for line in readme_section("### Stage artifacts").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0] not in ("stage", "") and not cells[0].startswith("-"):
            rows[cells[0]] = tuple(tuple(re.findall(r"`([^`]+)`", cell)) for cell in cells[1:])
    return rows


class TestStageTable:
    @pytest.fixture(scope="class")
    def full_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("full") / "run"
        pipeline(out)
        assert run(["report", "--out", out]) == 0
        return out

    @pytest.mark.parametrize("stage, name", missing_input_cases())
    def test_missing_input_names_its_writer(self, full_run, tmp_path, caplog, stage, name):
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        shutil.rmtree(out / "cache")  # a cold narrate reads every input
        (out / name).unlink()
        if name == cli.PREDICTIONS_RERANK_FILE:  # eval prefers the final predictions
            (out / cli.PREDICTIONS_FINAL_FILE).unlink()
        with caplog.at_level("ERROR"):
            code = run([stage, "--out", out, *READ_FLAGS.get((stage, name), [])])
        assert code == 3
        assert caplog.messages == [
            f"missing input produced by stage '{writer_of(name)}': {out / name} not found"
        ]

    def test_each_input_is_written_by_one_earlier_stage(self):
        for position, stage in enumerate(cli.STAGES):
            earlier = [s.name for s in cli.STAGES[:position]]
            for name in stage.reads:
                writers = [s.name for s in cli.STAGES if name in s.writes]
                assert len(writers) == 1 and writers[0] in earlier, (stage.name, name, writers)

    def test_subcommands_are_the_stages(self):
        parser = build_parser()
        for stage in cli.STAGES:
            assert parser.parse_args([stage.name]).func is stage.command

    def test_each_stage_touches_only_its_declared_files(self, tmp_path, monkeypatch):
        # Every stage file passes through RunConfig.input or .output.
        touched = []
        for method in ("input", "output"):

            def recorder(cfg, name, original=getattr(RunConfig, method), method=method):
                touched.append((method, name))
                return original(cfg, name)

            monkeypatch.setattr(RunConfig, method, recorder)
        caches = {cli.CACHE_FILE, cli.SELECTIONS_FILE, cli.NARRATE_STATS_FILE}
        stages = {stage.name: stage for stage in cli.STAGES}
        out = tmp_path / "run"
        for argv in (
            ["simulate"], ["plan"], ["narrate", "--backend", "stub"],
            ["rerank", "--backend", "stub"], ["optimize"], ["eval"], ["report"],
            ["rerank", "--backend", "oracle"], ["optimize", "--rank-source", "pre_rerank"],
        ):
            touched.clear()
            assert run([argv[0], "--out", out, *argv[1:]]) == 0, argv
            stage = stages[argv[0]]
            reads = {name for method, name in touched if method == "input"} - caches
            writes = {name for method, name in touched if method == "output"} - caches
            assert reads <= set(stage.reads), (argv, reads - set(stage.reads))
            assert writes == set(stage.writes), argv
            if argv == ["eval"]:  # after optimize: the final predictions are its input
                assert cli.PREDICTIONS_FINAL_FILE in reads

    def test_readme_stage_artifacts_match_the_table(self):
        assert readme_stage_rows() == {
            stage.name: (stage.reads, stage.writes) for stage in cli.STAGES
        }

    def test_readme_report_table_is_what_its_commands_print(self, tmp_path):
        # The commands block right above the table, run in-process.
        section = readme_section("## CLI walkthrough (synthetic, no network)")
        *_, commands, table = re.findall(r"```\w*\n(.*?)```", section, re.S)
        out = tmp_path / "run"
        for line in commands.splitlines():
            program, *argv = line.split()
            assert program == "memrerank"
            argv[argv.index("--out") + 1] = out
            assert run(argv) == 0, line
        assert (out / cli.REPORT_FILE).read_text(encoding="utf-8") == table


class TestExitCodes:
    NUMBERS = (
        "zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten",
    )

    def test_readme_names_every_error_class(self):
        section = readme_section("## Exit codes")
        classes = [
            name for name, value in vars(errors).items()
            if isinstance(value, type) and value.__module__ == errors.__name__
        ]
        assert [name for name in classes if f"`{name}`" not in section] == []
        stated = re.search(r"`memrerank\.errors` holds (\w+) classes", section).group(1)
        assert self.NUMBERS.index(stated) == len(classes)
        rows = {line.split("|")[1].strip(): line for line in section.splitlines() if "|" in line}
        for cls, code in cli.EXIT_CODES.items():
            assert f"`{cls.__name__}`" in rows[f"`{code}`"], code

    def test_error_of_no_listed_class_exits_1(self, tmp_path, monkeypatch, caplog):
        def report(cfg, args):
            raise errors.MemrerankError("an error of the base class")

        stages = tuple(s._replace(command=report) if s.name == "report" else s for s in cli.STAGES)
        monkeypatch.setattr(cli, "STAGES", stages)
        with caplog.at_level("ERROR"):
            assert run(["report", "--out", tmp_path]) == 1
        assert caplog.messages == ["an error of the base class"]

    def test_readme_configuration_names_every_flag_and_key(self):
        section = readme_section("### Configuration")
        flags = [f.metadata["flag"] for f in (*fields(RunConfig), *fields(ScenarioKnobs))]
        assert [flag for flag in flags if not re.search(f"`{flag}[` ]", section)] == []
        sample = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
        paths = sample.pop("paths")
        assert (sorted(sample), sorted(paths)) == (
            sorted(f.name for f in fields(RunConfig) if f.name not in cli._PATH_KEYS),
            sorted(cli._PATH_KEYS),
        )


# The stages whose outputs a stage's run makes stale: those that read what
# it writes, directly or through another such stage.
STALE_AFTER = {
    "simulate": ("plan", "narrate", "rerank", "optimize", "eval", "report"),
    "plan": ("narrate", "rerank", "optimize", "eval", "report"),
    "narrate": ("rerank", "optimize", "eval", "report"),
    "rerank": ("optimize", "eval", "report"),
    "optimize": ("eval", "report"),
    "eval": ("report",),
    "report": (),
}


class TestStaleOutputs:
    @pytest.mark.parametrize("stage", list(STALE_AFTER))
    def test_rerun_removes_exactly_the_downstream_outputs(self, tmp_path, stage):
        out = tmp_path / "run"
        pipeline(out)
        assert run(["report", "--out", out]) == 0
        backend = {"narrate": "stub", "rerank": "oracle"}.get(stage, "stub")
        assert run([stage, "--out", out, "--backend", backend]) == 0
        stale = {name for s in cli.STAGES if s.name in STALE_AFTER[stage] for name in s.writes}
        written = {name for s in cli.STAGES for name in s.writes}
        assert {path.name for path in out.iterdir() if path.is_file()} == written - stale
        assert sorted(path.name for path in (out / "cache").iterdir()) == [
            "narrate_stats.json", "narrations.jsonl",
        ]

    def test_eval_after_a_new_rerank_scores_its_predictions(self, tmp_path, caplog):
        out = tmp_path / "run"
        pipeline(out, rerank_backend="stub")
        assert run(["rerank", "--out", out, "--backend", "oracle"]) == 0
        assert not (out / cli.PREDICTIONS_FINAL_FILE).exists()
        with caplog.at_level("INFO"):
            assert run(["eval", "--out", out]) == 0
        assert caplog.messages[-1].endswith("(after: predictions_rerank.json)")
        dataset = ingest.load_annotations(out / "annotations.json")
        rerank_predictions = ingest.load_predictions(out / cli.PREDICTIONS_RERANK_FILE)
        compare = json.loads((out / "metrics_compare.json").read_text())
        expected = metrics.evaluate_run(rerank_predictions, dataset)
        assert compare["after"]["mean_r1"] == pytest.approx(expected.mean_r1)

    def test_narrate_after_a_new_simulate_needs_a_new_plan(self, tmp_path, caplog):
        out = tmp_path / "run"
        simulate(out, seed=7)
        assert run(["plan", "--out", out]) == 0
        simulate(out, seed=8)
        with caplog.at_level("ERROR"):
            code = run(["narrate", "--out", out, "--backend", "stub"])
        assert code == 3
        assert caplog.messages == [
            f"missing input produced by stage 'plan': {out / cli.MANIFESTS_FILE} not found"
        ]
        assert not (out / "cache" / cli.CACHE_FILE).exists()

    def test_narrate_after_a_new_simulate_narrates_the_new_script(self, tmp_path):
        # The same seed with more latent twins relabels scripted events
        # under unchanged clips, so the cached stub narrations are stale.
        out, stats = tmp_path / "run", tmp_path / "run" / "cache" / cli.NARRATE_STATS_FILE
        for latent_rate in (0.1, 0.9):
            simulate(out, seed=5, videos=20, queries=5, **{"--latent-rate": latent_rate})
            assert run(["plan", "--out", out]) == 0
            assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        assert json.loads(stats.read_text())["cache_hits"] == 0
        memories = (out / cli.MEMORIES_FILE).read_bytes()
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        assert json.loads(stats.read_text())["backend_calls"] == 0
        fresh = ["--cache-dir", tmp_path / "fresh"]
        assert run(["narrate", "--out", out, "--backend", "stub", *fresh]) == 0
        assert (out / cli.MEMORIES_FILE).read_bytes() == memories


def narrated(out):
    """A simulated run (2 videos x 3 queries) planned and narrated by the stub."""
    simulate(out)
    assert run(["plan", "--out", out]) == 0
    assert run(["narrate", "--out", out, "--backend", "stub"]) == 0


RERANK_OUTPUTS = (cli.RERANKED_FILE, cli.RERANK_LOG_FILE, cli.PREDICTIONS_RERANK_FILE)


def rerank_outputs(out):
    return {name: (out / name).read_bytes() for name in RERANK_OUTPUTS}


def rerank_log(out):
    lines = (out / cli.RERANK_LOG_FILE).read_text().splitlines()
    return {record["query_id"]: record for record in map(json.loads, lines)}


@pytest.fixture
def selections(monkeypatch):
    """The stub's selection calls, by query id in call order. A query id
    in ``replies`` gets that reply instead of the stub's, or raises it
    when it is an exception; past ``interrupt_after`` calls a call
    raises ``KeyboardInterrupt``."""
    state = SimpleNamespace(calls=[], replies={}, interrupt_after=None)
    stub_backend = synth.stub_backend

    def recording_stub(load_script):
        backend = stub_backend(load_script)
        select = backend._select

        def _select(prompt):
            query_id = prompt.query.query_id
            state.calls.append(query_id)
            if state.interrupt_after is not None and len(state.calls) > state.interrupt_after:
                raise KeyboardInterrupt
            reply = state.replies.get(query_id)
            if isinstance(reply, Exception):
                raise reply
            return select(prompt) if reply is None else reply

        backend._select = _select
        return backend

    monkeypatch.setattr(synth, "stub_backend", recording_stub)
    return state


class TestAbstentions:
    def test_only_an_abstained_query_leaves_its_chain(self, tmp_path, selections):
        # An unparseable reply is an abstention. A failed call, a blank
        # reply and a query past --limit fall back too, but did not abstain.
        out = tmp_path / "run"
        simulate(out, videos=4)
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        abstain = "none of the candidates match"
        selections.replies = {
            "v000-q000": abstain,
            "v000-q001": BackendUnavailableError("throttled"),
            "v000-q002": "2",
            "v001-q000": "",
            "v001-q001": " \n",
            "v001-q002": "2",
            "v002-q000": abstain,
            "v002-q001": abstain,
            "v002-q002": abstain,
        }
        assert run(["rerank", "--out", out, "--backend", "stub", "--limit", 9]) == 0
        assert sorted(selections.calls) == sorted(selections.replies)
        fallbacks = {q for q, record in rerank_log(out).items() if record["fallback_used"]}
        assert fallbacks == set(selections.replies) - {"v000-q002", "v001-q002"}
        assert run(["optimize", "--out", out]) == 0
        report = json.loads((out / cli.OPTIMIZER_REPORT_FILE).read_text())
        assert report["left_out"] == {
            "v000": ["v000-q000"], "v002": ["v002-q000", "v002-q001", "v002-q002"],
        }
        assert {video["video_id"]: len(video["choices"]) for video in report["videos"]} == {
            "v000": 2, "v001": 3, "v003": 3,
        }
        reranked = {
            clist.query_id: clist.intervals()
            for clist in ingest.load_candidates(out / cli.RERANKED_FILE, canonical=False)
        }
        dataset = ingest.load_annotations(out / cli.ANNOTATIONS_FILE)
        final = ingest.load_predictions(out / cli.PREDICTIONS_FINAL_FILE, dataset)
        for query_id in ("v000-q000", "v002-q000", "v002-q001", "v002-q002"):
            assert final[query_id] == reranked[query_id]
        # pre_rerank reads no rerank log: every query stays in its chain.
        assert run(["optimize", "--out", out, "--rank-source", "pre_rerank"]) == 0
        report = json.loads((out / cli.OPTIMIZER_REPORT_FILE).read_text())
        assert "left_out" not in report
        assert [len(video["choices"]) for video in report["videos"]] == [3, 3, 3, 3]

    def test_query_naming_no_event_abstains(self, tmp_path):
        # The stub finds no event label in the query, so its reply holds no
        # candidate number: an unparseable reply, logged as a fallback.
        out = tmp_path / "run"
        simulate(out)
        first_query(text="find the step")(out)
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        assert run(["rerank", "--out", out, "--backend", "stub"]) == 0
        record = rerank_log(out)["v000-q000"]
        assert (record["selected_rank"], record["fallback_used"], record["raw_answer"]) == (
            1, True, "cannot tell which event is requested",
        )
        assert read_abstentions(out / cli.RERANK_LOG_FILE) == {"v000-q000"}

    @pytest.mark.parametrize("field, value", [("fallback_used", "true"), ("raw_answer", 1)])
    def test_mistyped_rerank_log_record_exits_4(self, tmp_path, caplog, field, value):
        out = tmp_path / "run"
        pipeline(out)
        path = out / cli.RERANK_LOG_FILE
        lines = path.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), field: value})
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level("ERROR"):
            assert run(["optimize", "--out", out]) == 4
        (message,) = caplog.messages
        assert f"{path}:2: malformed record ({field} must be " in message


class TestSelectionCache:
    def test_warm_rerank_asks_for_no_pick(self, tmp_path, selections, caplog):
        out = tmp_path / "run"
        narrated(out)
        with caplog.at_level("INFO"):
            assert run(["rerank", "--out", out, "--backend", "stub"]) == 0
        assert caplog.messages[-1] == (
            "reranked 6 queries (0 skipped; 0 cached, 6 backend calls) with backend 'stub'"
        )
        assert len(selections.calls) == 6
        cold = rerank_outputs(out)
        selections.calls.clear()
        with caplog.at_level("INFO"):
            assert run(["rerank", "--out", out, "--backend", "stub"]) == 0
        assert caplog.messages[-1] == (
            "reranked 6 queries (0 skipped; 6 cached, 0 backend calls) with backend 'stub'"
        )
        assert selections.calls == []
        assert rerank_outputs(out) == cold

    @pytest.mark.parametrize(
        "reply",
        [BackendUnavailableError("status 429"), BackendError("status 400"), "  \n"],
        ids=["transient", "permanent", "blank"],
    )
    def test_failed_or_blank_selection_is_asked_again(self, tmp_path, selections, reply):
        out = tmp_path / "run"
        narrated(out)
        shutil.copytree(out, tmp_path / "cold")
        selections.replies["v000-q001"] = reply
        assert run(["rerank", "--out", out, "--backend", "stub"]) == 0
        assert rerank_log(out)["v000-q001"]["fallback_used"]
        selections.calls.clear()
        selections.replies.clear()
        assert run(["rerank", "--out", out, "--backend", "stub"]) == 0
        assert selections.calls == ["v000-q001"]
        assert run(["rerank", "--out", tmp_path / "cold", "--backend", "stub"]) == 0
        assert rerank_outputs(out) == rerank_outputs(tmp_path / "cold")

    def test_unparseable_selection_is_cached(self, tmp_path, selections):
        out = tmp_path / "run"
        narrated(out)
        selections.replies["v000-q001"] = "none of these"
        assert run(["rerank", "--out", out, "--backend", "stub"]) == 0
        first = rerank_outputs(out)
        selections.calls.clear()
        selections.replies.clear()
        assert run(["rerank", "--out", out, "--backend", "stub"]) == 0
        assert selections.calls == []
        assert rerank_outputs(out) == first
        record = rerank_log(out)["v000-q001"]
        assert (record["fallback_used"], record["raw_answer"]) == (True, "none of these")

    def test_interrupted_rerank_resumes_with_the_picks_it_lacks(self, tmp_path, selections):
        out = tmp_path / "run"
        narrated(out)
        shutil.copytree(out, tmp_path / "cold")
        assert run(["rerank", "--out", tmp_path / "cold", "--backend", "stub"]) == 0
        picks = len(selections.calls)
        selections.calls.clear()
        selections.interrupt_after = 2
        with pytest.raises(KeyboardInterrupt):
            run(["rerank", "--out", out, "--backend", "stub", "--c-max", 1])
        assert not (out / cli.RERANK_LOG_FILE).exists()
        selections.calls.clear()
        selections.interrupt_after = None
        assert run(["rerank", "--out", out, "--backend", "stub"]) == 0
        assert len(selections.calls) == picks - 2
        assert rerank_outputs(out) == rerank_outputs(tmp_path / "cold")

    def test_oracle_follows_an_edited_ground_truth(self, tmp_path):
        out = tmp_path / "run"
        narrated(out)
        assert run(["rerank", "--out", out, "--backend", "oracle"]) == 0
        picked = rerank_log(out)["v000-q000"]["selected_rank"]
        dataset = ingest.load_annotations(out / "annotations.json")
        lists = ingest.load_candidates(out / "candidates.json", dataset=dataset)
        [clist] = [clist for clist in lists if clist.query_id == "v000-q000"]
        target = 2 if picked == 1 else 1
        gt = clist.candidates[target - 1].interval
        payload = json.loads((out / "annotations.json").read_text())
        query = payload["videos"][0]["queries"][0]
        assert query["query_id"] == "v000-q000"
        query["gt"] = {"start_s": gt.start_s, "end_s": gt.end_s}
        (out / "annotations.json").write_text(json.dumps(payload))
        assert run(["rerank", "--out", out, "--backend", "oracle"]) == 0
        assert rerank_log(out)["v000-q000"]["selected_rank"] == target
        assert not (out / "cache" / cli.SELECTIONS_FILE).exists()

    def test_oracle_names_why_it_cannot_select(self, tmp_path, caplog):
        out = tmp_path / "run"
        narrated(out)
        assert run(["rerank", "--out", out, "--backend", "oracle"]) == 0
        tagged = rerank_outputs(out)
        annotations = out / "annotations.json"
        text = annotations.read_text()
        # Texts not written by simulate pick as the tagged ones do.
        untagged, no_gt = json.loads(text), json.loads(text)
        for video in untagged["videos"]:
            for query in video["queries"]:
                query["text"] = query["text"].replace(f"[{query['query_id']}] ", "")
        annotations.write_text(json.dumps(untagged))
        assert run(["rerank", "--out", out, "--backend", "oracle"]) == 0
        assert rerank_outputs(out) == tagged
        first = no_gt["videos"][0]["queries"][0]
        assert first["query_id"] == "v000-q000"
        del first["gt"]
        annotations.write_text(json.dumps(no_gt))
        caplog.clear()
        with caplog.at_level("ERROR"):
            assert run(["rerank", "--out", out, "--backend", "oracle"]) == 4
        assert caplog.messages == [
            f"{annotations}: query 'v000-q000' has no ground truth for the oracle to select by"
        ]

    def test_oracle_picks_by_the_query_not_a_tag_in_its_text(self, tmp_path):
        # v000-q000's text names v000-q002, whose own argmax is another rank.
        out = tmp_path / "run"
        simulate(out, seed=42, videos=8, queries=5)
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        annotations = out / "annotations.json"
        payload = json.loads(annotations.read_text())
        first = payload["videos"][0]["queries"][0]
        assert first["query_id"] == "v000-q000"
        first["text"] = first["text"].replace("[v000-q000]", "[v000-q002]")
        annotations.write_text(json.dumps(payload))
        assert run(["rerank", "--out", out, "--backend", "oracle"]) == 0
        dataset = ingest.load_annotations(annotations)
        gts = {query.query_id: query.ground_truth for query in dataset.iter_queries()}
        lists = ingest.load_candidates(out / "candidates.json", dataset=dataset)

        def argmax(query_id):
            [clist] = [clist for clist in lists if clist.query_id == query_id]
            ious = [metrics.temporal_iou(c.interval, gts[query_id]) for c in clist.candidates]
            return max(range(len(ious)), key=lambda i: (ious[i], -i)) + 1

        assert argmax("v000-q000") != argmax("v000-q002")
        assert rerank_log(out)["v000-q000"]["selected_rank"] == argmax("v000-q000")

    def test_worst_selector_after_the_oracle_makes_its_own_picks(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        narrated(out)
        shutil.copytree(out, tmp_path / "cold")
        assert run(["rerank", "--out", out, "--backend", "oracle"]) == 0
        oracle = rerank_log(out)
        monkeypatch.setattr(synth, "OracleSelectorBackend", WorstSelectorBackend)
        assert run(["rerank", "--out", out, "--backend", "oracle"]) == 0
        assert run(["rerank", "--out", tmp_path / "cold", "--backend", "oracle"]) == 0
        assert rerank_outputs(out) == rerank_outputs(tmp_path / "cold")
        worst = rerank_log(out)
        assert any(worst[q]["selected_rank"] != oracle[q]["selected_rank"] for q in oracle)
        assert not (out / "cache" / cli.SELECTIONS_FILE).exists()


class TestScenarioLoads:
    @pytest.fixture
    def loads(self, monkeypatch):
        """Calls of the three input loaders, by name."""
        counts = dict.fromkeys(("load_scenario", "load_annotations", "load_candidates"), 0)

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(synth, "load_scenario")
        counted(ingest, "load_annotations")
        counted(ingest, "load_candidates")
        return counts

    def test_narrate_loads_the_scenario_only_for_misses(self, tmp_path, loads):
        # A cold narrate loads the script and the annotations it is checked
        # against, and never the candidates, which no narration reads.
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        (out / "candidates.json").write_text("{")
        loads.update(dict.fromkeys(loads, 0))
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        assert loads == {"load_scenario": 1, "load_annotations": 1, "load_candidates": 0}
        loads.update(dict.fromkeys(loads, 0))
        assert run(["narrate", "--out", out, "--backend", "stub", "--c-max", 1]) == 0
        assert json.loads((out / "cache" / "narrate_stats.json").read_text())["cache_hits"] > 0
        assert loads == dict.fromkeys(loads, 0)

    @pytest.mark.parametrize("backend", ["stub", "oracle"])
    def test_rerank_loads_no_scenario(self, tmp_path, loads, backend):
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        outputs = (cli.RERANKED_FILE, cli.RERANK_LOG_FILE, cli.PREDICTIONS_RERANK_FILE)
        loads.update(dict.fromkeys(loads, 0))
        assert run(["rerank", "--out", out, "--backend", backend]) == 0
        assert loads == {"load_scenario": 0, "load_annotations": 1, "load_candidates": 1}
        with_file = {name: (out / name).read_bytes() for name in outputs}
        (out / "scenario.json").unlink()
        assert run(["rerank", "--out", out, "--backend", backend]) == 0
        assert {name: (out / name).read_bytes() for name in outputs} == with_file

    @pytest.mark.parametrize("version", ["scenario-1", "scenario-2"])
    def test_old_scenario_version_rejected(self, tmp_path, caplog, version):
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        path = out / "scenario.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "version": version}))
        with caplog.at_level("ERROR"):
            code = run(["narrate", "--out", out, "--backend", "stub"])
        assert code == 4
        assert any("re-run simulate" in m for m in caplog.messages)

    def test_warm_narrate_without_the_inputs_it_does_not_need(self, tmp_path, caplog):
        # A warm narrate reads no candidates. A rewritten scenario keys the
        # stub's narrations anew, so they miss the cache and a malformed
        # scenario fails as it does on a cold run.
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        memories = (out / "memories.jsonl").read_bytes()
        (out / "candidates.json").write_text("{")
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        assert (out / "memories.jsonl").read_bytes() == memories
        (out / "scenario.json").write_text("{")
        with caplog.at_level("ERROR"):
            assert run(["narrate", "--out", out, "--backend", "stub"]) == 4
        assert caplog.messages[-1].startswith(f"{out / 'scenario.json'}:1:2: ")

    def test_cold_narrate_over_a_malformed_scenario_exits_4(self, tmp_path, caplog):
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        (out / "scenario.json").write_text("{")
        with caplog.at_level("ERROR"):
            code = run(["narrate", "--out", out, "--backend", "stub"])
        assert code == 4
        assert any("scenario.json" in m for m in caplog.messages)
        stats = json.loads((out / "cache" / "narrate_stats.json").read_text())
        assert stats["backend_calls"] <= 4  # the calls in flight when the load failed


    # A scenario value must have its JSON type: a label a string, a bound
    # a number, the seed an integer; none is converted.
    @pytest.mark.parametrize(
        "change",
        [
            lambda scenario: scenario["event_script"]["v000"][0].update(label=5),
            lambda scenario: scenario["event_script"]["v000"][0].update(
                start_s=str(scenario["event_script"]["v000"][0]["start_s"])
            ),
            lambda scenario: scenario["event_script"]["v000"][0].update(end_s=True),
            lambda scenario: scenario.update(seed=str(scenario["seed"])),
            lambda scenario: scenario.update(seed=True),
            lambda scenario: scenario["knobs"].update(num_videos=2.5),
            lambda scenario: scenario["knobs"].update(jitter_s=True),
        ],
        ids=[
            "label-number", "start-string", "end-bool", "seed-string", "seed-bool",
            "knob-int-fraction", "knob-number-bool",
        ],
    )
    def test_mistyped_scenario_value_exits_4(self, tmp_path, caplog, change):
        out = tmp_path / "run"
        simulate(out, seed=3)
        assert run(["plan", "--out", out]) == 0
        path = out / "scenario.json"
        scenario = json.loads(path.read_text())
        change(scenario)
        path.write_text(json.dumps(scenario))
        with caplog.at_level("ERROR"):
            code = run(["narrate", "--out", out, "--backend", "stub"])
        assert code == 4
        assert any("malformed scenario file" in m for m in caplog.messages)
        assert not (out / "memories.jsonl").exists()


class TestCyclicCollector:
    """A stage runs with the cyclic collector paused, so a stage must not
    leave garbage in reference cycles that grows with its input."""

    STAGES = tuple(stage.name for stage in cli.STAGES[1:])  # all but simulate

    @staticmethod
    def _cyclic_garbage(argv) -> int:
        """Objects the stage of ``argv`` leaves unreachable in cycles."""
        gc.collect()  # what earlier code left is freed, not counted
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert run(argv) == 0
            gc.collect()
            return len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.collect()

    def _per_stage(self, out, videos, queries):
        counts = {
            "simulate": self._cyclic_garbage(
                ["simulate", "--out", out, "--seed", 7, "--videos", videos,
                 "--queries-per-video", queries]
            )
        }
        for stage in self.STAGES:
            backend = ["--backend", "oracle"] if stage == "rerank" else []
            counts[stage] = self._cyclic_garbage([stage, "--out", out, *backend])
        return counts

    def test_stage_garbage_does_not_grow_with_input(self, tmp_path):
        small = self._per_stage(tmp_path / "small", 5, 4)
        large = self._per_stage(tmp_path / "large", 40, 5)
        for stage, count in large.items():
            assert count <= small[stage], (stage, small, large)

    def test_collector_paused_during_the_stage(self, tmp_path, monkeypatch):
        seen = []

        def report(cfg, args):
            seen.append(gc.isenabled())
            return 0

        # The parser takes each command from its STAGES entry.
        stages = tuple(s._replace(command=report) if s.name == "report" else s for s in cli.STAGES)
        monkeypatch.setattr(cli, "STAGES", stages)
        assert gc.isenabled()
        assert run(["report", "--out", tmp_path]) == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_collector_state_restored_on_every_exit(self, tmp_path):
        out = tmp_path / "run"
        simulate(out)
        assert gc.isenabled()
        (out / "metrics_compare.json").write_text("{")
        assert run(["report", "--out", out]) == 4
        assert gc.isenabled()
        (tmp_path / "file").write_text("")
        assert run(["simulate", "--out", tmp_path / "file" / "run"]) == 6
        assert gc.isenabled()
        with pytest.raises(SystemExit):
            run(["plan", "--backend", "nope"])
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, tmp_path):
        gc.disable()
        try:
            simulate(tmp_path / "run")
            assert not gc.isenabled()
        finally:
            gc.enable()


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

    def test_config_directory_rejected(self, tmp_path, caplog):
        directory = tmp_path / "config.json"
        directory.mkdir()
        with caplog.at_level("ERROR"):
            code = run(["plan", "--config", directory, "--out", tmp_path / "run"])
        assert code == 2
        assert str(directory) in caplog.text
        assert not (tmp_path / "run" / "manifests.jsonl").exists()

    @pytest.mark.parametrize(
        "content", [b"{", b"[1]", b'{"seed": 1}\xff'], ids=["not-json", "array", "not-utf8"]
    )
    def test_malformed_config_file_rejected(self, tmp_path, content):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        assert run(["plan", "--config", config]) == 2

    @pytest.mark.parametrize(
        "setting",
        [
            {"top_k": "abc"},
            {"fps": "fast"},
            {"rerank_limit": "x"},
            {"seed": [1]},
            {"paths": {"annotations": 5}},
            {"include_scores": "no"},
            {"top_k": True},
            {"c_max": 2.5},
            {"frame_extract_cmd": 7},
            {"top_k": 5.0},
            {"fps": float("inf")},
            {"backend": "imaginary"},
            {"rank_source": "sideways"},
        ],
        ids=[
            "top_k-string", "fps-string", "rerank_limit-string", "seed-array",
            "annotations-number", "include_scores-string", "top_k-bool", "c_max-fraction",
            "frame_extract_cmd-number", "top_k-float", "fps-infinity", "backend-unknown",
            "rank_source-unknown",
        ],
    )
    def test_mistyped_config_value_rejected(self, tmp_path, caplog, setting):
        out = tmp_path / "run"
        simulate(out)
        config = tmp_path / "config.json"
        paths = {**setting.get("paths", {}), "output_dir": str(out)}
        config.write_text(json.dumps({**setting, "paths": paths}))
        with caplog.at_level("ERROR"):
            code = run(["plan", "--config", config])
        assert code == 2
        assert not (out / "manifests.jsonl").exists()
        key = next(iter(setting.get("paths", setting)))
        assert any(f"setting {key}=" in message for message in caplog.messages)

    # A prompt file is read when the config is parsed, by every stage.
    @pytest.mark.parametrize("stage", ["simulate", "narrate"])
    @pytest.mark.parametrize("prompt", ["missing", "directory", "blank", "not-utf8"])
    def test_unusable_prompt_file_rejected(self, tmp_path, caplog, prompt, stage):
        out = tmp_path / "run"
        if stage == "narrate":
            simulate(out)
            assert run(["plan", "--out", out]) == 0
        path = tmp_path / "prompt.txt"
        if prompt == "directory":
            path.mkdir()
        elif prompt == "blank":
            path.write_text(" \n\t\n")
        elif prompt == "not-utf8":
            path.write_bytes(b"Describe \xff")
        with caplog.at_level("ERROR"):
            code = run([stage, "--out", out, "--backend", "stub", "--prompt-file", path])
        assert code == 2
        assert any("setting narration_prompt=" in message for message in caplog.messages)
        assert not (out / "cache").exists()
        assert not (out / ("memories.jsonl" if stage == "narrate" else "scenario.json")).exists()

    def test_prompt_file_is_its_stripped_text(self, tmp_path):
        path = tmp_path / "prompt.txt"
        path.write_text("narrate the clip\n", encoding="utf-8")
        assert cli._prompt_template(path) == "narrate the clip"
        assert cli._prompt_template(None) == narration.DEFAULT_PROMPT

    @pytest.mark.parametrize("stage", [stage.name for stage in cli.STAGES])
    def test_flags_and_config_keys_are_the_run_config_fields(self, tmp_path, stage):
        names = {f.name for f in fields(RunConfig)}
        own = {f.name for f in fields(ScenarioKnobs)} | {"track"} if stage == "simulate" else set()
        parser = build_parser()
        dests = set(vars(parser.parse_args([stage]))) - {"command", "func", "config"}
        assert dests == names | own
        # Every field is a config key, the paths nested; null keeps the default.
        paths = {"annotations", "candidates", "scenario", "frames_root", "cache_dir", "output_dir"}
        default = RunConfig.from_args(parser.parse_args([stage]))
        for nulls in ({"paths": dict.fromkeys(paths)}, {"paths": None}):
            config = tmp_path / "config.json"
            config.write_text(json.dumps({**nulls, **dict.fromkeys(names - paths)}))
            assert RunConfig.from_args(parser.parse_args([stage, "--config", str(config)])) == default

    PATHS_OBJECT = (
        "config 'paths' must be an object with keys from ['annotations', 'cache_dir', "
        "'candidates', 'frames_root', 'output_dir', 'scenario']"
    )

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            ([], {"paths": ["run"]}, PATHS_OBJECT),
            ([], {"paths": {"output": "run"}}, PATHS_OBJECT),
            (
                ["--fps", 0], {},
                "schema violation in field 'fps': must be a positive finite number, got 0.0",
            ),
            (
                ["--clip-len", 0], {},
                "schema violation in field 'clip_len_s': must be a positive finite number, "
                "got 0.0",
            ),
        ],
        ids=["paths-array", "paths-unknown-key", "fps-zero", "clip-len-zero"],
    )
    def test_invalid_setting_rejected(self, tmp_path, caplog, flags, config, message):
        out = tmp_path / "run"
        simulate(out)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        with caplog.at_level("ERROR"):
            code = run(["plan", "--out", out, "--config", path, *flags])
        assert (code, caplog.messages) == (2, [message])
        assert not (out / "manifests.jsonl").exists()

    def test_negative_lambda_rejected(self, tmp_path, caplog):
        out = tmp_path / "run"
        simulate(out)
        with caplog.at_level("ERROR"):
            code = run(["plan", "--out", out, "--lambda", "-0.5"])
        assert (code, caplog.messages) == (2, ["lambda_penalty must be >= 0, got -0.5"])

    def test_frames_per_clip_over_request_cap_rejected(self, tmp_path, caplog):
        # 20 s clips at 2 fps need 40 frames; a narration request holds 20.
        out = tmp_path / "run"
        simulate(out)
        with caplog.at_level("ERROR"):
            code = run(["plan", "--out", out, "--fps", 2])
        assert code == 2
        assert not (out / "manifests.jsonl").exists()
        assert caplog.messages == [
            "schema violation in field 'clip_len_s * fps': 20.0 s clips at 2.0 fps exceed the "
            "per-request cap of 20 frames"
        ]

    # The child process runs under a 512 MiB address-space cap, so a plan that
    # builds every clip fails rather than exhausting memory.
    PLAN_UNDER_A_MEMORY_CAP = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))\n"
        "from memrerank.cli import main\n"
        "started = time.monotonic()\n"
        "code = main(sys.argv[1:])\n"
        "print(time.monotonic() - started)\n"
        "sys.exit(code)\n"
    )

    @pytest.mark.parametrize(
        "flags",
        [["--clip-len", "1e-320"], ["--clip-len", "1e-9"], ["--clip-len", "1e-9", "--fps", "1e9"]],
        ids=["subnormal", "tiny", "tiny-at-one-frame-per-clip"],
    )
    def test_clip_len_past_the_clip_cap_rejected(self, tmp_path, flags):
        out = tmp_path / "run"
        simulate(out)
        result = subprocess.run(
            [sys.executable, "-c", self.PLAN_UNDER_A_MEMORY_CAP, "plan", "--out", str(out), *flags],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert result.returncode in (2, 4), result.stderr[-2000:]
        assert "clip_len_s" in result.stderr
        assert float(result.stdout) < 2.0
        assert not (out / "manifests.jsonl").exists()

    # Each request in flight is one worker thread, so a c_max past the
    # bound is refused before a stage could start one.
    @pytest.mark.parametrize("stage", ["narrate", "rerank"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_c_max_past_the_bound_rejected(self, tmp_path, caplog, monkeypatch, stage, source):
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        c_max = narration.MAX_C_MAX + 1 if source == "flag" else 100_000
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"c_max": c_max}))
        flags = ["--c-max", c_max] if source == "flag" else ["--config", config]

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was constructed")

        monkeypatch.setattr(threading, "Thread", no_thread)
        with caplog.at_level("ERROR"):
            code = run([stage, "--out", out, "--backend", "stub", *flags])
        assert code == 2
        assert caplog.messages == [f"c_max must lie in [1, {narration.MAX_C_MAX}], got {c_max}"]
        assert not (out / "cache").exists()

    def test_c_max_at_the_bound_accepted(self, tmp_path):
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out, "--c-max", narration.MAX_C_MAX]) == 0

    def test_bad_backend_mode_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["narrate", "--out", tmp_path, "--backend", "imaginary"])


def just_outside_the_declared_ranges():
    """A case per bound a setting or knob declares: a value just outside it,
    the message refusing it, and where it is given (its flag, and for a
    setting the config file as well). Infinity lies above every range that
    has no upper bound; a setting's type refuses it before its range does."""
    for settings in (RunConfig, ScenarioKnobs):
        for f in fields(settings):
            if not f.metadata["range"]:
                continue
            low, high = f.metadata["range"]
            integer = f.type.startswith("int")
            sides = [("below", low - 1 if integer else math.nextafter(low, -math.inf))]
            if high is not None:
                sides.append(("above", high + 1 if integer else math.nextafter(high, math.inf)))
            elif not integer:
                sides.append(("above", math.inf))
            bound = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
            for side, value in sides:
                message = f"{f.name} must {bound}, got {value!r}"
                if settings is RunConfig and value == math.inf:
                    message = f"setting {f.name}=Infinity must be a finite number"
                for source in ("flag", "config") if settings is RunConfig else ("flag",):
                    yield pytest.param(
                        f, value, source, message, id=f"{f.name}-{side}-{source}"
                    )


class TestDeclaredRanges:
    @pytest.mark.parametrize("f, value, source, message", just_outside_the_declared_ranges())
    def test_value_just_outside_a_bound_exits_2(self, tmp_path, caplog, f, value, source, message):
        out, config = tmp_path / "run", tmp_path / "config.json"
        config.write_text(json.dumps({f.name: value} if source == "config" else {}))
        flags = [f"{f.metadata['flag']}={value}"] if source == "flag" else []
        with caplog.at_level("ERROR"):
            code = run(["simulate", "--out", out, "--config", config, *flags])
        assert (code, caplog.messages) == (2, [message])
        assert not out.exists()


class TestSimulate:
    def test_knob_defaults_are_the_scenario_knobs(self, tmp_path):
        out = tmp_path / "run"
        assert run(["simulate", "--out", out]) == 0
        scenario = json.loads((out / "scenario.json").read_text())
        assert scenario["knobs"] == asdict(ScenarioKnobs())

    def test_writes_where_the_path_settings_point(self, tmp_path):
        out, inputs = tmp_path / "run", tmp_path / "inputs"
        flags = {
            f"--{kind}": inputs / f"{kind}.json" for kind in ("annotations", "candidates", "scenario")
        }
        simulate(out, **flags)
        assert all(path.exists() for path in flags.values())
        assert run(["plan", "--out", out, *(part for flag in flags.items() for part in flag)]) == 0


class TestRankSource:
    def test_pre_rerank_uses_base_candidates(self, tmp_path):
        out = tmp_path / "run"
        pipeline(out)
        post = json.loads((out / "optimizer_report.json").read_text())
        assert run(["optimize", "--out", out, "--rank-source", "pre_rerank"]) == 0
        pre = json.loads((out / "optimizer_report.json").read_text())
        assert post["rank_source"] == "post_rerank"
        assert pre["rank_source"] == "pre_rerank"


class TestIncludeScores:
    def test_scores_reach_the_prompt_only_with_the_flag(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        prompts = []
        stub_backend = synth.stub_backend

        def recording_stub(load_script):
            backend = stub_backend(load_script)
            select = backend._select

            def _select(prompt):
                prompts.append(prompt)
                return select(prompt)

            backend._select = _select
            return backend

        monkeypatch.setattr(synth, "stub_backend", recording_stub)
        outputs = (cli.RERANKED_FILE, cli.RERANK_LOG_FILE, cli.PREDICTIONS_RERANK_FILE)

        assert run(["rerank", "--out", out, "--backend", "stub"]) == 0
        without = {name: (out / name).read_bytes() for name in outputs}
        assert len(prompts) == 6
        assert not any("model score: " in prompt for prompt in prompts)

        prompts.clear()
        assert run(["rerank", "--out", out, "--backend", "stub", "--include-scores"]) == 0
        dataset = ingest.load_annotations(out / "annotations.json")
        texts = {query.query_id: query.text for query in dataset.iter_queries()}
        scores_by_text = {
            texts[clist.query_id]: [candidate.score for candidate in clist.candidates]
            for clist in ingest.load_candidates(out / "candidates.json", dataset=dataset)
        }
        assert len(prompts) == 6
        for prompt in prompts:
            lines = prompt.splitlines()
            text = next(line for line in lines if line.startswith(QUERY_LINE_PREFIX))
            shown = [
                float(line.removeprefix("model score: "))
                for line in lines
                if line.startswith("model score: ")
            ]
            assert shown == scores_by_text[text.removeprefix(QUERY_LINE_PREFIX)]
        assert {name: (out / name).read_bytes() for name in outputs} == without


class TestEntryPoints:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "memrerank", "--help"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0
        assert "simulate" in result.stdout

    @pytest.mark.parametrize("base", ["localhost:8000", "ftp://example", "http://"])
    @pytest.mark.parametrize("stage", ["narrate", "rerank"])
    def test_malformed_api_base_exits_2_before_any_request(
        self, tmp_path, monkeypatch, caplog, stage, base
    ):
        def no_request(*args, **kwargs):
            raise AssertionError("a request was sent")

        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        assert run(["narrate", "--out", out, "--backend", "stub"]) == 0
        monkeypatch.setenv("MEMRERANK_API_BASE", base)
        monkeypatch.setenv("MEMRERANK_API_KEY", "k")
        monkeypatch.setattr(requests.Session, "post", no_request)
        with caplog.at_level("ERROR"):
            code = run([stage, "--out", out, "--backend", "remote"])
        assert code == 2
        assert any("MEMRERANK_API_BASE must be an http or https URL" in m for m in caplog.messages)

    def test_remote_backend_requires_env(self, tmp_path, monkeypatch, caplog):
        monkeypatch.delenv("MEMRERANK_API_BASE", raising=False)
        monkeypatch.delenv("MEMRERANK_API_KEY", raising=False)
        out = tmp_path / "run"
        simulate(out)
        assert run(["plan", "--out", out]) == 0
        with caplog.at_level("ERROR"):
            code = run(["narrate", "--out", out, "--backend", "remote"])
        assert code == 2
