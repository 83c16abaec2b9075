import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memrerank.core import Query
from memrerank.errors import SchemaViolation, ValidationError
from memrerank.ingest import Dataset, Track, VideoRecord, read_json_file
from memrerank.metrics import (
    DEFAULT_IOU_THRESHOLDS,
    DEFAULT_KS,
    GRID,
    MetricsReport,
    display_value,
    evaluate_run,
    format_comparison_table,
    mean_r1,
    read_comparison,
    recall_at_k,
    report_from_dict,
    report_to_dict,
    temporal_iou,
    write_comparison,
    write_metrics_report,
)

from helpers import interval, iou_grid_oracle

# Printed leaderboard rows: R@1@0.3, R@1@0.5, and the published mean.
LEADERBOARD_ROWS = [
    (63.02, 54.21, 58.61),
    (56.27, 40.20, 48.24),
    (53.39, 45.43, 49.41),
    (52.41, 44.55, 48.48),
    (36.47, 22.65, 29.56),
]


class TestTemporalIoU:
    def test_identical(self):
        assert temporal_iou(interval(3, 7), interval(3, 7)) == 1.0

    def test_disjoint(self):
        assert temporal_iou(interval(0, 10), interval(20, 30)) == 0.0

    def test_partial_overlap(self):
        # [0,10] vs [5,15]: intersection 5, union 15.
        assert temporal_iou(interval(0, 10), interval(5, 15)) == pytest.approx(
            5.0 / 15.0, abs=1e-12
        )

    def test_degenerate_identical_points(self):
        assert temporal_iou(interval(4, 4), interval(4, 4)) == 1.0

    def test_degenerate_distinct_points(self):
        assert temporal_iou(interval(4, 4), interval(5, 5)) == 0.0

    def test_degenerate_vs_proper(self):
        assert temporal_iou(interval(4, 4), interval(0, 10)) == 0.0

    def test_matches_discretized_oracle(self):
        rng = random.Random(99)
        for _ in range(100):
            a_start = rng.uniform(0, 100)
            b_start = rng.uniform(0, 100)
            a = interval(a_start, a_start + rng.uniform(0.5, 80))
            b = interval(b_start, b_start + rng.uniform(0.5, 80))
            assert temporal_iou(a, b) == pytest.approx(iou_grid_oracle(a, b), abs=1e-3)

    @given(
        st.floats(min_value=0, max_value=500),
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=0, max_value=500),
        st.floats(min_value=0.01, max_value=100),
    )
    def test_symmetric_and_bounded(self, s1, l1, s2, l2):
        a, b = interval(s1, s1 + l1), interval(s2, s2 + l2)
        assert temporal_iou(a, b) == temporal_iou(b, a)
        assert 0.0 <= temporal_iou(a, b) <= 1.0


class TestRecallAtK:
    def test_hand_enumerated_two_queries(self):
        # q0 top-1 IoU 1.0 (hit at 0.3), q1 top-1 IoU 0.0 (miss): 1/2 hits.
        predictions = {"q0": (interval(0, 10),), "q1": (interval(50, 60),)}
        gt = {"q0": interval(0, 10), "q1": interval(100, 110)}
        assert recall_at_k(predictions, gt, 1, 0.3) == 50.0

    def test_all_exact_matches(self):
        gt = {f"q{i}": interval(i * 10, i * 10 + 5) for i in range(4)}
        predictions = {qid: (iv,) for qid, iv in gt.items()}
        for k in (1, 5):
            for m in (0.3, 0.5, 1.0):
                assert recall_at_k(predictions, gt, k, m) == 100.0

    def test_empty_prediction_list_is_a_miss(self):
        assert recall_at_k({"q0": ()}, {"q0": interval(0, 10)}, 5, 0.3) == 0.0

    def test_missing_query_is_a_miss(self):
        assert recall_at_k({}, {"q0": interval(0, 10)}, 5, 0.3) == 0.0

    def test_deeper_k_sees_later_predictions(self):
        predictions = {"q0": (interval(50, 60), interval(0, 10))}
        gt = {"q0": interval(0, 10)}
        assert recall_at_k(predictions, gt, 1, 0.5) == 0.0
        assert recall_at_k(predictions, gt, 2, 0.5) == 100.0


class TestMeanR1:
    @pytest.mark.parametrize("r1_03, r1_05, printed", LEADERBOARD_ROWS)
    def test_leaderboard_rows(self, r1_03, r1_05, printed):
        assert mean_r1(r1_03, r1_05) == pytest.approx(printed, abs=0.01)

    def test_zero(self):
        assert mean_r1(0.0, 0.0) == 0.0


def _cells(r1_03=50.0, r1_05=40.0, r5_03=75.0, r5_05=60.0) -> dict:
    return {(1, 0.3): r1_03, (1, 0.5): r1_05, (5, 0.3): r5_03, (5, 0.5): r5_05}


class TestMetricsReport:
    def test_monotone_in_k_enforced(self):
        falls = r"R@k at iou 0.3 falls as k grows: \[60.0, 50.0\]"
        with pytest.raises(SchemaViolation, match=falls):
            MetricsReport(cells=_cells(r1_03=60.0, r5_03=50.0), mean_r1=50.0, num_queries=10)

    def test_monotone_in_threshold_enforced(self):
        rises = r"R@1 rises as the iou threshold grows: \[0.0, 40.0\]"
        with pytest.raises(SchemaViolation, match=rises):
            MetricsReport(cells=_cells(r1_03=0.0), mean_r1=20.0, num_queries=10)

    @pytest.mark.parametrize("mean", [44.0, 45.0 + 1e-12, 50.0])
    def test_mean_r1_is_the_mean_of_the_r1_cells(self, mean):
        message = rf"field 'mean_r1': {mean} is not the mean R@1, 45.0"
        with pytest.raises(SchemaViolation, match=message):
            MetricsReport(cells=_cells(), mean_r1=mean, num_queries=4)

    def test_percentage_range_enforced(self):
        with pytest.raises(SchemaViolation, match=r"percentage out of \[0, 100\]: 101.0"):
            MetricsReport(cells=_cells(r5_05=101.0), mean_r1=45.0, num_queries=1)

    def test_mapping_access(self):
        report = MetricsReport(cells=_cells(), mean_r1=45.0, num_queries=4)
        assert report.cells[1, 0.3] == 50.0
        assert report.cells[5, 0.3] == 75.0
        with pytest.raises(KeyError):
            report.cells[1, 0.7]

    def test_cells_kept_in_grid_order(self):
        shuffled = dict(reversed(_cells().items()))
        report = MetricsReport(cells=shuffled, mean_r1=45.0, num_queries=4)
        assert tuple(report.cells) == GRID
        assert report == MetricsReport(cells=_cells(), mean_r1=45.0, num_queries=4)

    @pytest.mark.parametrize(
        "cells",
        [{}, {key: 50.0 for key in GRID[:-1]}, {**_cells(), (10, 0.7): 80.0}],
        ids=["empty", "missing-cell", "extra-cell"],
    )
    def test_cells_must_be_the_grid(self, cells):
        with pytest.raises(SchemaViolation, match="^schema violation in field 'cells': must be "):
            MetricsReport(cells=cells, mean_r1=50.0, num_queries=1)

    def test_cell_listed_twice_rejected(self):
        payload = report_to_dict(MetricsReport(cells=_cells(), mean_r1=45.0, num_queries=4))
        payload["cells"].append(dict(payload["cells"][0]))
        with pytest.raises(SchemaViolation, match=r"cell \(1, 0.3\) is listed twice"):
            report_from_dict(payload)


def _dataset(gt_by_query, track=Track.NLQ, duration=1000.0):
    queries = tuple(
        Query(qid, "v0", f"query {qid}", ground_truth=gt)
        for qid, gt in gt_by_query.items()
    )
    return Dataset(track=track, videos=(VideoRecord("v0", duration, queries),))


class TestEvaluateRun:
    def test_perfect_predictions(self):
        gt = {f"q{i}": interval(10 * i, 10 * i + 8) for i in range(5)}
        dataset = _dataset(gt)
        predictions = {qid: (iv,) for qid, iv in gt.items()}
        report = evaluate_run(predictions, dataset)
        assert report.num_queries == 5
        assert report.mean_r1 == 100.0
        assert all(value == 100.0 for value in report.cells.values())

    def test_hand_enumerated_fixture(self):
        dataset = _dataset({"q0": interval(0, 10), "q1": interval(100, 110)})
        predictions = {"q0": (interval(0, 10),), "q1": (interval(50, 60),)}
        report = evaluate_run(predictions, dataset)
        assert report.cells[1, 0.3] == 50.0

    def test_empty_dataset_rejected(self):
        dataset = Dataset(track=Track.NLQ, videos=())
        with pytest.raises(
            ValidationError, match="^dataset has no annotated queries to score$"
        ):
            evaluate_run({}, dataset)

    def test_missing_predictions_flagged_as_misses(self, caplog):
        gt = {"q0": interval(0, 10), "q1": interval(20, 30)}
        dataset = _dataset(gt)
        with caplog.at_level("WARNING"):
            report = evaluate_run({"q0": (interval(0, 10),)}, dataset)
        assert report.cells[1, 0.5] == 50.0
        assert any("count as misses" in message for message in caplog.messages)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**30))
    def test_monotone_in_k_and_threshold(self, seed):
        rng = random.Random(seed)
        gt = {}
        predictions = {}
        for i in range(rng.randint(1, 12)):
            qid = f"q{i}"
            s = rng.uniform(0, 200)
            gt[qid] = interval(s, s + rng.uniform(1, 30))
            ranked = []
            for _ in range(rng.randint(0, 5)):
                ps = rng.uniform(0, 200)
                ranked.append(interval(ps, ps + rng.uniform(1, 30)))
            predictions[qid] = tuple(ranked)
        ks, thresholds = (1, 3, 5), (0.1, 0.3, 0.5, 0.7)
        for m in thresholds:
            values = [recall_at_k(predictions, gt, k, m) for k in ks]
            assert values == sorted(values)
        for k in ks:
            values = [recall_at_k(predictions, gt, k, m) for m in thresholds]
            assert values == sorted(values, reverse=True)
        report = evaluate_run(predictions, _dataset(gt))
        assert list(report.cells.items()) == [
            ((k, m), recall_at_k(predictions, gt, k, m))
            for k in DEFAULT_KS
            for m in DEFAULT_IOU_THRESHOLDS
        ]


class TestReportFiles:
    def _report(self):
        gt = {"q0": interval(0, 10), "q1": interval(100, 110)}
        predictions = {"q0": (interval(0, 10),), "q1": (interval(50, 60),)}
        return evaluate_run(predictions, _dataset(gt))

    def test_report_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "metrics.json"
        write_metrics_report(report, path)
        assert read_json_file(path, "report payload", report_from_dict) == report

    def test_comparison_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "compare.json"
        write_comparison(report, report, path)
        before, after = read_comparison(path)
        assert before == after == report

    def test_display_rounding_is_half_even(self):
        assert display_value(58.615) in ("58.61", "58.62")
        assert display_value(50.0) == "50.00"
        assert display_value(1.005) == f"{round(1.005, 2):.2f}"

    def test_table_layout(self):
        report = self._report()
        table = format_comparison_table([("base", report), ("reranked", report)])
        lines = table.splitlines()
        assert lines[0].split() == [
            "method",
            "R@1@0.3",
            "R@1@0.5",
            "R@5@0.3",
            "R@5@0.5",
            "Mean",
            "R@1",
        ]
        assert lines[2].startswith("base")
        assert lines[3].startswith("reranked")
