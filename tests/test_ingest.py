import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from memrerank import (
    Track,
    load_annotations,
    load_candidates,
    load_predictions,
    write_annotations,
    write_candidates,
    write_predictions,
)
from memrerank.errors import (
    EmptyListError,
    GtOutOfBoundsError,
    InvertedIntervalError,
    NonFiniteScoreError,
    ParseError,
    SchemaViolation,
    UnknownQueryIdError,
)
from memrerank.ingest import format_seconds, write_json_file

from helpers import clist, interval


def write_file(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def annotations_payload():
    return {
        "track": "goalstep",
        "videos": [
            {
                "video_id": "v0",
                "duration_s": 300.0,
                "queries": [
                    {
                        "query_id": "v0-q0",
                        "text": "first step",
                        "order_index": 0,
                        "gt": {"start_s": 10.0, "end_s": 25.0},
                    },
                    {
                        "query_id": "v0-q1",
                        "text": "second step",
                        "order_index": 1,
                        "gt": {"start_s": 40.0, "end_s": 80.0},
                    },
                ],
            }
        ],
    }


class TestLoadAnnotations:
    def test_two_ordered_queries(self, tmp_path):
        dataset = load_annotations(write_file(tmp_path, "a.json", annotations_payload()))
        assert dataset.track is Track.GOALSTEP
        queries = list(dataset.iter_queries())
        assert len(queries) == 2
        assert [q.order_index for q in queries] == [0, 1]
        assert queries[0].ground_truth == interval(10, 25)

    def test_inverted_gt_rejected(self, tmp_path):
        payload = annotations_payload()
        payload["videos"][0]["queries"][0]["gt"] = {"start_s": 25.0, "end_s": 10.0}
        with pytest.raises(InvertedIntervalError):
            load_annotations(write_file(tmp_path, "a.json", payload))

    def test_mixed_order_index_rejected(self, tmp_path):
        payload = annotations_payload()
        del payload["videos"][0]["queries"][1]["order_index"]
        with pytest.raises(SchemaViolation):
            load_annotations(write_file(tmp_path, "a.json", payload))

    def test_goalstep_requires_order_everywhere(self, tmp_path):
        payload = annotations_payload()
        for query in payload["videos"][0]["queries"]:
            del query["order_index"]
        with pytest.raises(SchemaViolation):
            load_annotations(write_file(tmp_path, "a.json", payload))

    def test_nlq_forbids_order(self, tmp_path):
        payload = annotations_payload()
        payload["track"] = "nlq"
        with pytest.raises(SchemaViolation):
            load_annotations(write_file(tmp_path, "a.json", payload))

    def test_gt_beyond_duration_rejected(self, tmp_path):
        payload = annotations_payload()
        payload["videos"][0]["duration_s"] = 60.0
        with pytest.raises(GtOutOfBoundsError):
            load_annotations(write_file(tmp_path, "a.json", payload))

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"track": "nlq",\n  "videos": [}', encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_annotations(path)
        assert excinfo.value.line == 2

    def test_duplicate_query_id_rejected(self, tmp_path):
        payload = annotations_payload()
        payload["videos"][0]["queries"][1]["query_id"] = "v0-q0"
        with pytest.raises(SchemaViolation):
            load_annotations(write_file(tmp_path, "a.json", payload))

    def test_round_trip(self, tmp_path):
        dataset = load_annotations(write_file(tmp_path, "a.json", annotations_payload()))
        out = tmp_path / "b.json"
        write_annotations(dataset, out)
        assert load_annotations(out) == dataset


def candidates_payload(num=7):
    return {
        "predictions": [
            {
                "video_id": "v0",
                "query_id": "v0-q0",
                "candidates": [
                    {"start_s": 10.0 * i, "end_s": 10.0 * i + 8.0, "score": 0.1 * i}
                    for i in range(num)
                ],
            }
        ]
    }


class TestLoadCandidates:
    def test_truncates_to_top_k(self, tmp_path):
        lists = load_candidates(write_file(tmp_path, "c.json", candidates_payload(7)), top_k=5)
        (clist_,) = lists
        assert len(clist_) == 5
        # Highest scores kept: 0.6, 0.5, 0.4, 0.3, 0.2.
        assert [c.score for c in clist_.candidates] == pytest.approx(
            [0.6, 0.5, 0.4, 0.3, 0.2]
        )
        assert [c.rank for c in clist_.candidates] == [1, 2, 3, 4, 5]

    def test_top_one_keeps_argmax(self, tmp_path):
        lists = load_candidates(write_file(tmp_path, "c.json", candidates_payload(4)), top_k=1)
        (clist_,) = lists
        assert len(clist_) == 1
        assert clist_.candidates[0].score == pytest.approx(0.3)

    def test_nan_score_rejected(self, tmp_path):
        payload = candidates_payload(2)
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(payload).replace("0.1", "NaN", 1), encoding="utf-8"
        )
        with pytest.raises(NonFiniteScoreError):
            load_candidates(path)

    def test_empty_candidate_array_rejected(self, tmp_path):
        payload = {"predictions": [{"video_id": "v0", "query_id": "q", "candidates": []}]}
        with pytest.raises(EmptyListError):
            load_candidates(write_file(tmp_path, "c.json", payload))

    def test_negative_time_rejected(self, tmp_path):
        payload = candidates_payload(2)
        payload["predictions"][0]["candidates"][0]["start_s"] = -3.0
        from memrerank.errors import NegativeTimeError

        with pytest.raises(NegativeTimeError):
            load_candidates(write_file(tmp_path, "c.json", payload))

    def test_canonical_round_trip(self, tmp_path):
        lists = load_candidates(write_file(tmp_path, "c.json", candidates_payload(5)))
        out = tmp_path / "again.json"
        write_candidates(lists, out)
        assert load_candidates(out) == lists

    def test_unknown_query_id_cross_check(self, tmp_path):
        dataset = load_annotations(write_file(tmp_path, "a.json", annotations_payload()))
        payload = candidates_payload(3)
        payload["predictions"][0]["query_id"] = "nonexistent"
        with pytest.raises(UnknownQueryIdError):
            load_candidates(write_file(tmp_path, "c.json", payload), dataset=dataset)

    def test_non_canonical_load_preserves_order(self, tmp_path):
        # A reranked file is ordered by preference, not score.
        reranked = clist("v0", "v0-q0", [(40, 50, 0.2), (0, 10, 0.9), (20, 30, 0.5)])
        path = tmp_path / "r.json"
        write_candidates([reranked], path)
        (loaded,) = load_candidates(path, top_k=5, canonical=False)
        assert loaded == reranked

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=8),
    )
    def test_never_longer_than_top_k(self, tmp_path_factory, top_k, num):
        tmp_path = tmp_path_factory.mktemp("cands")
        lists = load_candidates(
            write_file(tmp_path, "c.json", candidates_payload(num)), top_k=top_k
        )
        assert len(lists[0]) == min(top_k, num)


finite_seconds = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestPredictions:
    def test_round_trip_single_query(self, tmp_path):
        path = tmp_path / "p.json"
        results = {"q0": (interval(10.0, 20.0),)}
        write_predictions(results, path)
        assert load_predictions(path) == results

    def test_empty_results_map(self, tmp_path):
        path = tmp_path / "p.json"
        write_predictions({}, path)
        assert load_predictions(path) == {}

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            write_predictions({}, tmp_path / "missing_dir" / "p.json")

    def test_empty_interval_list_rejected(self, tmp_path):
        with pytest.raises(SchemaViolation):
            write_predictions({"q0": ()}, tmp_path / "p.json")

    def test_version_checked(self, tmp_path):
        path = write_file(tmp_path, "p.json", {"version": "other", "results": []})
        with pytest.raises(SchemaViolation):
            load_predictions(path)

    def test_timestamps_have_three_fractional_digits(self, tmp_path):
        path = tmp_path / "p.json"
        write_predictions({"q0": (interval(10.0, 20.5),)}, path)
        text = path.read_text(encoding="utf-8")
        assert "[[10.000,20.500]]" in text

    @given(
        st.dictionaries(
            st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1,
                max_size=8,
            ),
            st.lists(
                st.tuples(finite_seconds, st.floats(min_value=0.0, max_value=100.0)),
                min_size=1,
                max_size=4,
            ),
            max_size=5,
        )
    )
    def test_round_trip_property(self, tmp_path_factory, raw):
        tmp_path = tmp_path_factory.mktemp("preds")
        results = {
            qid: tuple(interval(s, s + d) for s, d in pairs)
            for qid, pairs in raw.items()
        }
        path = tmp_path / "p.json"
        write_predictions(results, path)
        assert load_predictions(path) == results


class TestFormatSeconds:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (10.0, "10.000"),
            (20.5, "20.500"),
            (0.0, "0.000"),
            (1.2345, "1.2345"),
            (-0.5, "-0.500"),
        ],
    )
    def test_fixed_cases(self, value, expected):
        assert format_seconds(value) == expected

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            format_seconds(float("inf"))

    @given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9))
    def test_round_trips_exactly_with_min_digits(self, value):
        text = format_seconds(value)
        assert float(text) == value
        assert "e" not in text and "E" not in text
        fractional = text.split(".", 1)[1]
        assert len(fractional) >= 3

    def test_tiny_values_keep_exact_round_trip(self):
        value = 1.25e-7
        text = format_seconds(value)
        assert float(text) == value
        assert not math.isnan(float(text))


class TestAtomicWrite:
    def test_failed_write_leaves_the_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "out.json"
        write_json_file({"x": 1.5}, path)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            write_json_file({"x": float("nan")}, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
