import ast
import json
import math
import re
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import memrerank
from memrerank.errors import ParseError, SchemaViolation, ValidationError
from memrerank.ingest import (
    PREDICTIONS_VERSION,
    Track,
    dump_json,
    format_seconds,
    load_annotations,
    load_candidates,
    load_predictions,
    read_jsonl,
    write_annotations,
    write_candidates,
    write_json_file,
    write_jsonl,
    write_predictions,
)

from helpers import clist, interval


def write_file(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def refused(path, what, detail):
    """The anchored message of a whole-file input ``path`` of ``what``
    whose value a domain type refuses with ``detail``."""
    message = f"schema violation in field '{what}': {path}: malformed {what}: {detail}"
    return f"^{re.escape(message)}$"


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
        path = write_file(tmp_path, "a.json", payload)
        message = refused(path, "annotations file", "end_s 10.0 precedes start_s 25.0")
        with pytest.raises(ValidationError, match=message):
            load_annotations(path)

    def test_mixed_order_index_rejected(self, tmp_path):
        payload = annotations_payload()
        del payload["videos"][0]["queries"][1]["order_index"]
        path = write_file(tmp_path, "a.json", payload)
        detail = "field 'order_index': goalstep query 'v0-q1' has no order index"
        with pytest.raises(SchemaViolation, match=refused(path, "annotations file", detail)):
            load_annotations(path)

    def test_wrapped_schema_violation_says_so_once(self, tmp_path):
        payload = annotations_payload()
        payload["videos"][0]["duration_s"] = -3.0
        path = write_file(tmp_path, "a.json", payload)
        detail = "field 'duration_s': must be a positive number, got -3.0"
        with pytest.raises(SchemaViolation, match=refused(path, "annotations file", detail)):
            load_annotations(path)

    def test_duplicate_order_index_rejected(self, tmp_path):
        payload = annotations_payload()
        payload["videos"][0]["queries"][1]["order_index"] = 0
        with pytest.raises(SchemaViolation, match="duplicate order index 0 in video 'v0'"):
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
        with pytest.raises(
            ValidationError,
            match=re.escape(
                "ground truth out of bounds for query 'v0-q1': [40.0, 80.0] exceeds duration 60.0"
            ),
        ):
            load_annotations(write_file(tmp_path, "a.json", payload))

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"track": "nlq",\n  "videos": [}', encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_annotations(path)
        assert excinfo.value.line == 2

    def test_non_utf8_byte_is_a_parse_error_with_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_bytes(b'{"track": "nlq",\n  "videos": ["\xff"]}')
        with pytest.raises(ParseError) as excinfo:
            load_annotations(path)
        assert (excinfo.value.line, excinfo.value.column) == (2, 15)

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

    def test_non_string_text_rejected(self, tmp_path):
        payload = annotations_payload()
        payload["videos"][0]["queries"][0]["text"] = 5
        path = write_file(tmp_path, "a.json", payload)
        detail = "text must be str, got 5"
        with pytest.raises(SchemaViolation, match=refused(path, "annotations file", detail)):
            load_annotations(path)

    def test_query_is_in_the_video_that_holds_it(self, tmp_path):
        # A query record names no video of its own: a stray key is ignored.
        payload = annotations_payload()
        payload["videos"][0]["queries"][0]["video_id"] = "v9"
        dataset = load_annotations(write_file(tmp_path, "a.json", payload))
        assert [q.video_id for q in dataset.iter_queries()] == ["v0", "v0"]

    def test_query_without_ground_truth_round_trips(self, tmp_path):
        payload = annotations_payload()
        del payload["videos"][0]["queries"][1]["gt"]
        dataset = load_annotations(write_file(tmp_path, "a.json", payload))
        assert [q.ground_truth for q in dataset.iter_queries()] == [interval(10, 25), None]
        out = tmp_path / "b.json"
        write_annotations(dataset, out)
        assert json.loads(out.read_text()) == payload
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
        with pytest.raises(
            ValidationError, match=refused(path, "candidates file", "score must be finite, got nan")
        ):
            load_candidates(path)

    def test_empty_candidate_array_rejected(self, tmp_path):
        payload = {"predictions": [{"video_id": "v0", "query_id": "q", "candidates": []}]}
        path = write_file(tmp_path, "c.json", payload)
        message = refused(path, "candidates file", "query 'q' has no candidates")
        with pytest.raises(ValidationError, match=message):
            load_candidates(path)

    def test_negative_time_rejected(self, tmp_path):
        payload = candidates_payload(2)
        payload["predictions"][0]["candidates"][0]["start_s"] = -3.0
        path = write_file(tmp_path, "c.json", payload)
        message = refused(path, "candidates file", "start_s must be >= 0, got -3.0")
        with pytest.raises(ValidationError, match=message):
            load_candidates(path)

    def test_canonical_round_trip(self, tmp_path):
        lists = load_candidates(write_file(tmp_path, "c.json", candidates_payload(5)))
        out = tmp_path / "again.json"
        write_candidates(lists, out)
        assert load_candidates(out) == lists

    def test_unknown_query_id_cross_check(self, tmp_path):
        dataset = load_annotations(write_file(tmp_path, "a.json", annotations_payload()))
        payload = candidates_payload(3)
        payload["predictions"][0]["query_id"] = "nonexistent"
        path = write_file(tmp_path, "c.json", payload)
        message = refused(path, "candidates file", "candidates for unknown query 'nonexistent'")
        with pytest.raises(ValidationError, match=message):
            load_candidates(path, dataset=dataset)

    def test_list_under_another_video_rejected(self, tmp_path):
        dataset = load_annotations(write_file(tmp_path, "a.json", annotations_payload()))
        payload = candidates_payload(3)
        payload["predictions"][0]["video_id"] = "v1"
        path = write_file(tmp_path, "c.json", payload)
        with pytest.raises(SchemaViolation) as caught:
            load_candidates(path, dataset=dataset)
        assert str(caught.value).endswith(
            f"{path}: malformed candidates file: candidate list for query 'v0-q0' "
            "names video 'v1', but the query is in 'v0'"
        )
        # Without a dataset there is no query's video to compare with.
        assert [clist_.video_id for clist_ in load_candidates(path)] == ["v1"]

    def test_second_list_for_a_query_rejected(self, tmp_path):
        dataset = load_annotations(write_file(tmp_path, "a.json", annotations_payload()))
        payload = candidates_payload(3)
        payload["predictions"].append({**payload["predictions"][0], "video_id": "v1"})
        path = write_file(tmp_path, "c.json", payload)
        for known in (None, dataset):
            with pytest.raises(SchemaViolation) as caught:
                load_candidates(path, dataset=known)
            assert str(caught.value).endswith(
                f"{path}: malformed candidates file: duplicate candidate list for query 'v0-q0'"
            )

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


    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 5.0, 12.5]),  # start
                st.sampled_from([1.0, 8.0]),  # duration
                st.sampled_from([0.2, 0.5, 0.9]),  # score
            ),
            min_size=1,
            max_size=9,
        ),
        st.integers(min_value=1, max_value=10),
        st.booleans(),
        st.booleans(),
    )
    def test_matches_a_direct_reference(
        self, tmp_path_factory, triples, top_k, presorted, canonical
    ):
        # Few distinct values, so scores, starts and durations tie often;
        # a presorted file is already in canonical order.
        def canonical_key(triple):
            start, duration, score = triple
            return (-score, start, duration)

        if presorted:
            triples = sorted(triples, key=canonical_key)
        payload = {
            "predictions": [
                {
                    "video_id": "v0",
                    "query_id": "v0-q0",
                    "candidates": [
                        {"start_s": start, "end_s": start + duration, "score": score}
                        for start, duration, score in triples
                    ],
                }
            ]
        }
        ordered = sorted(triples, key=canonical_key) if canonical else triples
        expected = clist(
            "v0", "v0-q0", [(s, s + d, score) for s, d, score in ordered[:top_k]]
        )
        path = write_file(tmp_path_factory.mktemp("cands"), "c.json", payload)
        assert load_candidates(path, top_k=top_k, canonical=canonical) == [expected]

    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize(
        "bad",
        [{"score": "high"}, {"score": math.nan}, {"start_s": 30.0, "end_s": 30.0}, {"start_s": -1.0}],
        ids=["string-score", "nan-score", "zero-length", "negative-start"],
    )
    def test_malformed_candidate_beyond_top_k_rejected(self, tmp_path, bad, canonical):
        # Candidate 0 has the lowest score and candidate 6 the last place
        # in the file: beyond the top 2 by score and by file order.
        payload = candidates_payload(7)
        payload["predictions"][0]["candidates"][0 if canonical else 6].update(bad)
        path = write_file(tmp_path, "c.json", payload)
        with pytest.raises(ValidationError):
            load_candidates(path, top_k=2, canonical=canonical)


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

    def test_empty_interval_list_refused_when_read(self, tmp_path):
        payload = {"version": PREDICTIONS_VERSION, "results": [{"query_id": "q0", "intervals": []}]}
        path = write_file(tmp_path, "p.json", payload)
        with pytest.raises(
            SchemaViolation,
            match=r"p\.json: malformed predictions file: query 'q0' has no predicted intervals$",
        ):
            load_predictions(path)

    def test_unknown_query_refused_with_a_dataset(self, tmp_path):
        dataset = load_annotations(write_file(tmp_path, "a.json", annotations_payload()))
        path = tmp_path / "p.json"
        write_predictions({"v0-q0": (interval(1, 2),), "nope": (interval(1, 2),)}, path)
        assert set(load_predictions(path)) == {"v0-q0", "nope"}
        message = refused(path, "predictions file", "predictions for unknown query 'nope'")
        with pytest.raises(ValidationError, match=message):
            load_predictions(path, dataset)

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

    @settings(derandomize=True, database=None, max_examples=500)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(2.0**-569)  # a power of two that 187 decimals do not round-trip
    @example(5e-324)
    @example(-1.7976931348623157e308)
    def test_round_trips_exactly_with_min_digits(self, value):
        text = format_seconds(value)
        assert float(text) == value
        assert "e" not in text and "E" not in text
        assert len(text.split(".", 1)[1]) >= 3
        plain = repr(value)
        if "e" not in plain and len(plain.split(".", 1)[1]) >= 3:
            assert text == plain
        else:
            first = next(d for d in (3, *range(17, 1100, 10)) if float(f"{value:.{d}f}") == value)
            assert text == f"{value:.{first}f}"

    def test_tiny_values_keep_exact_round_trip(self):
        value = 1.25e-7
        text = format_seconds(value)
        assert float(text) == value
        assert not math.isnan(float(text))


class TestDumpJson:
    """Pins the data-file bytes: non-ASCII text stays raw, control
    characters are escaped, floats are plain decimals with at least three
    fractional digits, keys are sorted and tuples are arrays. Only JSON's
    own types are taken: a ``str`` subclass, a non-dict mapping and a
    non-str key are refused."""

    VALUE = {
        "text": "naïve café — ✓ 日本",
        "escapes": 'quote " backslash \\ slash / newline \n tab \t bell \x07 '
        "del \x7f nul \x00 \u2028",
        "floats": [
            1.5, 0.1, 2.0, 1.2345678901234567, 1e-07, 1.25e-20, 1e22,
            1.7976931348623157e308, 123456.789012, -0.0, -2.5,
        ],
        "ints": [0, -7, 2**70],
        "flags": [True, False, None],
        "nested": {"tuple": (1, (2.0, "x")), "list": [[], {}, ()], "dict": {"b": 1, "a": [None]}},
        "ключ": "значение",
    }
    GOLDEN = (
        '{"escapes":"quote \\" backslash \\\\ slash / newline \\n tab \\t bell '
        '\\u0007 del \x7f nul \\u0000 \u2028",'
        '"flags":[true,false,null],'
        '"floats":[1.500,0.100,2.000,1.2345678901234567,0.00000010000000000,'
        "0.000000000000000000012500000,10000000000000000000000.000,"
        + "179769313486231570814527423731704356798070567525844996598917476803157260780"
        "028538760589558632766878171540458953514382464234321326889464182768467546703"
        "537516986049910576551282076245490090389328944075868508455133942304583236903"
        "222948165808559332123348274797826204144723168738177180919299881250404026184"
        "124858368.000,123456.789012,-0.000,-2.500],"
        '"ints":[0,-7,1180591620717411303424],'
        '"nested":{"dict":{"a":[null],"b":1},"list":[[],{},[]],"tuple":[1,[2.000,"x"]]},'
        '"text":"naïve café — ✓ 日本","ключ":"значение"}'
    )

    def test_golden_bytes(self):
        assert dump_json(self.VALUE) == self.GOLDEN

    def test_golden_text_is_json_of_the_value(self):
        decoded = json.loads(self.GOLDEN)
        assert decoded["escapes"] == self.VALUE["escapes"]
        assert decoded["floats"] == self.VALUE["floats"]

    @pytest.mark.parametrize(
        "value",
        [
            object(), {1, 2}, b"bytes", {"k": [1j]}, Track.GOALSTEP,
            types.MappingProxyType({"z": 0.25}), {1: "x"},
        ],
        ids=["object", "set", "bytes", "nested", "str-subclass", "mapping-proxy", "int-key"],
    )
    def test_unsupported_type_raises_type_error(self, value):
        with pytest.raises(TypeError, match="cannot serialize"):
            dump_json(value)


class TestAtomicWrite:
    def test_failed_write_leaves_the_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "out.json"
        write_json_file({"x": 1.5}, path)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            write_json_file({"x": float("nan")}, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestJsonLines:
    def test_blank_lines_skipped_and_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_jsonl([{"b": 1.5, "a": "x"}, {"a": "y"}], path)
        assert path.read_text() == '{"a": "x", "b": 1.5}\n{"a": "y"}\n'
        path.write_text("\n" + path.read_text() + "  \n\n")
        assert read_jsonl(path, "records", lambda r: r["a"]) == ["x", "y"]

    # Not UTF-8, not JSON, then a TypeError, a ValueError and a KeyError
    # in ``parse``.
    @pytest.mark.parametrize(
        "bad", [b'{"a": "\xff"}', b"{not json", b"[1, 2]", b'{"a": "x"}', b'{"b": 0}']
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b'{"a": "1.5"}\n\n' + bad + b"\n")
        with pytest.raises(SchemaViolation, match=r"records\.jsonl:3: malformed record") as info:
            read_jsonl(path, "records", lambda r: float(r["a"]))
        assert info.value.field == "records"

    def test_wrapped_schema_violation_says_so_once(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"a": -1}\n')

        def parse(record):
            raise SchemaViolation("a", f"must be >= 0, got {record['a']}")

        message = (
            f"schema violation in field 'records': {path}:1: "
            "malformed record (field 'a': must be >= 0, got -1)"
        )
        with pytest.raises(SchemaViolation, match=f"^{re.escape(message)}$"):
            read_jsonl(path, "records", parse)


def test_only_ingest_encodes_stage_files():
    """Stage files are encoded in ``ingest`` alone; ``narration`` keeps the
    cache log and ``cli`` parses its config file."""
    package = Path(memrerank.__file__).parent
    importers = set()
    for source in package.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if "json" in names:
                importers.add(source.name)
    assert importers == {"ingest.py", "narration.py", "cli.py"}
