import dataclasses
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from memrerank.core import CandidateList, TimeInterval, canonical_order
from memrerank.errors import ValidationError

from helpers import candidate, clist, interval


class TestTimeInterval:
    def test_zero_length_allowed(self):
        iv = interval(5.0, 5.0)
        assert iv.duration_s == 0.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValidationError, match="^start_s must be >= 0, got -0.1$"):
            TimeInterval(-0.1, 10.0)

    def test_inverted_rejected(self):
        with pytest.raises(ValidationError, match="^end_s 9.0 precedes start_s 10.0$"):
            TimeInterval(10.0, 9.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="^start_s must be finite, got nan$"):
            TimeInterval(float("nan"), 1.0)
        with pytest.raises(ValidationError, match="^end_s must be finite, got inf$"):
            TimeInterval(0.0, float("inf"))

    def test_structural_equality_normalizes_ints(self):
        assert TimeInterval(0, 10) == TimeInterval(0.0, 10.0)

    def test_immutable(self):
        iv = interval(0, 10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            iv.start_s = 3.0

    def test_overlaps_is_positive_measure(self):
        assert interval(0, 10).overlaps(interval(5, 15))
        assert not interval(0, 10).overlaps(interval(10, 20))


class TestCandidateSegment:
    def test_degenerate_interval_rejected(self):
        with pytest.raises(
            ValidationError,
            match=re.escape("candidate interval must have positive length, got [5.0, 5.0)"),
        ):
            candidate(5, 5, 0.5)

    def test_nan_score_rejected(self):
        with pytest.raises(ValidationError, match="^score must be finite, got nan$"):
            candidate(0, 10, float("nan"))


class TestValidateCandidateList:
    """The canonical form of a candidate list, :func:`canonical_order`."""

    def test_reorders_by_score_and_assigns_ranks(self):
        raw = clist("v0", "q0", [(0, 10, 0.9), (20, 30, 0.5), (40, 50, 0.7)])
        assert [c.score for c in canonical_order(raw.candidates)] == [0.9, 0.7, 0.5]

    def test_already_sorted_unchanged(self):
        raw = clist("v0", "q0", [(0, 10, 0.9), (20, 30, 0.5)])
        assert canonical_order(raw.candidates) == raw.candidates

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError, match="^query 'q0' has no candidates$"):
            CandidateList("v0", "q0", ())

    def test_empty_candidate_list_cannot_exist(self):
        with pytest.raises(ValidationError, match="^query 'q0' has no candidates$"):
            clist("v0", "q0", [])

    def test_score_ties_broken_by_start_then_duration(self):
        raw = clist("v0", "q0", [(30, 50, 0.5), (10, 40, 0.5), (10, 25, 0.5)])
        ordered = canonical_order(raw.candidates)
        assert [(c.interval.start_s, c.interval.end_s) for c in ordered] == [
            (10.0, 25.0),
            (10.0, 40.0),
            (30.0, 50.0),
        ]

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=500),
                st.floats(min_value=0.1, max_value=100),
                st.floats(min_value=-10, max_value=10, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_idempotent_and_sorted(self, triples):
        raw = clist(
            "v0", "q0", [(s, s + length, score) for s, length, score in triples]
        )
        once = canonical_order(raw.candidates)
        assert canonical_order(once) == once
        scores = [c.score for c in once]
        assert scores == sorted(scores, reverse=True)

