import collections
import dataclasses
import hashlib
import json
import random

import pytest

from memrerank.errors import BackendUnavailableError, SchemaViolation, ValidationError
from memrerank.ingest import write_jsonl
from memrerank.metrics import temporal_iou
from memrerank.narration import Backend, NarrationEngine
from memrerank.rerank import (
    RerankOutcome,
    SelectionCache,
    SelectionCacheKey,
    build_rerank_prompt,
    parse_selection,
    promote,
    rerank_many,
)
from memrerank.synth import OracleSelectorBackend, stub_backend

from helpers import candidates_by_query, clist, interval, plan_list, selector, tiny_scenario


def memories_for(scenario, query_id):
    """Stub-narrated memory per candidate, ordered by rank."""
    clist_ = candidates_by_query(scenario)[query_id]
    engine = NarrationEngine(stub_backend(lambda: scenario.event_script))
    return clist_, engine.narrate_plans(plan_list(clist_))


def query_for(scenario, query_id):
    for query in scenario.dataset.iter_queries():
        if query.query_id == query_id:
            return query
    raise KeyError(query_id)


class TestBuildRerankPrompt:
    def test_labels_and_query_present_once(self):
        scenario = tiny_scenario()
        clist_, memories = memories_for(scenario, "v0-q000")
        query = query_for(scenario, "v0-q000")
        prompt = build_rerank_prompt(query, memories)
        for i in range(1, 6):
            assert f"\nCandidate {i}\n" in f"\n{prompt}\n"
        assert prompt.count(query.text) == 1
        assert "single integer between 1 and 5" in prompt

    def test_single_memory(self):
        scenario = tiny_scenario()
        _, memories = memories_for(scenario, "v0-q000")
        query = query_for(scenario, "v0-q000")
        prompt = build_rerank_prompt(query, memories[:1])
        assert "Candidate 1" in prompt
        assert "Candidate 2" not in prompt

    def test_scores_included_on_request(self):
        scenario = tiny_scenario()
        clist_, memories = memories_for(scenario, "v0-q000")
        query = query_for(scenario, "v0-q000")
        prompt = build_rerank_prompt(
            query, memories, scores=[c.score for c in clist_.candidates]
        )
        assert "model score: 0.9" in prompt


class TestParseSelection:
    @pytest.mark.parametrize(
        "answer, num, expected",
        [
            ("Best match: candidate 3", 5, 3),
            ("2", 5, 2),
            ("none of them fit", 5, None),
            ("7", 5, None),
            ("I would pick 7, or maybe 4", 5, 4),
            ("IoU is 0.5 so candidate 2 wins", 5, 2),
            ("candidate 12", 5, None),
            ("#1.", 5, 1),
            ("the answer is 3.", 5, 3),
            ("", 5, None),
        ],
    )
    def test_grammar(self, answer, num, expected):
        assert parse_selection(answer, num) == expected


class TestRerank:
    def test_oracle_promotes_max_iou_candidate(self):
        scenario = tiny_scenario()
        clist_, memories = memories_for(scenario, "v0-q001")
        query = query_for(scenario, "v0-q001")
        # Independent argmax by direct enumeration.
        gt = query.ground_truth
        ious = [temporal_iou(c.interval, gt) for c in clist_.candidates]
        best = max(range(len(ious)), key=lambda i: ious[i])
        assert best == 2  # candidate [102, 131) vs gt [100, 130)

        backend = selector(OracleSelectorBackend, scenario)
        [outcome] = rerank_many([(query, clist_, memories)], backend, c_max=1)
        assert outcome.selected_rank == best + 1
        assert outcome.reranked.candidates[0].interval == clist_.candidates[best].interval
        kept = [c.interval for c in outcome.reranked.candidates[1:]]
        expected = [c.interval for i, c in enumerate(clist_.candidates) if i != best]
        assert kept == expected
        assert not outcome.fallback_used

    def test_out_of_range_answer_falls_back(self):
        class SevenBackend(Backend):
            backend_id = "seven"

            def _narrate(self, request):
                raise AssertionError("not used")

            def _select(self, prompt):
                return "7"

        scenario = tiny_scenario()
        clist_, memories = memories_for(scenario, "v0-q000")
        query = query_for(scenario, "v0-q000")
        [outcome] = rerank_many([(query, clist_, memories)], SevenBackend(), c_max=1)
        assert outcome.fallback_used
        assert outcome.reranked == clist_
        assert outcome.raw_answer == "7"

    def test_backend_failure_falls_back(self):
        class DownBackend(Backend):
            backend_id = "down"

            def _narrate(self, request):
                raise AssertionError("not used")

            def _select(self, prompt):
                raise BackendUnavailableError("offline")

        scenario = tiny_scenario()
        clist_, memories = memories_for(scenario, "v0-q000")
        query = query_for(scenario, "v0-q000")
        [outcome] = rerank_many([(query, clist_, memories)], DownBackend(), c_max=1)
        assert outcome.fallback_used
        assert outcome.reranked == clist_

    def test_single_candidate_skips_backend(self):
        class CountingBackend(Backend):
            backend_id = "count"

            def _narrate(self, request):
                raise AssertionError("not used")

            def _select(self, prompt):
                return "1"

        scenario = tiny_scenario()
        _, memories = memories_for(scenario, "v0-q000")
        query = query_for(scenario, "v0-q000")
        single = clist("v0", "v0-q000", [(48, 60, 0.8)])
        backend = CountingBackend()
        items = [(query, single, memories[1:2])]  # the [48, 60) memory
        [outcome] = rerank_many(items, backend, c_max=1)
        assert backend.select_calls == 0
        assert outcome.reranked == single

    def test_memory_count_mismatch(self):
        scenario = tiny_scenario()
        clist_, memories = memories_for(scenario, "v0-q000")
        query = query_for(scenario, "v0-q000")
        backend = stub_backend(lambda: scenario.event_script)
        with pytest.raises(
            ValidationError, match="^4 memories for 5 candidates of query 'v0-q000'$"
        ):
            rerank_many([(query, clist_, memories[:4])], backend, c_max=1)

    def test_memory_of_another_candidate_rejected(self):
        scenario = tiny_scenario()
        clist_, memories = memories_for(scenario, "v0-q000")
        query = query_for(scenario, "v0-q000")
        backend = stub_backend(lambda: scenario.event_script)
        swapped = [memories[1], memories[0], *memories[2:]]
        with pytest.raises(
            ValidationError,
            match=r"^the memory of rank 1 of query 'v0-q000' spans \[48\.0, 60\.0\) but the "
            r"candidate spans \[10\.0, 40\.0\); re-run plan and narrate$",
        ):
            rerank_many([(query, clist_, swapped)], backend, c_max=1)

    def test_permutation_invariant_for_any_answer(self):
        class ArbitraryBackend(Backend):
            backend_id = "arbitrary"

            def __init__(self, rng):
                super().__init__()
                self.rng = rng

            def _narrate(self, request):
                raise AssertionError("not used")

            def _select(self, prompt):
                choices = ["1", "2", "3", "4", "5", "7", "nah", "pick 2 or 3"]
                return self.rng.choice(choices)

        scenario = tiny_scenario()
        clist_, memories = memories_for(scenario, "v0-q000")
        query = query_for(scenario, "v0-q000")
        rng = random.Random(8)
        backend = ArbitraryBackend(rng)
        for _ in range(50):
            [outcome] = rerank_many([(query, clist_, memories)], backend, c_max=1)
            original = sorted(
                (c.interval.start_s, c.interval.end_s, c.score)
                for c in clist_.candidates
            )
            shuffled = sorted(
                (c.interval.start_s, c.interval.end_s, c.score)
                for c in outcome.reranked.candidates
            )
            assert original == shuffled
            assert len(outcome.reranked) == len(clist_)

    def test_stub_selects_by_label_match(self):
        scenario = tiny_scenario()
        clist_, memories = memories_for(scenario, "v0-q000")
        query = query_for(scenario, "v0-q000")
        # Only candidate 2 ([48, 60)) overlaps the target event e1 [50, 62).
        backend = stub_backend(lambda: scenario.event_script)
        [outcome] = rerank_many([(query, clist_, memories)], backend, c_max=1)
        assert outcome.selected_rank == 2
        assert outcome.reranked.candidates[0].interval == interval(48, 60)


class TestRerankMany:
    def test_outcomes_in_input_order(self):
        scenario = tiny_scenario()
        items = []
        for query_id in ("v0-q000", "v0-q001"):
            clist_, memories = memories_for(scenario, query_id)
            items.append((query_for(scenario, query_id), clist_, memories))
        outcomes = rerank_many(items, selector(OracleSelectorBackend, scenario), c_max=4)
        assert [o.original.query_id for o in outcomes] == ["v0-q000", "v0-q001"]
        sequential = rerank_many(items, selector(OracleSelectorBackend, scenario), c_max=1)
        assert outcomes == sequential

    def test_c_max_below_one_rejected(self):
        scenario = tiny_scenario()
        clist_, memories = memories_for(scenario, "v0-q000")
        items = [(query_for(scenario, "v0-q000"), clist_, memories)]
        with pytest.raises(SchemaViolation, match="c_max"):
            rerank_many(items, selector(OracleSelectorBackend, scenario), c_max=0)

    def test_failed_selection_falls_back_without_retry(self):
        class DownSelector(Backend):
            backend_id = "down"

            def _narrate(self, request):
                raise AssertionError("rerank never narrates")

            def _select(self, prompt):
                raise BackendUnavailableError("selection endpoint down")

        scenario = tiny_scenario()
        items = []
        for query_id in ("v0-q000", "v0-q001"):
            clist_, memories = memories_for(scenario, query_id)
            items.append((query_for(scenario, query_id), clist_, memories))
        backend = DownSelector()
        outcomes = rerank_many(items, backend, c_max=2)
        assert backend.select_calls == 2
        assert [(o.fallback_used, o.raw_answer) for o in outcomes] == [(True, "")] * 2


class TestSelectionCache:
    def items(self, scenario):
        return [
            (query_for(scenario, query_id), *memories_for(scenario, query_id))
            for query_id in ("v0-q000", "v0-q001")
        ]

    def test_cached_replies_are_served_without_a_call(self, tmp_path):
        scenario = tiny_scenario()
        items = self.items(scenario)
        path = tmp_path / "selections.jsonl"
        first, cold_counts = stub_backend(lambda: scenario.event_script), collections.Counter()
        with SelectionCache(path) as cache:
            cold = rerank_many(items, first, c_max=2, cache=cache, count=cold_counts.update)
        assert first.select_calls == 2
        second, warm_counts = stub_backend(lambda: scenario.event_script), collections.Counter()
        with SelectionCache(path) as cache:
            warm = rerank_many(items, second, c_max=2, cache=cache, count=warm_counts.update)
        assert second.select_calls == 0
        assert warm == cold
        assert [o.raw_answer for o in warm] == [o.raw_answer for o in cold]
        assert cold_counts == {"cache_hits": 0, "cache_misses": 2}
        assert warm_counts == {"cache_hits": 2, "cache_misses": 0}
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [sorted(r["key"]) for r in records] == [["backend_id", "prompt_sha256"]] * 2

    def test_a_prompt_asked_twice_reaches_the_backend_once(self):
        scenario = tiny_scenario()
        item = self.items(scenario)[0]
        backend = stub_backend(lambda: scenario.event_script)
        outcomes = rerank_many([item, item], backend, c_max=2, cache=SelectionCache())
        assert backend.select_calls == 1
        assert outcomes[0] == outcomes[1]

    def test_the_oracle_answers_equal_texts_by_each_query_s_ground_truth(self):
        scenario = tiny_scenario()
        query, clist_, memories = self.items(scenario)[1]
        # Same text and candidates, but the ground truth is rank 1's span.
        twin = dataclasses.replace(
            query, query_id="v0-q009", ground_truth=clist_.candidates[0].interval
        )
        twin_list = dataclasses.replace(clist_, query_id=twin.query_id)
        assert build_rerank_prompt(twin, memories) == build_rerank_prompt(query, memories)
        backend = selector(OracleSelectorBackend, scenario)
        items = [(query, clist_, memories), (twin, twin_list, memories)]
        outcomes = rerank_many(items, backend, c_max=2, cache=SelectionCache())
        assert [o.selected_rank for o in outcomes] == [3, 1]
        assert backend.select_calls == 2

    def test_the_oracle_is_never_served_or_stored(self):
        scenario = tiny_scenario()
        query, clist_, memories = self.items(scenario)[1]
        prompt = build_rerank_prompt(query, memories)
        cache = SelectionCache()
        key = SelectionCacheKey(hashlib.sha256(prompt.encode("utf-8")).hexdigest(), "oracle")
        cache.put(key, "5")
        counts = collections.Counter()
        [outcome] = rerank_many(
            [(query, clist_, memories)], selector(OracleSelectorBackend, scenario), c_max=1,
            cache=cache, count=counts.update,
        )
        assert outcome.selected_rank == 3
        assert counts == {"cache_hits": 0, "cache_misses": 1}
        assert len(cache) == 1


class TestPromote:
    def test_promote_reassigns_positional_ranks(self):
        original = clist("v0", "q0", [(0, 10, 0.9), (20, 30, 0.8), (40, 50, 0.7)])
        moved = promote(original, 3)
        assert [c.interval.start_s for c in moved.candidates] == [40.0, 0.0, 20.0]
        assert RerankOutcome(original, 3).reranked == moved

    def test_rank_one_keeps_the_list_itself(self):
        original = clist("v0", "q0", [(0, 10, 0.9), (20, 30, 0.8)])
        assert promote(original, 1) is original
        assert RerankOutcome(original).reranked is original


class TestRerankLog:
    def test_log_round_trip(self, tmp_path):
        original = clist("v0", "q0", [(0, 10, 0.9), (20, 30, 0.8)])
        path = tmp_path / "log.jsonl"
        write_jsonl([RerankOutcome(original).log_record("limit")], path)
        loaded = [json.loads(line) for line in path.read_text().splitlines()]
        assert loaded[0]["query_id"] == "q0"
        assert loaded[0]["skipped"] is True
        assert loaded[0]["skip_reason"] == "limit"
        assert loaded[0]["original_ranks"] == [1, 2]
