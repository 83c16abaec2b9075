import dataclasses
import json
import math
import re
import sys
import time

import pytest

from memrerank.errors import SchemaViolation, ValidationError
from memrerank.ingest import Track
from memrerank.metrics import temporal_iou
from memrerank.narration import BackendRequest, NarrationEngine
from memrerank import rerank
from memrerank.synth import (
    OracleSelectorBackend,
    ScenarioKnobs,
    generate_scenario,
    load_scenario,
    query_text,
    stub_backend,
    write_scenario,
)

from helpers import (
    WorstSelectorBackend,
    candidates_by_query,
    clist as make_clist,
    ground_truth_by_query,
    interval,
    plan_list,
    selector,
    tiny_scenario,
)


class TestKnobs:
    def test_ranges_validated(self):
        cases = [
            ({"num_videos": 0}, "num_videos must be >= 1, got 0"),
            ({"queries_per_video": 0}, "queries_per_video must be >= 1, got 0"),
            ({"candidates_per_query": 0}, "candidates_per_query must be >= 1, got 0"),
            ({"recall_rho": 1.5}, "recall_rho must lie in [0, 1], got 1.5"),
            ({"jitter_s": -1.0}, "jitter_s must be >= 0, got -1.0"),
            ({"jitter_s": math.inf}, "jitter_s must be >= 0, got inf"),
            ({"latent_positive_rate": -0.1}, "latent_positive_rate must lie in [0, 1], got -0.1"),
        ]
        for knobs, message in cases:
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                ScenarioKnobs(**knobs)


class TestGenerateScenario:
    def test_deterministic(self):
        knobs = ScenarioKnobs(num_videos=3, queries_per_video=4)
        assert generate_scenario(knobs, 7) == generate_scenario(knobs, 7)

    def test_different_seeds_differ(self):
        knobs = ScenarioKnobs(num_videos=3, queries_per_video=4)
        assert generate_scenario(knobs, 7) != generate_scenario(knobs, 8)

    def test_counts_and_order_indices(self):
        knobs = ScenarioKnobs(num_videos=3, queries_per_video=4)
        scenario = generate_scenario(knobs, 1)
        queries = list(scenario.dataset.iter_queries())
        assert len(queries) == 12
        for video in scenario.dataset.videos:
            assert [q.order_index for q in video.queries] == [0, 1, 2, 3]

    def test_full_recall_zero_jitter_rank_one_equals_gt(self):
        knobs = ScenarioKnobs(
            num_videos=4, queries_per_video=5, recall_rho=1.0, jitter_s=0.0,
            latent_positive_rate=0.0,
        )
        scenario = generate_scenario(knobs, 3)
        lists = candidates_by_query(scenario)
        for query in scenario.dataset.iter_queries():
            top = lists[query.query_id].candidates[0]
            assert top.interval == query.ground_truth

    def test_gt_starts_non_decreasing_within_video(self):
        scenario = generate_scenario(ScenarioKnobs(num_videos=5, queries_per_video=6), 11)
        for video in scenario.dataset.videos:
            starts = [q.ground_truth.start_s for q in video.queries]
            assert starts == sorted(starts)

    def test_recall_knob_controls_hit_fraction(self):
        knobs = ScenarioKnobs(
            num_videos=100, queries_per_video=5, recall_rho=0.6, jitter_s=2.0
        )
        scenario = generate_scenario(knobs, 29)
        gt = ground_truth_by_query(scenario)
        hits = 0
        for query_id, clist in candidates_by_query(scenario).items():
            best = max(temporal_iou(c.interval, gt[query_id]) for c in clist.candidates)
            hits += best >= 0.5
        fraction = hits / len(gt)
        assert abs(fraction - 0.6) < 0.06

    # A distractor is shifted by at most a third of its own length and
    # events are at least 3 s apart, whatever the jitter.
    @pytest.mark.parametrize("jitter_s", [0.0, 2.0, 1e6])
    def test_distractor_iou_below_a_third(self, jitter_s):
        knobs = ScenarioKnobs(num_videos=20, queries_per_video=5, recall_rho=0.0, jitter_s=jitter_s)
        for seed in range(5):
            scenario = generate_scenario(knobs, seed)
            gt = ground_truth_by_query(scenario)
            for query_id, clist in candidates_by_query(scenario).items():
                assert all(temporal_iou(c.interval, gt[query_id]) < 1 / 3 for c in clist.candidates)

    def test_every_gt_in_event_script(self):
        scenario = generate_scenario(ScenarioKnobs(num_videos=3, queries_per_video=4), 17)
        script = scenario.event_script
        for query in scenario.dataset.iter_queries():
            assert any(
                e.interval == query.ground_truth for e in script[query.video_id]
            )

    def test_nlq_track_has_no_order(self):
        scenario = generate_scenario(
            ScenarioKnobs(num_videos=2, queries_per_video=3), 5, track=Track.NLQ
        )
        assert scenario.dataset.track is Track.NLQ
        assert all(q.order_index is None for q in scenario.dataset.iter_queries())

    def test_candidate_lists_are_canonical(self):
        scenario = generate_scenario(ScenarioKnobs(num_videos=3, queries_per_video=4), 23)
        for clist in scenario.candidates:
            scores = [c.score for c in clist.candidates]
            assert scores == sorted(scores, reverse=True)


class TestStubBackend:
    def _request(self, scenario, video_id, clip):
        return BackendRequest(video_id, clip, 1.0, 20.0)

    def test_narration_lists_overlapping_events_in_order(self):
        scenario = tiny_scenario()
        backend = stub_backend(lambda: scenario.event_script)
        reply = backend.narrate(self._request(scenario, "v0", interval(55, 105)))
        assert reply == "events: e1; e2; e3"

    def test_narration_none(self):
        scenario = tiny_scenario()
        backend = stub_backend(lambda: scenario.event_script)
        reply = backend.narrate(self._request(scenario, "v0", interval(63, 69)))
        assert reply == "events: none"

    def test_selectors_without_a_dataset_narrate_as_the_stub(self):
        # As ``narrate --backend oracle`` builds them: script only.
        scenario = tiny_scenario()
        request = self._request(scenario, "v0", interval(55, 105))
        for backend_class in (OracleSelectorBackend, WorstSelectorBackend):
            backend = backend_class(lambda: scenario.event_script)
            assert backend.narrate(request) == "events: e1; e2; e3"

    def test_identical_request_identical_reply(self):
        scenario = tiny_scenario()
        backend = stub_backend(lambda: scenario.event_script)
        request = self._request(scenario, "v0", interval(10, 30))
        assert backend.narrate(request) == backend.narrate(request)

    def test_template_text_does_not_steer_the_narration(self):
        # A template line shaped like the rendered context lines names
        # another video and clip; the stub reads the request's fields.
        scenario = tiny_scenario()
        template = "Describe.\nVideo: example\nClip: 0.0 to 1.0 seconds"
        clip = interval(55, 105)  # sampled at 55, 75 and 95 s
        custom = NarrationEngine(stub_backend(lambda: scenario.event_script), prompt=template)
        default = NarrationEngine(stub_backend(lambda: scenario.event_script))
        assert custom.narrate_clip("v0", clip, 0.05, 50.0) == "events: e1; e2; e3"
        assert default.narrate_clip("v0", clip, 0.05, 50.0) == "events: e1; e2; e3"


class TestScenarioOnFirstRequest:
    def test_loaded_once_when_the_first_request_arrives(self):
        scenario = tiny_scenario()
        loads = []

        def slow_load():  # long enough for every worker to arrive during it
            loads.append(1)
            time.sleep(0.05)
            return scenario.event_script

        backend = stub_backend(slow_load)
        assert loads == []
        clist = candidates_by_query(scenario)["v0-q001"]
        plans = plan_list(clist, clip_len_s=5.0)
        interval_s = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # workers switch often, racing for the load
        try:
            engine = NarrationEngine(backend, c_max=8)
            lazy = engine.narrate_plans(plans)
        finally:
            sys.setswitchinterval(interval_s)
        assert loads == [1]
        assert backend.narrate_calls > 8
        engine = NarrationEngine(stub_backend(lambda: scenario.event_script))
        assert lazy == engine.narrate_plans(plans)

    def test_selection_never_loads_the_script(self):
        scenario = tiny_scenario()
        _, _, prompt = _selection_prompt(scenario, "v0-q001")
        loads = []

        def load():
            loads.append(1)
            return scenario.event_script

        backends = [stub_backend(load), OracleSelectorBackend(load), WorstSelectorBackend(load)]
        assert [backend.select(prompt) for backend in backends] == ["3", "3", "1"]
        assert loads == []


def _query(scenario, query_id):
    return next(q for q in scenario.dataset.iter_queries() if q.query_id == query_id)


def _selection_prompt(scenario, query_id, query=None):
    """The engine's selection prompt for ``query_id``, built through the
    narration and rerank paths; ``query`` replaces its own."""
    clist = candidates_by_query(scenario)[query_id]
    query = query or _query(scenario, query_id)
    engine = NarrationEngine(stub_backend(lambda: scenario.event_script))
    memories = engine.narrate_plans(plan_list(clist))
    return query, clist, rerank._selection_prompt(query, clist, memories, include_scores=False)


class TestSelectors:
    def test_oracle_answers_argmax_by_enumeration(self):
        scenario = tiny_scenario()
        query, clist, prompt = _selection_prompt(scenario, "v0-q001")
        ious = [temporal_iou(c.interval, query.ground_truth) for c in clist.candidates]
        expected = max(range(len(ious)), key=lambda i: (ious[i], -i)) + 1
        reply = selector(OracleSelectorBackend, scenario).select(prompt)
        assert reply == str(expected) == "3"

    def test_oracle_all_zero_ious_abstains(self):
        # Every candidate of q0 misses a ground truth moved far away, so the
        # oracle's reply holds no index: the selection falls back, abstained.
        scenario = tiny_scenario()
        own = ground_truth_by_query(scenario)["v0-q000"]
        moved = dataclasses.replace(_query(scenario, "v0-q000"), ground_truth=interval(500, 510))
        _, clist, prompt = _selection_prompt(scenario, "v0-q000", query=moved)
        assert max(temporal_iou(c.interval, own) for c in clist.candidates) > 0
        assert all(temporal_iou(c.interval, moved.ground_truth) == 0 for c in clist.candidates)
        reply = selector(OracleSelectorBackend, scenario).select(prompt)
        assert reply.strip() and rerank.parse_selection(reply, len(clist.candidates)) is None

    def test_single_candidate_answer_is_one(self):
        # The engine sends no prompt for one candidate; the oracle, sent
        # one anyway, answers its only index.
        scenario = tiny_scenario()
        query = _query(scenario, "v0-q000")
        single = make_clist("v0", "v0-q000", [(48, 60, 0.8)])
        memories = NarrationEngine(stub_backend(lambda: scenario.event_script)).narrate_plans(
            plan_list(single)
        )
        assert rerank._selection_prompt(query, single, memories, include_scores=False) is None
        prompt = rerank.SelectionPrompt(
            rerank.build_rerank_prompt(query, memories), query, single, memories
        )
        assert selector(OracleSelectorBackend, scenario).select(prompt) == "1"

    def test_worst_selector_answers_argmin(self):
        scenario = tiny_scenario()
        query, clist, prompt = _selection_prompt(scenario, "v0-q001")
        ious = [temporal_iou(c.interval, query.ground_truth) for c in clist.candidates]
        expected = min(range(len(ious)), key=lambda i: (ious[i], i)) + 1
        assert selector(WorstSelectorBackend, scenario).select(prompt) == str(expected)


class TestScenarioFile:
    def test_round_trip(self, tmp_path):
        scenario = generate_scenario(
            ScenarioKnobs(num_videos=3, queries_per_video=4, latent_positive_rate=0.5), 13
        )
        path = tmp_path / "scenario.json"
        write_scenario(scenario, path)
        assert load_scenario(path, scenario.dataset) == scenario.event_script

    def test_file_holds_only_what_the_other_inputs_do_not(self, tmp_path):
        scenario = generate_scenario(ScenarioKnobs(num_videos=2, queries_per_video=3), 19)
        path = tmp_path / "scenario.json"
        write_scenario(scenario, path)
        assert set(json.loads(path.read_text())) == {
            "version", "seed", "track", "knobs", "event_script",
        }

    def test_annotations_of_another_seed_rejected(self, tmp_path):
        knobs = ScenarioKnobs(num_videos=2, queries_per_video=3)
        mine, other = generate_scenario(knobs, 7), generate_scenario(knobs, 8)
        path = tmp_path / "scenario.json"
        write_scenario(other, path)
        with pytest.raises(SchemaViolation, match="missing from script"):
            load_scenario(path, mine.dataset)

    def test_other_track_and_old_version_rejected(self, tmp_path):
        knobs = ScenarioKnobs(num_videos=2, queries_per_video=3)
        nlq = generate_scenario(knobs, 7, track=Track.NLQ)
        goalstep = generate_scenario(knobs, 7)
        path = tmp_path / "scenario.json"
        write_scenario(nlq, path)
        with pytest.raises(SchemaViolation, match="track"):
            load_scenario(path, goalstep.dataset)
        payload = json.loads(path.read_text())
        for version in ("scenario-1", "scenario-2"):
            path.write_text(json.dumps({**payload, "version": version}))
            with pytest.raises(SchemaViolation, match="re-run simulate"):
                load_scenario(path, nlq.dataset)

    def test_write_is_deterministic(self, tmp_path):
        scenario = generate_scenario(ScenarioKnobs(num_videos=2, queries_per_video=3), 19)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_scenario(scenario, a)
        write_scenario(scenario, b)
        assert a.read_bytes() == b.read_bytes()


class TestLatentPositives:
    def test_tracked_and_share_labels(self):
        # A twin is a non-target event that carries the target's label.
        # Each video has 3 queries over 7 events, so 4 spare events give
        # every query a twin at rate 1.0, and no event twins two queries.
        knobs = ScenarioKnobs(num_videos=30, queries_per_video=3, latent_positive_rate=1.0)
        scenario = generate_scenario(knobs, 31)
        for query in scenario.dataset.iter_queries():
            events = scenario.event_script[query.video_id]
            (target,) = [e for e in events if e.interval == query.ground_truth]
            twins = [e for e in events if e != target and e.label == target.label]
            assert len(twins) == 1, query.query_id


class TestQueryText:
    def test_carries_id_and_label(self):
        text = query_text("v1-q007", "e3")
        assert "[v1-q007]" in text
        assert "event e3" in text
