import json
import random
import time

import pytest

from memrerank.core import Query
from memrerank.errors import ValidationError
from memrerank.sequencing import (
    build_tasks,
    optimize_sequence,
    pair_penalties,
    selection_cost,
    start_penalty,
    write_optimizer_report,
)

from helpers import brute_force_optimize, clist, random_sequence_task


def make_task(start_lists):
    """Step lists of video v0 from per-step candidate start times, ranked
    in the given order (scores descend with it)."""
    return tuple(
        clist("v0", f"v0-q{i}", [(s, s + 10.0, 1.0 - 0.1 * j) for j, s in enumerate(starts)])
        for i, starts in enumerate(start_lists)
    )


class TestStartPenalty:
    def test_monotone_pair(self):
        assert start_penalty(12.0, 40.0) == 0.0

    def test_violation(self):
        assert start_penalty(40.0, 12.0) == 28.0

    def test_tie_is_no_violation(self):
        assert start_penalty(7.5, 7.5) == 0.0


class TestSelectionCost:
    def test_three_step_hand_computed(self):
        # All rank-1 with starts (10, 5, 20): 3 + max(0,10-5) + max(0,5-20) = 8.
        task = make_task([[10.0], [5.0], [20.0]])
        cost = selection_cost(task, (0, 0, 0), 1.0)
        assert cost == 8.0
        # Cross-check against the exhaustive oracle on this one-point space.
        assert cost == selection_cost(task, brute_force_optimize(task), 1.0)

    def test_monotone_starts_cost_equals_k(self):
        task = make_task([[0.0], [10.0], [20.0], [30.0]])
        assert selection_cost(task, (0, 0, 0, 0), 1.0) == 4.0

    def test_single_query_rank_three(self):
        task = make_task([[50.0, 40.0, 30.0]])
        assert selection_cost(task, (2,), 1.0) == 3.0

    def test_lambda_scales_penalties_only(self):
        task = make_task([[40.0], [12.0]])
        sel = (0, 0)
        assert selection_cost(task, sel, 0.0) == 2.0
        assert selection_cost(task, sel, 2.0) == 58.0


class TestOptimizeSequence:
    def test_monotone_rank_one_fixpoint_for_every_lambda(self):
        task = make_task([[5.0, 100.0], [10.0, 0.0], [15.0, 200.0]])
        for lam in (0.0, 0.1, 1.0, 10.0, 1e6):
            assert optimize_sequence(task, lam) == (0, 0, 0), lam

    def test_two_by_two_tie_break(self):
        # q0: rank1 start 50, rank2 start 10; q1: rank1 start 20, rank2 start 60.
        # Costs: (1,1)=32, (1,2)=3, (2,1)=3, (2,2)=4; tie at 3 resolved to
        # rank vector (1,2).
        task = make_task([[50.0, 10.0], [20.0, 60.0]])
        sel = optimize_sequence(task, 1.0)
        assert sel == (0, 1)
        assert selection_cost(task, sel, 1.0) == 3.0
        assert brute_force_optimize(task, 1.0) == sel

    def test_single_query_returns_rank_one(self):
        task = make_task([[30.0, 10.0, 50.0]])
        assert optimize_sequence(task) == (0,)

    def test_lambda_zero_returns_all_rank_one(self):
        rng = random.Random(5)
        for _ in range(25):
            task = random_sequence_task(rng)
            assert optimize_sequence(task, 0.0) == (0,) * len(task)

    def test_large_lambda_prefers_zero_penalty_selection(self):
        rng = random.Random(11)
        for _ in range(25):
            k = rng.randint(2, 5)
            # Monotone rank-3 chain guarantees a zero-penalty selection exists.
            starts = []
            base = 0.0
            for _ in range(k):
                base += rng.uniform(5.0, 30.0)
                starts.append([base + 500.0, base + 900.0, base])
            task = make_task(starts)
            big_lambda = sum(len(l) for l in task) * 5 + 1
            sel = optimize_sequence(task, big_lambda)
            assert sum(pair_penalties(task, sel)) == 0.0

    def test_oracle_equivalence_on_random_instances(self):
        rng = random.Random(424242)
        lambdas = [0.0, 0.1, 1.0, 10.0]
        for i in range(120):
            task = random_sequence_task(rng)
            lam = lambdas[i % len(lambdas)]
            fast = optimize_sequence(task, lam)
            slow = brute_force_optimize(task, lam)
            assert fast == slow
            assert selection_cost(task, fast, lam) == selection_cost(task, slow, lam)

    def test_oracle_equivalence_under_heavy_ties(self):
        # Integer starts drawn from a tiny range make exact cost ties
        # frequent, stressing the documented tie-break in both searches.
        rng = random.Random(777)
        for _ in range(150):
            k = rng.randint(1, 5)
            starts = [
                [float(rng.randint(0, 4) * 10) for _ in range(rng.randint(1, 4))]
                for _ in range(k)
            ]
            task = make_task(starts)
            lam = rng.choice([0.0, 0.1, 1.0])
            assert optimize_sequence(task, lam) == brute_force_optimize(task, lam)

    def test_scale_500_queries(self):
        rng = random.Random(3)
        starts = [
            [rng.uniform(0.0, 600.0) for _ in range(5)] for _ in range(500)
        ]
        task = make_task(starts)
        t0 = time.perf_counter()
        sel = optimize_sequence(task)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        assert selection_cost(task, sel, 1.0) <= selection_cost(task, (0,) * 500, 1.0)


def _float_sum(values):
    """Float sum in the order given."""
    total = 0.0
    for value in values:
        total += value
    return total


class TestExactCosts:
    """The DP against the Fraction brute force where float costs would err:
    weights and starts with long binary expansions, penalties far below
    the ranks, and ties that only exact arithmetic sees."""

    LAMBDAS = (0.0, 0.1, 1 / 3, 1e-300, 5e-324, 1e300)

    @staticmethod
    def _random_task(rng, start):
        return make_task(
            [[start(rng) for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(2, 4))]
        )

    @pytest.mark.parametrize(
        "start",
        [
            lambda rng: rng.randint(0, 300) * 0.1,
            lambda rng: rng.randint(0, 300) * 0.1 + rng.randint(0, 3) * 2.0**-40,
            lambda rng: rng.randint(0, 8) * 5e-324,
            lambda rng: 1e-310 + rng.randint(0, 8) * 5e-324,
        ],
        ids=["tenths", "tenths-2^-40", "subnormal", "subnormal-offset"],
    )
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_matches_brute_force(self, start, lam):
        rng = random.Random(f"{lam!r}")
        for _ in range(20):
            task = self._random_task(rng, start)
            assert optimize_sequence(task, lam) == brute_force_optimize(task, lam)

    def test_exact_tie_float_summation_would_break(self):
        # Two selections of rank sum 5 and exact penalty sum 2^-50:
        # A = (0, 1, 1) pays 2^-51 twice, B = (0, 0, 2) pays 2^-50 once.
        # Summed in floats, front to back or back to front, each of A's
        # halves rounds away once the sum reaches 4, so A looks cheaper;
        # exactly, they tie and B's rank vector (1, 1, 3) beats A's (1, 2, 2).
        half = 2.0**-51
        task = make_task([[3.5], [8.0, 3.5 - half], [1.0, 3.5 - 2 * half, 8.0 - 2 * half]])
        a, b = (0, 1, 1), (0, 0, 2)
        assert pair_penalties(task, a) == [half, half]
        assert pair_penalties(task, b) == [0.0, 2 * half]
        assert _float_sum([1, 2, half, 2, half]) < _float_sum([1, 1, 0.0, 3, 2 * half])
        assert _float_sum([2, half, 2, half, 1]) < _float_sum([3, 2 * half, 1, 0.0, 1])
        assert optimize_sequence(task, 1.0) == brute_force_optimize(task, 1.0) == b


class TestBruteForce:
    def test_instance_too_large(self):
        # 5^10 combinations exceed the 1e6 guard.
        task = make_task([[float(i * 10 + j) for j in range(5)] for i in range(10)])
        with pytest.raises(
            ValidationError, match="^selection space exceeds 1000000 combinations$"
        ):
            brute_force_optimize(task)

    def test_single_query_matches_dp(self):
        task = make_task([[9.0, 1.0]])
        assert brute_force_optimize(task) == optimize_sequence(task)


class TestBuildTasks:
    def test_groups_and_orders_by_index(self):
        from helpers import interval
        from memrerank.ingest import Dataset, Track, VideoRecord

        queries = (
            Query("v0-q1", "v0", "later", order_index=1, ground_truth=interval(30, 40)),
            Query("v0-q0", "v0", "earlier", order_index=0, ground_truth=interval(5, 15)),
        )
        dataset = Dataset(
            track=Track.GOALSTEP, videos=(VideoRecord("v0", 100.0, queries),)
        )
        lists = [
            clist("v0", "v0-q0", [(0, 10, 0.9)]),
            clist("v0", "v0-q1", [(20, 30, 0.8)]),
        ]
        (task,) = build_tasks(dataset, lists)
        assert [step.query_id for step in task] == ["v0-q0", "v0-q1"]

    def test_missing_list_left_out(self):
        from helpers import interval
        from memrerank.ingest import Dataset, Track, VideoRecord

        def steps(video_id):
            return tuple(
                Query(f"{video_id}-q{i}", video_id, "step", order_index=i,
                      ground_truth=interval(5, 15))
                for i in range(3)
            )

        dataset = Dataset(
            track=Track.GOALSTEP,
            videos=(VideoRecord("v0", 100.0, steps("v0")), VideoRecord("v1", 100.0, steps("v1"))),
        )
        lists = [
            clist("v0", "v0-q0", [(0, 10, 0.9)]),
            clist("v0", "v0-q2", [(20, 30, 0.8)]),
        ]
        # v0-q1 has no list, so v0-q0 and v0-q2 become adjacent; v1 has none.
        (task,) = build_tasks(dataset, lists)
        assert [step.query_id for step in task] == ["v0-q0", "v0-q2"]


class TestOptimizerReport:
    def test_report_contents(self, tmp_path):
        task = make_task([[50.0, 10.0], [20.0, 60.0]])
        sel = optimize_sequence(task)
        path = tmp_path / "report.json"
        write_optimizer_report([(task, sel)], 1.0, "post_rerank", path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        (video,) = payload["videos"]
        assert video["video_id"] == "v0"
        assert video["ranks"] == [1, 2]
        assert video["total_cost"] == 3.0
        assert video["pair_penalties"] == [0.0]
