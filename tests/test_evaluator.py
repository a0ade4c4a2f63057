"""Tests for the ranking metrics and report aggregation."""

import math
import random

import pytest

from gossipsim.adversary import Adversary, AdversaryConfig
from gossipsim.engine import Simulation
from gossipsim.errors import ParameterError
from gossipsim.evaluator import (EvaluationReport, _entropy_of, build_distributions,
                                 compute_report, evaluate, rank_of)
from gossipsim.graphs import (WeightGeneratorSpec, assign_weights,
                              gen_random_regular)
from gossipsim.protocols import ProtocolConfig, make_protocol


class TestRankOf:
    def test_untied_top_is_rank_one(self):
        assert rank_of({0: 1.0}, 0, 10) == 1.0
        assert rank_of({0: 0.6, 1: 0.4}, 0, 10) == 1.0

    def test_second_place(self):
        assert rank_of({1: 0.6, 0: 0.4}, 0, 10) == 2.0

    def test_tied_top_mid_rank(self):
        d = {0: 0.5, 1: 0.5}
        assert rank_of(d, 0, 10) == 1.5
        assert rank_of(d, 1, 10) == 1.5

    def test_uniform_support_mid_rank(self):
        d = {u: 0.25 for u in range(4)}
        assert rank_of(d, 2, 10) == 2.5

    def test_zero_mass_tail_mid_rank(self):
        # wrong point mass: originator sits mid-way through the 9 zero nodes
        assert rank_of({3: 1.0}, 0, 10) == 6.0
        # support of 4, originator outside it, 6 zero nodes behind
        assert rank_of({u: 0.25 for u in range(1, 5)}, 0, 10) == 7.5

    def test_unobserved_is_uniform_guess(self):
        assert rank_of(None, 0, 10) == 5.5
        assert rank_of(None, 0, 99) == 50.0

    def test_needs_honest_nodes(self):
        with pytest.raises(ParameterError):
            rank_of({0: 1.0}, 0, 0)


class TestEntropyOf:
    def test_ranked_entropy(self):
        assert _entropy_of({0: 0.5, 1: 0.25, 2: 0.25}, 10) == pytest.approx(1.5)

    def test_uniform(self):
        assert _entropy_of({u: 0.25 for u in range(4)}, 10) == pytest.approx(2.0)


class TestComputeReport:
    def test_known_rank_mix(self):
        dists = [
            {0: 1.0},                          # rank 1
            {1: 0.6, 0: 0.4},                  # rank 2
            {1: 0.4, 2: 0.3, 3: 0.2, 0: 0.1},  # rank 4
        ]
        rep = compute_report(dists, [0, 0, 0], [1.0, 1.0, 0.5], num_honest=10)
        assert rep.hit_ratio == pytest.approx(1.0 / 3.0)
        assert rep.inverse_rank == pytest.approx((1.0 + 0.5 + 0.25) / 3.0)
        assert rep.ndcg == pytest.approx(
            (1.0 + 1.0 / math.log2(3.0) + 1.0 / math.log2(5.0)) / 3.0)
        expected_entropy = (0.0 + _entropy_of(dists[1], 10)
                            + _entropy_of(dists[2], 10)) / 3.0
        assert rep.entropy == pytest.approx(expected_entropy)
        assert rep.message_spread_ratio == pytest.approx(2.5 / 3.0)
        assert rep.num_unobserved == 0

    def test_perfect_adversary(self):
        dists = [{i: 1.0} for i in range(5)]
        rep = compute_report(dists, list(range(5)), [1.0] * 5, num_honest=50)
        assert rep.hit_ratio == 1.0
        assert rep.inverse_rank == 1.0
        assert rep.ndcg == 1.0
        assert rep.entropy == 0.0

    def test_tied_top_is_not_a_hit(self):
        rep = compute_report([{0: 0.5, 1: 0.5}], [0], [1.0], num_honest=10)
        assert rep.hit_ratio == 0.0
        assert rep.inverse_rank == pytest.approx(1.0 / 1.5)

    def test_unobserved_counts_and_uniform_stats(self):
        rep = compute_report([None], [3], [0.2], num_honest=8)
        assert rep.num_unobserved == 1
        assert rep.inverse_rank == pytest.approx(1.0 / 4.5)
        assert rep.entropy == pytest.approx(3.0)

    def test_alignment_checks(self):
        with pytest.raises(ParameterError):
            compute_report([], [], [], num_honest=10)
        with pytest.raises(ParameterError):
            compute_report([None], [0, 1], [1.0], num_honest=10)

    def test_hit_never_exceeds_ndcg(self):
        rng = random.Random(0)
        for _ in range(50):
            dists = []
            origins = []
            for _ in range(10):
                support = rng.sample(range(20), rng.randint(1, 6))
                weights = [rng.random() for _ in support]
                z = sum(weights)
                dists.append({u: w / z for u, w in zip(support, weights)})
                origins.append(rng.randrange(20))
            rep = compute_report(dists, origins, [1.0] * 10, num_honest=20)
            assert rep.hit_ratio <= rep.ndcg + 1e-12
            assert rep.hit_ratio <= rep.inverse_rank + 1e-12

    def test_as_dict_schema(self):
        rep = EvaluationReport("first_sent", 4, 1, 0.25, 0.5, 1.0, 0.6, 0.9)
        d = rep.as_dict()
        assert d["estimator"] == "first_sent"
        assert d["num_msg"] == 4
        assert d["num_unobserved"] == 1
        assert set(d) == {"estimator", "num_msg", "num_unobserved", "hit_ratio",
                          "inverse_rank", "entropy", "ndcg",
                          "message_spread_ratio"}


class TestEndToEnd:
    def setup_run(self, protocol_aware):
        graph = assign_weights(gen_random_regular(60, 6, seed=4),
                               WeightGeneratorSpec(), seed=4)
        cfg = ProtocolConfig(kind="dandelion", broadcast_mode="sqrt",
                             broadcast_probability=0.5)
        proto = make_protocol(graph, cfg, seed=1)
        adv = Adversary(graph, AdversaryConfig(ratio=0.1,
                                               protocol_aware=protocol_aware),
                        seed=1)
        run = Simulation(proto, adversary=adv, num_messages=40,
                         seed=2).run()
        return run

    def test_evaluate_full_pipeline(self):
        run = self.setup_run(protocol_aware=False)
        rep = evaluate(run, "first_sent")
        assert rep.num_messages == 40
        assert 0.0 <= rep.hit_ratio <= rep.ndcg <= 1.0
        assert 0.0 <= rep.inverse_rank <= 1.0
        assert rep.message_spread_ratio > 0.9

    def test_protocol_aware_spreads_mass(self):
        run = self.setup_run(protocol_aware=True)
        dists = build_distributions(run, "first_sent")
        observed = [d for d in dists if d is not None]
        assert observed
        assert any(len(d) > 1 for d in observed)
        aware = evaluate(run, "first_sent")
        assert aware.entropy > 0.0

    def test_run_without_adversary_rejected(self):
        graph = gen_random_regular(20, 4, seed=0)
        proto = make_protocol(graph, ProtocolConfig(kind="broadcast"))
        run = Simulation(proto, num_messages=5).run()
        with pytest.raises(ParameterError):
            evaluate(run, "first_reach")

    def test_unknown_estimator_rejected(self):
        run = self.setup_run(protocol_aware=False)
        with pytest.raises(ParameterError):
            evaluate(run, "centroid")
