"""Tests for adversary placement, observation logging and censorship."""

import gc

import pytest

from gossipsim.adversary import Adversary, AdversaryConfig, place_adversaries
from gossipsim.engine import (PHASE_BROADCAST, PHASE_CIRCUIT, PHASE_STEM,
                              Simulation)
from gossipsim.errors import ParameterError
from gossipsim.estimators import estimate_first_reach
from gossipsim.graphs import (NetworkGraph, WeightGeneratorSpec,
                              assign_weights, gen_random_regular)
from gossipsim.protocols import ProtocolConfig, make_protocol


def star(leaves=9):
    return NetworkGraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestConfig:
    def test_exactly_one_of_ratio_or_nodes(self):
        with pytest.raises(ParameterError):
            AdversaryConfig()
        with pytest.raises(ParameterError):
            AdversaryConfig(ratio=0.1, nodes=(1,))

    def test_ratio_range(self):
        with pytest.raises(ParameterError):
            AdversaryConfig(ratio=1.0)
        with pytest.raises(ParameterError):
            AdversaryConfig(ratio=-0.1)
        AdversaryConfig(ratio=0.0)

    def test_placement_names(self):
        with pytest.raises(ParameterError):
            AdversaryConfig(ratio=0.1, placement="eigenvector")


class TestPlacement:
    def test_random_count_is_floor(self):
        graph = gen_random_regular(100, 4, seed=0)
        nodes = place_adversaries(graph, AdversaryConfig(ratio=0.1), seed=0)
        assert len(nodes) == 10
        assert len(set(nodes)) == 10
        assert all(0 <= u < 100 for u in nodes)

    def test_count_robust_to_float_drift(self):
        graph = gen_random_regular(115, 4, seed=0)
        nodes = place_adversaries(graph, AdversaryConfig(ratio=0.2), seed=0)
        assert len(nodes) == 23

    def test_zero_ratio_empty(self):
        graph = star(4)
        assert place_adversaries(graph, AdversaryConfig(ratio=0.0), seed=0) == ()

    def test_degree_placement_picks_hub(self):
        graph = star(9)
        cfg = AdversaryConfig(ratio=0.1, placement="degree")
        assert place_adversaries(graph, cfg, seed=0) == (0,)

    def test_betweenness_placement_picks_cut_node(self):
        graph = NetworkGraph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
        cfg = AdversaryConfig(ratio=0.2, placement="betweenness")
        assert place_adversaries(graph, cfg, seed=0) == (2,)

    def test_explicit_nodes_validated(self):
        graph = star(4)
        with pytest.raises(ParameterError):
            place_adversaries(graph, AdversaryConfig(nodes=(0, 9)), seed=0)
        with pytest.raises(ParameterError):
            place_adversaries(graph, AdversaryConfig(nodes=(0, 1, 2, 3, 4)), seed=0)

    def test_explicit_nodes_sorted_deduped(self):
        graph = star(4)
        assert place_adversaries(graph, AdversaryConfig(nodes=(3, 1, 3)), seed=0) == (1, 3)

    def test_random_placement_deterministic(self):
        graph = gen_random_regular(100, 4, seed=0)
        cfg = AdversaryConfig(ratio=0.1)
        a = place_adversaries(graph, cfg, seed=5)
        b = place_adversaries(graph, cfg, seed=5)
        c = place_adversaries(graph, cfg, seed=6)
        assert a == b
        assert a != c


class TestObservations:
    def run_with_adversary(self, kind, active=False, path_len=3):
        graph = assign_weights(gen_random_regular(50, 6, seed=1),
                               WeightGeneratorSpec(), seed=1)
        cfg = ProtocolConfig(kind=kind, broadcast_probability=0.2,
                             onion_path_len=path_len)
        proto = make_protocol(graph, cfg, seed=3)
        adv = Adversary(graph, AdversaryConfig(ratio=0.2, active=active), seed=3)
        sim = Simulation(proto, adversary=adv, num_messages=30, seed=9,
                         keep_messages=True)
        return sim.run(), adv

    def test_every_adversarial_delivery_logged_once(self):
        run, adv = self.run_with_adversary("dandelion")
        for mid, msg in enumerate(run.messages):
            # a log entry is the engine's own (arrival, sender, observer, phase)
            assert adv.observations(mid) == [e for e in msg.events if e[2] in adv.nodes]

    def test_logged_entries_untracked_by_gc(self):
        # exact tuples of numbers leave the cyclic collector's lists once
        # scanned, so live logs add nothing to later full collections
        run, adv = self.run_with_adversary("dandelion")
        gc.collect()
        logged = [o for mid in range(len(run.originators))
                  for o in adv.observations(mid)]
        assert logged
        assert not any(gc.is_tracked(o) for o in logged)

    def test_linkable_iff_not_circuit(self):
        run, adv = self.run_with_adversary("onion")
        phases = {o[3] for mid in range(len(run.originators))
                  for o in adv.observations(mid)}
        assert PHASE_CIRCUIT in phases  # 20% of 50 nodes sees some circuit hops
        assert PHASE_BROADCAST in phases

    def test_stem_observations_linkable(self):
        run, adv = self.run_with_adversary("dandelion")
        firsts = {}
        for mid in range(len(run.originators)):
            stem_obs = [o for o in adv.observations(mid) if o[3] == PHASE_STEM]
            if stem_obs:
                firsts[mid] = stem_obs[0]
        assert firsts
        # the stem runs before the flood and its hops before the first watched
        # node are honest, so the first stem delivery seen names its sender
        assert all(estimate_first_reach(run.keys[mid]) == o[1] for mid, o in firsts.items())

    def test_open_log_returns_fresh_log(self):
        graph = star(4)
        adv = Adversary(graph, AdversaryConfig(nodes=(1,)))
        log = adv.open_log(0)
        assert log == []
        log.append((1.0, 0, 1, PHASE_BROADCAST))
        assert adv.observations(0) is log
        # a second run of the id replaces its log, never merges into it
        again = adv.open_log(0)
        assert again == [] and again is not log
        assert adv.observations(0) is again

    def test_unobserved_message_empty_log(self):
        graph = star(4)
        adv = Adversary(graph, AdversaryConfig(nodes=(1,)))
        assert adv.observations(123) == []


class TestCensorship:
    def test_more_adversaries_never_spread_further(self):
        graph = assign_weights(gen_random_regular(100, 6, seed=2),
                               WeightGeneratorSpec(), seed=2)
        proto = make_protocol(graph, ProtocolConfig(kind="broadcast"))
        nested = [(3,), (3, 17), (3, 17, 42, 77)]
        spreads = []
        for nodes in nested:
            adv = Adversary(graph, AdversaryConfig(nodes=nodes, active=True))
            sim = Simulation(proto, adversary=adv, num_messages=20, seed=4)
            spreads.append(sim.run().spread_ratios)
        for small, large in zip(spreads, spreads[1:]):
            assert all(a >= b for a, b in zip(small, large))

    def test_passive_adversary_full_spread(self):
        graph = assign_weights(gen_random_regular(100, 6, seed=2),
                               WeightGeneratorSpec(), seed=2)
        proto = make_protocol(graph, ProtocolConfig(kind="broadcast"))
        adv = Adversary(graph, AdversaryConfig(ratio=0.2, active=False), seed=1)
        run = Simulation(proto, adversary=adv, num_messages=10, seed=4).run()
        assert run.spread_ratios == [1.0] * 10
