"""Tests for originator estimators: point-mass picks, the anonymity-graph
refinement and its worked numeric cases."""

import pytest

from gossipsim.adversary import Observation
from gossipsim.engine import PHASE_BROADCAST, PHASE_CIRCUIT
from gossipsim.errors import ParameterError
from gossipsim.estimators import (CandidateDistribution, NoObservation,
                                  estimate_first_reach, estimate_first_sent,
                                  refine_dandelion)
from gossipsim.graphs import NetworkGraph
from gossipsim.protocols import AnonymityGraph


def obs(sender, arrival, observer=0, mid=0, phase=PHASE_BROADCAST, linkable=True):
    return Observation(mid, observer, sender, arrival, phase, linkable)


class TestCandidateDistribution:
    def test_top_ranked_entropy(self):
        d = CandidateDistribution(0, {0: 0.5, 1: 0.25, 2: 0.25})
        assert d.top() == 0
        assert d.entropy_bits() == pytest.approx(1.5)

    def test_top_tie_breaks_low_id(self):
        d = CandidateDistribution(0, {4: 0.5, 2: 0.5})
        assert d.top() == 2

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            CandidateDistribution(0, {}).top()

    def test_uniform(self):
        d = CandidateDistribution(3, {u: 0.25 for u in range(4)})
        assert d.message_id == 3
        assert d.entropy_bits() == pytest.approx(2.0)


class TestFirstReach:
    def test_earliest_arrival_wins(self):
        d = estimate_first_reach([obs(5, 50.0), obs(7, 70.0)])
        assert d.probs == {5: 1.0}

    def test_arrival_tie_breaks_low_sender(self):
        d = estimate_first_reach([obs(9, 50.0), obs(4, 50.0)])
        assert d.top() == 4

    def test_unlinkable_skipped(self):
        circuit = obs(3, 10.0, phase=PHASE_CIRCUIT, linkable=False)
        d = estimate_first_reach([circuit, obs(8, 99.0)])
        assert d.top() == 8
        with pytest.raises(NoObservation):
            estimate_first_reach([circuit])

    def test_adversarial_senders_excluded(self):
        d = estimate_first_reach([obs(2, 10.0), obs(6, 20.0)], exclude={2})
        assert d.top() == 6
        with pytest.raises(NoObservation) as err:
            estimate_first_reach([obs(2, 10.0)], exclude={2}, message_id=17)
        assert err.value.message_id == 17

    def test_no_observations(self):
        with pytest.raises(NoObservation):
            estimate_first_reach([], message_id=5)


class TestFirstSent:
    def graph(self):
        # edges: (0,1) slow, (2,3) fast, (1,3) to connect
        return NetworkGraph(4, [(0, 1), (2, 3), (1, 3)],
                            latencies=[80.0, 10.0, 1.0])

    def test_send_time_beats_arrival_time(self):
        observations = [obs(0, 100.0, observer=1), obs(2, 60.0, observer=3)]
        reach = estimate_first_reach(observations)
        sent = estimate_first_sent(observations, self.graph())
        assert reach.top() == 2  # earliest arrival
        assert sent.top() == 0   # earliest send: 100-80=20 < 60-10=50

    def test_send_tie_breaks_low_sender(self):
        observations = [obs(2, 30.0, observer=3), obs(0, 100.0, observer=1)]
        # both sent at t=20
        assert estimate_first_sent(observations, self.graph()).top() == 0

    def test_matches_first_reach_on_unit_latencies(self):
        graph = NetworkGraph(4, [(0, 1), (2, 3), (1, 3)])
        observations = [obs(0, 7.0, observer=1), obs(2, 5.0, observer=3),
                        obs(3, 6.0, observer=1)]
        reach = estimate_first_reach(observations)
        sent = estimate_first_sent(observations, graph)
        assert reach.top() == sent.top() == 2

    def test_sender_must_be_observer_neighbor(self):
        path = NetworkGraph(4, [(0, 1), (1, 2), (2, 3)], latencies=[5.0, 7.0, 9.0])
        with pytest.raises(ParameterError):
            estimate_first_sent([obs(0, 20.0, observer=2)], path)  # not edge (2, 1)
        with pytest.raises(ParameterError):
            estimate_first_sent([obs(3, 20.0, observer=1)], path)  # past the row's end

    def test_no_usable_observation(self):
        with pytest.raises(NoObservation):
            estimate_first_sent([obs(0, 5.0, observer=1, linkable=False)],
                                self.graph())


class TestRefine:
    def chain(self):
        # stem successors 0 -> 1 -> 2 -> 3 -> 4 -> 5 -> 0
        return AnonymityGraph([[1], [2], [3], [4], [5], [0]],
                              epoch_seed=0, kind="dandelion")

    def test_worked_three_node_cycle(self):
        anon = AnonymityGraph([[1], [2], [0]], epoch_seed=0, kind="dandelion")
        base = CandidateDistribution(0, {2: 1.0})
        d = refine_dandelion(base, anon, p=0.5, stem_cap=2)
        # weights 1, 0.5, 0.25 over nodes 2, 1, 0 -> normalize by 1.75
        assert d.probs[2] == pytest.approx(4.0 / 7.0)
        assert d.probs[1] == pytest.approx(2.0 / 7.0)
        assert d.probs[0] == pytest.approx(1.0 / 7.0)
        assert d.top() == 2

    def test_geometric_decay_along_chain(self):
        base = CandidateDistribution(0, {4: 1.0})
        q = 0.7  # 1 - p
        d = refine_dandelion(base, self.chain(), p=0.3, stem_cap=3)
        assert set(d.probs) == {1, 2, 3, 4}
        for near, far in ((4, 3), (3, 2), (2, 1)):
            assert d.probs[far] / d.probs[near] == pytest.approx(q)
        assert sum(d.probs.values()) == pytest.approx(1.0)

    def test_exclusion_renormalizes(self):
        base = CandidateDistribution(0, {4: 1.0})
        q = 0.7
        d = refine_dandelion(base, self.chain(), p=0.3, stem_cap=3, exclude={3})
        z = 1.0 + q ** 2 + q ** 3
        assert 3 not in d.probs
        assert d.probs[4] == pytest.approx(1.0 / z)
        # the path through the excluded relay still carries weight to node 2
        assert d.probs[2] == pytest.approx(q ** 2 / z)
        assert d.probs[1] == pytest.approx(q ** 3 / z)

    def test_no_predecessor_point_mass(self):
        anon = AnonymityGraph([[1], [2], [1]], epoch_seed=0, kind="dandelion")
        base = CandidateDistribution(0, {0: 1.0})
        d = refine_dandelion(base, anon, p=0.5, stem_cap=10)
        assert d.probs == {0: 1.0}
        assert d.entropy_bits() == 0.0

    def test_p_one_keeps_point_mass(self):
        base = CandidateDistribution(0, {4: 1.0})
        d = refine_dandelion(base, self.chain(), p=1.0, stem_cap=40)
        assert d.probs == {4: 1.0}

    def test_two_relay_averaging(self):
        # nodes 1 and 2 both relay to 0; node 1 stores {0, 2}, so only half
        # of its coin mass goes through 0
        anon = AnonymityGraph([[1], [0, 2], [0]], epoch_seed=0,
                              kind="dandelion_pp")
        base = CandidateDistribution(0, {0: 1.0})
        d = refine_dandelion(base, anon, p=0.5, stem_cap=1)
        # level1[1] = 0.5 * 0.5 * (level[0] + level[2]) = 0.25
        # level1[2] = 0.5 * 0.5 * (level[0] + level[0]) = 0.5
        z = 1.0 + 0.25 + 0.5
        assert d.probs[0] == pytest.approx(1.0 / z)
        assert d.probs[1] == pytest.approx(0.25 / z)
        assert d.probs[2] == pytest.approx(0.5 / z)

    def test_entropy_never_below_base(self):
        base = CandidateDistribution(0, {4: 1.0})
        for p in (0.125, 0.5, 0.9):
            d = refine_dandelion(base, self.chain(), p=p, stem_cap=5)
            assert d.entropy_bits() >= base.entropy_bits()

    def test_all_candidates_excluded(self):
        anon = AnonymityGraph([[1], [2], [1]], epoch_seed=0, kind="dandelion")
        base = CandidateDistribution(9, {0: 1.0})
        with pytest.raises(NoObservation) as err:
            refine_dandelion(base, anon, p=0.5, stem_cap=10, exclude={0})
        assert err.value.message_id == 9

    def test_probability_validated(self):
        base = CandidateDistribution(0, {4: 1.0})
        with pytest.raises(ParameterError):
            refine_dandelion(base, self.chain(), p=0.0)
        with pytest.raises(ParameterError):
            refine_dandelion(base, self.chain(), p=1.1)
        with pytest.raises(ParameterError):
            refine_dandelion(base, self.chain(), p=0.5, stem_cap=-1)
