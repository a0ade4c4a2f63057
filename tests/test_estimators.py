"""Tests for originator estimators: point-mass picks from the keys the engine
folds on small hand-built runs, the anonymity-graph refinement and its worked
numeric cases."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gossipsim.adversary import Adversary, AdversaryConfig
from gossipsim.engine import PHASE_BROADCAST, PHASE_CIRCUIT, SimMessage, run_message
from gossipsim.errors import ParameterError
from gossipsim.estimators import (estimate_first_reach, estimate_first_sent,
                                  refine_dandelion)
from gossipsim.evaluator import _entropy_of
from gossipsim.graphs import NetworkGraph
from gossipsim.protocols import AnonymityGraph, ProtocolConfig, make_protocol


def single_relay_refine(v, s0, p, exclude, stem_cap):
    """refine_dandelion's weights as the plain (1-p)^k recursion over one relay."""
    level = np.zeros(len(s0))
    level[v] = 1.0
    total = level.copy()
    for _ in range(stem_cap):
        level = (1.0 - p) * level[s0]
        if not level.any():
            break
        total += level
    total[sorted(exclude)] = 0.0
    mass = total.sum()
    if mass <= 0.0:
        return None
    return {int(u): float(total[u] / mass) for u in np.nonzero(total)[0]}


@st.composite
def one_relay_overlays(draw):
    n = draw(st.integers(1, 30))
    relays = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    v = draw(st.integers(0, n - 1))
    exclude = draw(st.sets(st.integers(0, n - 1)))
    return relays, v, exclude


def obs(sender, arrival, observer=0, phase=PHASE_BROADCAST):
    """One delivery; a circuit phase makes it unlinkable."""
    return (arrival, sender, observer, phase)


def observed(graph, watched, deliveries):
    """The (first_reach, first_sent) keys the engine folds from a message
    whose only deliveries are the given ones, all to nodes of an active
    adversary holding `watched`, which stops each of them."""
    adversary = Adversary(graph, AdversaryConfig(nodes=watched, active=True))
    originator = min(set(range(graph.n)) - set(watched))
    msg = SimMessage(0, originator, random.Random(0))
    for arrival, sender, observer, phase in deliveries:
        msg.push(arrival, sender, observer, phase, 0)
    run_message(msg, make_protocol(graph, ProtocolConfig()), adversary)
    return msg.first_reach, msg.first_sent


class TestFirstReach:
    def observed(self, *deliveries):
        # observer 0 sees every sender; node 2 is the adversary's own
        complete = NetworkGraph(10, [(u, v) for v in range(10) for u in range(v)])
        return observed(complete, (0, 2), deliveries)

    def test_earliest_arrival_wins(self):
        assert estimate_first_reach(self.observed(obs(5, 50.0), obs(7, 70.0))) == 5

    def test_arrival_tie_breaks_low_sender(self):
        keys = self.observed(obs(9, 50.0), obs(4, 50.0))
        assert keys[0] == (50.0, 4)
        assert estimate_first_reach(keys) == 4

    def test_unlinkable_skipped(self):
        circuit = obs(3, 10.0, phase=PHASE_CIRCUIT)
        assert estimate_first_reach(self.observed(circuit, obs(8, 99.0))) == 8
        assert estimate_first_reach(self.observed(circuit)) is None

    def test_adversarial_senders_excluded(self):
        assert estimate_first_reach(self.observed(obs(2, 10.0), obs(6, 20.0))) == 6
        assert estimate_first_reach(self.observed(obs(2, 10.0))) is None

    def test_no_observations(self):
        assert self.observed() == (None, None)
        assert estimate_first_reach(self.observed()) is None


class TestFirstSent:
    def graph(self):
        # edges: (0,1) slow, (2,3) fast, (1,3) to connect
        return NetworkGraph(4, [(0, 1), (2, 3), (1, 3)],
                            latencies=[80.0, 10.0, 1.0])

    def test_send_time_beats_arrival_time(self):
        keys = observed(self.graph(), (1, 3),
                        [obs(0, 100.0, observer=1), obs(2, 60.0, observer=3)])
        assert keys == ((60.0, 2), (20.0, 0))
        assert estimate_first_reach(keys) == 2  # earliest arrival
        assert estimate_first_sent(keys) == 0   # earliest send: 100-80=20 < 60-10=50

    def test_send_tie_breaks_low_sender(self):
        keys = observed(self.graph(), (1, 3),
                        [obs(2, 30.0, observer=3), obs(0, 100.0, observer=1)])
        # both sent at t=20
        assert keys[1] == (20.0, 0)
        assert estimate_first_sent(keys) == 0

    def test_matches_first_reach_on_unit_latencies(self):
        graph = NetworkGraph(4, [(0, 1), (2, 3), (1, 3)])
        keys = observed(graph, (1, 3), [obs(0, 7.0, observer=1), obs(2, 5.0, observer=3),
                                        obs(3, 6.0, observer=1)])
        assert keys == ((5.0, 2), (4.0, 2))
        assert estimate_first_reach(keys) == estimate_first_sent(keys) == 2

    def test_no_usable_observation(self):
        circuit = obs(0, 5.0, observer=1, phase=PHASE_CIRCUIT)
        keys = observed(self.graph(), (1, 3), [circuit])
        assert keys == (None, None)
        assert estimate_first_sent(keys) is None


class TestRefine:
    def chain(self):
        # stem successors 0 -> 1 -> 2 -> 3 -> 4 -> 5 -> 0
        return AnonymityGraph([[1], [2], [3], [4], [5], [0]], epoch_seed=0)

    def test_worked_three_node_cycle(self):
        anon = AnonymityGraph([[1], [2], [0]], epoch_seed=0)
        d = refine_dandelion(2, anon, p=0.5, stem_cap=2)
        # weights 1, 0.5, 0.25 over nodes 2, 1, 0 -> normalize by 1.75
        assert d[2] == pytest.approx(4.0 / 7.0)
        assert d[1] == pytest.approx(2.0 / 7.0)
        assert d[0] == pytest.approx(1.0 / 7.0)

    def test_geometric_decay_along_chain(self):
        q = 0.7  # 1 - p
        d = refine_dandelion(4, self.chain(), p=0.3, stem_cap=3)
        assert list(d) == [1, 2, 3, 4]  # node order
        for near, far in ((4, 3), (3, 2), (2, 1)):
            assert d[far] / d[near] == pytest.approx(q)
        assert sum(d.values()) == pytest.approx(1.0)

    def test_exclusion_renormalizes(self):
        q = 0.7
        d = refine_dandelion(4, self.chain(), p=0.3, stem_cap=3, exclude={3})
        z = 1.0 + q ** 2 + q ** 3
        assert 3 not in d
        assert d[4] == pytest.approx(1.0 / z)
        # the path through the excluded relay still carries weight to node 2
        assert d[2] == pytest.approx(q ** 2 / z)
        assert d[1] == pytest.approx(q ** 3 / z)

    def test_no_predecessor_point_mass(self):
        anon = AnonymityGraph([[1], [2], [1]], epoch_seed=0)
        d = refine_dandelion(0, anon, p=0.5, stem_cap=10)
        assert d == {0: 1.0}
        assert _entropy_of(d, 3) == 0.0

    def test_p_one_keeps_point_mass(self):
        d = refine_dandelion(4, self.chain(), p=1.0, stem_cap=40)
        assert d == {4: 1.0}

    def test_two_relay_averaging(self):
        # nodes 1 and 2 both relay to 0; node 1 stores {0, 2}, so only half
        # of its coin mass goes through 0
        anon = AnonymityGraph([[1], [0, 2], [0]], epoch_seed=0)
        d = refine_dandelion(0, anon, p=0.5, stem_cap=1)
        # level1[1] = 0.5 * 0.5 * (level[0] + level[2]) = 0.25
        # level1[2] = 0.5 * 0.5 * (level[0] + level[0]) = 0.5
        z = 1.0 + 0.25 + 0.5
        assert d[0] == pytest.approx(1.0 / z)
        assert d[1] == pytest.approx(0.25 / z)
        assert d[2] == pytest.approx(0.5 / z)

    def test_entropy_never_below_base(self):
        for p in (0.125, 0.5, 0.9):
            d = refine_dandelion(4, self.chain(), p=p, stem_cap=5)
            assert _entropy_of(d, 6) >= _entropy_of({4: 1.0}, 6)

    def test_all_candidates_excluded(self):
        anon = AnonymityGraph([[1], [2], [1]], epoch_seed=0)
        assert refine_dandelion(0, anon, p=0.5, stem_cap=10, exclude={0}) is None

    @given(overlay=one_relay_overlays(),
           p=st.sampled_from([1 / 8, 1 / 4, 1 / 2, 0.9, 1.0]),
           stem_cap=st.integers(0, 40))
    def test_one_relay_equals_plain_recursion(self, overlay, p, stem_cap):
        # one formula for every overlay: for a one-relay node (0.5 * q) * (x + x)
        # rounds exactly as q * x, so the weights match bit for bit
        relays, v, exclude = overlay
        anon = AnonymityGraph([[r] for r in relays], epoch_seed=0)
        expected = single_relay_refine(v, np.array(relays, dtype=np.intp), p,
                                       exclude, stem_cap)
        assert refine_dandelion(v, anon, p, exclude=exclude, stem_cap=stem_cap) == expected

    def test_probability_validated(self):
        with pytest.raises(ParameterError):
            refine_dandelion(4, self.chain(), p=0.0)
        with pytest.raises(ParameterError):
            refine_dandelion(4, self.chain(), p=1.1)
        with pytest.raises(ParameterError):
            refine_dandelion(4, self.chain(), p=0.5, stem_cap=-1)
