"""Tests for the routing protocols: fanout rules, stem behaviour, pinned
relays and circuit routing."""

import math
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gossipsim.adversary import Adversary, AdversaryConfig
from gossipsim.engine import (PHASE_BROADCAST, PHASE_CIRCUIT, PHASE_STEM,
                              SimMessage, Simulation, derive_seed, run_message,
                              spawn_message)
from gossipsim.errors import ParameterError
from gossipsim.evaluator import evaluate
from gossipsim.graphs import (NetworkGraph, WeightGeneratorSpec,
                              assign_weights, gen_random_regular)
from gossipsim.protocols import (AnonymityGraph, BroadcastProtocol,
                                 DandelionProtocol, ProtocolConfig,
                                 build_anonymity_graph, make_protocol)


def relays(anon, u):
    """The two relay slots of node u; a one-relay node fills both."""
    return [int(anon.s0[u]), int(anon.s1[u])]


def star(leaves=9):
    return NetworkGraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def star_path(d):
    """Hub 0 with leaves 1..d chained into a path; hub edge i has latency i."""
    edges = [(0, i) for i in range(1, d + 1)] + [(i, i + 1) for i in range(1, d)]
    return NetworkGraph(d + 1, edges, [float(i) for i in range(1, d + 1)] + [1.0] * (d - 1))


class TestProtocolConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ProtocolConfig(kind="flood")
        with pytest.raises(ParameterError):
            ProtocolConfig(broadcast_mode="cbrt")
        with pytest.raises(ParameterError):
            ProtocolConfig(broadcast_probability=0.0)
        with pytest.raises(ParameterError):
            ProtocolConfig(broadcast_probability=1.5)
        with pytest.raises(ParameterError):
            ProtocolConfig(stem_cap=0)
        with pytest.raises(ParameterError):
            ProtocolConfig(kind="onion", onion_path_len=0)
        ProtocolConfig(broadcast_probability=1.0)  # boundary is legal


class TestFanout:
    def test_receive_all_excludes_sender(self):
        graph = star(3)  # hub 0 has degree 3
        proto = make_protocol(graph, ProtocolConfig(kind="broadcast"))
        msg = SimMessage(0, 1, rng=random.Random(0))
        proto.fluff(msg, 5.0, 0, 1)
        targets = sorted(e[3] for e in msg.queue)
        assert targets == [2, 3]

    def test_spawn_all_includes_everyone(self):
        graph = star(3)
        proto = make_protocol(graph, ProtocolConfig(kind="broadcast"))
        msg = spawn_message(0, proto, rng=random.Random(0))
        assert sorted(e[3] for e in msg.queue) == [1, 2, 3]

    def test_sqrt_count_and_sender_exclusion(self):
        graph = star(9)  # hub degree 9 -> ceil(sqrt(9)) = 3
        cfg = ProtocolConfig(kind="broadcast", broadcast_mode="sqrt")
        proto = make_protocol(graph, cfg)
        for trial in range(30):
            msg = SimMessage(trial, 1, rng=random.Random(trial))
            proto.fluff(msg, 0.0, 0, 1)
            targets = [e[3] for e in msg.queue]
            assert len(targets) == 3
            assert len(set(targets)) == 3
            assert 1 not in targets  # degree exceeds fanout, sender excluded

    def test_sqrt_small_degree_may_return_to_sender(self):
        # degree 2, fanout ceil(sqrt(2)) = 2: the whole neighborhood is used
        graph = NetworkGraph(3, [(0, 1), (0, 2), (1, 2)])
        cfg = ProtocolConfig(kind="broadcast", broadcast_mode="sqrt")
        proto = make_protocol(graph, cfg)
        msg = SimMessage(0, 1, rng=random.Random(0))
        proto.fluff(msg, 0.0, 0, 1)
        assert sorted(e[3] for e in msg.queue) == [1, 2]

    def test_node_forwards_only_once(self):
        graph = star(3)
        proto = make_protocol(graph, ProtocolConfig(kind="broadcast"))
        msg = SimMessage(0, 1, rng=random.Random(0))
        proto.fluff(msg, 0.0, 0, 1)
        before = len(msg.queue)
        proto.fluff(msg, 1.0, 0, 2)
        assert len(msg.queue) == before

    def test_all_mode_full_coverage(self):
        graph = assign_weights(gen_random_regular(200, 6, seed=3),
                               WeightGeneratorSpec(), seed=3)
        for kind in ("broadcast", "dandelion", "dandelion_pp", "onion"):
            proto = make_protocol(graph, ProtocolConfig(kind=kind), seed=1)
            msg = run_message(spawn_message(7, proto, rng=random.Random(11)), proto)
            assert msg.spread_ratio == 1.0, kind

    def test_sqrt_mode_near_full_coverage(self):
        graph = assign_weights(gen_random_regular(1000, 50, seed=0),
                               WeightGeneratorSpec(), seed=0)
        cfg = ProtocolConfig(kind="broadcast", broadcast_mode="sqrt")
        proto = make_protocol(graph, cfg)
        msg = run_message(spawn_message(0, proto, rng=random.Random(5)), proto)
        assert msg.spread_ratio >= 0.99


class TestSqrtSampler:
    """The inline sqrt sample is random.Random.sample on the sender-free
    neighbor list, draw for draw. CPython's sample takes its pool branch when
    the population n is at most 21 (c <= 5) or 85 (6 <= c <= 21), and its set
    branch above."""

    @staticmethod
    def check_hub_draw(d, with_sender, seed):
        """Fan out of the hub of star_path(d); returns the sampled pool size."""
        graph = star_path(d)
        proto = make_protocol(graph, ProtocolConfig(kind="broadcast", broadcast_mode="sqrt"))
        c = proto._fan[0]
        sender = 1 + seed % d if with_sender else -1
        pool = graph.adj[0]
        if with_sender and d > c:
            pool = [p for p in pool if p[0] != sender]
        msg = SimMessage(0, 0, rng=random.Random(seed))
        proto.fluff(msg, 2.5, 0, sender)
        ref = random.Random(seed)
        expected = [(w, 2.5 + lat) for w, lat in ref.sample(pool, c)]
        pushed = sorted(msg.queue, key=lambda e: e[1])
        assert [(e[3], e[0]) for e in pushed] == expected
        assert [e[1] for e in pushed] == list(range(c)) and msg.seq == c
        assert msg.rng.getstate() == ref.getstate()
        return len(pool)

    @given(d=st.integers(1, 300), with_sender=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_random_sample(self, d, with_sender, seed):
        self.check_hub_draw(d, with_sender, seed)

    @given(shape=st.sampled_from([(22, False), (23, False), (24, False), (25, False),
                                  (23, True), (24, True), (25, True)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_set_branch_small_fanout(self, shape, seed):
        d, with_sender = shape
        assert 21 < self.check_hub_draw(d, with_sender, seed) <= 25  # c = 5

    @given(d=st.integers(87, 300), with_sender=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_set_branch_hub(self, d, with_sender, seed):
        assert self.check_hub_draw(d, with_sender, seed) > 85  # 10 <= c <= 18

    def test_draw_table_covers_every_pool_size(self):
        graph = star_path(40)
        proto = make_protocol(graph, ProtocolConfig(kind="broadcast", broadcast_mode="sqrt"))
        assert proto._draws == [(m, m.bit_length()) for m in range(41)]
        assert not hasattr(make_protocol(graph, ProtocolConfig()), "_draws")

    def test_fan_is_ceil_sqrt_degree(self):
        rows = [[(0, 1.0)] * d for d in range(401)]
        proto = make_protocol(SimpleNamespace(n=len(rows), adj=rows),
                              ProtocolConfig(kind="broadcast", broadcast_mode="sqrt"))
        expected = []
        for d in range(401):
            c = math.isqrt(d)
            if c * c < d:
                c += 1
            expected.append(c)
        assert proto._fan == expected


class TestStemRouting:
    def test_p_one_equals_plain_broadcast(self):
        graph = assign_weights(gen_random_regular(100, 6, seed=2),
                               WeightGeneratorSpec(), seed=2)
        plain = make_protocol(graph, ProtocolConfig(kind="broadcast"))
        stem = make_protocol(
            graph, ProtocolConfig(kind="dandelion", broadcast_probability=1.0),
            seed=0)
        a = run_message(spawn_message(4, plain, rng=random.Random(9)), plain)
        b = run_message(spawn_message(4, stem, rng=random.Random(9)), stem)
        assert a.first_receipt == b.first_receipt

    def stem_lengths(self, kind, p, num=2000, cap=40):
        graph = gen_random_regular(100, 10, seed=1)
        cfg = ProtocolConfig(kind=kind, broadcast_probability=p, stem_cap=cap)
        proto = make_protocol(graph, cfg, seed=2)
        lengths = []
        for mid in range(num):
            rng = random.Random(derive_seed(3, 7, mid))
            msg = run_message(spawn_message(mid % 100, proto, mid=mid, rng=rng),
                              proto, keep_events=True)
            lengths.append(sum(1 for e in msg.events if e[3] == PHASE_STEM))
        return lengths

    def test_stem_length_distribution(self):
        # the holder count before broadcast is geometric on {0, 1, ...} with
        # success probability p, so the mean stem length is (1-p)/p
        lengths = self.stem_lengths("dandelion", 0.4)
        mean = sum(lengths) / len(lengths)
        assert abs(mean - 1.5) < 0.15
        assert min(lengths) == 0  # originator may broadcast immediately

    def test_stem_cap_forces_broadcast(self):
        lengths = self.stem_lengths("dandelion", 1e-12, num=5, cap=7)
        assert lengths == [7, 7, 7, 7, 7]

    def test_phase_monotone_in_trace(self):
        graph = gen_random_regular(100, 10, seed=1)
        cfg = ProtocolConfig(kind="dandelion_pp", broadcast_probability=0.3)
        proto = make_protocol(graph, cfg, seed=2)
        for mid in range(20):
            msg = run_message(
                spawn_message(mid, proto, mid=mid, rng=random.Random(mid)),
                proto, keep_events=True)
            phases = [e[3] for e in msg.events]
            if PHASE_BROADCAST in phases:
                first = phases.index(PHASE_BROADCAST)
                assert all(ph == PHASE_BROADCAST for ph in phases[first:])

    def test_stem_edges_are_network_edges(self):
        graph = gen_random_regular(100, 10, seed=1)
        cfg = ProtocolConfig(kind="dandelion", broadcast_probability=0.1)
        proto = make_protocol(graph, cfg, seed=2)
        msg = run_message(spawn_message(0, proto, rng=random.Random(2)), proto,
                          keep_events=True)
        for t, frm, to, phase in msg.events:
            if phase == PHASE_STEM:
                assert to in graph.neighbors(frm)


class TestAnonymityGraph:
    def test_single_relay_from_neighbors(self):
        graph = NetworkGraph(3, [(0, 1), (1, 2), (0, 2)])
        anon = build_anonymity_graph(graph, "dandelion", seed=0)
        for u in range(3):
            r0, r1 = relays(anon, u)
            assert r0 == r1  # one relay, stored in both arrays
            assert r0 in graph.neighbors(u)
            assert r0 != u

    def test_two_distinct_relays(self):
        graph = gen_random_regular(10, 3, seed=1)
        anon = build_anonymity_graph(graph, "dandelion_pp", seed=0)
        for u in range(10):
            succ = relays(anon, u)
            assert succ[0] != succ[1]
            assert set(succ) <= set(graph.neighbors(u))

    def test_degree_one_falls_back_to_single_relay(self):
        graph = star(4)
        anon = build_anonymity_graph(graph, "dandelion_pp", seed=0)
        for leaf in range(1, 5):
            assert relays(anon, leaf) == [0, 0]

    def test_next_relay_stable_per_message(self):
        graph = gen_random_regular(10, 3, seed=1)
        a = build_anonymity_graph(graph, "dandelion_pp", seed=5)
        b = build_anonymity_graph(graph, "dandelion_pp", seed=5)
        for u in range(10):
            for mid in range(20):
                r = a.next_relay(u, mid)
                assert r == a.next_relay(u, mid)  # replay
                assert r == b.next_relay(u, mid)  # same epoch seed
                assert r in relays(a, u)

    def test_next_relay_uses_both_relays(self):
        graph = gen_random_regular(10, 3, seed=1)
        anon = build_anonymity_graph(graph, "dandelion_pp", seed=0)
        picks = {anon.next_relay(0, mid) for mid in range(50)}
        assert picks == set(relays(anon, 0))

    def test_deterministic_in_seed(self):
        graph = gen_random_regular(20, 4, seed=2)
        a = build_anonymity_graph(graph, "dandelion", seed=9)
        b = build_anonymity_graph(graph, "dandelion", seed=9)
        c = build_anonymity_graph(graph, "dandelion", seed=10)
        succ = lambda g: [relays(g, u) for u in range(20)]
        assert succ(a) == succ(b)
        assert succ(a) != succ(c)

    def test_kind_validation(self):
        graph = star(3)
        with pytest.raises(ParameterError):
            build_anonymity_graph(graph, "broadcast", seed=0)

    @pytest.mark.parametrize("successors", [[[5], [0]], [[1], [0, 2]], [[-1], [0]],
                                            [[1, 5], [0]]])
    def test_relays_out_of_range(self, successors):
        with pytest.raises(ParameterError, match="out of range"):
            AnonymityGraph(successors, epoch_seed=0)

    @pytest.mark.parametrize("successors", [[[3], [2], [1], [2]],
                                            [[1], [0, 3], [1], [2]]])
    def test_relays_must_be_neighbors(self, successors):
        # at construction, not mid-run as a KeyError from the first stem hop
        path = NetworkGraph(4, [(0, 1), (1, 2), (2, 3)])
        cfg = ProtocolConfig(kind="dandelion", broadcast_probability=0.01)
        with pytest.raises(ParameterError, match="not its neighbor"):
            DandelionProtocol(path, cfg, AnonymityGraph(successors, epoch_seed=0))
        DandelionProtocol(path, cfg, AnonymityGraph([[1], [0, 2], [1], [2]],
                                                    epoch_seed=0))

    def test_relay_count(self):
        with pytest.raises(ParameterError):
            AnonymityGraph([[], [0]], epoch_seed=0)
        with pytest.raises(ParameterError):
            AnonymityGraph([[1, 1, 1], [0]], epoch_seed=0)


class StemToLowestNeighbor(BroadcastProtocol):
    """A protocol written against the extension contract: one stem hop to the
    originator's lowest neighbor, which then starts the flood."""

    def __init__(self, graph, config):
        super().__init__(graph, config)
        self.hops = []

    def on_spawn(self, msg):
        o = msg.originator
        w, lat = self.graph.adj[o][0]
        msg.push(lat, o, w, PHASE_STEM, 1)

    def on_hop(self, msg, t, node, hop):
        self.hops.append((msg.mid, node, hop))
        self.fluff(msg, t, node, -1)


class TestExtensionContract:
    def test_subclass_implements_only_its_anonymity_phase(self):
        # wheel: hub 0 is every rim node's lowest neighbor
        rim = range(1, 9)
        graph = NetworkGraph(9, [(0, u) for u in rim] + [(u, u % 8 + 1) for u in rim])
        proto = StemToLowestNeighbor(graph, ProtocolConfig(broadcast_mode="all"))
        adversary = Adversary(graph, AdversaryConfig(nodes=(0,)))
        run = Simulation(proto, adversary, num_messages=5, seed=3,
                         keep_messages=True).run()
        assert run.spread_ratios == [1.0] * 5
        assert proto.hops == [(mid, 0, 1) for mid in range(5)]
        for mid, o in enumerate(run.originators):
            assert adversary.observations(mid)[0] == (1.0, o, 0, PHASE_STEM)
            # the flood starts fresh at the hub, so it also sends back to o
            assert (2.0, 0, o, PHASE_BROADCAST) in run.messages[mid].events
        report = evaluate(run, "first_reach")
        assert report.message_spread_ratio == 1.0
        assert report.num_unobserved == 0
        assert report.hit_ratio == 1.0  # the stem delivery names every originator


class TestCircuitRouting:
    def graph(self):
        return assign_weights(gen_random_regular(20, 4, seed=3),
                              WeightGeneratorSpec(), seed=3)

    def test_circuit_is_distinct_and_excludes_originator(self):
        graph = self.graph()
        proto = make_protocol(graph, ProtocolConfig(kind="onion", onion_path_len=3))
        for mid in range(40):
            msg = spawn_message(6, proto, mid=mid, rng=random.Random(mid))
            assert len(msg.circuit) == 3
            assert len(set(msg.circuit)) == 3
            assert 6 not in msg.circuit

    def test_relay_choice_covers_all_other_nodes(self):
        graph = self.graph()
        proto = make_protocol(graph, ProtocolConfig(kind="onion", onion_path_len=1))
        seen = set()
        for mid in range(2000):
            msg = spawn_message(6, proto, mid=mid, rng=random.Random(mid))
            seen.update(msg.circuit)
        assert seen == set(range(20)) - {6}

    def test_path_length_bound(self):
        graph = self.graph()
        make_protocol(graph, ProtocolConfig(kind="onion", onion_path_len=18))
        with pytest.raises(ParameterError):
            make_protocol(graph, ProtocolConfig(kind="onion", onion_path_len=19))

    def test_circuit_hop_latency_is_shortest_path(self):
        graph = self.graph()
        proto = make_protocol(graph, ProtocolConfig(kind="onion", onion_path_len=3))
        nxg = graph.to_networkx()
        msg = run_message(spawn_message(6, proto, rng=random.Random(0)), proto,
                          keep_events=True)
        hops = [(t, frm, to) for t, frm, to, ph in msg.events
                if ph == PHASE_CIRCUIT]
        assert [to for _, _, to in hops] == msg.circuit
        prev_t = 0.0
        prev_node = 6
        for t, frm, to in hops:
            assert frm == prev_node
            dist = nx.dijkstra_path_length(nxg, frm, to, weight="latency")
            assert t - prev_t == pytest.approx(dist, abs=1e-9)
            prev_t, prev_node = t, to

    def test_onion_sweep_leaves_scipy_sparse_unloaded(self, tmp_path):
        # circuit hops are searched in the package: importing scipy.sparse.csgraph
        # would add about 30 MB of peak memory to every onion sweep
        code = ("import sys, gossipsim as g\n"
                "graph = g.assign_weights(g.gen_random_regular(60, 6, 0),\n"
                "                         g.WeightGeneratorSpec(), 0)\n"
                "proto = g.make_protocol(graph, g.ProtocolConfig(kind='onion'))\n"
                "adv = g.Adversary(graph, g.AdversaryConfig(ratio=0.1), seed=0)\n"
                "run = g.Simulation(proto, adv, num_messages=5, seed=0).run()\n"
                "assert g.evaluate(run, 'first_sent').num_messages == 5\n"
                "cfg = g.parse_config('topology.n = 40\\ntopology.k = 4\\n'\n"
                "                     'protocol.kind = onion\\nadversary.ratio = 0.1\\n'\n"
                "                     'num_messages = 3\\nseeds = 0..1\\n')\n"
                "rows, _, _ = g.run_experiment(cfg, out_dir=sys.argv[1])\n"
                "assert len(rows) == 2\n"
                "assert 'scipy.sparse' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True)

    def test_exit_floods_everyone(self):
        graph = self.graph()
        proto = make_protocol(graph, ProtocolConfig(kind="onion", onion_path_len=5))
        msg = run_message(spawn_message(2, proto, rng=random.Random(1)), proto)
        assert msg.spread_ratio == 1.0
