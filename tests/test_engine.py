"""Tests for the discrete-event engine: delivery order, first receipts,
censorship, originator sampling and determinism."""

import random

import networkx as nx
import pytest
from scipy.sparse.csgraph import dijkstra

from gossipsim.adversary import Adversary, AdversaryConfig
from gossipsim.engine import (PHASE_BROADCAST, PHASE_STEM, Simulation,
                              derive_seed, run_message, spawn_message)
from gossipsim.errors import ParameterError
from gossipsim.evaluator import ESTIMATORS, evaluate
from gossipsim.graphs import (NetworkGraph, WeightGeneratorSpec,
                              assign_weights, gen_random_regular,
                              gen_scale_free)
from gossipsim.protocols import BroadcastProtocol, ProtocolConfig, make_protocol
from reference import fold_log


def path_graph():
    return NetworkGraph(3, [(0, 1), (1, 2)], latencies=[50.0, 70.0])


def broadcast_all(graph):
    return make_protocol(graph, ProtocolConfig(kind="broadcast", broadcast_mode="all"))


class TestRunMessage:
    def test_path_delivery_times(self):
        proto = broadcast_all(path_graph())
        msg = run_message(spawn_message(0, proto, rng=random.Random(0)), proto)
        assert msg.first_receipt == {0: 0.0, 1: 50.0, 2: 120.0}
        assert msg.spread_ratio == 1.0

    def test_active_adversary_censors(self):
        graph = path_graph()
        proto = broadcast_all(graph)
        adv = Adversary(graph, AdversaryConfig(nodes=(1,), active=True))
        msg = run_message(spawn_message(0, proto, rng=random.Random(0)), proto,
                          adversary=adv, keep_events=True)
        assert msg.first_receipt == {0: 0.0, 1: 50.0}
        assert msg.spread_ratio == pytest.approx(2.0 / 3.0)
        # the delivery itself was still observed
        assert len(adv.observations(0)) == 1

    def test_rerun_message_id_replaces_its_log(self):
        graph = gen_random_regular(20, 4, seed=0)
        proto = broadcast_all(graph)
        adv = Adversary(graph, AdversaryConfig(ratio=0.2), seed=0)
        first = run_message(spawn_message(1, proto, rng=random.Random(0)), proto,
                            adversary=adv, keep_events=True)
        assert len(adv.observations(0)) == 12
        second = run_message(spawn_message(2, proto, rng=random.Random(1)), proto,
                             adversary=adv, keep_events=True)
        assert first.events != second.events
        assert adv.observations(0) == [e for e in second.events if e[2] in adv.nodes]

    def test_passive_adversary_does_not_interfere(self):
        graph = path_graph()
        proto = broadcast_all(graph)
        clean = run_message(spawn_message(0, proto, rng=random.Random(0)), proto)
        adv = Adversary(graph, AdversaryConfig(nodes=(1,), active=False))
        watched = run_message(spawn_message(0, proto, rng=random.Random(0)), proto,
                              adversary=adv)
        assert watched.first_receipt == clean.first_receipt

    def test_first_receipt_keeps_earliest(self):
        graph = NetworkGraph(3, [(0, 1), (1, 2), (0, 2)],
                             latencies=[1.0, 1.0, 100.0])
        proto = broadcast_all(graph)
        msg = run_message(spawn_message(0, proto, rng=random.Random(0)), proto,
                          keep_events=True)
        assert msg.first_receipt[2] == 2.0  # via node 1, not the direct slow edge
        # the slow duplicate delivery still happened
        assert (100.0, 0, 2, PHASE_BROADCAST) in msg.events

    def fast_spokes(self):
        # node 1's fanout reaches node 2 over the slow edge at 6.0, after 0 -> 2 at 1.0
        return NetworkGraph(3, [(0, 1), (0, 2), (1, 2)], latencies=[1.0, 1.0, 5.0])

    def test_honest_duplicate_not_queued(self):
        proto = broadcast_all(self.fast_spokes())
        msg = run_message(spawn_message(0, proto, rng=random.Random(0)), proto,
                          keep_events=True)
        assert msg.first_receipt == {0: 0.0, 1: 1.0, 2: 1.0}
        assert (6.0, 1, 2, PHASE_BROADCAST) not in msg.events
        assert msg.events == [(1.0, 0, 1, PHASE_BROADCAST), (1.0, 0, 2, PHASE_BROADCAST)]

    def test_duplicate_to_adversary_delivered(self):
        graph = self.fast_spokes()
        proto = broadcast_all(graph)
        adv = Adversary(graph, AdversaryConfig(nodes=(2,), active=False))
        msg = run_message(spawn_message(0, proto, rng=random.Random(0)), proto,
                          adversary=adv, keep_events=True)
        assert (6.0, 1, 2, PHASE_BROADCAST) in msg.events
        assert [(sender, arrival) for arrival, sender, _, _ in adv.observations(0)] == [
            (0, 1.0), (1, 6.0)]
        assert msg.first_receipt[2] == 1.0

    def test_sqrt_pass_counts_duplicate_to_adversary_unqueued(self):
        # unit latencies: 5 and then 2 reach adversarial node 8 at 2.0, and
        # the duplicate from 2 holds both keys
        graph = gen_random_regular(12, 4, seed=11)
        proto = make_protocol(graph, ProtocolConfig(kind="broadcast", broadcast_mode="sqrt"))
        adv = Adversary(graph, AdversaryConfig(ratio=0.25), seed=11)
        runs = [run_message(spawn_message(0, proto, rng=random.Random(0)), proto,
                            adversary=adv, keep_events=keep) for keep in (False, True)]
        assert adv.observations(0)[:2] == [(2.0, 5, 8, PHASE_BROADCAST),
                                           (2.0, 2, 8, PHASE_BROADCAST)]
        for msg in runs:
            assert (msg.first_reach, msg.first_sent) == ((2.0, 2), (1.0, 2))
        assert runs[0].first_receipt == runs[1].first_receipt
        # without events no duplicate to an adversarial node was queued
        assert runs[0].seq < runs[1].seq

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mode", ["sqrt", "all"])
    def test_sqrt_pass_numbers_pushes_of_hops_popped_mid_flood(self, mode, seed):
        # stem exits that pop while the flood runs push with the loop's seq,
        # so tied deliveries pop in the same order as when events are kept;
        # in mode 'all' the hops queued beside the first fanout keep the
        # whole-flood pass out, so the heap forwards without events too
        class LateExits(BroadcastProtocol):
            def on_spawn(self, msg):
                self.fluff(msg, 0.0, msg.originator, -1)
                for hop, node in enumerate(range(1, self.graph.n, 3)):
                    msg.push(1.0 + hop, msg.originator, node, PHASE_STEM, hop)

            def on_hop(self, msg, t, node, hop):
                self.fluff(msg, t, node, -1)

        graph = gen_random_regular(40, 6, seed=seed)
        proto = LateExits(graph, ProtocolConfig(kind="broadcast", broadcast_mode=mode))
        adv = Adversary(graph, AdversaryConfig(ratio=0.2), seed=seed)
        runs = [run_message(spawn_message(0, proto, rng=random.Random(seed)), proto,
                            adversary=adv, keep_events=keep) for keep in (False, True)]
        fast, kept = runs
        assert fast.first_receipt == kept.first_receipt
        assert fast.rng.getstate() == kept.rng.getstate()
        assert (fast.first_reach, fast.first_sent) == (kept.first_reach, kept.first_sent)
        assert fast.seq <= kept.seq
        # every push took the next seq: the kept run popped each one
        assert kept.seq == len(kept.events)

    def test_stem_revisits_queued(self):
        # three nodes, five stem hops: the stem must deliver to some node twice
        graph = NetworkGraph(3, [(0, 1), (1, 2), (0, 2)])
        cfg = ProtocolConfig(kind="dandelion", broadcast_probability=1e-9, stem_cap=5)
        proto = make_protocol(graph, cfg, seed=0)
        msg = run_message(spawn_message(0, proto, rng=random.Random(0)), proto,
                          keep_events=True)
        stem = [(frm, to) for _t, frm, to, phase in msg.events if phase == PHASE_STEM]
        assert len(stem) == 5
        assert len({to for _frm, to in stem}) < 5

    def test_pop_order_monotone(self):
        graph = assign_weights(gen_random_regular(60, 4, seed=1),
                               WeightGeneratorSpec(), seed=1)
        proto = broadcast_all(graph)
        msg = run_message(spawn_message(0, proto, rng=random.Random(0)), proto,
                          keep_events=True)
        times = [e[0] for e in msg.events]
        assert times == sorted(times)

    def test_event_count_bounded(self):
        graph = gen_random_regular(60, 4, seed=1)
        proto = broadcast_all(graph)
        msg = run_message(spawn_message(0, proto, rng=random.Random(0)), proto,
                          keep_events=True)
        assert len(msg.events) <= 2 * len(graph.edges)


class TestWholeFlood:
    """A fresh mode 'all' flood is computed in one pass unless events are kept."""

    def run_both(self, graph, adversary_nodes, monkeypatch):
        """First receipts and keys of the pass and of popping, which agree,
        and the log the popping run kept."""
        proto = broadcast_all(graph)
        calls = []
        flood = proto.flood
        monkeypatch.setattr(proto, "flood", lambda *a: calls.append(a) or flood(*a))
        out = []
        for keep in (False, True):
            adv = Adversary(graph, AdversaryConfig(nodes=adversary_nodes))
            msg = run_message(spawn_message(0, proto, rng=random.Random(0)),
                              proto, adversary=adv, keep_events=keep)
            out.append((msg.first_receipt, (msg.first_reach, msg.first_sent)))
        assert len(calls) == 1
        assert out[0] == out[1]
        return out[0][1], adv.observations(0)

    def test_tied_parents_pred_is_first_forwarder(self, monkeypatch):
        # 1 and 2 both reach 3 at 2.0; 1 forwarded first, so 3 sends back to 2
        graph = NetworkGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        keys, log = self.run_both(graph, (2,), monkeypatch)
        assert log == [(1.0, 0, 2, PHASE_BROADCAST), (3.0, 3, 2, PHASE_BROADCAST)]
        assert keys == fold_log(log, graph, {2})

    def test_tied_arrivals_logged_in_sender_order(self, monkeypatch):
        # both deliveries arrive at 2.0: sender 1 forwarded before sender 2
        graph = NetworkGraph(5, [(0, 1), (0, 2), (1, 4), (2, 3)])
        keys, log = self.run_both(graph, (3, 4), monkeypatch)
        assert log == [(2.0, 1, 4, PHASE_BROADCAST), (2.0, 2, 3, PHASE_BROADCAST)]
        assert keys == fold_log(log, graph, {3, 4}) == ((2.0, 1), (1.0, 1))

    @pytest.mark.parametrize("kind", ["broadcast", "dandelion_pp"])
    @pytest.mark.parametrize("active", [False, True])
    def test_full_size_graph_matches_popping(self, kind, active):
        # normal latencies clamp about 1.25% of edges to 1.0 ms, so arrivals tie
        graph = assign_weights(gen_random_regular(1000, 50, seed=0),
                               WeightGeneratorSpec(), seed=0)
        proto = make_protocol(graph, ProtocolConfig(kind=kind, broadcast_mode="all"), seed=0)
        adv = Adversary(graph, AdversaryConfig(ratio=0.1, active=active), seed=0)
        honest = [u for u in range(graph.n) if u not in adv.nodes]
        for mid in range(3):
            runs = []
            for keep in (False, True):
                msg = run_message(spawn_message(honest[97 * mid], proto, mid=mid,
                                                rng=random.Random(mid)),
                                  proto, adversary=adv, keep_events=keep)
                runs.append((msg.first_receipt, msg.spread_ratio, msg.rng.getstate(),
                             msg.first_reach, msg.first_sent))
            assert runs[0] == runs[1]

    def test_other_queued_work_stays_on_the_heap(self, monkeypatch):
        graph = NetworkGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        proto = broadcast_all(graph)
        monkeypatch.setattr(proto, "flood", lambda *a: pytest.fail("flood ran"))
        msg = spawn_message(0, proto, rng=random.Random(0))
        msg.push(0.5, 0, 3, PHASE_BROADCAST, 0)  # a delivery beside the fanout
        run_message(msg, proto, Adversary(graph, AdversaryConfig(nodes=(2,))))
        assert msg.first_receipt == {0: 0.0, 1: 1.0, 2: 1.0, 3: 0.5}


class TestSpawn:
    def test_broadcast_spawn_fans_to_all_neighbors(self):
        graph = NetworkGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        proto = broadcast_all(graph)
        msg = spawn_message(0, proto, rng=random.Random(0))
        targets = sorted(e[3] for e in msg.queue)
        assert targets == [1, 2, 3]

    def test_stem_spawn_single_event(self):
        graph = gen_random_regular(20, 4, seed=0)
        cfg = ProtocolConfig(kind="dandelion", broadcast_probability=1e-9)
        proto = make_protocol(graph, cfg, seed=0)
        msg = spawn_message(5, proto, rng=random.Random(1))
        assert len(msg.queue) == 1
        assert msg.queue[0][4] == PHASE_STEM

    def test_out_of_range_originator(self):
        proto = broadcast_all(path_graph())
        with pytest.raises(ParameterError):
            spawn_message(7, proto, rng=random.Random(0))

    def test_isolated_originator(self):
        proto = broadcast_all(NetworkGraph(1, []))
        with pytest.raises(ParameterError):
            spawn_message(0, proto, rng=random.Random(0))


class TestSampleOriginator:
    def one_hot_graph(self):
        return NetworkGraph(3, [(0, 1), (1, 2)], node_weights=[1.0, 0.0, 0.0])

    def originators(self, graph, num_messages, seed, **kwargs):
        sim = Simulation(broadcast_all(graph), num_messages=num_messages,
                         seed=seed, **kwargs)
        return sim.run().originators

    def test_point_mass_weight(self):
        g = self.one_hot_graph()
        assert all(o == 0 for o in self.originators(g, 50, seed=0))

    def test_all_zero_weights_rejected(self):
        g = NetworkGraph(2, [(0, 1)], node_weights=[0.0, 0.0])
        with pytest.raises(ParameterError):
            self.originators(g, 1, seed=0)

    def test_overflowing_weight_sum_rejected(self):
        # every weight is finite, but their sum is not
        g = NetworkGraph(3, [(0, 1), (1, 2)], node_weights=[1e308] * 3)
        with pytest.raises(ParameterError):
            self.originators(g, 1, seed=0)

    def test_uniform_weights_uniform_frequencies(self):
        g = gen_random_regular(10, 4, seed=0)
        counts = [0] * 10
        for o in self.originators(g, 10000, seed=42):
            counts[o] += 1
        assert all(abs(c / 10000 - 0.1) < 0.02 for c in counts)

    def test_flag_off_ignores_weights(self):
        g = self.one_hot_graph()
        seen = set(self.originators(g, 200, seed=3, use_node_weights=False))
        assert seen == {0, 1, 2}


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(0, 6) == derive_seed(0, 6)
        assert derive_seed(0, 6) != derive_seed(0, 7)
        assert derive_seed(0, 6) != derive_seed(1, 6)
        assert derive_seed(0, 7, 1) != derive_seed(0, 7, 2)

    def test_fits_32_bits(self):
        assert 0 <= derive_seed(12345, 7, 99) < 2 ** 32

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError):
            derive_seed(-1, 6)


class TestSimulation:
    def test_identical_runs_for_same_seed(self):
        graph = assign_weights(gen_scale_free(100, 3, seed=2),
                               WeightGeneratorSpec(), seed=2)
        cfg = ProtocolConfig(kind="dandelion", broadcast_mode="sqrt",
                             broadcast_probability=0.5)
        adv_cfg = AdversaryConfig(ratio=0.1)

        def run_once():
            proto = make_protocol(graph, cfg, seed=4)
            adv = Adversary(graph, adv_cfg, seed=4)
            sim = Simulation(proto, adversary=adv, num_messages=20,
                             seed=7, keep_messages=True)
            return sim.run(), adv

        ra, aa = run_once()
        rb, ab = run_once()
        assert ra.originators == rb.originators
        assert ra.spread_ratios == rb.spread_ratios
        for ma, mb in zip(ra.messages, rb.messages):
            assert ma.first_receipt == mb.first_receipt
        for mid in range(len(ra.originators)):
            assert aa.observations(mid) == ab.observations(mid)

    def test_different_seeds_differ(self):
        graph = assign_weights(gen_scale_free(100, 3, seed=2),
                               WeightGeneratorSpec(), seed=2)
        proto = broadcast_all(graph)
        a = Simulation(proto, num_messages=20, seed=1).run()
        b = Simulation(proto, num_messages=20, seed=2).run()
        assert a.originators != b.originators

    def test_originators_honest(self):
        graph = gen_random_regular(20, 4, seed=0)
        proto = broadcast_all(graph)
        adv = Adversary(graph, AdversaryConfig(nodes=tuple(range(10))))
        run = Simulation(proto, adversary=adv, num_messages=50,
                         seed=0).run()
        assert not set(run.originators) & set(adv.nodes)

    def test_reused_adversary_harmless(self):
        # each run owns its keys: a second run on the same adversary neither
        # changes the first run's results nor inherits its observations
        graph = gen_random_regular(20, 4, seed=0)
        proto = broadcast_all(graph)
        adv = Adversary(graph, AdversaryConfig(ratio=0.2), seed=0)
        first = Simulation(proto, adversary=adv, num_messages=5, seed=0).run()
        before = {e: evaluate(first, e) for e in ESTIMATORS}
        second = Simulation(proto, adversary=adv, num_messages=3, seed=1).run()
        assert {e: evaluate(first, e) for e in ESTIMATORS} == before
        fresh = Adversary(graph, AdversaryConfig(ratio=0.2), seed=0)
        alone = Simulation(proto, adversary=fresh, num_messages=3, seed=1).run()
        assert second.keys == alone.keys
        for e in ESTIMATORS:
            assert evaluate(second, e) == evaluate(alone, e)

    def test_observations_align_with_originators(self):
        graph = gen_random_regular(20, 4, seed=0)
        adv = Adversary(graph, AdversaryConfig(ratio=0.2), seed=0)
        kept = Simulation(broadcast_all(graph), adversary=adv, num_messages=4,
                          keep_messages=True).run()
        logs = [adv.observations(mid) for mid in range(4)]
        assert kept.keys == [fold_log(log, graph, adv.nodes) for log in logs]
        run = Simulation(broadcast_all(graph), adversary=adv, num_messages=4).run()
        assert len(run.keys) == len(run.originators) == 4
        assert run.keys == kept.keys
        # a run without kept messages opens fresh logs and fills none
        assert [adv.observations(mid) for mid in range(4)] == [[]] * 4
        assert Simulation(broadcast_all(graph), num_messages=4).run().keys == []

    def test_adversary_outside_protocol_graph_rejected(self):
        small = broadcast_all(gen_random_regular(20, 4, seed=0))
        adv = Adversary(gen_random_regular(100, 6, seed=0), AdversaryConfig(ratio=0.5),
                        seed=0)
        with pytest.raises(ParameterError):
            Simulation(small, adversary=adv, num_messages=5)

    def test_adversary_placed_on_another_graph_rejected(self):
        # same size, so every node id is in range, but a different network
        proto = broadcast_all(gen_random_regular(100, 6, seed=1))
        adv = Adversary(gen_random_regular(100, 6, seed=0),
                        AdversaryConfig(ratio=0.1, placement="degree"))
        with pytest.raises(ParameterError):
            Simulation(proto, adversary=adv, num_messages=20)

    def test_all_nodes_adversarial_rejected(self):
        graph = path_graph()
        proto = broadcast_all(graph)
        with pytest.raises(ParameterError):
            Adversary(graph, AdversaryConfig(nodes=(0, 1, 2)))

    def test_zero_messages_rejected(self):
        graph = path_graph()
        with pytest.raises(ParameterError):
            Simulation(broadcast_all(graph), num_messages=0)


class TestShortestPathOracle:
    def test_csr_dijkstra_matches_networkx(self):
        for seed in range(5):
            graph = assign_weights(gen_scale_free(60, 2, seed=seed),
                                   WeightGeneratorSpec(), seed=seed)
            row = dijkstra(graph.csr_latency_matrix(), indices=0)
            ref = nx.single_source_dijkstra_path_length(
                graph.to_networkx(), 0, weight="latency")
            for v in range(graph.n):
                assert row[v] == pytest.approx(ref[v], abs=1e-9)
