"""End-to-end acceptance checks.

Each numbered test covers one headline requirement of the simulator at its
stated tolerance; running pytest -v yields one pass/fail line per requirement.
The sweep fixtures mirror the shipped figure presets (same axes, fewer
messages per seed) and are shared across tests, so the whole file stays under
a few minutes of runtime.
"""

import csv
import math
import random
import time
from pathlib import Path

import pytest
from scipy.sparse.csgraph import dijkstra

from gossipsim.adversary import Adversary, AdversaryConfig
from gossipsim.cli import main
from gossipsim.engine import (PHASE_CIRCUIT, Simulation, run_message,
                             spawn_message)
from gossipsim.evaluator import evaluate
from gossipsim.experiment import ExperimentConfig, run_seed
from gossipsim.graphs import (WeightGeneratorSpec, assign_weights,
                              gen_random_regular, gen_scale_free)
from gossipsim.protocols import ProtocolConfig, make_protocol

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs" / "paper"

SEEDS = tuple(range(10))
RATIOS = (0.05, 0.1, 0.2)
PROBS = (0.5, 0.25, 0.125)
MESSAGES = 20

# (protocol, broadcast_probability) series of the main comparison grids;
# probability is None where the protocol has no stem coin
SERIES = ([("broadcast", None)]
          + [("dandelion", p) for p in PROBS]
          + [("dandelion_pp", p) for p in PROBS]
          + [("onion", None)])

STEM_SERIES = [s for s in SERIES if s[0] in ("dandelion", "dandelion_pp")]


def _sweep(**overrides):
    base = dict(
        topology_kinds=("regular",), n=1000, k=50, m=5,
        protocol_kinds=("broadcast", "dandelion", "dandelion_pp", "onion"),
        broadcast_modes=("sqrt",),
        broadcast_probabilities=PROBS,
        adversary_ratios=RATIOS,
        adversary_placements=("random",),
        adversary_actives=(False,),
        protocol_aware=True,
        estimators=("first_reach", "first_sent"),
        num_messages=MESSAGES,
        seeds=SEEDS,
    )
    base.update(overrides)
    return ExperimentConfig(**base).validate()


def _run_rows(cfg):
    rows = []
    for seed in cfg.seeds:
        rows.extend(run_seed(cfg, seed))
    return rows


def rows_where(rows, **filters):
    out = [r for r in rows if all(r[k] == v for k, v in filters.items())]
    assert out, f"no rows match {filters}"
    return out


def metric_mean(rows, metric, **filters):
    vals = [r[metric] for r in rows_where(rows, **filters)]
    return sum(vals) / len(vals)


def metric_se(rows, metric, **filters):
    vals = [r[metric] for r in rows_where(rows, **filters)]
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    return math.sqrt(var / len(vals))


@pytest.fixture(scope="session")
def grid_regular():
    cfg = _sweep()
    start = time.monotonic()
    rows = _run_rows(cfg)
    return rows, time.monotonic() - start


@pytest.fixture(scope="session")
def grid_scale_free():
    return _run_rows(_sweep(topology_kinds=("scale_free",)))


@pytest.fixture(scope="session")
def grid_fanout_all():
    return _run_rows(_sweep(protocol_kinds=("broadcast",),
                            broadcast_modes=("all",),
                            adversary_ratios=(0.1,),
                            estimators=("first_sent",)))


def _passive_half(rows):
    """The rows of the passive cells of a sweep over p = 0.5 and both actives."""
    return [r for r in rows if r["broadcast_probability"] in (0.5, None)]


@pytest.fixture(scope="session")
def grid_active_passive(grid_regular):
    # the passive cells are grid_regular's: a cell's rows do not depend on the
    # other cells of its sweep (test_cell_rows_do_not_depend_on_the_sweep)
    return _passive_half(grid_regular[0]) + _run_rows(
        _sweep(broadcast_probabilities=(0.5,), adversary_actives=(True,)))


def test_cell_rows_do_not_depend_on_the_sweep():
    """The passive rows of an active-and-passive sweep at p = 0.5 equal the
    matching rows of a passive sweep over every p (reduced size)."""
    small = dict(n=200, k=10, num_messages=4, seeds=(0, 1))
    both = _run_rows(_sweep(broadcast_probabilities=(0.5,),
                            adversary_actives=(False, True), **small))
    passive = _run_rows(_sweep(**small))

    def key(r):
        return (r["protocol"], str(r["broadcast_probability"]), r["adversary_ratio"],
                r["estimator"], r["seed"])

    expected = sorted(_passive_half(passive), key=key)
    assert sorted((r for r in both if not r["adversary_active"]), key=key) == expected
    assert len(expected) == 12 * 2 * 2  # cells x seeds x estimators


@pytest.fixture(scope="session")
def grid_censorship():
    return _run_rows(_sweep(topology_kinds=("scale_free",),
                            protocol_kinds=("dandelion", "dandelion_pp"),
                            broadcast_modes=("all",),
                            broadcast_probabilities=(0.5,),
                            adversary_placements=("random", "degree"),
                            adversary_actives=(False, True),
                            estimators=("first_sent",),
                            num_messages=30))


def test_requirement_01_flood_times_match_shortest_paths():
    """Broadcast-to-all first-receipt times equal weighted shortest-path
    distances from the originator on 50 random graphs, in under 10 seconds."""
    start = time.monotonic()
    rng = random.Random(0)
    for trial in range(50):
        n = rng.randrange(20, 201)
        if trial % 2 == 0:
            graph = gen_random_regular(n, rng.choice([4, 6, 8]), seed=trial)
        else:
            graph = gen_scale_free(n, rng.choice([2, 3]), seed=trial)
        graph = assign_weights(graph, WeightGeneratorSpec(), seed=trial)
        proto = make_protocol(graph, ProtocolConfig(kind="broadcast",
                                                    broadcast_mode="all"))
        adv = Adversary(graph, AdversaryConfig(ratio=0.1, active=False),
                        seed=trial)
        origin = rng.randrange(graph.n)
        msg = run_message(spawn_message(origin, proto, rng=random.Random(0)), proto,
                          adversary=adv)
        assert msg.spread_ratio == 1.0
        distances = dijkstra(graph.csr_latency_matrix(), indices=origin)
        for v in range(graph.n):
            assert abs(msg.first_receipt[v] - distances[v]) < 1e-9
    assert time.monotonic() - start < 10.0


def test_requirement_02_estimator_ordering_and_hit_anchors(grid_regular):
    """On the 1000-node 50-regular grid, first-sent is at least as strong as
    first-reach everywhere, and the two hit-ratio anchors (broadcast ~0.5,
    single-relay stem p=0.5 ~0.3 at f=0.1) reproduce within +-0.1."""
    rows, elapsed = grid_regular
    assert elapsed < 300.0
    for proto, p in SERIES:
        for f in RATIOS:
            for metric in ("hit_ratio", "inverse_rank", "ndcg"):
                sent = metric_mean(rows, metric, protocol=proto,
                                   broadcast_probability=p, adversary_ratio=f,
                                   estimator="first_sent")
                reach = metric_mean(rows, metric, protocol=proto,
                                    broadcast_probability=p, adversary_ratio=f,
                                    estimator="first_reach")
                assert sent >= reach - 1e-12, (proto, p, f, metric)
    hit_broadcast = metric_mean(rows, "hit_ratio", protocol="broadcast",
                                adversary_ratio=0.1, estimator="first_sent")
    hit_stem = metric_mean(rows, "hit_ratio", protocol="dandelion",
                           broadcast_probability=0.5, adversary_ratio=0.1,
                           estimator="first_sent")
    assert abs(hit_broadcast - 0.5) <= 0.1
    assert abs(hit_stem - 0.3) <= 0.1


def test_requirement_03_inverse_rank_anchor_and_probability_effect(
        grid_regular, grid_scale_free):
    """Single-relay stem routing at p=0.5, f=0.2 ranks the originator around
    second place (inverse rank 0.5 +- 0.1 on the scale-free arm of the
    topology grid), and p=0.125 gives the lowest inverse rank within each
    stem family at every ratio on both topologies."""
    inv = metric_mean(grid_scale_free, "inverse_rank", protocol="dandelion",
                      broadcast_probability=0.5, adversary_ratio=0.2,
                      estimator="first_sent")
    assert abs(inv - 0.5) <= 0.1
    for rows in (grid_regular[0], grid_scale_free):
        for family in ("dandelion", "dandelion_pp"):
            for f in RATIOS:
                by_p = {p: metric_mean(rows, "inverse_rank", protocol=family,
                                       broadcast_probability=p,
                                       adversary_ratio=f,
                                       estimator="first_sent")
                        for p in PROBS}
                assert by_p[0.125] < by_p[0.25], (family, f, by_p)
                assert by_p[0.125] < by_p[0.5], (family, f, by_p)


def test_requirement_04_entropy_ordering(grid_regular):
    """Mean candidate entropy: two-relay stem > single-relay stem > 0 at every
    (p, f), and exactly zero for broadcast and circuit routing."""
    rows, _ = grid_regular
    for estimator in ("first_reach", "first_sent"):
        for p in PROBS:
            for f in RATIOS:
                two = metric_mean(rows, "entropy", protocol="dandelion_pp",
                                  broadcast_probability=p, adversary_ratio=f,
                                  estimator=estimator)
                one = metric_mean(rows, "entropy", protocol="dandelion",
                                  broadcast_probability=p, adversary_ratio=f,
                                  estimator=estimator)
                assert two > one > 0.0, (estimator, p, f, two, one)
        for proto in ("broadcast", "onion"):
            for f in RATIOS:
                assert metric_mean(rows, "entropy", protocol=proto,
                                   broadcast_probability=None,
                                   adversary_ratio=f,
                                   estimator=estimator) == 0.0


def test_requirement_05_fanout_mode_effect(grid_regular, grid_fanout_all):
    """Broadcast-to-all makes the first-sent adversary near certain
    (inverse rank > 0.9); sqrt fanout is materially weaker (gap >= 0.2)."""
    inv_all = metric_mean(grid_fanout_all, "inverse_rank",
                          protocol="broadcast", adversary_ratio=0.1,
                          estimator="first_sent")
    inv_sqrt = metric_mean(grid_regular[0], "inverse_rank",
                           protocol="broadcast", adversary_ratio=0.1,
                           estimator="first_sent")
    assert inv_all > 0.9
    assert inv_all - inv_sqrt >= 0.2


def test_requirement_06_censorship_robustness(grid_censorship):
    """Active adversaries reduce spread for stem protocols while passive ones
    keep it at exactly 1.0 (mode=all); degree-targeted placement censors at
    least as hard as random; the censored-message fraction for single-relay
    stem routing matches the truncated-geometric closed form within +-0.03."""
    rows = grid_censorship
    for proto in ("dandelion", "dandelion_pp"):
        for f in RATIOS:
            for placement in ("random", "degree"):
                passive = metric_mean(rows, "message_spread_ratio",
                                      protocol=proto, adversary_ratio=f,
                                      adversary_placement=placement,
                                      adversary_active=False)
                active = metric_mean(rows, "message_spread_ratio",
                                     protocol=proto, adversary_ratio=f,
                                     adversary_placement=placement,
                                     adversary_active=True)
                assert passive == 1.0, (proto, f, placement)
                assert active <= 1.0 - 0.01, (proto, f, placement)
            targeted = metric_mean(rows, "message_spread_ratio", protocol=proto,
                                   adversary_ratio=f, adversary_active=True,
                                   adversary_placement="degree")
            untargeted = metric_mean(rows, "message_spread_ratio",
                                     protocol=proto, adversary_ratio=f,
                                     adversary_active=True,
                                     adversary_placement="random")
            assert targeted <= untargeted, (proto, f)

    # analytic oracle: a message dies iff an active adversary sits on its stem;
    # with stem length H geometric(p) truncated at the cap and honest-blind
    # relay choice, P(censored) = sum_k P(H=k) * (1 - (1-f)^k), which closes to
    # f(1-p)(1-q^cap)/(1-q) with q = (1-p)(1-f)
    p, f, cap = 0.4, 0.15, 40
    q = (1.0 - p) * (1.0 - f)
    expected = f * (1.0 - p) * (1.0 - q ** cap) / (1.0 - q)
    censored = 0
    total = 0
    for seed in SEEDS:
        graph = assign_weights(gen_random_regular(200, 20, seed),
                               WeightGeneratorSpec(), seed)
        proto = make_protocol(
            graph, ProtocolConfig(kind="dandelion", broadcast_mode="sqrt",
                                  broadcast_probability=p, stem_cap=cap),
            seed)
        adv = Adversary(graph, AdversaryConfig(ratio=f, active=True), seed)
        run = Simulation(proto, adversary=adv, num_messages=250,
                         seed=seed).run()
        censored += sum(1 for s in run.spread_ratios if s < 0.5)
        total += len(run.spread_ratios)
    assert total >= 2000
    assert abs(censored / total - expected) <= 0.03


def test_requirement_07_active_equals_passive_deanonymization(
        grid_active_passive):
    """Censoring does not change adversary accuracy: active and passive means
    agree within two combined standard errors (with a 0.01 floor for cells
    whose seed variance is degenerate) for every protocol/ratio/estimator."""
    rows = grid_active_passive
    for proto, p in [("broadcast", None), ("dandelion", 0.5),
                     ("dandelion_pp", 0.5), ("onion", None)]:
        for f in RATIOS:
            for estimator in ("first_reach", "first_sent"):
                for metric in ("hit_ratio", "inverse_rank", "ndcg"):
                    sel = dict(protocol=proto, broadcast_probability=p,
                               adversary_ratio=f, estimator=estimator)
                    gap = abs(
                        metric_mean(rows, metric, adversary_active=True, **sel)
                        - metric_mean(rows, metric, adversary_active=False, **sel))
                    se = math.hypot(
                        metric_se(rows, metric, adversary_active=True, **sel),
                        metric_se(rows, metric, adversary_active=False, **sel))
                    assert gap <= max(2.0 * se, 0.01), (proto, f, estimator,
                                                        metric, gap, se)


def test_requirement_08_scale_free_shields_originators(grid_regular,
                                                       grid_scale_free):
    """First-sent adversary metrics on the scale-free topology never exceed
    those on the denser 50-regular graph at the same ratio (f in {0.1, 0.2},
    flooding and stem protocols)."""
    reg = grid_regular[0]
    for proto, p in SERIES:
        if proto == "onion":
            continue
        for f in (0.1, 0.2):
            for metric in ("hit_ratio", "inverse_rank", "ndcg"):
                sel = dict(protocol=proto, broadcast_probability=p,
                           adversary_ratio=f, estimator="first_sent")
                sparse = metric_mean(grid_scale_free, metric, **sel)
                dense = metric_mean(reg, metric, **sel)
                assert sparse <= dense, (proto, p, f, metric, sparse, dense)


def test_requirement_09_determinism_and_quickstart_values(tmp_path, capsys):
    """The quickstart preset run twice through the CLI yields byte-identical
    CSVs, and its aggregate metrics land within +-0.15 of the documented
    values (hit 0.2, inverse rank 0.35, entropy 2.05, ndcg 0.48, spread 1.0)."""
    config = CONFIG_DIR / "quickstart.cfg"
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        out.mkdir()
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("quickstart.csv", "quickstart_aggregate.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    with open(out_a / "quickstart_aggregate.csv", newline="") as fh:
        agg = list(csv.DictReader(fh))
    assert len(agg) == 1
    row = agg[0]
    targets = {"hit_ratio_mean": 0.2, "inverse_rank_mean": 0.35,
               "entropy_mean": 2.05, "ndcg_mean": 0.48,
               "message_spread_ratio_mean": 1.0}
    for column, target in targets.items():
        assert abs(float(row[column]) - target) <= 0.15, (column, row[column])


def _independent_report(graph, proto, adv, run, estimator):
    """Recompute all five metrics from the raw logs in plain Python."""
    num_honest = graph.n - len(adv.nodes)
    aware = adv.protocol_aware and getattr(proto, "anonymity", None) is not None
    hits = inv = ndcg = ent = spread = 0.0
    for mid, (origin, msg) in enumerate(zip(run.originators, run.messages)):
        reached = {msg.originator} | {e[2] for e in msg.events}
        spread += len(reached) / graph.n
        probs = _independent_probs(graph, proto, adv, mid, estimator, aware)
        if probs is None:
            rank = (num_honest + 1) / 2
            bits = math.log2(num_honest)
        else:
            bits = -sum(q * math.log2(q) for q in probs.values())
            w = probs.get(origin, 0.0)
            if w > 0.0:
                higher = sum(1 for q in probs.values() if q > w)
                tied = sum(1 for q in probs.values() if q == w)
                rank = higher + (tied + 1) / 2
            else:
                rank = len(probs) + (num_honest - len(probs) + 1) / 2
        if rank == 1.0:
            hits += 1
        inv += 1.0 / rank
        ndcg += 1.0 / math.log2(1.0 + rank)
        ent += bits
    m = len(run.originators)
    return {"hit_ratio": hits / m, "inverse_rank": inv / m, "entropy": ent / m,
            "ndcg": ndcg / m, "message_spread_ratio": spread / m}


def _independent_probs(graph, proto, adv, mid, estimator, aware):
    candidates = []
    for arrival, sender, observer, phase in adv.observations(mid):
        # a circuit hop carries an opaque layered payload: not linkable
        if phase == PHASE_CIRCUIT or sender in adv.nodes:
            continue
        when = arrival
        if estimator == "first_sent":
            when -= graph.latency(sender, observer)
        candidates.append((when, sender))
    if not candidates:
        return None
    target = min(candidates)[1]
    if not aware:
        return {target: 1.0}
    # forward random-walk weights: candidate u scores sum over k <= cap of
    # (1-p)^k times the chance its stem walk sits on the target after k hops
    p, cap, anon = proto.p, proto.stem_cap, proto.anonymity
    weights = {}
    for u in range(graph.n):
        mass = {u: 1.0}
        score = 0.0
        for k in range(cap + 1):
            score += ((1.0 - p) ** k) * mass.get(target, 0.0)
            if k == cap:
                break
            nxt = {}
            for node, m in mass.items():
                succ = sorted({int(anon.s0[node]), int(anon.s1[node])})
                share = m / len(succ)
                for s in succ:
                    nxt[s] = nxt.get(s, 0.0) + share
            mass = nxt
        if u not in adv.nodes and score > 0.0:
            weights[u] = score
    z = sum(weights.values())
    return {u: w / z for u, w in weights.items()}


def test_requirement_10_metric_oracle():
    """A from-scratch recomputation of all five metrics from the raw
    observation and delivery logs agrees with the evaluator to 1e-9 on
    10-node, 20-message instances."""
    graph = assign_weights(gen_random_regular(10, 4, seed=21),
                           WeightGeneratorSpec(), seed=21)
    cases = [
        ("broadcast", "sqrt", "first_reach", False),
        ("broadcast", "all", "first_sent", False),
        ("dandelion", "all", "first_sent", True),
        ("dandelion_pp", "sqrt", "first_sent", True),
    ]
    for kind, mode, estimator, aware in cases:
        cfg = ProtocolConfig(kind=kind, broadcast_mode=mode,
                             broadcast_probability=0.4)
        proto = make_protocol(graph, cfg, seed=3)
        adv = Adversary(graph, AdversaryConfig(ratio=0.2, protocol_aware=aware),
                        seed=3)
        run = Simulation(proto, adversary=adv, num_messages=20, seed=5,
                         keep_messages=True).run()
        report = evaluate(run, estimator).as_dict()
        oracle = _independent_report(graph, proto, adv, run, estimator)
        for metric, value in oracle.items():
            assert abs(report[metric] - value) <= 1e-9, (kind, estimator,
                                                         metric)
