"""Adversarial observers: placement, observation logs, optional censorship.

Adversaries control a fixed set of nodes. They never originate messages. The
engine folds every delivery at those nodes into the message's keys (see
engine.run_message), and logs it too when the run keeps its events; under an
active adversary it then censors the delivery (the protocol callback is
skipped, so the message silently stops at that node). Each log entry is the
engine's own delivery tuple (arrival, sender, observer, phase), the layout of
a kept message's events. A run keeps its messages' keys, so one adversary can
watch any number of runs. Deanonymization itself lives in the estimators
module; this one only collects the raw material.
"""

from dataclasses import dataclass

import numpy as np

from .engine import derive_seed
from .errors import ParameterError
from .graphs import get_central_nodes

PLACEMENTS = ("random", "degree", "betweenness")


@dataclass
class AdversaryConfig:
    """Which nodes the adversary holds and how it behaves.

    Exactly one of ratio (fraction of nodes, placed per `placement`) or
    `nodes` (an explicit list) must be given. protocol_aware lets the
    estimators use knowledge of the anonymity graph.
    """

    ratio: float = None
    nodes: tuple = None
    placement: str = "random"
    active: bool = False
    protocol_aware: bool = False

    def __post_init__(self):
        if (self.ratio is None) == (self.nodes is None):
            raise ParameterError("give exactly one of adversary ratio or explicit nodes")
        if self.ratio is not None and not (0.0 <= self.ratio < 1.0):
            raise ParameterError(f"adversary ratio must lie in [0, 1), got {self.ratio}")
        if self.placement not in PLACEMENTS:
            raise ParameterError(f"unknown adversary placement {self.placement!r}")
        if self.nodes is not None:
            self.nodes = tuple(self.nodes)


def adversary_count(ratio, n):
    """Number of adversarial nodes for a ratio: floor(ratio * n)."""
    # small epsilon guards floor() against downward float drift (e.g. 0.2*115)
    return int(ratio * n + 1e-9)


def check_adversary_nodes(nodes, n):
    """Raise ParameterError unless explicit nodes are ids of n nodes and leave one honest."""
    nodes = sorted(set(nodes))
    for u in nodes:
        if not (0 <= u < n):
            raise ParameterError(f"adversarial node {u} out of range for n={n}")
    if len(nodes) >= n:
        raise ParameterError("adversary cannot hold every node")


def place_adversaries(graph, config, seed=0):
    """Pick the adversarial node set; returns a sorted tuple of node ids."""
    if config.nodes is not None:
        nodes = sorted(set(int(u) for u in config.nodes))
        check_adversary_nodes(nodes, graph.n)
        return tuple(nodes)
    count = adversary_count(config.ratio, graph.n)
    if config.placement == "random":
        rng = np.random.default_rng(derive_seed(seed, 8))
        picked = rng.permutation(graph.n)[:count]
        return tuple(sorted(int(u) for u in picked))
    return tuple(sorted(get_central_nodes(graph, count, metric=config.placement)))


class Adversary:
    """Holds the adversarial nodes and the latest observation log per message id.

    graph is the network the nodes were placed on; a simulation accepts the
    adversary only on that same graph object. max_latency is the longest
    link at an adversarial node (0.0 without nodes): a delivery observed at
    time t was sent at t - max_latency or later.
    """

    def __init__(self, graph, config, seed=0):
        self.graph = graph
        self.active = config.active
        self.protocol_aware = config.protocol_aware
        self.nodes = frozenset(place_adversaries(graph, config, seed))
        self.max_latency = max((l for a in self.nodes for _, l in graph.adj[a]), default=0.0)
        self._logs = {}

    def open_log(self, message_id):
        """A fresh empty log for one message's run, replacing any earlier log
        of that id; with keep_events the engine appends each delivery at an
        adversarial node."""
        log = self._logs[message_id] = []
        return log

    def observations(self, message_id):
        """The (arrival, sender, observer, phase) deliveries of the latest run
        of one message, in delivery order; empty unless that run kept its
        events."""
        return self._logs.get(message_id, [])

    def __repr__(self):
        kind = "active" if self.active else "passive"
        return f"Adversary({kind}, nodes={len(self.nodes)})"
