"""Originator estimators: turn one message's observations into a candidate
distribution over honest nodes.

Two base estimators give a point mass: first-reach picks the sender of the
earliest linkable observation, first-sent subtracts the known channel latency
from every observation and picks the sender with the earliest estimated send
time. A protocol-aware adversary then spreads that mass backward over the
anonymity graph: the likelihood that the message started k stem hops behind
the presumed broadcaster is geometric in k under the protocol's own coin.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

_EMPTY = frozenset()


class NoObservation(Exception):
    """Raised when a message produced no usable (linkable, honest-sender)
    observation; the evaluator records None, which rank_of scores as the
    mid-rank of a uniform guess over honest nodes."""

    def __init__(self, message_id=None):
        super().__init__(f"no usable observation for message {message_id}")
        self.message_id = message_id


@dataclass
class CandidateDistribution:
    """Normalized probabilities over candidate originators (support only).

    probs holds strictly positive entries; nodes outside it carry zero mass.
    """

    message_id: int
    probs: dict = field(default_factory=dict)

    def top(self):
        """Highest-probability candidate; ties broken by lowest node id."""
        if not self.probs:
            raise ParameterError("empty candidate distribution")
        return min(self.probs, key=lambda u: (-self.probs[u], u))

    def entropy_bits(self):
        return -sum(p * math.log2(p) for p in self.probs.values() if p > 0.0)


def _point_mass(message_id, node):
    return CandidateDistribution(message_id, {node: 1.0})


def estimate_first_reach(observations, exclude=_EMPTY, message_id=None):
    """Point mass on the sender of the earliest linkable observation.

    Ties on arrival break to the lowest sender id. Senders in `exclude`
    (the adversary's own nodes) are never candidates.
    """
    best = None
    for o in observations:
        if not o.linkable or o.sender in exclude:
            continue
        key = (o.arrival, o.sender)
        if best is None or key < best:
            best = key
        if message_id is None:
            message_id = o.message_id
    if best is None:
        raise NoObservation(message_id)
    return _point_mass(message_id, best[1])


def estimate_first_sent(observations, graph, exclude=_EMPTY, message_id=None):
    """Point mass on the sender with the earliest estimated send time.

    Send time is arrival minus the latency of the (sender, observer) channel,
    which the observer knows for its own links, so every linkable observation
    must come over an edge (as engine deliveries do); ParameterError otherwise.
    Ties break to the lowest sender id.
    """
    adj = graph.adj
    best = None
    for mid, observer, sender, arrival, _phase, linkable in observations:
        if not linkable or sender in exclude:
            continue
        row = adj[observer]  # not the sender's: the few observer rows stay in cache
        i = bisect_left(row, (sender,))
        if i == len(row) or row[i][0] != sender:
            raise ParameterError(f"observer {observer} has no edge to sender {sender}")
        key = (arrival - row[i][1], sender)
        if best is None or key < best:
            best = key
        if message_id is None:
            message_id = mid
    if best is None:
        raise NoObservation(message_id)
    return _point_mass(message_id, best[1])


def refine_dandelion(base, anonymity, p, exclude=_EMPTY, stem_cap=40):
    """Spread a base estimate backward over the anonymity graph.

    Let v be the base top candidate (presumed first broadcaster or stem
    contact). A node u whose stem path reaches v in k hops would have produced
    this picture with probability proportional to (1-p)^k, the chance of k
    consecutive "keep relaying" coins; with two stored relays each hop is
    additionally a 1/2 relay pick. Weights over all paths of length <= stem_cap
    are summed, v itself counts as k = 0, and the result is normalized over
    non-adversarial candidates.
    """
    if not (0.0 < p <= 1.0):
        raise ParameterError(f"broadcast probability must lie in (0, 1], got {p}")
    if stem_cap < 0:
        raise ParameterError(f"stem cap must be >= 0, got {stem_cap}")
    v = base.top()
    n = anonymity.n
    s0 = anonymity.s0
    s1 = anonymity.s1
    two_relay = anonymity.kind == "dandelion_pp"

    level = np.zeros(n)
    level[v] = 1.0
    total = level.copy()
    for _ in range(stem_cap):
        if two_relay:
            # degree-1 fallback nodes store s1 == s0, so the average is exact
            level = (0.5 * (1.0 - p)) * (level[s0] + level[s1])
        else:
            level = (1.0 - p) * level[s0]
        if not level.any():
            break
        total += level

    if exclude:
        total[list(exclude)] = 0.0
    mass = total.sum()
    if mass <= 0.0:
        raise NoObservation(base.message_id)
    support = np.nonzero(total)[0]
    probs = {int(u): float(total[u] / mass) for u in support}
    return CandidateDistribution(base.message_id, probs)
