"""Originator estimators: turn one message's observations into a candidate
distribution over honest nodes.

Observations are the adversary's log entries, the engine's delivery tuples
(arrival, sender, observer, phase). A circuit-phase delivery is unlinkable:
the observer holds an opaque layered payload and cannot tie the sender to
the message, so both base estimators skip it. Each returns one sender, or
None when no linkable observation has an honest sender. first-reach picks the
sender of the earliest linkable observation, first-sent subtracts the known
channel latency from every observation and picks the sender with the earliest
estimated send time. A protocol-aware adversary then spreads that point mass
backward over the anonymity graph: the likelihood that the message started k
stem hops behind the presumed broadcaster is geometric in k under the
protocol's own coin. A distribution is a {node: probability} dict.
"""

from bisect import bisect_left

import numpy as np

from .engine import PHASE_CIRCUIT
from .errors import ParameterError

_EMPTY = frozenset()


def estimate_first_reach(observations, exclude=_EMPTY):
    """Sender of the earliest linkable observation, or None.

    Ties on arrival break to the lowest sender id. Senders in `exclude`
    (the adversary's own nodes) are never candidates.
    """
    first = min((o for o in observations
                 if o[3] != PHASE_CIRCUIT and o[1] not in exclude), default=None)
    return None if first is None else first[1]


def estimate_first_sent(observations, graph, exclude=_EMPTY):
    """Sender with the earliest estimated send time, or None.

    Send time is arrival minus the latency of the (sender, observer) channel,
    which the observer knows for its own links, so every linkable observation
    must come over an edge (as engine deliveries do); ParameterError otherwise.
    Ties break to the lowest sender id.
    """
    adj = graph.adj
    best = None
    for arrival, sender, observer, phase in observations:
        if phase == PHASE_CIRCUIT or sender in exclude:
            continue
        row = adj[observer]  # not the sender's: the few observer rows stay in cache
        i = bisect_left(row, (sender,))
        if i == len(row) or row[i][0] != sender:
            raise ParameterError(f"observer {observer} has no edge to sender {sender}")
        key = (arrival - row[i][1], sender)
        if best is None or key < best:
            best = key
    return None if best is None else best[1]


def refine_dandelion(v, anonymity, p, exclude=_EMPTY, stem_cap=40):
    """Spread a base estimate v backward over the anonymity graph.

    v is the base estimator's node (presumed first broadcaster or stem
    contact). A node u whose stem path reaches v in k hops would have produced
    this picture with probability proportional to (1-p)^k, the chance of k
    consecutive "keep relaying" coins, times the chance of the k relay picks:
    each hop takes s0[u] or s1[u] with 1/2 each. A one-relay node stores its
    relay in both, and for it (0.5 * q) * (x + x) rounds exactly as q * x, so
    single-relay weights equal the plain (1-p)^k recursion bit for bit.
    Weights over all paths of length <= stem_cap are summed, v itself counts
    as k = 0, and the result is normalized over non-adversarial candidates.
    Returns {node: probability} over the nodes of positive mass, in node
    order, or None when every candidate is excluded.
    """
    if not (0.0 < p <= 1.0):
        raise ParameterError(f"broadcast probability must lie in (0, 1], got {p}")
    if stem_cap < 0:
        raise ParameterError(f"stem cap must be >= 0, got {stem_cap}")
    n = anonymity.n
    s0 = anonymity.s0
    s1 = anonymity.s1

    level = np.zeros(n)
    level[v] = 1.0
    total = level.copy()
    for _ in range(stem_cap):
        level = (0.5 * (1.0 - p)) * (level[s0] + level[s1])
        if not level.any():
            break
        total += level

    if exclude:
        total[list(exclude)] = 0.0
    mass = total.sum()
    if mass <= 0.0:
        return None
    return {int(u): float(total[u] / mass) for u in np.nonzero(total)[0]}
