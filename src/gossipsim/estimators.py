"""Originator estimators: turn one message's observations into a candidate
distribution over honest nodes.

The engine folds each message's observations into its keys (see
engine.run_message). A circuit-phase delivery is unlinkable: the observer
holds an opaque layered payload and cannot tie the sender to the message, so
neither key counts it, nor a delivery from the adversary's own nodes. Each
base estimator returns one sender, or None. first-reach picks the sender of
the earliest arrival, first-sent subtracts the known channel latency from
every arrival and picks the sender with the earliest estimated send time;
ties go to the lowest sender. A protocol-aware adversary then spreads that
point mass backward over the anonymity graph: the likelihood that the message
started k stem hops behind the presumed broadcaster is geometric in k under
the protocol's own coin. A distribution is a {node: probability} dict.
"""

import numpy as np

from .errors import ParameterError

_EMPTY = frozenset()


def estimate_first_reach(keys):
    """Sender of the earliest arrival, from a message's (first_reach, first_sent)."""
    first_reach, _ = keys
    return None if first_reach is None else first_reach[1]


def estimate_first_sent(keys):
    """Sender of the earliest send time (arrival minus the latency the observer
    knows for its link), from a message's (first_reach, first_sent)."""
    _, first_sent = keys
    return None if first_sent is None else first_sent[1]


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
