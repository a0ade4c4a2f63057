"""Deanonymization metrics: rank the true originator inside each candidate
distribution and aggregate over a batch of messages.

A candidate distribution is a {node: probability} dict holding only nodes of
positive mass, or None for a message with no usable observation.

Ranks are 1-based. Tied probabilities share their mid-rank, and an originator
the adversary assigned zero mass gets the mid-rank of the whole zero tail, so
an unobserved message is exactly as bad as a uniform guess. A hit is a strict
rank of 1 (an untied top pick).
"""

import math
from dataclasses import dataclass

from .errors import ParameterError
from .estimators import estimate_first_reach, estimate_first_sent, refine_dandelion

ESTIMATORS = ("first_reach", "first_sent")


@dataclass
class EvaluationReport:
    """Batch metrics for one estimator over one simulation run."""

    estimator: str
    num_messages: int
    num_unobserved: int
    hit_ratio: float
    inverse_rank: float
    entropy: float
    ndcg: float
    message_spread_ratio: float

    def as_dict(self):
        return {
            "estimator": self.estimator,
            "num_msg": self.num_messages,
            "num_unobserved": self.num_unobserved,
            "hit_ratio": self.hit_ratio,
            "inverse_rank": self.inverse_rank,
            "entropy": self.entropy,
            "ndcg": self.ndcg,
            "message_spread_ratio": self.message_spread_ratio,
        }


def rank_of(probs, originator, num_honest):
    """1-based rank of the originator in a candidate distribution.

    probs may be None (unobserved message): the rank is then the mid-rank of a
    uniform guess over all honest nodes. Tied nodes share a mid-rank; zero-mass
    originators get the mid-rank of the zero tail behind the support.
    """
    if num_honest < 1:
        raise ParameterError("need at least one honest node")
    if probs is None:
        return (num_honest + 1) / 2
    w = probs.get(originator, 0.0)
    if w > 0.0:
        higher = 0
        tied = 0
        for p in probs.values():
            if p > w:
                higher += 1
            elif p == w:
                tied += 1
        return higher + (tied + 1) / 2
    support = len(probs)
    return support + (num_honest - support + 1) / 2


def left_sum(values):
    """Float sum added strictly left to right.

    This is what sum() computes on CPython <= 3.11; from 3.12 on, sum()
    compensates its rounding (Neumaier), which moves the last bits. Report
    and aggregate cells are summed here, so they are the same bytes on every
    interpreter.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def _entropy_of(probs, num_honest):
    if probs is None:
        return math.log2(num_honest)
    return -left_sum(p * math.log2(p) for p in probs.values() if p > 0.0)


def compute_report(dists, originators, spread_ratios, num_honest, estimator=""):
    """Aggregate per-message distributions into an EvaluationReport.

    dists entries may be None for unobserved messages. All three lists must
    describe the same messages in the same order.
    """
    m = len(dists)
    if m == 0:
        raise ParameterError("cannot evaluate zero messages")
    if len(originators) != m or len(spread_ratios) != m:
        raise ParameterError("messages, originators and spreads must align")
    hits = 0
    inv_sum = 0.0
    ent_sum = 0.0
    ndcg_sum = 0.0
    unobserved = 0
    for dist, origin in zip(dists, originators):
        r = rank_of(dist, origin, num_honest)
        if r == 1.0:
            hits += 1
        inv_sum += 1.0 / r
        ndcg_sum += 1.0 / math.log2(1.0 + r)
        ent_sum += _entropy_of(dist, num_honest)
        if dist is None:
            unobserved += 1
    return EvaluationReport(
        estimator=estimator,
        num_messages=m,
        num_unobserved=unobserved,
        hit_ratio=hits / m,
        inverse_rank=inv_sum / m,
        entropy=ent_sum / m,
        ndcg=ndcg_sum / m,
        message_spread_ratio=left_sum(spread_ratios) / m,
    )


def build_distributions(run, estimator):
    """Per-message candidate distributions for one estimator.

    Reads the per-message keys, the adversary and the protocol from the
    run. Applies the anonymity-graph refinement when the protocol has a stem
    and the adversary is protocol-aware. Returns a list aligned with the
    run's messages; None marks messages with no usable observation.
    """
    if estimator not in ESTIMATORS:
        raise ParameterError(f"unknown estimator {estimator!r}")
    adversary = run.adversary
    if adversary is None:
        raise ParameterError("cannot evaluate a run that had no adversary")
    protocol = run.protocol
    exclude = adversary.nodes
    refine = adversary.protocol_aware and getattr(protocol, "anonymity", None) is not None
    dists = []
    for keys in run.keys:
        if estimator == "first_reach":
            v = estimate_first_reach(keys)
        else:
            v = estimate_first_sent(keys)
        if v is None:
            dists.append(None)
        elif refine:
            dists.append(refine_dandelion(v, protocol.anonymity, protocol.p,
                                          exclude=exclude, stem_cap=protocol.stem_cap))
        else:
            dists.append({v: 1.0})
    return dists


def evaluate(run, estimator):
    """Distributions plus report for one estimator, all read from the run."""
    dists = build_distributions(run, estimator)
    num_honest = run.protocol.graph.n - len(run.adversary.nodes)
    return compute_report(dists, run.originators, run.spread_ratios,
                          num_honest, estimator=estimator)
