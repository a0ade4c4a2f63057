"""Discrete-event message propagation engine.

Events are deliveries (deliver_at, from_node, to_node) tagged with a protocol
phase. A binary heap pops them in (deliver_at, insertion order) order, which
makes runs with equal timestamps deterministic. The engine records each node's
first receipt and folds every delivery at an adversarial node into the
estimators' keys (then censors it if the adversary is active). It forwards
every other broadcast delivery itself, to the protocol's fanout, and hands
every stem or circuit delivery to the protocol's on_hop, which enqueues the
successor events: a protocol implements only its anonymity phase.

The fluff phase is label-setting, as in Dijkstra's algorithm, and one loop
drains every run: a broadcast pop at a node that has not forwarded yet
forwards inline, and a send to an honest node is queued only if it is
earlier than every delivery already queued for that node. A later one would
pop after it and change nothing, and the pushes left out do not reorder the
rest, so the run is the same as if every duplicate were queued. Each send
from an honest node to an adversarial one counts towards the keys as it is
sent, with the arrival and latency its pop would read (rows are symmetric),
so it is queued by the same rule, unless events are kept: then every send
to an adversarial node is queued and logged in delivery order. Stem and
circuit deliveries are always queued: they flip coins even when they reach
a node twice. Fresh sources (spawn, a stem or circuit exit) fan out through
protocol.fluff. A mode 'all' flood from a fresh source is not popped at all
unless events are kept: when the queue holds nothing but that flood's first
fanout, run_message hands it to protocol.flood, one array pass that writes
the same first receipts and keys (see _flood_whole).
"""

import heapq
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

# Event phases. Stem and circuit are the anonymity phases of the routing
# protocols; every protocol ends in broadcast.
PHASE_STEM = 0
PHASE_CIRCUIT = 1
PHASE_BROADCAST = 2

_EMPTY = frozenset()

# fluff_arrival of a node that has fanned the message out
FORWARDED = -math.inf


def derive_seed(seed, *stream):
    """Stable child seed for a named stream of a non-negative master seed."""
    ints = (int(seed),) + tuple(int(s) for s in stream)
    if ints[0] < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    return int(np.random.SeedSequence(ints).generate_state(1)[0])


class SimMessage:
    """One message's propagation state.

    Every message spawns at time 0.0. first_receipt maps node -> first
    delivery time (the originator is in it from spawn). queue is the pending
    event heap; each entry is
    (deliver_at, seq, from_node, to_node, phase, hop) where hop counts stem
    edges (or the circuit position for onion routing) and seq is the number
    of earlier pushes, counted in the seq slot: code that pushes onto queue
    without push must advance it the same way. fluff_arrival maps node ->
    earliest broadcast delivery queued for it, or -inf once the node has
    fanned the message out. watched is the adversarial node set, which
    run_message sets before draining the queue: fluff queues broadcast
    deliveries to these nodes even when they cannot improve an arrival, and
    flood folds their deliveries into the keys. events lists the popped
    events when run_message is asked to keep them. source is (t, node, start,
    end) once a mode 'all' fluff has started the message's first flood with
    seqs start..end-1, until run_message checks it. first_reach and
    first_sent are the estimators' keys (see run_message), None until a
    delivery counts.
    """

    __slots__ = ("mid", "originator", "rng", "first_receipt", "queue",
                 "fluff_arrival", "watched", "circuit", "spread_ratio", "events",
                 "seq", "source", "first_reach", "first_sent")

    def __init__(self, mid, originator, rng):
        self.mid = mid
        self.originator = originator
        self.rng = rng
        self.first_receipt = {originator: 0.0}
        self.queue = []
        self.fluff_arrival = {}
        self.watched = _EMPTY
        self.circuit = None
        self.spread_ratio = 0.0
        self.events = None
        self.seq = 0
        self.source = None
        self.first_reach = None
        self.first_sent = None

    def push(self, deliver_at, from_node, to_node, phase, hop):
        heapq.heappush(self.queue, (deliver_at, self.seq, from_node, to_node, phase, hop))
        self.seq += 1

    def __repr__(self):
        return (f"SimMessage(mid={self.mid}, originator={self.originator}, "
                f"received={len(self.first_receipt)})")


def spawn_message(originator, protocol, mid=0, *, rng):
    """Create a message at an originator and enqueue its initial events.

    The active protocol picks the first events (a coin flip plus either a
    fanout or a single stem edge for the routing protocols), drawing from rng,
    the message's own random stream.
    """
    graph = protocol.graph
    if not (0 <= originator < graph.n):
        raise ParameterError(f"originator {originator} out of range for n={graph.n}")
    if graph.degree(originator) == 0:
        # cannot happen on a connected graph with n >= 2, but guarded
        raise ParameterError(f"originator {originator} has no neighbors")
    msg = SimMessage(mid, originator, rng=rng)
    protocol.on_spawn(msg)
    return msg


def run_message(msg, protocol, adversary=None, keep_events=False):
    """Drain the message's event queue; returns the message with spread set.

    Every popped delivery records a first receipt if it is the node's first.
    A delivery at an adversarial node, duplicates included, that is linkable
    (not circuit phase) and has an honest sender counts: msg.first_reach is
    the least (arrival, sender) and msg.first_sent the least (arrival -
    latency, sender) over those. With keep_events msg.events lists the
    popped events, and every delivery at an adversarial node also goes to the
    fresh log adversary.open_log(msg.mid), opened either way. If the
    adversary is active, the message simply stops there. Otherwise a stem or
    circuit delivery goes to protocol.on_hop(msg, t, to, hop), and a
    broadcast delivery at a node that has not forwarded yet is sent on here
    to protocol.fanout(msg.rng, to, frm), by the queueing rule of the module
    docstring. Without keep_events, a fresh mode 'all' flood that is all the
    queue holds, after spawn or after an on_hop, is computed whole by
    protocol.flood(msg, t, node, censor) and never popped.
    """
    if keep_events:
        msg.events = []
        trace = msg.events.append
    queue = msg.queue
    first_receipt = msg.first_receipt
    arrival = msg.fluff_arrival
    rng = msg.rng
    fanout = protocol.fanout
    pop = heapq.heappop
    push = heapq.heappush
    inf = math.inf
    if adversary is not None:
        adv_nodes = adversary.nodes
        log = adversary.open_log(msg.mid).append
        censor = adversary.active
        longest = adversary.max_latency
        adj = protocol.graph.adj
    else:
        adv_nodes = _EMPTY
        censor = False
        adj = longest = None  # read only at adversarial nodes
    # set only now: spawn sends to each node at most once, so it sent no duplicate
    msg.watched = adv_nodes
    whole = not keep_events
    if whole and msg.source is not None:
        _flood_whole(msg, protocol, censor)
    reach, sent = msg.first_reach, msg.first_sent
    seq = msg.seq
    while queue:
        t, _seq, frm, to, phase, hop = pop(queue)
        if keep_events:
            trace((t, frm, to, phase))
        if to not in first_receipt:
            first_receipt[to] = t
        if to in adv_nodes:
            if keep_events:
                log((t, frm, to, phase))
            if phase != PHASE_CIRCUIT and frm not in adv_nodes:
                if reach is None or t <= reach[0] and (t, frm) < reach:
                    reach = (t, frm)
                # sent at t - longest or later and rounding is monotone, so
                # when t - longest is past sent[0] this cannot win
                if sent is None or t - longest <= sent[0]:
                    row = adj[to]  # the observer's own row, as it knows its links
                    at = t - row[bisect_left(row, (frm,))][1]
                    if sent is None or at <= sent[0] and (at, frm) < sent:
                        sent = (at, frm)
            if censor:
                continue
        if phase != PHASE_BROADCAST:
            msg.seq = seq  # on_hop pushes with msg.seq
            protocol.on_hop(msg, t, to, hop)
            if whole and msg.source is not None:
                msg.first_reach, msg.first_sent = reach, sent
                _flood_whole(msg, protocol, censor)
                reach, sent = msg.first_reach, msg.first_sent
            seq = msg.seq
            continue
        if arrival.get(to) == FORWARDED:
            continue
        arrival[to] = FORWARDED
        honest = to not in adv_nodes
        for w, lat in fanout(rng, to, frm):
            at = t + lat
            if honest and w in adv_nodes:
                if reach is None or at <= reach[0] and (at, to) < reach:
                    reach = (at, to)
                back = at - lat
                if sent is None or back <= sent[0] and (back, to) < sent:
                    sent = (back, to)
            if at < arrival.get(w, inf):
                arrival[w] = at
            elif not keep_events or w not in adv_nodes:
                continue
            push(queue, (at, seq, to, w, PHASE_BROADCAST, 0))
            seq += 1
    msg.seq = seq
    msg.first_reach, msg.first_sent = reach, sent
    msg.spread_ratio = len(first_receipt) / protocol.graph.n
    return msg


def _flood_whole(msg, protocol, censor):
    """Hand a fresh flood to protocol.flood if the queue holds just its fanout.

    msg.source = (t, node, start, end) is set by a mode 'all' fluff that
    started the message's first flood and pushed seqs start..end-1. Right
    after that fluff, nothing of the fanout has popped yet, so the queue
    holds exactly the fanout when it has end - start entries and nothing was
    pushed since; the pass then replaces popping them. Otherwise (other work
    queued beside the flood) the heap runs the flood. Either way msg.source
    is cleared, so the check runs once per fanout.
    """
    t, node, start, end = msg.source
    msg.source = None
    if msg.seq == end and len(msg.queue) == end - start:
        msg.queue.clear()
        protocol.flood(msg, t, node, censor)


@dataclass
class SimulationRun:
    """Outcome of a batch of messages under one protocol/adversary setup.

    Message i has id i. protocol and adversary (or None) are the objects the
    run used, which the evaluator reads; they take no part in equality.
    keys holds each message's (first_reach, first_sent) pair, the estimators'
    input (see run_message); it is empty without adversary.
    """

    protocol: object = field(compare=False, repr=False)
    adversary: object = field(compare=False, repr=False)
    originators: list = field(default_factory=list)
    spread_ratios: list = field(default_factory=list)
    keys: list = field(default_factory=list)
    messages: list = field(default_factory=list)  # only if keep_messages


class Simulation:
    """Drives num_messages seeded messages through one protocol instance.

    The network is protocol.graph. The adversary, if any, must have been
    placed on that same graph object. Originators are honest by construction:
    adversarial nodes are removed from the sampling distribution (equivalent
    to re-drawing until an honest node comes up, with a deterministic draw
    count). Each message gets its own RNG stream derived from (seed, message
    id), so message order never leaks randomness across messages.
    keep_messages keeps each message with its events, and so fills the
    adversary's observation logs.
    """

    def __init__(self, protocol, adversary=None, num_messages=1, seed=0,
                 use_node_weights=True, keep_messages=False):
        if num_messages < 1:
            raise ParameterError("need at least one message")
        self.protocol = protocol
        self.adversary = adversary
        self.num_messages = num_messages
        self.seed = seed
        self.use_node_weights = use_node_weights
        self.keep_messages = keep_messages
        graph = protocol.graph
        adv_nodes = adversary.nodes if adversary is not None else _EMPTY
        if adversary is not None and adversary.graph is not graph:
            raise ParameterError("the adversary was placed on another graph than "
                                 "the protocol's")
        honest = [u for u in range(graph.n) if u not in adv_nodes]
        if not honest:
            raise ParameterError("no honest nodes left to originate messages")
        self._honest = honest
        if use_node_weights:
            with np.errstate(over="ignore"):  # an overflowed sum is rejected below
                cum = np.cumsum(graph.node_weights[honest])
            if cum[-1] <= 0.0:
                raise ParameterError("all honest node weights are zero")
            if not cum[-1] < np.inf:
                raise ParameterError("honest node weights must have a finite sum")
            self._honest_cum = cum.tolist()
        else:
            self._honest_cum = None

    def _draw_originator(self, rng):
        if self._honest_cum is None:
            return self._honest[rng.randrange(len(self._honest))]
        x = rng.random() * self._honest_cum[-1]
        return self._honest[bisect_right(self._honest_cum, x)]

    def run(self):
        origin_rng = random.Random(derive_seed(self.seed, 6))
        result = SimulationRun(self.protocol, self.adversary)
        for mid in range(self.num_messages):
            originator = self._draw_originator(origin_rng)
            rng = random.Random(derive_seed(self.seed, 7, mid))
            msg = spawn_message(originator, self.protocol, mid=mid, rng=rng)
            run_message(msg, self.protocol, self.adversary,
                        keep_events=self.keep_messages)
            result.originators.append(originator)
            result.spread_ratios.append(msg.spread_ratio)
            if self.adversary is not None:
                result.keys.append((msg.first_reach, msg.first_sent))
            if self.keep_messages:
                result.messages.append(msg)
        return result
