"""Routing protocols: plain broadcast, stem-phase coin-flip routing with one or
two pinned relays per node, and overlay circuit routing with a broadcast exit.

Every protocol ends in the broadcast (fluff) phase. The engine forwards each
broadcast delivery itself, to the targets of BroadcastProtocol.fanout, and
BroadcastProtocol.fluff fans a message out of a fresh source (the
originator, a stem or circuit exit); a routing protocol subclasses
BroadcastProtocol and implements only its anonymity phase (on_spawn and
on_hop). A node forwards a message in broadcast phase at most once, either
to all neighbors except the sender (mode 'all') or to ceil(sqrt(d))
neighbors sampled without replacement (mode 'sqrt', excluding the sender
whenever the degree allows it). The sqrt sample is exactly
random.Random.sample on the sender-free neighbor list, drawn inline from the
message's rng.
"""

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappush

import numpy as np

from .engine import (FORWARDED, PHASE_BROADCAST, PHASE_CIRCUIT, PHASE_STEM,
                     derive_seed)
from .errors import ParameterError
from .graphs import ShortestPaths

PROTOCOL_KINDS = ("broadcast", "dandelion", "dandelion_pp", "onion")
BROADCAST_MODES = ("all", "sqrt")

# Protocols that route through a stem (anonymity graph) before broadcasting.
STEM_KINDS = ("dandelion", "dandelion_pp")

_MASK64 = (1 << 64) - 1


def _mix64(x):
    """splitmix64 finalizer; stable across platforms and runs."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass
class ProtocolConfig:
    """Static protocol parameters (validated on construction)."""

    kind: str = "broadcast"
    broadcast_mode: str = "all"
    broadcast_probability: float = 0.5
    stem_cap: int = 40
    onion_path_len: int = 3

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise ParameterError(f"unknown protocol kind {self.kind!r}")
        if self.broadcast_mode not in BROADCAST_MODES:
            raise ParameterError(f"unknown broadcast mode {self.broadcast_mode!r}")
        if not (0.0 < self.broadcast_probability <= 1.0):
            raise ParameterError(
                f"broadcast probability must lie in (0, 1], got {self.broadcast_probability}")
        if self.stem_cap < 1:
            raise ParameterError(f"stem cap must be >= 1, got {self.stem_cap}")
        if self.onion_path_len < 1:
            raise ParameterError(f"path length must be >= 1, got {self.onion_path_len}")


def check_onion_path_len(path_len, n):
    """Raise ParameterError unless a circuit of path_len relays fits in n nodes."""
    if path_len > n - 2:
        raise ParameterError(
            f"path length {path_len} too long for {n} nodes "
            f"(must leave the originator and one more node out)")


class AnonymityGraph:
    """Pinned stem relays for one epoch: node u relays through s0[u] or s1[u].

    Single-relay routing stores a node's one relay in both arrays, as does
    two-relay routing for a degree-1 node. The per-message choice between two
    distinct relays is a pure function of (epoch_seed, message_id, node), so
    a message always takes the same relay at a given node.
    """

    def __init__(self, successors, epoch_seed):
        self.epoch_seed = int(epoch_seed)
        n = len(successors)
        s0 = np.empty(n, dtype=np.intp)
        s1 = np.empty(n, dtype=np.intp)
        for u, s in enumerate(successors):
            if not (1 <= len(s) <= 2):
                raise ParameterError(f"node {u} must store 1 or 2 relays, got {len(s)}")
            for r in s:
                if not (0 <= r < n):
                    raise ParameterError(f"node {u} relays to {r}, out of range for n={n}")
            s0[u] = s[0]
            s1[u] = s[-1]
        self.s0 = s0
        self.s1 = s1

    @property
    def n(self):
        return len(self.s0)

    def next_relay(self, node, message_id):
        """Relay this node forwards the given message to."""
        r0 = int(self.s0[node])
        r1 = int(self.s1[node])
        if r0 == r1:
            return r0
        bit = _mix64(self.epoch_seed ^ (message_id * 0x9E3779B97F4A7C15) ^ node) & 1
        return r1 if bit else r0


def build_anonymity_graph(graph, kind, seed):
    """Sample stem successors for every node from its neighbors."""
    if kind not in STEM_KINDS:
        raise ParameterError(f"anonymity graph needs a stem protocol kind, got {kind!r}")
    rng = random.Random(derive_seed(seed, 4))
    successors = []
    for u in range(graph.n):
        nbrs = graph.adj[u]
        if not nbrs:
            raise ParameterError(f"node {u} has no neighbors to relay through")
        if kind == "dandelion" or len(nbrs) == 1:
            successors.append([nbrs[rng.randrange(len(nbrs))][0]])
        else:
            pair = rng.sample(nbrs, 2)
            successors.append([pair[0][0], pair[1][0]])
    return AnonymityGraph(successors, epoch_seed=derive_seed(seed, 5))


def _sample_setsize(k):
    """Random.sample's switch point: a population of n <= this for k draws takes
    the pool branch, a larger one the set branch (CPython 3.10-3.13)."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return setsize


class BroadcastProtocol:
    """Flood from the originator; nothing is hidden.

    Every protocol ends in this flood: the engine forwards each broadcast
    delivery to fanout's targets, or hands a whole fresh mode 'all' flood to
    flood, and fluff starts the flood at a fresh source. A routing protocol
    subclasses this one and adds its anonymity phase: on_spawn starts the
    message, and on_hop(msg, t, node, hop) handles each stem or circuit
    delivery, pushing the next hop or calling self.fluff(msg, t, node, -1)
    to start the flood at node.
    """

    def __init__(self, graph, config):
        self.graph = graph
        self.mode_all = config.broadcast_mode == "all"
        # ceil(sqrt(d)) per node, precomputed off the hot path
        self._fan = [math.isqrt(len(row) - 1) + 1 if row else 0 for row in graph.adj]
        # Random.sample's branch switch, indexed by fanout
        self._setsize = [_sample_setsize(c) for c in range(max(self._fan, default=0) + 1)]
        if not self.mode_all:
            # the pool branch's draw for a pool of m: index below m, of m.bit_length() bits
            self._draws = [(m, m.bit_length())
                           for m in range(max(map(len, graph.adj), default=0) + 1)]

    def on_spawn(self, msg):
        self.fluff(msg, 0.0, msg.originator, -1)

    def fluff(self, msg, t, node, sender):
        """Fan the message out of `node`; no-op if it already forwarded.

        The engine forwards broadcast deliveries itself and calls this only
        for fresh sources: sender < 0 (spawn, stem or circuit exit) excludes
        nothing, which keeps floods complete even when the exit's only
        neighbor is the node that fed it. A direct caller may pass the
        neighbor that delivered the message. The targets are fanout(msg.rng,
        node, sender); a send to an honest one is queued only if it is earlier
        than its fluff arrival so far (see the engine module). In mode 'all',
        a fresh source's fanout that is the message's first also sets
        msg.source, so that run_message can hand the flood to flood().
        Sends go straight onto msg.queue with msg.seq, as msg.push does.
        """
        arrival = msg.fluff_arrival
        if arrival.get(node) == FORWARDED:
            return
        arrival[node] = FORWARDED
        targets = self.fanout(msg.rng, node, sender)
        if self.mode_all and sender < 0 and len(arrival) == 1:
            # the message's first fanout: every neighbour is queued
            msg.source = (t, node, msg.seq, msg.seq + len(targets))
        watched = msg.watched
        queue = msg.queue
        seq = msg.seq
        for w, lat in targets:
            at = t + lat
            if at < arrival.get(w, math.inf):
                arrival[w] = at
            elif w not in watched:
                continue
            heappush(queue, (at, seq, node, w, PHASE_BROADCAST, 0))
            seq += 1
        msg.seq = seq

    def fanout(self, rng, node, sender):
        """The (target, latency) pairs node forwards to when sender delivered
        the message (sender < 0 at a fresh source).

        Mode 'all': node's row without sender; the row itself when sender < 0
        or is not in it. Sqrt mode: rng.sample(pool, c), pool being node's row
        without sender (sender < 0 or a degree of at most c excludes nothing)
        and c its ceil(sqrt(degree)). Drawn inline: the same getrandbits
        calls as CPython's Random.sample and _randbelow_with_getrandbits, in
        both of its branches, so rng ends in the same state and the targets
        come in the same order.
        """
        adj = self.graph.adj[node]
        if self.mode_all:
            i = bisect_left(adj, (sender,))
            if i < len(adj) and adj[i][0] == sender:
                return adj[:i] + adj[i + 1:]
            return adj
        c = self._fan[node]
        n = len(adj)
        pool = adj
        if 0 <= sender and n > c:
            pool = adj[:]
            del pool[bisect_left(adj, (sender,))]
            n -= 1
        getrandbits = rng.getrandbits
        if n <= self._setsize[c]:
            # pool branch: the pick among the first m moves to pool[m - 1]
            if pool is adj:
                pool = adj[:]
            for m, k in self._draws[n:n - c:-1]:
                j = getrandbits(k)
                while j >= m:
                    j = getrandbits(k)
                pool[j], pool[m - 1] = pool[m - 1], pool[j]
            targets = pool[n - c:]
            targets.reverse()
            return targets
        # set branch: redraw indices out of range or already picked
        k = n.bit_length()
        picked = set()
        targets = []
        for _ in range(c):
            j = getrandbits(k)
            while j >= n or j in picked:
                j = getrandbits(k)
            picked.add(j)
            targets.append(pool[j])
        return targets

    def flood(self, msg, t, source, censor):
        """The whole mode 'all' flood that fluff(msg, t, source, -1) starts, in one pass.

        run_message calls this in place of popping the flood's deliveries
        (see its _flood_whole). It writes what popping them writes: a first
        receipt for every reached node that has none yet, and the broadcast
        deliveries at msg.watched nodes merged into msg.first_reach and
        msg.first_sent. censor makes watched nodes sinks, as an active
        adversary does.

        Arrivals: d[source] = t and d[x] = min over forwarding neighbours y of
        fl(d[y] + w(y, x)), found by relaxing rows until no arrival falls
        (_arrivals). Every latency is at least LATENCY_FLOOR_MS, so this
        fixpoint is unique and equals the engine's arrivals, whatever the
        relaxation order. The engine pops in (arrival, seq) order, so nodes
        forward in (d, rank of pred, id) order, and pred(y), the neighbour
        that y does not send back to, is y's tight parent (fl(d[z] + w) ==
        d[y]) of lowest rank. Where arrivals are distinct both follow from d;
        tied arrivals, and nodes with several tight parents, are resolved in
        Python, group by group in increasing d (_pop_order).
        """
        n = self.graph.n
        csr = self.graph.csr_arrays()
        watched = msg.watched
        adv = np.zeros(n, dtype=bool)
        adv[list(watched)] = True
        forwards = ~adv if censor else np.ones(n, dtype=bool)
        forwards[source] = True
        d = _arrivals(*csr, source, t, forwards)
        if watched:
            forwarded = forwards & (d < np.inf)
            reach, sent = _observed_keys(*csr, d, forwarded, adv,
                                         _pop_order(*csr, d, forwarded))
            msg.first_reach = min(filter(None, (msg.first_reach, reach)), default=None)
            msg.first_sent = min(filter(None, (msg.first_sent, sent)), default=None)
        first_receipt = msg.first_receipt
        hit = np.flatnonzero(d < np.inf)
        for x, dx in zip(hit.tolist(), d[hit].tolist()):
            first_receipt.setdefault(x, dx)


def _arrivals(indptr, indices, lats, source, t, forwards):
    """Flood arrival per node (inf where unreached) from source at time t.

    Bellman-Ford over CSR rows in buckets (delta-stepping): a forwarding node
    is pending while its arrival fell since its row was last relaxed, and
    each round relaxes the pending nodes within half a mean latency of the
    earliest one. Relaxing every pending node each round takes fewer rounds
    but relaxes rows again and again: 190k row entries for the 50k of a
    1000/50 graph, against 77k in buckets, with the temporaries of a whole
    round held at once.
    """
    d = np.full(len(forwards), np.inf)
    d[source] = t
    pending = np.zeros(len(forwards), dtype=bool)
    pending[source] = True
    width = lats.mean() / 2 if len(lats) else 0.0
    while True:
        nodes = np.flatnonzero(pending)
        if not len(nodes):
            return d
        near = d[nodes]
        nodes = nodes[near <= near.min() + width]
        pending[nodes] = False
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        ends = np.cumsum(counts)
        edges = np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)
        fallen = d.copy()
        np.minimum.at(fallen, indices[edges], np.repeat(d[nodes], counts) + lats[edges])
        pending |= (fallen < d) & forwards
        d = fallen


def _pop_order(indptr, indices, lats, d, forwarded):
    """pred of each forwarding node: its tight parent of lowest rank (-1 at
    the source), where rank is a node's position in the order nodes forward."""
    n = len(d)
    # tight entries, 128 rows at a time: whole-graph temporaries raised the
    # sweep's peak RSS by over a MB. np.repeat over rows and np.take are
    # several times faster here than indexing with the int32 arrays
    blocks = []
    for r0 in range(0, n, 128):
        r1 = min(r0 + 128, n)
        lo, hi = indptr[r0], indptr[r1]
        degrees = np.diff(indptr[r0:r1 + 1])
        arrive = np.repeat(d[r0:r1], degrees)
        arrive += lats[lo:hi]
        sent = np.repeat(forwarded[r0:r1], degrees)
        blocks.append(np.flatnonzero(sent & (arrive == np.take(d, indices[lo:hi]))) + lo)
    tight = np.concatenate(blocks)
    children = np.take(indices, tight)
    parents = np.searchsorted(indptr, tight, side="right") - 1
    pred = np.full(n, -1, dtype=np.intp)
    pred[children] = parents
    several = np.bincount(children, minlength=n) > 1
    order = np.flatnonzero(forwarded)
    order = order[np.argsort(d[order])]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(len(order))
    level = d[order]
    same = level[1:] == level[:-1]
    unresolved = several[order]
    unresolved[1:] |= same
    unresolved[:-1] |= same
    if unresolved.any():
        pred = _resolve_ties(order, level, unresolved, pred, rank,
                             children, parents, several)
    return pred


def _resolve_ties(order, level, unresolved, pred, rank, children, parents, several):
    """pred where arrivals tie or a node has several tight parents.

    order lists the forwarding nodes by d, in any order within equal d,
    and level is their d; unresolved marks the positions of tied arrivals
    and of nodes with several tight parents. Groups of equal d are taken in
    increasing d and every latency is positive, so the ranks of a group's
    tight parents are final when the group is ordered.
    """
    pred_of = pred.tolist()
    rank_of = rank.tolist()
    choices = {}
    pick = several[children]
    for x, z in zip(children[pick].tolist(), parents[pick].tolist()):
        choices.setdefault(x, []).append(z)
    positions = np.flatnonzero(unresolved)
    members = order[positions].tolist()
    levels = level[positions].tolist()
    positions = positions.tolist()
    i = 0
    while i < len(members):
        j = i + 1
        while j < len(members) and levels[j] == levels[i]:
            j += 1
        group = members[i:j]
        for x in group:
            if x in choices:
                pred_of[x] = min(choices[x], key=rank_of.__getitem__)
        if len(group) > 1:
            group.sort(key=lambda x: (rank_of[pred_of[x]], x))
            for r, x in enumerate(group, positions[i]):
                rank_of[x] = r
        i = j
    return np.array(pred_of, dtype=np.intp)


def _observed_keys(indptr, indices, lats, d, forwarded, adv, pred):
    """(first_reach, first_sent) of the broadcast deliveries from honest
    senders at adversarial nodes; None for both when there are none.

    A forwarding sender skips its pred. A delivery arrives at d[sender] + w
    and was sent, as its observer reckons, at that arrival minus w (latencies
    are symmetric, so w is also the observer's). Ties go to the lowest sender.
    """
    entries = np.flatnonzero(np.repeat(forwarded & ~adv, np.diff(indptr))
                             & np.take(adv, indices))
    frm = np.searchsorted(indptr, entries, side="right") - 1
    keep = np.take(indices, entries) != pred[frm]
    if not keep.any():
        return None, None
    frm, w = frm[keep], lats[entries[keep]]
    at = d[frm] + w
    return _least_key(at, frm), _least_key(at - w, frm)


def _least_key(times, senders):
    low = times.min()
    return float(low), int(senders[times == low].min())


class DandelionProtocol(BroadcastProtocol):
    """Stem routing over pinned relays, then flood.

    Every holder of a stem-phase message (including the originator at spawn)
    flips a biased coin: with probability p it broadcasts, otherwise it
    forwards along its pinned relay. The hop counter caps stem length at
    stem_cap. Two-relay routing picks one of the node's two relays per
    message, pseudorandomly but stably.
    """

    def __init__(self, graph, config, anonymity):
        super().__init__(graph, config)
        if anonymity.n != graph.n:
            raise ParameterError("anonymity graph does not match network size")
        for u, relays in enumerate(zip(anonymity.s0.tolist(), anonymity.s1.tolist())):
            for r in relays:
                try:
                    graph.latency(u, r)
                except KeyError:
                    raise ParameterError(f"node {u} relays to {r}, not its neighbor") from None
        self.anonymity = anonymity
        self.p = config.broadcast_probability
        self.stem_cap = config.stem_cap

    def on_spawn(self, msg):
        self.on_hop(msg, 0.0, msg.originator, 0)

    def on_hop(self, msg, t, node, hop):
        if msg.rng.random() < self.p or hop >= self.stem_cap:
            self.fluff(msg, t, node, -1)
        else:
            nxt = self.anonymity.next_relay(node, msg.mid)
            msg.push(t + self.graph.latency(node, nxt), node, nxt, PHASE_STEM, hop + 1)


class OnionProtocol(BroadcastProtocol):
    """Route through a fixed-length circuit of relays, then flood at the exit.

    Relays are drawn uniformly at spawn (distinct, excluding the originator).
    A circuit hop is an overlay link: its latency is the shortest-path latency
    between the two relays, searched afresh per hop by ShortestPaths: relays
    are uniform, so a cell almost never asks for the same pair twice.
    Circuit deliveries carry no sender information an observer could link
    (handled by the adversary via the phase tag). hop is the circuit position
    of the relay a delivery reaches; the originator sits at -1.
    """

    def __init__(self, graph, config):
        super().__init__(graph, config)
        check_onion_path_len(config.onion_path_len, graph.n)
        self.path_len = config.onion_path_len
        self._paths = ShortestPaths(graph)

    def on_spawn(self, msg):
        o = msg.originator
        # sample from range(n-1) and shift to skip the originator
        picks = msg.rng.sample(range(self.graph.n - 1), self.path_len)
        msg.circuit = [i + 1 if i >= o else i for i in picks]
        self.on_hop(msg, 0.0, o, -1)

    def on_hop(self, msg, t, node, hop):
        if hop + 1 < len(msg.circuit):
            nxt = msg.circuit[hop + 1]
            msg.push(t + self._paths.latency(node, nxt), node, nxt, PHASE_CIRCUIT, hop + 1)
        else:
            self.fluff(msg, t, node, -1)


def make_protocol(graph, config, seed=0):
    """Instantiate the protocol described by config, bound to graph."""
    if config.kind == "broadcast":
        return BroadcastProtocol(graph, config)
    if config.kind in STEM_KINDS:
        anonymity = build_anonymity_graph(graph, config.kind, seed)
        return DandelionProtocol(graph, config, anonymity)
    return OnionProtocol(graph, config)
