"""Network topology model: generation, import/export, weights, centrality.

Nodes are dense integers 0..n-1. Graphs are undirected; every edge carries a
symmetric latency in milliseconds and every node carries a weight (stake) used
for originator sampling. A built NetworkGraph is treated as immutable; weight
assignment returns a new graph sharing the topology.
"""

import logging
import math
import random
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter

import numpy as np

from .engine import derive_seed
from .errors import FormatError, GenerationError, ParameterError

log = logging.getLogger(__name__)

# Latencies are floored here after sampling; draws below this are clamped, not
# resampled, so the draw count stays deterministic.
LATENCY_FLOOR_MS = 1.0

_GENERATION_RETRIES = 100

# Failed pairings allowed per regular-graph attempt. Sparse shapes need 1-7;
# near-complete ones (n=50, k=47) almost never pair and would loop for ever.
_PAIRING_TRIES = 1000

# Log-normal stakes are exp(stake_mu + stake_sigma * z), z standard normal.
# Under this bound on |stake_mu| + 10 stake_sigma (|z| > 10 has probability
# 1.5e-23), every draw lies in [e^-690, e^690]: positive, and finite even
# summed over 10^8 nodes.
STAKE_LOG_BOUND = 690.0
STAKE_TAIL_SIGMAS = 10.0


@dataclass(frozen=True)
class WeightGeneratorSpec:
    """How to draw node weights and edge latencies (validated on construction).

    node_mode: 'stake' (log-normal) or 'uniform' (all ones).
    edge_mode: 'normal' (truncated normal in ms), 'uniform' (uniform in ms)
               or 'unweighted' (all 1.0 ms).
    """

    NODE_MODES = ("stake", "uniform")
    EDGE_MODES = ("normal", "uniform", "unweighted")

    node_mode: str = "stake"
    edge_mode: str = "normal"
    normal_mean_ms: float = 171.0
    normal_std_ms: float = 76.0
    uniform_low_ms: float = 95.0
    uniform_high_ms: float = 247.0
    stake_mu: float = 7.0
    stake_sigma: float = 1.5

    def __post_init__(self):
        if self.node_mode not in self.NODE_MODES:
            raise ParameterError(f"unknown node weight mode {self.node_mode!r}")
        if self.edge_mode not in self.EDGE_MODES:
            raise ParameterError(f"unknown edge weight mode {self.edge_mode!r}")
        params = (self.normal_mean_ms, self.normal_std_ms, self.uniform_low_ms,
                  self.uniform_high_ms, self.stake_mu, self.stake_sigma)
        if not all(math.isfinite(x) for x in params):
            raise ParameterError(f"weight parameters must be finite, got {params}")
        if (self.normal_mean_ms <= 0 or self.normal_std_ms < 0
                or self.uniform_high_ms < self.uniform_low_ms):
            raise ParameterError("degenerate latency distribution parameters")
        if self.stake_sigma < 0:
            raise ParameterError(f"stake sigma must be >= 0, got {self.stake_sigma}")


class NetworkGraph:
    """Undirected weighted graph with dense integer nodes.

    adj is the only stored edge view: adj[u] lists u's (neighbor, latency)
    pairs sorted by neighbor, and every edge sits in both of its rows. The
    other views are derived from it: edges (canonical (u, v) with u < v, in
    sorted order, which pins the iteration order used by weight assignment
    and export), latencies (in edge order), latency(u, v) and the CSR arrays
    (csr_arrays, which the mode 'all' flood and csr_latency_matrix read).
    Self-loops are dropped; a duplicate edge keeps its first latency. The
    graph also keeps the CSR arrays and the centrality scores computed on it
    (see get_central_nodes); a graph derived from it starts without them.
    """

    def __init__(self, n, edges, latencies=None, node_weights=None, labels=None,
                 check_connected=True):
        if n < 1:
            raise ParameterError("graph needs at least one node")
        edges = list(edges)
        if latencies is None:
            latencies = [1.0] * len(edges)
        if len(latencies) != len(edges):
            raise ParameterError("latency list does not match edge list")
        rows = [{} for _ in range(n)]
        for (u, v), l in zip(edges, latencies):
            if u == v:
                continue
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u}, {v}) out of range for n={n}")
            if not LATENCY_FLOOR_MS <= l < math.inf:
                raise ParameterError(
                    f"latency {l} must be finite and at least {LATENCY_FLOOR_MS}")
            if v not in rows[u]:  # duplicate edge, first latency wins
                rows[u][v] = rows[v][u] = float(l)
        self.n = n
        self.adj = [sorted(row.items()) for row in rows]
        if node_weights is None:
            node_weights = np.ones(n)
        node_weights = np.asarray(node_weights, dtype=float)
        if node_weights.shape != (n,):
            raise ParameterError("node weight vector does not match node count")
        if not np.all((node_weights >= 0) & (node_weights < np.inf)):
            raise ParameterError("node weights must be finite and non-negative")
        self.node_weights = node_weights
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        if len(self.labels) != n:
            raise ParameterError("label list does not match node count")
        self._scores = {}
        self._csr = None

        if check_connected and not self.is_connected():
            raise ParameterError("graph is not connected")

    @classmethod
    def _from_rows(cls, n, adj, node_weights, labels):
        """Graph on rows that are already sorted, symmetric and checked.

        Nothing is copied or validated again: callers pass rows, weights and
        labels that satisfy what __init__ would check.
        """
        graph = cls.__new__(cls)
        graph.n = n
        graph.adj = adj
        graph.node_weights = node_weights
        graph.labels = labels
        graph._scores = {}
        graph._csr = None
        return graph

    @property
    def edges(self):
        return [(u, v) for u, row in enumerate(self.adj) for v, _ in row if u < v]

    @property
    def latencies(self):
        return [l for u, row in enumerate(self.adj) for v, l in row if u < v]

    # -- basic queries -------------------------------------------------

    def degree(self, u):
        return len(self.adj[u])

    def neighbors(self, u):
        return [v for v, _ in self.adj[u]]

    def latency(self, u, v):
        """Latency of edge (u, v); KeyError if u and v are not adjacent."""
        row = self.adj[u] if 0 <= u < self.n else ()
        i = bisect_left(row, (v,))
        if i < len(row) and row[i][0] == v:
            return row[i][1]
        raise KeyError((u, v))

    def is_connected(self):
        return max(self._component_labels()) == 0

    def _component_labels(self):
        """Component id per node, numbered in order of each component's lowest node."""
        # pure Python: importing scipy.sparse.csgraph (~0.4 s) would dominate graph set-up
        comp = [-1] * self.n
        cid = 0
        for s in range(self.n):
            if comp[s] >= 0:
                continue
            stack = [s]
            comp[s] = cid
            while stack:
                u = stack.pop()
                for v, _ in self.adj[u]:
                    if comp[v] < 0:
                        comp[v] = cid
                        stack.append(v)
            cid += 1
        return comp

    def to_networkx(self):
        import networkx as nx  # imported on first use: it is not on the set-up path
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for (u, v), l in zip(self.edges, self.latencies):
            g.add_edge(u, v, latency=l)
        return g

    def csr_arrays(self):
        """adj as read-only CSR arrays (indptr, indices, data).

        Row u's neighbours are indices[indptr[u]:indptr[u + 1]], in adj
        order, with their latencies at the same positions of data (float64);
        indptr and indices are int32. Built on first use and kept on the
        graph; a graph derived from this one starts without them.
        """
        arrays = self._csr
        if arrays is None:
            indptr = np.zeros(self.n + 1, dtype=np.int32)
            np.cumsum([len(row) for row in self.adj], out=indptr[1:])
            m = int(indptr[-1])
            indices = np.fromiter((v for row in self.adj for v, _ in row),
                                  dtype=np.int32, count=m)
            data = np.fromiter((l for row in self.adj for _, l in row), dtype=float, count=m)
            arrays = (indptr, indices, data)
            for a in arrays:
                a.flags.writeable = False
            self._csr = arrays
        return arrays

    def csr_latency_matrix(self):
        """scipy CSR latency matrix over csr_arrays(), a new matrix on each call.

        scipy is imported on call. The simulation uses the arrays themselves
        (the mode 'all' flood) and never this matrix; scipy-based checks build
        one matrix per graph.
        """
        from scipy.sparse import csr_matrix
        indptr, indices, data = self.csr_arrays()
        return csr_matrix((data, indices, indptr), shape=(self.n, self.n))

    def __repr__(self):
        return f"NetworkGraph(n={self.n}, edges={len(self.edges)})"


class ShortestPaths:
    """Shortest-path latencies between node pairs of one graph, one search per query.

    Holds every adjacency row re-sorted by latency, built once (about 10 ms
    on a 1000-node 50-regular graph). latency(u, v) is a Dijkstra from u
    that keeps one heap entry per settled node, its cheapest edge to an
    unsettled node, replaced by the next edge when it pops, so a query reads
    only the short edges of each settled node. v itself is never queued:
    every path to v ends with an edge (z, v), so the answer is the least
    fl(d[z] + w(z, v)) over v's neighbours z, taken as each z is settled,
    and the search stops once no unsettled node can beat it even through v's
    cheapest edge. Every latency is at least LATENCY_FLOOR_MS, so the
    settled distances are the unique solution of d[u] = 0,
    d[x] = min over y of fl(d[y] + w(y, x)), and fl(a + w) never falls as
    a or w grows: the result equals scipy's dijkstra bit for bit, whatever
    the heap's tie order.
    """

    def __init__(self, graph):
        # stable: equal latencies stay in neighbour order
        rows = [sorted(row, key=itemgetter(1)) for row in graph.adj]
        self.n = graph.n
        self.lats = [[l for _, l in row] for row in rows]
        self.nbrs = [[y for y, _ in row] for row in rows]

    def latency(self, u, v):
        """Shortest-path latency from u to v; math.inf if v is unreachable."""
        if u == v:
            return 0.0
        lats, nbrs = self.lats, self.nbrs
        into_v = dict(zip(nbrs[v], lats[v]))
        last = lats[v][0] if lats[v] else math.inf  # v's cheapest edge
        dist = [None] * self.n
        dist[u] = 0.0
        dist[v] = math.inf  # never settled: edges into v are read from into_v
        best = into_v.get(u, math.inf)  # least latency to v found so far
        heap = [(lats[u][0], u, 0)] if lats[u] else []
        while heap:
            d, x, i = heappop(heap)
            if d + last >= best:
                return best
            y = nbrs[x][i]
            if dist[y] is None:
                dist[y] = d
                w = into_v.get(y)
                if w is not None and d + w < best:
                    best = d + w
                c = d + lats[y][0]
                if c + last < best:
                    heappush(heap, (c, y, 0))
            # queue x's next edge to an unsettled node; later ones cost more
            row = nbrs[x]
            i += 1
            while i < len(row) and dist[row[i]] is not None:
                i += 1
            if i < len(row):
                c = dist[x] + lats[x][i]
                if c + last < best:
                    heappush(heap, (c, x, i))
        return best


# -- generation --------------------------------------------------------


def check_regular(n, k):
    """Raise ParameterError unless a random k-regular graph on n nodes exists."""
    if not (3 <= k < n):
        raise ParameterError(f"random regular graph needs 3 <= k < n, got k={k}, n={n}")
    if (n * k) % 2 != 0:
        raise ParameterError(f"n*k must be even, got n={n}, k={k}")


def check_scale_free(n, m):
    """Raise ParameterError unless preferential attachment can run with m < n."""
    if not (1 <= m < n):
        raise ParameterError(f"scale-free graph needs 1 <= m < n, got m={m}, n={n}")


def check_stake(mu, sigma):
    """Raise ParameterError unless log-normal stakes and their sum stay finite."""
    if abs(mu) + STAKE_TAIL_SIGMAS * sigma > STAKE_LOG_BOUND:
        raise ParameterError(
            f"|stake_mu| + {STAKE_TAIL_SIGMAS:g} * stake_sigma must be at most "
            f"{STAKE_LOG_BOUND:g} for log-normal stakes to stay finite, got "
            f"|{mu:g}| + {STAKE_TAIL_SIGMAS:g} * {sigma:g}")


# The two generators below are ports of networkx 3.6.1's random_regular_graph
# and barabasi_albert_graph, kept draw for draw so that a seed gives the graph
# networkx gives. networkx is distributed under the 3-clause BSD license,
# Copyright (C) 2004-2025, NetworkX Developers (Aric Hagberg, Dan Schult,
# Pieter Swart and contributors). Redistributions must retain this notice.


def _shuffle(rng, x):
    """rng.shuffle(x), with the getrandbits draws of CPython's Random.shuffle."""
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(x))):
        n = i + 1  # Random._randbelow_with_getrandbits(n), inlined
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _regular_edges(n, k, rng):
    """Edge set of networkx.random_regular_graph(k, n, seed=rng).

    The Steger-Wormald pairing ("Generating random regular graphs quickly",
    1999): pair shuffled stubs, keep the pairs that make new simple edges and
    re-pair the stubs of the rest. Raises GenerationError after _PAIRING_TRIES
    pairings that get stuck.
    """

    def _suitable(edges, potential_edges):
        # Helper subroutine to check if there are suitable edges remaining
        # If False, the generation of the graph has failed
        if not potential_edges:
            return True
        for s1 in potential_edges:
            for s2 in potential_edges:
                # Two iterators on the same dictionary are guaranteed
                # to visit it in the same order if there are no
                # intervening modifications.
                if s1 == s2:
                    # Only need to consider s1-s2 pair one time
                    break
                # reassigns s1 for the rest of the inner loop, as networkx
                # does; a tidier check gives other graphs (n=10, k=4, seed 14)
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def _try_creation():
        # Attempt to create an edge set

        edges = set()
        stubs = list(range(n)) * k

        while stubs:
            potential_edges = defaultdict(lambda: 0)
            _shuffle(rng, stubs)
            stubiter = iter(stubs)
            for s1, s2 in zip(stubiter, stubiter):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and ((s1, s2) not in edges):
                    edges.add((s1, s2))
                else:
                    potential_edges[s1] += 1
                    potential_edges[s2] += 1

            if not _suitable(edges, potential_edges):
                return None  # failed to find suitable edge set

            stubs = [
                node
                for node, potential in potential_edges.items()
                for _ in range(potential)
            ]
        return edges

    for _ in range(_PAIRING_TRIES):
        edges = _try_creation()
        if edges is not None:
            return edges
    raise GenerationError(
        f"random regular graph with n={n}, k={k}: no pairing in {_PAIRING_TRIES} "
        f"tries; a k this close to n rarely pairs")


def _scale_free_edges(n, m, rng):
    """Edge list of networkx.barabasi_albert_graph(n, m, seed=rng)."""
    # Default initial graph : star graph on (m + 1) nodes, centre 0
    edges = [(0, v) for v in range(1, m + 1)]
    # List of existing nodes, with nodes repeated once for each adjacent edge
    repeated_nodes = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        # m distinct targets drawn from repeated_nodes (preferential
        # attachment); the set's iteration order feeds the next draws
        targets = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated_nodes))
        edges.extend((source, t) for t in targets)
        repeated_nodes.extend(targets)
        repeated_nodes.extend([source] * m)
    return edges


def _unit_graph(n, edges):
    """Graph with unit latencies and weights on a simple edge list."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    # one (v, 1.0) entry per node, shared by every row that holds v
    unit = [(v, 1.0) for v in range(n)]
    rows = [[unit[v] for v in sorted(row)] for row in nbrs]
    return NetworkGraph._from_rows(n, rows, np.ones(n), [str(i) for i in range(n)])


def gen_random_regular(n, k, seed):
    """Connected random k-regular graph on n nodes.

    Requires 3 <= k < n and n*k even. Draws the graph networkx 3.6.1's
    random_regular_graph(k, n, seed) draws (Steger-Wormald pairing), with
    networkx neither imported nor needed. A disconnected sample is redrawn
    with a perturbed seed a bounded number of times. Raises GenerationError
    when a shape is too dense to pair (n=50, k=47) or stays disconnected.
    """
    check_regular(n, k)
    base = derive_seed(seed, 101)
    for attempt in range(_GENERATION_RETRIES):
        graph = _unit_graph(n, _regular_edges(n, k, random.Random(base + attempt)))
        if graph.is_connected():
            if attempt:
                log.info("regular graph connected after %d retries", attempt)
            return graph
    raise GenerationError(
        f"no connected {k}-regular graph on {n} nodes in {_GENERATION_RETRIES} attempts")


def gen_scale_free(n, m, seed):
    """Scale-free graph via preferential attachment (m edges per new node).

    Draws the graph networkx 3.6.1's barabasi_albert_graph(n, m, seed) draws
    (a star on m + 1 nodes, then each new node attaches to m distinct nodes
    picked in proportion to degree, so it is connected), with networkx
    neither imported nor needed.
    """
    check_scale_free(n, m)
    return _unit_graph(n, _scale_free_edges(n, m, random.Random(derive_seed(seed, 102))))


def load_graph(path):
    """Read an edge-list file into a NetworkGraph.

    One edge per line: two whitespace-separated node tokens, optionally a third
    token with the edge latency in ms. '#' starts a comment. Tokens are
    arbitrary strings and are remapped to dense ids in first-appearance order.
    Self-loops are dropped and duplicate edges collapsed (first latency wins).
    A disconnected input is reduced to its largest connected component (with a
    warning).
    """
    ids = {}
    labels = []
    edges = []
    lats = []

    def node_id(tok):
        if tok not in ids:
            ids[tok] = len(labels)
            labels.append(tok)
        return ids[tok]

    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if len(toks) not in (2, 3):
                raise FormatError(
                    f"expected 2 or 3 tokens, got {len(toks)}", path=path, line=lineno)
            edges.append((node_id(toks[0]), node_id(toks[1])))
            l = 1.0
            if len(toks) == 3:
                try:
                    l = float(toks[2])
                except ValueError:
                    raise FormatError(
                        f"bad latency token {toks[2]!r}", path=path, line=lineno) from None
                if not LATENCY_FLOOR_MS <= l < math.inf:
                    raise FormatError(
                        f"latency {l} must be finite and at least {LATENCY_FLOOR_MS}",
                        path=path, line=lineno)
            lats.append(l)
    if not labels:
        raise FormatError("no edges in file", path=path)

    graph = NetworkGraph(len(labels), edges, latencies=lats, labels=labels,
                         check_connected=False)
    if not graph.is_connected():
        graph = _largest_component(graph)
        log.warning("input graph disconnected, kept largest component with %d nodes",
                    graph.n)
    return graph


def _largest_component(graph):
    comp = graph._component_labels()
    sizes = [0] * (max(comp) + 1)
    for c in comp:
        sizes[c] += 1
    keep = sizes.index(max(sizes))
    remap = {}
    labels = []
    for u in range(graph.n):
        if comp[u] == keep:
            remap[u] = len(labels)
            labels.append(graph.labels[u])
    edges = []
    lats = []
    for (u, v), l in zip(graph.edges, graph.latencies):
        if comp[u] == keep and comp[v] == keep:
            edges.append((remap[u], remap[v]))
            lats.append(l)
    return NetworkGraph(len(labels), edges, latencies=lats, labels=labels)


def save_graph(graph, path):
    """Write the edge list with latencies (token token latency_ms per line)."""
    with open(path, "w") as fh:
        fh.write("# edge list: node_token node_token latency_ms\n")
        for (u, v), l in zip(graph.edges, graph.latencies):
            fh.write(f"{graph.labels[u]} {graph.labels[v]} {l!r}\n")


def assign_weights(graph, spec, seed):
    """Return a new NetworkGraph with weights drawn per spec.

    Edge latencies and node weights come from two independent seeded streams,
    so changing one mode never shifts the other's draws. Latencies below the
    floor are clamped, not redrawn.
    """
    m = sum(len(row) for row in graph.adj) // 2
    edge_rng = np.random.default_rng(derive_seed(seed, 103))
    node_rng = np.random.default_rng(derive_seed(seed, 104))

    if spec.edge_mode == "normal":
        lats = edge_rng.normal(spec.normal_mean_ms, spec.normal_std_ms, size=m)
    elif spec.edge_mode == "uniform":
        lats = edge_rng.uniform(spec.uniform_low_ms, spec.uniform_high_ms, size=m)
    else:
        lats = np.ones(m)
    lats = np.maximum(lats, LATENCY_FLOOR_MS)
    if not np.all(lats < math.inf):  # a finite but huge spread can overflow
        raise ParameterError("drawn latencies must be finite; lower the spread")

    if spec.node_mode == "stake":
        check_stake(spec.stake_mu, spec.stake_sigma)
        weights = node_rng.lognormal(spec.stake_mu, spec.stake_sigma, size=graph.n)
    else:
        weights = np.ones(graph.n)

    # Rows are built one after another so that each row's tuples sit together
    # in memory: rows filled edge by edge made sqrt fanout ~15% slower. Row u
    # takes a new latency, in canonical edge order, for each higher neighbour,
    # and reads the one of each lower neighbour v from the built row v, whose
    # entries to higher nodes rows after v consume in order (upper[v]).
    lat_iter = iter(lats.tolist())
    rows = []
    upper = []
    for u, row in enumerate(graph.adj):
        new = []
        for v, _ in row:
            if v < u:
                l = rows[v][upper[v]][1]
                upper[v] += 1
            else:
                l = next(lat_iter)
            new.append((v, l))
        rows.append(new)
        upper.append(bisect_left(row, (u,)))
    return NetworkGraph._from_rows(graph.n, rows, weights, graph.labels)


def load_node_weights(graph, path):
    """Return a new graph with node weights overridden from a file.

    Lines of 'node_token weight'; tokens must exist in the graph. Nodes not
    mentioned keep their current weight.
    """
    weights = graph.node_weights.copy()
    index = {tok: i for i, tok in enumerate(graph.labels)}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if len(toks) != 2:
                raise FormatError(
                    f"expected 'node_token weight', got {len(toks)} tokens",
                    path=path, line=lineno)
            if toks[0] not in index:
                raise FormatError(f"unknown node token {toks[0]!r}",
                                  path=path, line=lineno)
            try:
                w = float(toks[1])
            except ValueError:
                raise FormatError(f"bad weight token {toks[1]!r}",
                                  path=path, line=lineno) from None
            if not 0 <= w < math.inf:
                raise FormatError(f"weight {w} must be finite and non-negative",
                                  path=path, line=lineno)
            weights[index[toks[0]]] = w
    return NetworkGraph._from_rows(graph.n, graph.adj, weights, graph.labels)


def centrality_scores(graph, metric):
    """Per-node scores of a centrality metric: 'degree' or 'betweenness'."""
    if metric == "degree":
        return [len(row) for row in graph.adj]
    if metric == "betweenness":
        import networkx as nx  # imported on first use: it is not on the set-up path
        scores = nx.betweenness_centrality(graph.to_networkx())
        return [scores[u] for u in range(graph.n)]
    raise ParameterError(f"unknown centrality metric {metric!r}")


def get_central_nodes(graph, count, metric="degree"):
    """Top-count nodes by a centrality metric; ties broken by ascending id.

    Each metric's scores are computed once per graph and kept on it, so later
    calls on the same graph reuse them.
    """
    if not (0 <= count <= graph.n):
        raise ParameterError(f"count must be in [0, {graph.n}], got {count}")
    scores = graph._scores.get(metric)
    if scores is None:
        scores = graph._scores[metric] = centrality_scores(graph, metric)
    order = sorted(range(graph.n), key=lambda u: (-scores[u], u))
    return order[:count]
