"""Network topology model: generation, import/export, weights, centrality.

Nodes are dense integers 0..n-1. Graphs are undirected; every edge carries a
symmetric latency in milliseconds and every node carries a weight (stake) used
for originator sampling. A built NetworkGraph is treated as immutable; weight
assignment returns a new graph sharing the topology.
"""

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass

import networkx as nx
import numpy as np

from .engine import derive_seed
from .errors import FormatError, GenerationError, ParameterError

log = logging.getLogger(__name__)

# Latencies are floored here after sampling; draws below this are clamped, not
# resampled, so the draw count stays deterministic.
LATENCY_FLOOR_MS = 1.0

_GENERATION_RETRIES = 100

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
    and export), latencies (in edge order), latency(u, v) and the lazy CSR
    matrix. Self-loops are dropped; a duplicate edge keeps its first latency.
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
        self._csr = None

        if check_connected and not self.is_connected():
            raise ParameterError("graph is not connected")

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
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for (u, v), l in zip(self.edges, self.latencies):
            g.add_edge(u, v, latency=l)
        return g

    def csr_latency_matrix(self):
        """Sparse latency matrix built lazily from adj (used for overlay shortest paths)."""
        if self._csr is None:
            from scipy.sparse import csr_matrix
            indptr = np.cumsum([0] + [len(row) for row in self.adj], dtype=np.int32)
            pairs = [p for row in self.adj for p in row]
            indices = np.fromiter((v for v, _ in pairs), dtype=np.int32, count=len(pairs))
            data = np.fromiter((l for _, l in pairs), dtype=float, count=len(pairs))
            self._csr = csr_matrix((data, indices, indptr), shape=(self.n, self.n))
        return self._csr

    def __repr__(self):
        return f"NetworkGraph(n={self.n}, edges={len(self.edges)})"


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


def gen_random_regular(n, k, seed):
    """Connected random k-regular graph on n nodes.

    Requires 3 <= k < n and n*k even. Regeneration is retried with perturbed
    seeds a bounded number of times if a disconnected sample comes up.
    """
    check_regular(n, k)
    base = derive_seed(seed, 101)
    for attempt in range(_GENERATION_RETRIES):
        g = nx.random_regular_graph(k, n, seed=base + attempt)
        graph = NetworkGraph(n, list(g.edges()), check_connected=False)
        if graph.is_connected():
            if attempt:
                log.info("regular graph connected after %d retries", attempt)
            return graph
    raise GenerationError(
        f"no connected {k}-regular graph on {n} nodes in {_GENERATION_RETRIES} attempts")


def gen_scale_free(n, m, seed):
    """Scale-free graph via preferential attachment (m edges per new node)."""
    check_scale_free(n, m)
    g = nx.barabasi_albert_graph(n, m, seed=derive_seed(seed, 102))
    graph = NetworkGraph(n, list(g.edges()), check_connected=False)
    if not graph.is_connected():  # attachment graphs are connected by construction
        raise GenerationError("preferential attachment produced a disconnected graph")
    return graph


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
    edges = graph.edges
    m = len(edges)
    edge_rng = np.random.default_rng(derive_seed(seed, 103))
    node_rng = np.random.default_rng(derive_seed(seed, 104))

    if spec.edge_mode == "normal":
        lats = edge_rng.normal(spec.normal_mean_ms, spec.normal_std_ms, size=m)
    elif spec.edge_mode == "uniform":
        lats = edge_rng.uniform(spec.uniform_low_ms, spec.uniform_high_ms, size=m)
    else:
        lats = np.ones(m)
    lats = np.maximum(lats, LATENCY_FLOOR_MS)

    if spec.node_mode == "stake":
        check_stake(spec.stake_mu, spec.stake_sigma)
        weights = node_rng.lognormal(spec.stake_mu, spec.stake_sigma, size=graph.n)
    else:
        weights = np.ones(graph.n)

    return NetworkGraph(graph.n, edges, latencies=lats.tolist(),
                        node_weights=weights, labels=graph.labels,
                        check_connected=False)


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
    return NetworkGraph(graph.n, graph.edges, latencies=graph.latencies,
                        node_weights=weights, labels=graph.labels,
                        check_connected=False)


def get_central_nodes(graph, count, metric="degree"):
    """Top-count nodes by a centrality metric; ties broken by ascending id."""
    if not (0 <= count <= graph.n):
        raise ParameterError(f"count must be in [0, {graph.n}], got {count}")
    if metric == "degree":
        scores = [len(graph.adj[u]) for u in range(graph.n)]
    elif metric == "betweenness":
        scores_map = nx.betweenness_centrality(graph.to_networkx())
        scores = [scores_map[u] for u in range(graph.n)]
    else:
        raise ParameterError(f"unknown centrality metric {metric!r}")
    order = sorted(range(graph.n), key=lambda u: (-scores[u], u))
    return order[:count]
