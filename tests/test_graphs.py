"""Tests for topology generation, import/export, weights and centrality."""

import math
import os
import random
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix

from gossipsim.errors import FormatError, GenerationError, ParameterError
from gossipsim.graphs import (LATENCY_FLOOR_MS, STAKE_LOG_BOUND, NetworkGraph,
                              ShortestPaths, WeightGeneratorSpec, _largest_component,
                              _regular_edges, _scale_free_edges, _shuffle,
                              assign_weights, gen_random_regular,
                              gen_scale_free, get_central_nodes, load_graph,
                              load_node_weights, save_graph)


def triangle(latencies=(1.0, 1.0, 1.0)):
    return NetworkGraph(3, [(0, 1), (1, 2), (0, 2)], latencies=list(latencies))


class TestNetworkGraph:
    def test_edges_canonicalized_and_sorted(self):
        g = NetworkGraph(3, [(2, 1), (1, 0), (2, 0)], latencies=[5.0, 3.0, 4.0])
        assert g.edges == [(0, 1), (0, 2), (1, 2)]
        assert g.latencies == [3.0, 4.0, 5.0]
        assert g.latency(1, 2) == 5.0
        assert g.latency(2, 1) == 5.0

    def test_duplicate_edges_first_latency_wins(self):
        g = NetworkGraph(2, [(0, 1), (1, 0)], latencies=[7.0, 9.0])
        assert g.edges == [(0, 1)]
        assert g.latency(0, 1) == 7.0

    def test_latency_below_floor_rejected(self):
        with pytest.raises(ParameterError):
            NetworkGraph(2, [(0, 1)], latencies=[0.5])

    def test_disconnected_rejected(self):
        with pytest.raises(ParameterError):
            NetworkGraph(4, [(0, 1), (2, 3)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_latency_and_weight_rejected(self, bad):
        with pytest.raises(ParameterError):
            NetworkGraph(2, [(0, 1)], latencies=[bad])
        with pytest.raises(ParameterError):
            NetworkGraph(2, [(0, 1)], node_weights=[1.0, bad])

    def test_edge_out_of_range(self):
        with pytest.raises(ParameterError):
            NetworkGraph(2, [(0, 2)])

    def test_neighbors_sorted(self):
        g = triangle()
        assert g.neighbors(1) == [0, 2]
        assert g.degree(1) == 2

    def test_adj_is_the_only_edge_store(self, tmp_path):
        g = triangle()
        # the other two hold what is derived from adj: scores and CSR arrays
        assert set(vars(g)) == {"n", "adj", "node_weights", "labels", "_scores", "_csr"}
        assert g.adj[1] == [(0, 1.0), (2, 1.0)]
        path = tmp_path / "weights.txt"
        path.write_text("1 2.5\n")
        spec = WeightGeneratorSpec()
        for built in (gen_random_regular(12, 4, seed=0), gen_scale_free(12, 2, seed=0),
                      assign_weights(g, spec, seed=0),
                      load_node_weights(assign_weights(g, spec, seed=0), path)):
            assert set(vars(built)) == set(vars(g))

    def test_csr_arrays_mirror_adj_and_stay_with_the_graph(self):
        g = assign_weights(gen_scale_free(30, 2, seed=1), WeightGeneratorSpec(), seed=1)
        indptr, indices, data = g.csr_arrays()
        assert (indptr.dtype, indices.dtype, data.dtype) == (np.int32, np.int32, np.float64)
        for u, row in enumerate(g.adj):
            span = slice(indptr[u], indptr[u + 1])
            assert list(zip(indices[span].tolist(), data[span].tolist())) == row
        assert g.csr_arrays()[1] is indices
        assert not indices.flags.writeable
        assert assign_weights(g, WeightGeneratorSpec(), seed=2)._csr is None

    def test_latency_of_non_edge(self):
        g = NetworkGraph(3, [(0, 1), (1, 2)])
        for u, v in [(0, 2), (2, 0), (1, 1), (-1, 0), (3, 1), (1, 3)]:
            with pytest.raises(KeyError):
                g.latency(u, v)


@st.composite
def weighted_edge_lists(draw):
    """Random (u, v, latency) lists with self-loops and duplicates in both orientations."""
    n = draw(st.integers(1, 9))
    node = st.integers(0, n - 1)
    latency = st.floats(LATENCY_FLOOR_MS, 500.0)
    edges = draw(st.lists(st.tuples(node, node, latency), max_size=16))
    if edges:
        repeats = draw(st.lists(st.tuples(st.integers(0, len(edges) - 1),
                                          st.booleans(), latency), max_size=8))
        for i, flip, l in repeats:
            u, v, _ = edges[i]
            edges.append((v, u, l) if flip else (u, v, l))
    return n, draw(st.permutations(edges))


class TestEdgeViews:
    @given(weighted_edge_lists())
    def test_views_match_reference(self, case):
        n, triples = case
        g = NetworkGraph(n, [(u, v) for u, v, _ in triples],
                         latencies=[l for _, _, l in triples], check_connected=False)
        ref = {}  # canonical edge -> first latency
        for u, v, l in triples:
            if u != v:
                ref.setdefault((min(u, v), max(u, v)), l)
        assert g.edges == sorted(ref)
        assert g.latencies == [ref[e] for e in sorted(ref)]
        for u in range(n):
            for v in range(n):
                e = (min(u, v), max(u, v))
                if e in ref:
                    assert g.latency(u, v) == g.latency(v, u) == ref[e]
                else:
                    with pytest.raises(KeyError):
                        g.latency(u, v)

        rows = [u for u, _ in ref] + [v for _, v in ref]
        cols = [v for _, v in ref] + [u for u, _ in ref]
        vals = list(ref.values()) * 2
        expect = coo_matrix((np.array(vals, dtype=float),
                             (np.array(rows, dtype=np.int32), np.array(cols, dtype=np.int32))),
                            shape=(n, n)).tocsr()
        csr = g.csr_latency_matrix()
        for name in ("indptr", "indices", "data"):
            got, want = getattr(csr, name), getattr(expect, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestShortestPaths:
    # tests/test_properties.py checks every pair against scipy's dijkstra
    def test_unreachable_is_inf(self):
        g = NetworkGraph(6, [(0, 1), (1, 2), (3, 4)], latencies=[2.0, 3.0, 1.0],
                         check_connected=False)
        paths = ShortestPaths(g)
        assert paths.latency(0, 2) == 5.0
        assert paths.latency(0, 4) == math.inf
        assert paths.latency(4, 0) == math.inf
        assert paths.latency(3, 3) == 0.0
        assert paths.latency(5, 0) == math.inf  # 5 has no edges
        assert paths.latency(0, 5) == math.inf


# random small edge lists, self-loops and duplicates included
edge_lists = st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=12)))


class TestComponents:
    def test_setup_path_leaves_scipy_sparse_unloaded(self):
        # the component labelling stays pure Python: importing scipy.sparse costs
        # more than building the graphs
        code = ("import sys, gossipsim as g\n"
                "spec = g.WeightGeneratorSpec()\n"
                "g.assign_weights(g.gen_random_regular(50, 4, 0), spec, 0)\n"
                "g.assign_weights(g.gen_scale_free(50, 3, 0), spec, 0)\n"
                "assert 'scipy.sparse' not in sys.modules\n"
                "assert 'networkx' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    @settings(max_examples=200, deadline=None)
    @given(edge_lists)
    def test_matches_networkx(self, case):
        n, edges = case
        g = NetworkGraph(n, edges, check_connected=False)
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from((u, v) for u, v in edges if u != v)
        assert g.is_connected() == nx.is_connected(ref)
        comps = list(nx.connected_components(ref))
        keep = min(comps, key=lambda c: (-len(c), min(c)))
        kept = _largest_component(g)
        assert kept.labels == [str(u) for u in sorted(keep)]
        assert len(kept.edges) == ref.subgraph(keep).number_of_edges()


class TestGenerators:
    def test_regular_degrees(self):
        g = gen_random_regular(10, 3, seed=1)
        assert g.n == 10
        assert all(g.degree(u) == 3 for u in range(10))

    def test_regular_invalid_k(self):
        with pytest.raises(ParameterError):
            gen_random_regular(5, 5, seed=0)

    def test_regular_odd_product(self):
        with pytest.raises(ParameterError):
            gen_random_regular(5, 3, seed=0)

    def test_regular_connected_bfs(self):
        g = gen_random_regular(1000, 50, seed=3)
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.neighbors(u):
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        assert len(seen) == 1000

    def test_regular_deterministic(self):
        a = gen_random_regular(30, 4, seed=9)
        b = gen_random_regular(30, 4, seed=9)
        assert a.edges == b.edges

    def test_scale_free_basic(self):
        g = gen_scale_free(20, 3, seed=2)
        assert g.n == 20
        assert max(g.degree(u) for u in range(20)) > 3
        assert g.is_connected()

    def test_scale_free_smallest(self):
        g = gen_scale_free(2, 1, seed=0)
        assert g.edges == [(0, 1)]

    def test_scale_free_invalid_m(self):
        with pytest.raises(ParameterError):
            gen_scale_free(20, 20, seed=0)

    def test_dense_regular_gives_up(self):
        # near-complete shapes almost never pair; the bounded retry reports them
        with pytest.raises(GenerationError, match=r"n=50, k=47"):
            gen_random_regular(50, 47, seed=0)


def regular_shapes():
    """(n, k) with 3 <= k <= n / 2 and n * k even: shapes networkx pairs quickly."""
    return st.integers(6, 24).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(3, n // 2).filter(lambda k: n * k % 2 == 0)))


class TestNetworkxOracle:
    """The in-package generators draw exactly what the installed networkx draws.

    A Python or networkx release that changes those draws fails here.
    """

    @settings(max_examples=60)
    @given(regular_shapes(), st.integers(0, 2 ** 32 - 1))
    def test_regular_edges(self, shape, seed):
        n, k = shape
        ours, theirs = random.Random(seed), random.Random(seed)
        edges = _regular_edges(n, k, ours)
        ref = nx.random_regular_graph(k, n, seed=theirs)
        assert edges == {(min(e), max(e)) for e in ref.edges()}
        assert ours.getstate() == theirs.getstate()

    @settings(max_examples=60)
    @given(st.integers(2, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
           st.integers(0, 2 ** 32 - 1))
    def test_scale_free_edges(self, shape, seed):
        n, m = shape
        ours, theirs = random.Random(seed), random.Random(seed)
        edges = _scale_free_edges(n, m, ours)
        ref = nx.barabasi_albert_graph(n, m, seed=theirs)
        assert sorted((min(e), max(e)) for e in edges) == sorted(
            (min(e), max(e)) for e in ref.edges())
        assert ours.getstate() == theirs.getstate()

    @given(st.lists(st.integers(), max_size=70), st.integers(0, 2 ** 32 - 1))
    def test_shuffle_and_choice_draws(self, items, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        mine, ref = list(items), list(items)
        _shuffle(ours, mine)
        theirs.shuffle(ref)
        assert mine == ref
        assert ours.getstate() == theirs.getstate()
        # the scale-free generator calls rng.choice itself, so its draws are
        # pinned by the networkx oracle alone

    @given(st.sampled_from([(10, 4), (11, 4), (60, 6)]), st.integers(0, 50))
    def test_weighted_rows_match_validating_constructor(self, shape, seed):
        n, k = shape
        plain = gen_random_regular(n, k, seed)
        graph = assign_weights(plain, WeightGeneratorSpec(), seed)
        assert graph.edges == plain.edges
        ref = NetworkGraph(n, graph.edges, latencies=graph.latencies)
        assert graph.adj == ref.adj


class TestLoadSave:
    def test_triangle_file(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        g = load_graph(path)
        assert g.n == 3
        assert len(g.edges) == 3

    def test_self_loop_dropped(self, tmp_path):
        path = tmp_path / "loop.txt"
        path.write_text("0 0\n0 1\n")
        g = load_graph(path)
        assert g.n == 2
        assert g.edges == [(0, 1)]

    def test_comments_and_labels(self, tmp_path):
        path = tmp_path / "lbl.txt"
        path.write_text("# a comment\nalpha beta\nbeta gamma\n")
        g = load_graph(path)
        assert g.n == 3
        assert g.labels == ["alpha", "beta", "gamma"]

    def test_third_column_latency(self, tmp_path):
        path = tmp_path / "lat.txt"
        path.write_text("0 1 50.0\n1 2 70.0\n")
        g = load_graph(path)
        assert g.latency(0, 1) == 50.0
        assert g.latency(1, 2) == 70.0

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nnot-enough\n")
        with pytest.raises(FormatError) as err:
            load_graph(path)
        assert "2" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(FormatError):
            load_graph(path)

    def test_disconnected_keeps_largest_component(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("0 1\n1 2\n5 6\n")
        g = load_graph(path)
        assert g.n == 3
        assert g.labels == ["0", "1", "2"]

    def test_equal_components_keep_lowest_ids(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("0 1\n2 3\n")
        g = load_graph(path)
        assert g.labels == ["0", "1"]
        assert g.edges == [(0, 1)]

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_latency_token_rejected(self, tmp_path, token):
        path = tmp_path / "lat.txt"
        path.write_text(f"0 1 50.0\n1 2 {token}\n")
        with pytest.raises(FormatError) as err:
            load_graph(path)
        assert err.value.line == 2

    def test_roundtrip_preserves_latencies(self, tmp_path):
        g = assign_weights(gen_random_regular(12, 4, seed=5),
                           WeightGeneratorSpec(), seed=5)
        path = tmp_path / "export.txt"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2.n == g.n
        assert len(g2.edges) == len(g.edges)
        # ids are remapped in first-appearance order; compare through labels
        back = {tok: i for i, tok in enumerate(g2.labels)}
        for (u, v), l in zip(g.edges, g.latencies):
            assert g2.latency(back[g.labels[u]], back[g.labels[v]]) == l


class TestWeights:
    def test_unweighted_all_ones(self):
        g = assign_weights(triangle(), WeightGeneratorSpec(edge_mode="unweighted"),
                           seed=0)
        assert g.latencies == [1.0, 1.0, 1.0]

    def test_normal_latency_moments(self):
        g = gen_random_regular(500, 40, seed=7)  # 10000 edges
        assert len(g.edges) == 10000
        g = assign_weights(g, WeightGeneratorSpec(edge_mode="normal"), seed=7)
        mean = sum(g.latencies) / len(g.latencies)
        var = sum((x - mean) ** 2 for x in g.latencies) / (len(g.latencies) - 1)
        assert abs(mean - 171.0) < 5.0
        assert abs(math.sqrt(var) - 76.0) < 5.0
        assert min(g.latencies) >= LATENCY_FLOOR_MS

    def test_uniform_latency_bounds(self):
        g = assign_weights(gen_random_regular(100, 10, seed=1),
                           WeightGeneratorSpec(edge_mode="uniform"), seed=1)
        assert all(95.0 <= l <= 247.0 for l in g.latencies)

    def test_stake_weights_positive(self):
        g = assign_weights(triangle(), WeightGeneratorSpec(node_mode="stake"), seed=3)
        assert all(w > 0 for w in g.node_weights)

    def test_stake_at_bound_finite(self):
        spec = WeightGeneratorSpec(stake_mu=STAKE_LOG_BOUND, stake_sigma=0.0)
        g = assign_weights(gen_random_regular(100, 4, seed=0), spec, seed=0)
        assert 0.0 < g.node_weights.sum() < math.inf

    @pytest.mark.parametrize("mu, sigma", [(800.0, 1.5), (-800.0, 1.5), (7.0, 70.0)])
    def test_stake_past_bound_rejected_before_draw(self, mu, sigma):
        spec = WeightGeneratorSpec(stake_mu=mu, stake_sigma=sigma)
        with pytest.raises(ParameterError, match="at most 690"):
            assign_weights(triangle(), spec, seed=0)
        # uniform node weights never draw stakes
        uniform = WeightGeneratorSpec(node_mode="uniform", stake_mu=mu, stake_sigma=sigma)
        assert assign_weights(triangle(), uniform, seed=0).node_weights.tolist() == [1.0] * 3

    def test_overflowing_latency_draw_rejected(self):
        # finite parameters whose normal draws overflow to inf on this graph
        spec = WeightGeneratorSpec(normal_std_ms=1e308)
        with np.errstate(over="ignore"), pytest.raises(ParameterError, match="finite"):
            assign_weights(gen_random_regular(100, 10, seed=0), spec, seed=0)

    def test_uniform_node_weights(self):
        g = assign_weights(triangle(), WeightGeneratorSpec(node_mode="uniform"),
                           seed=3)
        assert g.node_weights.tolist() == [1.0, 1.0, 1.0]

    def test_weights_deterministic(self):
        spec = WeightGeneratorSpec()
        a = assign_weights(gen_random_regular(30, 4, seed=2), spec, seed=11)
        b = assign_weights(gen_random_regular(30, 4, seed=2), spec, seed=11)
        assert a.latencies == b.latencies
        assert a.node_weights.tolist() == b.node_weights.tolist()

    def test_bad_spec_rejected(self):
        with pytest.raises(ParameterError):
            WeightGeneratorSpec(edge_mode="pareto")
        with pytest.raises(ParameterError):
            WeightGeneratorSpec(normal_std_ms=-1.0)
        with pytest.raises(ParameterError):
            WeightGeneratorSpec(normal_mean_ms=0.0)
        with pytest.raises(ParameterError):
            WeightGeneratorSpec(stake_sigma=-1.0)

    @pytest.mark.parametrize("param", ["normal_mean_ms", "normal_std_ms",
                                       "uniform_low_ms", "uniform_high_ms",
                                       "stake_mu", "stake_sigma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_spec_rejected(self, param, bad):
        with pytest.raises(ParameterError):
            WeightGeneratorSpec(**{param: bad})

    def test_node_weight_file_override(self, tmp_path):
        g = assign_weights(triangle(), WeightGeneratorSpec(), seed=0)
        path = tmp_path / "weights.txt"
        path.write_text("0 5.0\n2 1.5\n")
        g2 = load_node_weights(g, path)
        assert g2.node_weights[0] == 5.0
        assert g2.node_weights[2] == 1.5
        assert g2.node_weights[1] == g.node_weights[1]

    def test_node_weight_file_unknown_token(self, tmp_path):
        g = triangle()
        path = tmp_path / "weights.txt"
        path.write_text("7 5.0\n")
        with pytest.raises(FormatError):
            load_node_weights(g, path)

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_node_weight_file_non_finite(self, tmp_path, token):
        path = tmp_path / "weights.txt"
        path.write_text(f"0 5.0\n1 {token}\n")
        with pytest.raises(FormatError) as err:
            load_node_weights(triangle(), path)
        assert err.value.line == 2


class TestCentrality:
    def star(self):
        return NetworkGraph(10, [(0, i) for i in range(1, 10)])

    def test_degree_star(self):
        assert get_central_nodes(self.star(), 1, metric="degree") == [0]

    def test_betweenness_path(self):
        g = NetworkGraph(3, [(0, 1), (1, 2)])
        assert get_central_nodes(g, 1, metric="betweenness") == [1]

    def test_degree_tie_break_by_id(self):
        assert get_central_nodes(triangle(), 2, metric="degree") == [0, 1]

    def test_count_out_of_range(self):
        with pytest.raises(ParameterError):
            get_central_nodes(triangle(), 4, metric="degree")

    def test_matches_networkx_betweenness(self):
        g = gen_scale_free(30, 2, seed=4)
        ours = get_central_nodes(g, 5, metric="betweenness")
        bc = nx.betweenness_centrality(g.to_networkx(), weight=None)
        ref = sorted(range(30), key=lambda u: (-bc[u], u))[:5]
        assert ours == ref

    def test_scores_kept_per_graph(self, tmp_path):
        g = self.star()
        assert get_central_nodes(g, 1, metric="degree") == [0]
        assert list(g._scores) == ["degree"]
        path = tmp_path / "weights.txt"
        path.write_text("1 2.5\n")
        weighted = assign_weights(g, WeightGeneratorSpec(), seed=0)
        for derived in (weighted, load_node_weights(weighted, path)):
            assert derived._scores == {}
