"""Tests for config parsing, sweep expansion, report emission and the CLI."""

import csv
import math
from pathlib import Path

import pytest

from gossipsim import experiment, graphs
from gossipsim.adversary import place_adversaries
from gossipsim.cli import main
from gossipsim.errors import ConfigError, SchemaError
from gossipsim.experiment import (AGGREGATE_COLUMNS, FIGURE_PRESETS,
                                  PLOT_COLUMNS, REPORT_COLUMNS,
                                  ExperimentConfig, aggregate_rows,
                                  emit_plot_data, load_config, parse_config,
                                  run_experiment)
from gossipsim.graphs import gen_random_regular, save_graph

PRESET_DIR = Path(__file__).resolve().parent.parent / "configs" / "paper"

SMOKE_CONFIG = """\
# small smoke sweep
topology.kind = regular
topology.n = 60
topology.k = 6
protocol.kind = broadcast, dandelion   # broadcast ignores the probability axis
protocol.broadcast_mode = sqrt
protocol.broadcast_probability = 0.5, 0.25
adversary.ratio = 0.1, 0.2
estimator = first_reach, first_sent
num_messages = 5
seeds = 0..1
output_path = smoke.csv
"""


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("smoke")
    cfg = parse_config(SMOKE_CONFIG)
    rows, report_path, aggregate_path = run_experiment(cfg, out_dir=str(out_dir))
    return cfg, rows, report_path, aggregate_path


class TestParsing:
    def test_values_and_comments(self):
        cfg = parse_config(SMOKE_CONFIG)
        assert cfg.topology_kinds == ("regular",)
        assert cfg.n == 60 and cfg.k == 6
        assert cfg.protocol_kinds == ("broadcast", "dandelion")
        assert cfg.broadcast_probabilities == (0.5, 0.25)
        assert cfg.adversary_ratios == (0.1, 0.2)
        assert cfg.estimators == ("first_reach", "first_sent")
        assert cfg.seeds == (0, 1)
        assert cfg.output_path == "smoke.csv"

    def test_seed_ranges_and_lists(self):
        cfg = parse_config("seeds = 1, 3, 5..7\nadversary.ratio = 0.1\n"
                           "topology.n = 100\ntopology.k = 10")
        assert cfg.seeds == (1, 3, 5, 6, 7)
        with pytest.raises(ConfigError):
            parse_config("seeds = 7..3")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("topology.n = 100\nprotocol.fanout = 3\n")
        assert "line 2" in str(err.value)
        assert "protocol.fanout" in str(err.value)

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConfigError) as err:
            parse_config("topology.n = 100\n\ntopology.n = 200\n")
        msg = str(err.value)
        assert "line 3" in msg and "line 1" in msg

    def test_missing_equals(self):
        with pytest.raises(ConfigError) as err:
            parse_config("topology.n 100\n")
        assert "line 1" in str(err.value)

    def test_bad_scalar_type(self):
        with pytest.raises(ConfigError):
            parse_config("topology.n = ten\n")
        with pytest.raises(ConfigError):
            parse_config("adversary.ratio = small\n")
        with pytest.raises(ConfigError):
            parse_config("adversary.active = maybe\n")

    def test_explicit_nodes_replace_default_ratio(self):
        cfg = parse_config("topology.n = 100\ntopology.k = 10\n"
                           "adversary.nodes = 3, 1, 2\n")
        assert cfg.adversary_ratios is None
        assert cfg.adversary_nodes == (3, 1, 2)
        cells = cfg.cells()
        assert all(c.adversary_placement == "explicit" for c in cells)
        assert all(c.adversary_ratio is None for c in cells)

    def test_nodes_and_ratio_conflict(self):
        with pytest.raises(ConfigError):
            parse_config("adversary.ratio = 0.1\nadversary.nodes = 1, 2\n")

    def test_relative_paths_resolved(self, tmp_path):
        graph_file = tmp_path / "net.txt"
        save_graph(gen_random_regular(20, 4, seed=0), graph_file)
        text = "topology.kind = file\ntopology.path = net.txt\n"
        cfg = parse_config(text, base_dir=str(tmp_path))
        assert cfg.graph_path == str(graph_file)

    def test_validation_failures(self):
        with pytest.raises(ConfigError):
            parse_config("topology.kind = torus\n")
        with pytest.raises(ConfigError):
            parse_config("protocol.kind = flood\n")
        with pytest.raises(ConfigError):
            parse_config("estimator = centroid\n")
        with pytest.raises(ConfigError):
            parse_config("adversary.placement = pagerank\n")
        with pytest.raises(ConfigError):
            parse_config("topology.n = 100\ntopology.k = 2\n")
        with pytest.raises(ConfigError):
            parse_config("protocol.broadcast_probability = 0.0\n")

    @pytest.mark.parametrize("fields, key", [
        ({"topology_kinds": ("torus",)}, "topology.kind"),
        ({"topology_kinds": ()}, "topology.kind"),
        ({"k": 2}, "topology.k"),
        ({"n": 101, "k": 5}, "topology.k"),
        ({"topology_kinds": ("scale_free",), "m": 0}, "topology.m"),
        ({"topology_kinds": ("file",)}, "topology.path"),
        ({"node_mode": "flat"}, "weights"),
        ({"edge_mode": "pareto"}, "weights"),
        ({"normal_mean_ms": 0.0}, "weights"),
        ({"normal_std_ms": math.nan}, "weights"),
        ({"uniform_low_ms": 300.0}, "weights"),
        ({"stake_mu": math.inf}, "weights"),
        ({"stake_sigma": -1.0}, "weights"),
        ({"protocol_kinds": ()}, "protocol.kind"),
        ({"protocol_kinds": ("flood",)}, "protocol.kind"),
        ({"broadcast_modes": ("half",)}, "protocol.broadcast_mode"),
        ({"broadcast_probabilities": (0.5, 0.0)}, "protocol.broadcast_probability"),
        ({"stem_cap": 0}, "protocol.stem_cap"),
        ({"onion_path_len": 0}, "protocol.onion_path_len"),
        ({"adversary_ratios": (1.0,)}, "adversary.ratio"),
        ({"adversary_nodes": (1, 2)}, "adversary.ratio"),
        ({"adversary_ratios": (0.0001,)}, "adversary.ratio"),
        ({"adversary_placements": ("pagerank",)}, "adversary.placement"),
        ({"adversary_ratios": None, "adversary_nodes": ()}, "adversary.nodes"),
        ({"estimators": ()}, "estimator"),
        ({"estimators": ("centroid",)}, "estimator"),
        ({"num_messages": 0}, "num_messages"),
        ({"seeds": ()}, "seeds"),
        ({"stake_mu": 800.0}, "weights.stake_mu"),
        ({"stake_mu": -800.0}, "weights.stake_mu"),
        ({"stake_sigma": 70.0}, "weights.stake_mu"),
        ({"seeds": (0, -1)}, "seeds"),
        ({"n": 20, "k": 4, "protocol_kinds": ("onion",), "onion_path_len": 99},
         "protocol.onion_path_len"),
        ({"n": 20, "k": 4, "adversary_ratios": None, "adversary_nodes": (5, 500)},
         "adversary.nodes"),
        ({"n": 20, "k": 4, "adversary_ratios": None,
          "adversary_nodes": tuple(range(20))}, "adversary.nodes"),
        ({"seeds": (0, 1, 1)}, "seeds"),
        ({"estimators": ("first_sent", "first_sent")}, "estimator"),
    ])
    def test_error_names_its_key(self, fields, key):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**fields).validate()
        assert str(err.value).startswith(f"{key}:")

    @pytest.mark.parametrize("line", ["weights.normal_std_ms = nan",
                                      "weights.uniform_low_ms = nan",
                                      "weights.stake_mu = inf"])
    def test_non_finite_weights_rejected(self, line):
        with pytest.raises(ConfigError) as err:
            parse_config(line)
        assert str(err.value).startswith("weights:")

    def test_empty_adversary_with_estimators_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("topology.n = 100\ntopology.k = 10\n"
                         "adversary.ratio = 0.005\n")
        assert "empty adversary" in str(err.value)


class TestCells:
    def test_probability_axis_collapses_for_non_stem_kinds(self):
        cfg = parse_config(SMOKE_CONFIG)
        cells = cfg.cells()
        assert len(cells) == 6  # broadcast x2 ratios + dandelion x2 p x2 ratios
        broadcast = [c for c in cells if c.protocol == "broadcast"]
        assert all(c.broadcast_probability is None for c in broadcast)
        assert len(broadcast) == 2

    def test_duplicate_axis_values_deduped(self):
        cfg = parse_config("topology.n = 100\ntopology.k = 10\n"
                           "adversary.ratio = 0.1, 0.1, 0.1\n")
        assert len(cfg.cells()) == 1

    def test_default_grid_row_count(self):
        cfg = ExperimentConfig(n=1000, k=50,
                               adversary_ratios=(0.05, 0.1, 0.2)).validate()
        cells = cfg.cells()
        assert len(cells) == 3
        assert len(cells) * len(cfg.seeds) * len(cfg.estimators) == 30


class TestRunExperiment:
    def test_row_counts_and_schema(self, smoke_run):
        cfg, rows, report_path, aggregate_path = smoke_run
        assert len(rows) == 6 * 2 * 2  # cells x seeds x estimators
        with open(report_path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            data = list(reader)
        assert header == REPORT_COLUMNS
        assert len(data) == len(rows)
        assert report_path.endswith("smoke.csv")
        assert aggregate_path.endswith("smoke_aggregate.csv")

    def test_rows_sorted_and_complete(self, smoke_run):
        cfg, rows, _, _ = smoke_run
        seeds = {r["seed"] for r in rows}
        assert seeds == {0, 1}
        assert all(r["num_msg"] == 5 for r in rows)
        assert all(0.0 <= r["message_spread_ratio"] <= 1.0 for r in rows)
        ordered = [(r["topology"], r["protocol"],
                    -1.0 if r["broadcast_probability"] is None
                    else r["broadcast_probability"],
                    r["adversary_ratio"], r["estimator"], r["seed"])
                   for r in rows]
        assert ordered == sorted(ordered)

    def test_aggregate_matches_row_means(self, smoke_run):
        cfg, rows, _, aggregate_path = smoke_run
        agg = aggregate_rows(rows)
        assert len(agg) == 6 * 2  # cells x estimators
        for entry in agg:
            assert entry["num_seeds"] == 2
            matching = [r for r in rows
                        if all(r[c] == entry[c] for c in
                               ("topology", "protocol", "broadcast_probability",
                                "adversary_ratio", "estimator"))]
            vals = [r["hit_ratio"] for r in matching]
            assert entry["hit_ratio_mean"] == pytest.approx(
                sum(vals) / len(vals), abs=1e-15)
            mean = sum(vals) / len(vals)
            var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
            assert entry["hit_ratio_std"] == pytest.approx(math.sqrt(var), abs=1e-15)
        with open(aggregate_path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == AGGREGATE_COLUMNS

    def test_reruns_byte_identical(self, smoke_run, tmp_path):
        _, _, report_path, aggregate_path = smoke_run
        cfg = parse_config(SMOKE_CONFIG)
        _, report2, aggregate2 = run_experiment(cfg, out_dir=str(tmp_path))
        assert Path(report2).read_bytes() == Path(report_path).read_bytes()
        assert Path(aggregate2).read_bytes() == Path(aggregate_path).read_bytes()

    def test_parallel_matches_serial(self, smoke_run, tmp_path):
        _, _, report_path, _ = smoke_run
        cfg = parse_config(SMOKE_CONFIG)
        _, report2, _ = run_experiment(cfg, out_dir=str(tmp_path), parallel=2)
        assert Path(report2).read_bytes() == Path(report_path).read_bytes()

    def test_run_seed_weights_each_graph_once(self, monkeypatch):
        weighed = []
        assign = experiment.assign_weights

        def counting(graph, spec, seed):  # edges: 180 regular, 275 scale-free
            weighed.append((seed, len(graph.edges)))
            return assign(graph, spec, seed)

        monkeypatch.setattr(experiment, "assign_weights", counting)
        cfg = parse_config(SMOKE_CONFIG.replace("topology.kind = regular",
                                                "topology.kind = regular, scale_free"))
        assert len(cfg.cells()) == 12
        for seed in cfg.seeds:
            experiment.run_seed(cfg, seed)
        assert weighed == [(0, 180), (0, 275), (1, 180), (1, 275)]

    def test_betweenness_scored_once_per_graph(self, monkeypatch):
        calls = []
        score = graphs.centrality_scores

        def counting(graph, metric):
            calls.append(metric)
            return score(graph, metric)

        placed = []
        adversary = experiment.Adversary

        def recording(graph, config, seed):
            placed.append((graph, config, seed, adversary(graph, config, seed)))
            return placed[-1][-1]

        monkeypatch.setattr(graphs, "centrality_scores", counting)
        monkeypatch.setattr(experiment, "Adversary", recording)
        cfg = parse_config(SMOKE_CONFIG.replace("adversary.ratio = 0.1, 0.2",
                                                "adversary.ratio = 0.1, 0.2\n"
                                                "adversary.placement = betweenness"))
        for seed in cfg.seeds:
            experiment.run_seed(cfg, seed)
        assert len(placed) == 6 * len(cfg.seeds)
        assert calls == ["betweenness"] * len(cfg.seeds)
        # the kept scores place the nodes that a fresh computation places on a
        # copy of the graph, which starts without scores
        for graph, config, seed, adv in placed:
            fresh = graphs.NetworkGraph(graph.n, graph.edges, graph.latencies)
            assert not fresh._scores
            assert adv.nodes == frozenset(place_adversaries(fresh, config, seed))

    def test_rewritten_graph_file_is_reread(self, tmp_path):
        graph_file = tmp_path / "net.txt"
        cfg = parse_config("topology.kind = file\n"
                           f"topology.path = {graph_file}\n"
                           "num_messages = 2\n"
                           "seeds = 0\n")
        for n in (30, 40):
            save_graph(gen_random_regular(n, 4, seed=1), graph_file)
            rows, _, _ = run_experiment(cfg, out_dir=str(tmp_path))
            assert rows[0]["n"] == n

    def test_run_cell_rereads_rewritten_graph_file(self, tmp_path):
        graph_file = tmp_path / "net.txt"
        cfg = parse_config("topology.kind = file\n"
                           f"topology.path = {graph_file}\n"
                           "num_messages = 2\n"
                           "seeds = 0\n")
        cell = cfg.cells()[0]
        for n in (30, 40):
            save_graph(gen_random_regular(n, 4, seed=1), graph_file)
            rows = experiment.run_cell(cfg, cell, 0)
            assert rows[0]["n"] == n

    def test_run_cell_rereads_rewritten_weight_file(self, monkeypatch, tmp_path):
        weight_file = tmp_path / "weights.txt"
        cfg = parse_config("topology.n = 30\n"
                           "topology.k = 4\n"
                           f"weights.node_weight_file = {weight_file}\n"
                           "num_messages = 2\n"
                           "seeds = 0\n")
        cell = cfg.cells()[0]
        built = []
        make = experiment.make_protocol

        def recording(graph, config, seed):
            built.append(graph)
            return make(graph, config, seed)

        monkeypatch.setattr(experiment, "make_protocol", recording)
        for weight in (2.5, 7.5):
            weight_file.write_text(f"0 {weight}\n")
            experiment.run_cell(cfg, cell, 0)
            assert built[-1].node_weights[0] == weight

    def test_parallel_workers_capped_at_seed_count(self, monkeypatch, tmp_path):
        workers = []

        class InProcessPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", InProcessPool)
        cfg = parse_config(SMOKE_CONFIG)
        run_experiment(cfg, out_dir=str(tmp_path / "two"), parallel=64)
        assert workers == [2]
        one = parse_config(SMOKE_CONFIG.replace("seeds = 0..1", "seeds = 1"))
        run_experiment(one, out_dir=str(tmp_path / "one"), parallel=2)
        assert workers == [2]

    def test_one_seed_parallel_matches_serial(self, tmp_path):
        cfg = parse_config(SMOKE_CONFIG.replace("seeds = 0..1", "seeds = 1"))
        _, serial, serial_agg = run_experiment(cfg, out_dir=str(tmp_path / "serial"))
        _, par, par_agg = run_experiment(cfg, out_dir=str(tmp_path / "par"), parallel=2)
        assert Path(par).read_bytes() == Path(serial).read_bytes()
        assert Path(par_agg).read_bytes() == Path(serial_agg).read_bytes()

    def test_file_topology_and_explicit_nodes(self, tmp_path):
        graph_file = tmp_path / "net.txt"
        save_graph(gen_random_regular(30, 4, seed=1), graph_file)
        text = ("topology.kind = file\n"
                f"topology.path = {graph_file}\n"
                "adversary.nodes = 5, 6, 7\n"
                "num_messages = 4\n"
                "seeds = 0\n")
        cfg = parse_config(text)
        rows, _, _ = run_experiment(cfg, out_dir=str(tmp_path))
        assert len(rows) == 1
        row = rows[0]
        assert row["topology"] == "file"
        assert row["k_or_m"] is None
        assert row["adversary_placement"] == "explicit"
        assert row["adversary_ratio"] == pytest.approx(0.1)


class TestPlotData:
    def test_series_and_values(self, smoke_run, tmp_path):
        cfg, rows, report_path, _ = smoke_run
        out = emit_plot_data(report_path, "figure1",
                             out_path=str(tmp_path / "fig1.csv"))
        with open(out, newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == PLOT_COLUMNS
            plot = list(reader)
        series = {p["series"] for p in plot}
        # the blank probability column is skipped in the label
        assert "broadcast|first_sent" in series
        assert "dandelion|0.5|first_sent" in series
        # 6 series x 2 ratios x 3 metrics
        assert len(plot) == 6 * 2 * 3

        want = [r["hit_ratio"] for r in rows
                if r["protocol"] == "broadcast" and r["estimator"] == "first_sent"
                and r["adversary_ratio"] == 0.1]
        got = [p for p in plot if p["metric"] == "hit_ratio"
               and p["series"] == "broadcast|first_sent" and float(p["x"]) == 0.1]
        assert len(got) == 1
        assert float(got[0]["y"]) == pytest.approx(sum(want) / len(want), abs=1e-15)

    def test_unknown_figure(self, smoke_run):
        _, _, report_path, _ = smoke_run
        with pytest.raises(ConfigError):
            emit_plot_data(report_path, "figure99")

    def test_schema_errors(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("topology,n\nregular,10\n")
        with pytest.raises(SchemaError):
            emit_plot_data(str(bad), "figure1")
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(REPORT_COLUMNS) + "\n")
        with pytest.raises(SchemaError):
            emit_plot_data(str(empty), "figure1")

    def test_all_presets_have_known_columns(self):
        for name, preset in FIGURE_PRESETS.items():
            assert preset["metrics"], name
            assert all(m in REPORT_COLUMNS for m in preset["metrics"])
            assert all(c in REPORT_COLUMNS for c in preset["series"])


class TestCli:
    def write_config(self, tmp_path, text=None):
        path = tmp_path / "exp.cfg"
        path.write_text(text or SMOKE_CONFIG.replace("num_messages = 5",
                                                     "num_messages = 2"))
        return str(path)

    def test_validate_and_run_and_plot(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        assert main(["validate", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "config ok" in out
        assert "expected report rows: 24" in out

        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        report = tmp_path / "smoke.csv"
        assert report.exists()
        assert (tmp_path / "smoke_aggregate.csv").exists()

        assert main(["plot-data", "--report", str(report),
                     "--figure", "figure2"]) == 0
        assert (tmp_path / "smoke_figure2.csv").exists()

    def test_config_errors_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("protocol.kind = flood\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert main(["validate", "--config", str(bad)]) == 2

    def test_non_finite_weights_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("weights.normal_std_ms = nan\n")
        assert main(["validate", "--config", str(bad)]) == 2
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_overflowing_stake_exits_2(self, tmp_path, capsys):
        # a finite stake_mu whose log-normal draw overflows fails before the sweep starts
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMOKE_CONFIG + "weights.stake_mu = 800\n")
        assert main(["validate", "--config", str(bad)]) == 2
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "weights.stake_mu:" in err and "at most 690" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_overflowing_weight_file_exits_2(self, tmp_path, capsys):
        # finite weights from a file whose sum overflows fail as a parameter error
        weights = tmp_path / "weights.txt"
        weights.write_text("".join(f"{u} 1e308\n" for u in range(60)))
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMOKE_CONFIG + f"weights.node_weight_file = {weights}\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "finite sum" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMOKE_CONFIG.replace("seeds = 0..1", "seeds = -1"))
        assert main(["validate", "--config", str(bad)]) == 2
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "seeds: seed must be >= 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("old, new, key", [
        ("seeds = 0..1", "seeds = 0, 1, 1", "seeds:"),
        ("seeds = 0..1", "seeds = 0..2, 2", "seeds:"),
        ("estimator = first_reach, first_sent", "estimator = first_sent, first_sent",
         "estimator:"),
    ])
    def test_repeated_seed_or_estimator_exits_2(self, tmp_path, capsys, old, new, key):
        # a repeated value would write duplicate rows and skew the aggregate
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMOKE_CONFIG.replace(old, new))
        assert main(["validate", "--config", str(bad)]) == 2
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert f"error: {key} repeated" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_dense_regular_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "dense.cfg"
        bad.write_text(SMOKE_CONFIG.replace("topology.n = 60", "topology.n = 50")
                       .replace("topology.k = 6", "topology.k = 47"))
        # validate builds every seed's graphs, so it fails as run does
        assert main(["validate", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n=50, k=47" in err
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n=50, k=47" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_shape_that_pairs_only_at_some_seeds_exits_2(self, tmp_path, capsys):
        # (50, 43) pairs at seeds 0 and 1 but not at seed 2
        bad = tmp_path / "dense.cfg"
        bad.write_text(SMOKE_CONFIG.replace("topology.n = 60", "topology.n = 50")
                       .replace("topology.k = 6", "topology.k = 43")
                       .replace("seeds = 0..1", "seeds = 0..2"))
        assert main(["validate", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n=50, k=43" in err

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 3
        assert main(["plot-data", "--report", str(tmp_path / "nope.csv"),
                     "--figure", "figure1"]) == 3

    def test_bad_parallel_exits_2(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path),
                     "--parallel", "0"]) == 2

    def test_schema_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("topology,n\nregular,10\n")
        assert main(["plot-data", "--report", str(bad), "--figure", "figure1"]) == 2


class TestShippedPresets:
    def test_all_preset_configs_parse(self):
        paths = sorted(PRESET_DIR.glob("*.cfg"))
        assert len(paths) == 6
        for path in paths:
            cfg = load_config(path)
            assert cfg.cells(), path.name

    def test_quickstart_plan(self):
        cfg = load_config(PRESET_DIR / "quickstart.cfg")
        assert cfg.n == 100
        assert len(cfg.cells()) == 1
        assert len(cfg.seeds) == 10
        assert cfg.num_messages == 20
