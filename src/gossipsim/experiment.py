"""Experiment configs, sweep execution and report emission.

A config is a flat text file of dotted keys (key = value, '#' comments).
Sweepable axes (protocol kind/mode/probability, adversary ratio/placement/
active, topology kind) expand into a Cartesian product of cells; every cell
runs once per seed and yields one CSV row per estimator. Identical config and
seeds produce byte-identical CSV output.
"""

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import attrgetter

from .adversary import (Adversary, AdversaryConfig, adversary_count,
                        check_adversary_nodes)
from .engine import Simulation, derive_seed
from .errors import ConfigError, ParameterError, SchemaError
from .evaluator import ESTIMATORS, evaluate, left_sum
from .graphs import (WeightGeneratorSpec, assign_weights, check_regular,
                     check_scale_free, check_stake, gen_random_regular,
                     gen_scale_free, load_graph, load_node_weights)
from .protocols import (STEM_KINDS, ProtocolConfig, check_onion_path_len,
                        make_protocol)

TOPOLOGY_KINDS = ("regular", "scale_free", "file")

REPORT_COLUMNS = [
    "topology", "n", "k_or_m", "protocol", "broadcast_mode",
    "broadcast_probability", "adversary_ratio", "adversary_placement",
    "adversary_active", "estimator", "seed", "num_msg", "num_unobserved",
    "hit_ratio", "inverse_rank", "entropy", "ndcg", "message_spread_ratio",
]

METRIC_COLUMNS = ["hit_ratio", "inverse_rank", "entropy", "ndcg",
                  "message_spread_ratio"]

CELL_COLUMNS = ["topology", "n", "k_or_m", "protocol", "broadcast_mode",
                "broadcast_probability", "adversary_ratio",
                "adversary_placement", "adversary_active", "estimator"]


@dataclass(frozen=True)
class CellSpec:
    """One point of the sweep grid (everything that varies except the seed)."""

    topology: str
    protocol: str
    broadcast_mode: str
    broadcast_probability: float  # None for protocols without a coin
    adversary_ratio: float        # None when explicit nodes are configured
    adversary_placement: str
    adversary_active: bool


@contextmanager
def _config_key(key):
    """Re-raise a ParameterError from the code that owns a check under its config key."""
    try:
        yield
    except ParameterError as exc:
        raise ConfigError(f"{key}: {exc}") from None


@dataclass
class ExperimentConfig:
    """Normalized experiment description (see parse_config for the file form)."""

    topology_kinds: tuple = ("regular",)
    n: int = 1000
    k: int = 50
    m: int = 5
    graph_path: str = None
    node_mode: str = "stake"
    edge_mode: str = "normal"
    normal_mean_ms: float = 171.0
    normal_std_ms: float = 76.0
    uniform_low_ms: float = 95.0
    uniform_high_ms: float = 247.0
    stake_mu: float = 7.0
    stake_sigma: float = 1.5
    node_weight_file: str = None
    protocol_kinds: tuple = ("broadcast",)
    broadcast_modes: tuple = ("all",)
    broadcast_probabilities: tuple = (0.5,)
    stem_cap: int = 40
    onion_path_len: int = 3
    adversary_ratios: tuple = (0.1,)
    adversary_nodes: tuple = None
    adversary_placements: tuple = ("random",)
    adversary_actives: tuple = (False,)
    protocol_aware: bool = True
    estimators: tuple = ("first_sent",)
    num_messages: int = 200
    seeds: tuple = tuple(range(10))
    use_node_weights: bool = True
    output_path: str = None

    def weight_spec(self):
        return WeightGeneratorSpec(
            node_mode=self.node_mode, edge_mode=self.edge_mode,
            normal_mean_ms=self.normal_mean_ms, normal_std_ms=self.normal_std_ms,
            uniform_low_ms=self.uniform_low_ms, uniform_high_ms=self.uniform_high_ms,
            stake_mu=self.stake_mu, stake_sigma=self.stake_sigma)

    def validate(self):
        """Check every value; checks owned by other objects run there.

        Checks that need the node count run against topology.n when the grid
        has a generated topology; loaded files are checked at run time.
        """
        for kind in self.topology_kinds:
            if kind not in TOPOLOGY_KINDS:
                raise ConfigError(f"topology.kind: unknown topology {kind!r}")
        if not self.topology_kinds:
            raise ConfigError("topology.kind: need at least one topology")
        generated = any(kind != "file" for kind in self.topology_kinds)
        if "regular" in self.topology_kinds:
            with _config_key("topology.k"):
                check_regular(self.n, self.k)
        if "scale_free" in self.topology_kinds:
            with _config_key("topology.m"):
                check_scale_free(self.n, self.m)
        if "file" in self.topology_kinds and not self.graph_path:
            raise ConfigError("topology.path: required for topology.kind = file")
        with _config_key("weights"):
            self.weight_spec()
        if self.node_mode == "stake":
            with _config_key("weights.stake_mu"):
                check_stake(self.stake_mu, self.stake_sigma)
        if not self.protocol_kinds:
            raise ConfigError("protocol.kind: need at least one protocol")
        for key, values in (("kind", self.protocol_kinds),
                            ("broadcast_mode", self.broadcast_modes),
                            ("broadcast_probability", self.broadcast_probabilities),
                            ("stem_cap", (self.stem_cap,)),
                            ("onion_path_len", (self.onion_path_len,))):
            with _config_key(f"protocol.{key}"):
                for value in values:
                    ProtocolConfig(**{key: value})
        if "onion" in self.protocol_kinds and generated:
            with _config_key("protocol.onion_path_len"):
                check_onion_path_len(self.onion_path_len, self.n)
        ratios = self.adversary_ratios if self.adversary_ratios is not None else (None,)
        with _config_key("adversary.ratio"):
            for ratio in ratios:
                AdversaryConfig(ratio=ratio, nodes=self.adversary_nodes)
        with _config_key("adversary.placement"):
            for placement in self.adversary_placements:  # ratio only fills the one-of rule
                AdversaryConfig(ratio=0.0, placement=placement)
        if not self.estimators:
            raise ConfigError("estimator: need at least one estimator")
        for est in self.estimators:
            if est not in ESTIMATORS:
                raise ConfigError(f"estimator: unknown estimator {est!r}")
        if len(set(self.estimators)) < len(self.estimators):
            raise ConfigError(f"estimator: repeated estimator in {list(self.estimators)}")
        if self.num_messages < 1:
            raise ConfigError(f"num_messages: must be >= 1, got {self.num_messages}")
        if not self.seeds:
            raise ConfigError("seeds: need at least one seed")
        with _config_key("seeds"):
            for seed in self.seeds:
                derive_seed(seed)
        # a repeated seed would add a duplicate row and weigh twice in mean and std
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds: repeated seed in {list(self.seeds)}")
        # estimation needs someone to observe
        if self.adversary_ratios is not None and generated:
            for f in self.adversary_ratios:
                if adversary_count(f, self.n) < 1:
                    raise ConfigError(
                        f"adversary.ratio: floor({f} * {self.n}) is an empty adversary "
                        f"set but estimation metrics were requested")
        if self.adversary_nodes is not None and not self.adversary_nodes:
            raise ConfigError("adversary.nodes: empty adversary set but estimation "
                              "metrics were requested")
        if self.adversary_nodes is not None and generated:
            with _config_key("adversary.nodes"):
                check_adversary_nodes(self.adversary_nodes, self.n)
        return self

    def cells(self):
        """Expand sweep axes into deduplicated CellSpecs, config order."""
        seen = set()
        out = []
        ratios = self.adversary_ratios if self.adversary_ratios is not None else (None,)
        placements = (self.adversary_placements if self.adversary_nodes is None
                      else ("explicit",))
        for topology in self.topology_kinds:
            for kind in self.protocol_kinds:
                ps = self.broadcast_probabilities if kind in STEM_KINDS else (None,)
                for mode in self.broadcast_modes:
                    for p in ps:
                        for ratio in ratios:
                            for placement in placements:
                                for active in self.adversary_actives:
                                    cell = CellSpec(topology, kind, mode, p, ratio,
                                                    placement, bool(active))
                                    if cell not in seen:
                                        seen.add(cell)
                                        out.append(cell)
        return out


# -- config file parsing ------------------------------------------------

_LIST_STR = "list_str"
_LIST_FLOAT = "list_float"
_LIST_INT = "list_int"
_LIST_BOOL = "list_bool"
_SEEDS = "seeds"

# config key -> (value kind, ExperimentConfig field)
CONFIG_KEYS = {
    "topology.kind": (_LIST_STR, "topology_kinds"),
    "topology.n": ("int", "n"),
    "topology.k": ("int", "k"),
    "topology.m": ("int", "m"),
    "topology.path": ("str", "graph_path"),
    "weights.node_mode": ("str", "node_mode"),
    "weights.edge_mode": ("str", "edge_mode"),
    "weights.normal_mean_ms": ("float", "normal_mean_ms"),
    "weights.normal_std_ms": ("float", "normal_std_ms"),
    "weights.uniform_low_ms": ("float", "uniform_low_ms"),
    "weights.uniform_high_ms": ("float", "uniform_high_ms"),
    "weights.stake_mu": ("float", "stake_mu"),
    "weights.stake_sigma": ("float", "stake_sigma"),
    "weights.node_weight_file": ("str", "node_weight_file"),
    "protocol.kind": (_LIST_STR, "protocol_kinds"),
    "protocol.broadcast_mode": (_LIST_STR, "broadcast_modes"),
    "protocol.broadcast_probability": (_LIST_FLOAT, "broadcast_probabilities"),
    "protocol.stem_cap": ("int", "stem_cap"),
    "protocol.onion_path_len": ("int", "onion_path_len"),
    "adversary.ratio": (_LIST_FLOAT, "adversary_ratios"),
    "adversary.nodes": (_LIST_INT, "adversary_nodes"),
    "adversary.placement": (_LIST_STR, "adversary_placements"),
    "adversary.active": (_LIST_BOOL, "adversary_actives"),
    "adversary.protocol_aware": ("bool", "protocol_aware"),
    "estimator": (_LIST_STR, "estimators"),
    "num_messages": ("int", "num_messages"),
    "seeds": (_SEEDS, "seeds"),
    "use_node_weights": ("bool", "use_node_weights"),
    "output_path": ("str", "output_path"),
}


def _parse_bool(tok, key):
    low = tok.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {tok!r}")


def _parse_scalar(kind, tok, key):
    try:
        if kind == "int":
            return int(tok)
        if kind == "float":
            return float(tok)
    except ValueError:
        raise ConfigError(f"{key}: expected a {kind}, got {tok!r}") from None
    if kind == "bool":
        return _parse_bool(tok, key)
    return tok


def _parse_value(kind, value, key):
    if kind in ("int", "float", "bool", "str"):
        return _parse_scalar(kind, value, key)
    items = [t.strip() for t in value.split(",") if t.strip()]
    if not items:
        raise ConfigError(f"{key}: empty value")
    if kind == _LIST_STR:
        return tuple(items)
    if kind == _LIST_FLOAT:
        return tuple(_parse_scalar("float", t, key) for t in items)
    if kind == _LIST_INT:
        return tuple(_parse_scalar("int", t, key) for t in items)
    if kind == _LIST_BOOL:
        return tuple(_parse_bool(t, key) for t in items)
    # seeds: comma list of ints, each item may be a lo..hi range
    seeds = []
    for t in items:
        if ".." in t:
            lo, _, hi = t.partition("..")
            lo = _parse_scalar("int", lo.strip(), key)
            hi = _parse_scalar("int", hi.strip(), key)
            if hi < lo:
                raise ConfigError(f"{key}: empty range {t!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(_parse_scalar("int", t, key))
    return tuple(seeds)


def parse_config(text, base_dir=None):
    """Parse config text into a validated ExperimentConfig."""
    cfg = ExperimentConfig()
    explicit_ratio = False
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})")
        seen[key] = lineno
        kind, attr = CONFIG_KEYS[key]
        setattr(cfg, attr, _parse_value(kind, value, key))
        if key == "adversary.ratio":
            explicit_ratio = True
    if cfg.adversary_nodes is not None and not explicit_ratio:
        cfg.adversary_ratios = None
    if base_dir:
        for attr in ("graph_path", "node_weight_file"):
            p = getattr(cfg, attr)
            if p and not os.path.isabs(p):
                setattr(cfg, attr, os.path.join(base_dir, p))
    return cfg.validate()


def load_config(path):
    with open(path) as fh:
        text = fh.read()
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))


# -- execution -----------------------------------------------------------

def _build_graph(cfg, topology, seed):
    """Weighted graph for one topology at one seed."""
    if topology == "regular":
        graph = gen_random_regular(cfg.n, cfg.k, seed)
    elif topology == "scale_free":
        graph = gen_scale_free(cfg.n, cfg.m, seed)
    else:
        graph = load_graph(cfg.graph_path)
    graph = assign_weights(graph, cfg.weight_spec(), seed)
    if cfg.node_weight_file:
        graph = load_node_weights(graph, cfg.node_weight_file)
    return graph


def _k_or_m(cfg, topology):
    if topology == "regular":
        return cfg.k
    if topology == "scale_free":
        return cfg.m
    return None


def run_cell(cfg, cell, seed, graph=None):
    """Simulate one cell at one seed; returns one row dict per estimator.

    graph is the cell's weighted graph at this seed; it is built when omitted.
    """
    if graph is None:
        graph = _build_graph(cfg, cell.topology, seed)
    adv_cfg = AdversaryConfig(
        ratio=cell.adversary_ratio,
        nodes=cfg.adversary_nodes,
        placement=cell.adversary_placement if cell.adversary_placement != "explicit"
        else "random",
        active=cell.adversary_active,
        protocol_aware=cfg.protocol_aware)
    adversary = Adversary(graph, adv_cfg, seed)
    if not adversary.nodes:
        raise ConfigError(
            f"adversary.ratio: floor({cell.adversary_ratio} * {graph.n}) is an empty "
            f"adversary set but estimation metrics were requested")
    proto_cfg = ProtocolConfig(
        kind=cell.protocol,
        broadcast_mode=cell.broadcast_mode,
        broadcast_probability=(cell.broadcast_probability
                               if cell.broadcast_probability is not None else 0.5),
        stem_cap=cfg.stem_cap,
        onion_path_len=cfg.onion_path_len)
    protocol = make_protocol(graph, proto_cfg, seed)
    run = Simulation(protocol, adversary, num_messages=cfg.num_messages,
                     seed=seed, use_node_weights=cfg.use_node_weights).run()
    ratio = cell.adversary_ratio
    if ratio is None:
        ratio = len(adversary.nodes) / graph.n
    cell_columns = {
        "topology": cell.topology,
        "n": graph.n,
        "k_or_m": _k_or_m(cfg, cell.topology),
        "protocol": cell.protocol,
        "broadcast_mode": cell.broadcast_mode,
        "broadcast_probability": cell.broadcast_probability,
        "adversary_ratio": ratio,
        "adversary_placement": cell.adversary_placement,
        "adversary_active": cell.adversary_active,
        "seed": seed,
    }
    return [{**cell_columns,
             **evaluate(run, estimator).as_dict()}
            for estimator in cfg.estimators]


def run_seed(cfg, seed):
    """Run every cell at one seed; returns their rows in cell order.

    cells() lists cells topology by topology, so each topology's graph, with
    its centrality scores, is built once, when its first cell needs it.
    """
    rows = []
    for topology, cells in groupby(cfg.cells(), key=attrgetter("topology")):
        graph = _build_graph(cfg, topology, seed)
        for cell in cells:
            rows.extend(run_cell(cfg, cell, seed, graph))
    return rows


def _row_order(row):
    return (row["topology"], row["n"], str(row["k_or_m"]), row["protocol"],
            row["broadcast_mode"],
            -1.0 if row["broadcast_probability"] is None else row["broadcast_probability"],
            row["adversary_ratio"], row["adversary_placement"],
            row["adversary_active"], row["estimator"], row["seed"])


def run_experiment(cfg, out_dir=".", parallel=1):
    """Run the full sweep and write the report and aggregate CSVs.

    Seeds are independent; with parallel > 1 they are distributed over at
    most len(cfg.seeds) worker processes. Rows are gathered and sorted before
    writing, so the output bytes do not depend on scheduling.
    """
    cfg.validate()
    workers = min(parallel, len(cfg.seeds))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_seed, repeat(cfg), cfg.seeds))
    else:
        results = [run_seed(cfg, seed) for seed in cfg.seeds]
    rows = [row for chunk in results for row in chunk]
    rows.sort(key=_row_order)

    report_path = cfg.output_path or "report.csv"
    if not os.path.isabs(report_path):
        report_path = os.path.join(out_dir, report_path)
    os.makedirs(os.path.dirname(report_path) or ".", exist_ok=True)
    write_report(rows, report_path)
    aggregate_path = _aggregate_path(report_path)
    write_aggregate(aggregate_rows(rows), aggregate_path)
    return rows, report_path, aggregate_path


def _aggregate_path(report_path):
    stem, ext = os.path.splitext(report_path)
    return f"{stem}_aggregate{ext or '.csv'}"


def _format(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow([_format(row[c]) for c in REPORT_COLUMNS])
    return path


def aggregate_rows(rows):
    """Mean and std over seeds for each (cell, estimator) group."""
    groups = {}
    for row in rows:
        key = tuple(row[c] for c in CELL_COLUMNS)
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups, key=lambda k: tuple(str(x) for x in k)):
        seed_rows = groups[key]
        agg = dict(zip(CELL_COLUMNS, key))
        agg["num_seeds"] = len(seed_rows)
        for metric in METRIC_COLUMNS:
            agg[f"{metric}_mean"], agg[f"{metric}_std"] = _mean_std(
                [r[metric] for r in seed_rows])
        out.append(agg)
    return out


def _mean_std(vals):
    """Mean and sample (n-1) standard deviation; the std of one value is 0.0."""
    mean = left_sum(vals) / len(vals)
    if len(vals) < 2:
        return mean, 0.0
    return mean, math.sqrt(left_sum((v - mean) ** 2 for v in vals) / (len(vals) - 1))


AGGREGATE_COLUMNS = (CELL_COLUMNS + ["num_seeds"]
                     + [f"{m}_{s}" for m in METRIC_COLUMNS for s in ("mean", "std")])


def write_aggregate(agg_rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(AGGREGATE_COLUMNS)
        for row in agg_rows:
            writer.writerow([_format(row[c]) for c in AGGREGATE_COLUMNS])
    return path


# -- plot data ------------------------------------------------------------

# Figure presets: which metrics to emit and which columns distinguish series.
# x is always the adversary ratio. Presets whose configs sweep several
# protocols keep the estimator in the series label so both estimators can be
# plotted from one report.
FIGURE_PRESETS = {
    "figure1": {  # estimator comparison across protocols
        "metrics": ["hit_ratio", "inverse_rank", "ndcg"],
        "series": ["protocol", "broadcast_probability", "estimator"],
    },
    "figure2": {  # entropy of the candidate distributions
        "metrics": ["entropy"],
        "series": ["protocol", "broadcast_probability", "estimator"],
    },
    "figure3": {  # topology comparison
        "metrics": ["hit_ratio", "inverse_rank", "ndcg"],
        "series": ["topology", "protocol", "broadcast_probability", "estimator"],
    },
    "figure4": {  # broadcast fanout settings
        "metrics": ["inverse_rank"],
        "series": ["protocol", "broadcast_mode", "estimator"],
    },
    "figure5": {  # robustness: spread under censorship
        "metrics": ["message_spread_ratio"],
        "series": ["protocol", "adversary_placement", "adversary_active"],
    },
    "figure6": {  # active vs passive adversary power
        "metrics": ["inverse_rank"],
        "series": ["topology", "protocol", "adversary_active"],
    },
}

PLOT_COLUMNS = ["figure", "metric", "series", "x", "y", "y_err"]


def emit_plot_data(report_path, figure, out_path=None):
    """Reduce a report CSV to long-format plot data for one figure preset."""
    preset = FIGURE_PRESETS.get(figure)
    if preset is None:
        raise ConfigError(
            f"unknown figure preset {figure!r}, available: {', '.join(sorted(FIGURE_PRESETS))}")
    with open(report_path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in REPORT_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"report is missing columns: {', '.join(missing)}")
        rows = list(reader)
    if not rows:
        raise SchemaError("report has no data rows")

    groups = {}
    for row in rows:
        series = "|".join(row[c] for c in preset["series"] if row[c] != "")
        try:
            x = float(row["adversary_ratio"])
        except ValueError:
            raise SchemaError(
                f"bad adversary_ratio value {row['adversary_ratio']!r}") from None
        for metric in preset["metrics"]:
            try:
                y = float(row[metric])
            except ValueError:
                raise SchemaError(f"bad {metric} value {row[metric]!r}") from None
            groups.setdefault((metric, series, x), []).append(y)

    out_path = out_path or f"{os.path.splitext(report_path)[0]}_{figure}.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PLOT_COLUMNS)
        for metric, series, x in sorted(groups):
            mean, err = _mean_std(groups[(metric, series, x)])
            writer.writerow([figure, metric, series, repr(x), repr(mean), repr(err)])
    return out_path
