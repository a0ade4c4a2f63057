"""Workloads and metric catalog of the gossipsim benchmark.

Each workload is a paper-shaped sweep written as config text from a workload
seed, so the program only ever sees a generated config. The metric catalog
names every metric the benchmark reports, its unit, and which end-to-end
metric a layer metric is expected to move on which workload; BENCHMARK.json
lists the same names (selfcheck.py asserts that).
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")

# Workload seeds whose report and aggregate CSV sha256 are recorded in
# references.json: the default seed and one seed held out while tuning.
DEFAULT_SEED = 0
HELDOUT_SEED = 1

# Config seeds of workload seed s start at s * SEED_STRIDE, so two workload
# seeds never share a graph.
SEED_STRIDE = 1000

SIZES = ("full", "tiny")


class Workload:
    """One sweep shape: fixed grid axes, sized messages and seeds."""

    def __init__(self, name, why, topologies, protocols, modes, probabilities,
                 placements, actives, estimators, messages, seeds, n=1000, k=50,
                 m=5):
        self.name = name
        self.why = why
        self.topologies = topologies
        self.protocols = protocols
        self.modes = modes
        self.probabilities = probabilities
        self.placements = placements
        self.actives = actives
        self.estimators = estimators
        self.messages = messages
        self.seeds = seeds
        self.n = n
        self.k = k
        self.m = m

    def shape(self, size):
        """(n, k, messages, seeds) at the given size."""
        if size == "tiny":
            return min(self.n, 60), min(self.k, 6), 2, 1
        return self.n, self.k, self.messages, self.seeds

    def cells(self):
        """Number of cells the config grid expands to (stem kinds use every p)."""
        per_protocol = sum(len(self.probabilities) if p in ("dandelion", "dandelion_pp")
                           else 1 for p in self.protocols)
        return (len(self.topologies) * per_protocol * len(self.modes)
                * len(self.placements) * len(self.actives))

    def tasks(self, size):
        return self.cells() * self.shape(size)[3]

    def total_messages(self, size):
        return self.tasks(size) * self.shape(size)[2]

    def config_text(self, seed, size):
        n, k, messages, seeds = self.shape(size)
        first = seed * SEED_STRIDE
        keys = [
            ("topology.kind", ", ".join(self.topologies)),
            ("topology.n", n),
            ("topology.k", k),
            ("topology.m", self.m),
            ("weights.node_mode", "stake"),
            ("weights.edge_mode", "normal"),
            ("protocol.kind", ", ".join(self.protocols)),
            ("protocol.broadcast_mode", ", ".join(self.modes)),
            ("protocol.broadcast_probability", ", ".join(map(str, self.probabilities))),
            ("adversary.ratio", 0.1),
            ("adversary.placement", ", ".join(self.placements)),
            ("adversary.active", ", ".join("true" if a else "false" for a in self.actives)),
            ("adversary.protocol_aware", "true"),
            ("estimator", ", ".join(self.estimators)),
            ("num_messages", messages),
            ("seeds", f"{first}..{first + seeds - 1}"),
            ("output_path", f"{self.name}.csv"),
        ]
        header = f"# {self.name}, workload seed {seed}, size {size}\n"
        return header + "".join(f"{key} = {value}\n" for key, value in keys)


WORKLOADS = {w.name: w for w in [
    Workload(
        "stem_sqrt",
        why=("figure1/figure6 grid: all four protocols, sqrt fanout, stem coins, "
             "onion hops and refinement at ~6.6k events per message; engine-bound"),
        topologies=("regular",),
        protocols=("broadcast", "dandelion", "dandelion_pp", "onion"),
        modes=("sqrt",), probabilities=(0.5, 0.125),
        placements=("random",), actives=(False, True),
        estimators=("first_reach", "first_sent"),
        messages=8, seeds=2),
    Workload(
        "flood_all",
        why=("figure4/figure5 grid: flood to all on regular and scale-free graphs, "
             "censoring adversaries; duplicate deliveries and observation logs dominate"),
        topologies=("regular", "scale_free"),
        protocols=("broadcast", "dandelion_pp"),
        modes=("all",), probabilities=(0.5,),
        placements=("random", "degree"), actives=(False, True),
        estimators=("first_sent",),
        messages=3, seeds=1),
]}


# -- metric catalog -----------------------------------------------------------

class Metric:
    def __init__(self, name, unit, better, what, moves=None, bound=None):
        self.name = name
        self.unit = unit
        self.better = better
        self.what = what
        self.moves = moves
        self.bound = bound


END_TO_END = [
    Metric("sweep_s", "s", "lower", bound=0.25,
           what="median wall time of one run_experiment call, graphs and CSVs included"),
    Metric("msgs_per_s", "msg/s", "higher", bound=0.25,
           what="simulated messages / sweep_s, at the workload's graph size"),
    Metric("setup_s", "s", "lower", bound=0.25,
           what=("median fresh-process time to import gossipsim, parse the config and "
                 "build the first seed's weighted graphs")),
    Metric("peak_rss_mb", "MB", "lower", bound=0.05,
           what="median peak resident memory of the process that ran the sweep"),
]

PER_LAYER = [
    Metric("graphs.gen_s", "s", "lower", "graph generation per sweep",
           "setup_s everywhere; sweep_s on stem_sqrt (two seeds' graphs)"),
    Metric("graphs.weights_s", "s", "lower", "assign_weights per sweep",
           "setup_s everywhere; sweep_s on stem_sqrt"),
    Metric("graphs.csr_s", "s", "lower",
           "csr_latency_matrix build for one weighted graph (probe after the sweep)",
           "sweep_s on stem_sqrt (onion cells); none on flood_all"),
    Metric("graphs.graph_mb", "MB", "lower", "one weighted graph, tracemalloc",
           "peak_rss_mb on stem_sqrt and flood_all"),
    Metric("graphs.self_s", "s", "lower", "graphs layer self time per sweep",
           "setup_s everywhere; sweep_s on stem_sqrt"),
    Metric("protocols.build_s", "s", "lower", "make_protocol per sweep",
           "sweep_s on stem_sqrt (anonymity graphs per stem cell)"),
    Metric("protocols.onion_rows", "count", "lower",
           "dijkstra distance rows per sweep (onion cells)",
           "sweep_s on stem_sqrt; none on flood_all"),
    Metric("protocols.self_s", "s", "lower",
           "make_protocol plus onion dijkstra rows, self time per sweep",
           "sweep_s on stem_sqrt; none on flood_all"),
    Metric("engine.msg_ms_p50", "ms", "lower", "run_message time per message, median",
           "sweep_s/msgs_per_s on flood_all, then stem_sqrt"),
    Metric("engine.msg_ms_p90", "ms", "lower", "run_message time per message, p90",
           "sweep_s/msgs_per_s on flood_all, then stem_sqrt"),
    Metric("engine.spawn_ms", "ms", "lower", "spawn_message time per message, mean",
           "sweep_s on stem_sqrt (onion first hop)"),
    Metric("engine.events_per_msg", "count", "lower", "events popped per message",
           "sweep_s/msgs_per_s on flood_all, then stem_sqrt"),
    Metric("engine.useful_ratio", "ratio", "higher",
           "new first receipts / events popped",
           "sweep_s/msgs_per_s on flood_all, then stem_sqrt"),
    Metric("engine.self_s", "s", "lower", "engine self time per sweep",
           "sweep_s/msgs_per_s on flood_all, then stem_sqrt"),
    Metric("adversary.build_s", "s", "lower", "Adversary construction incl. placement",
           "sweep_s on flood_all (degree placement per cell), small share"),
    Metric("adversary.obs_per_msg", "count", "lower", "observations logged per message",
           "peak_rss_mb on flood_all"),
    Metric("adversary.censored_per_msg", "count", "lower",
           "deliveries censored by active adversaries per message",
           "sweep_s on flood_all (active cells cut floods short)"),
    Metric("adversary.log_mb", "MB", "lower",
           "observation log size of the largest cell (lists, tuples, floats)",
           "peak_rss_mb on flood_all"),
    Metric("adversary.self_s", "s", "lower", "adversary layer self time per sweep",
           "sweep_s on flood_all, small share"),
    Metric("estimators.base_ms", "ms", "lower",
           "estimate_first_sent/first_reach time per call, mean",
           "sweep_s on flood_all (thousands of observations per message)"),
    Metric("estimators.refine_ms", "ms", "lower", "refine_dandelion time per call, mean",
           "sweep_s on stem_sqrt (p = 0.125) and flood_all"),
    Metric("estimators.self_s", "s", "lower", "estimators self time per sweep",
           "sweep_s on flood_all and stem_sqrt"),
    Metric("evaluator.dists_s", "s", "lower", "build_distributions per sweep",
           "sweep_s on flood_all and stem_sqrt, small share"),
    Metric("evaluator.report_s", "s", "lower", "compute_report per sweep",
           "sweep_s on stem_sqrt, small share"),
    Metric("evaluator.unobserved_ratio", "ratio", "lower",
           "messages without a usable observation / messages evaluated",
           "none (a change here is a behaviour change)"),
    Metric("evaluator.self_s", "s", "lower", "evaluator self time per sweep",
           "sweep_s on flood_all and stem_sqrt, small share"),
    Metric("experiment.parse_s", "s", "lower", "parse_config in a fresh process",
           "setup_s"),
    Metric("experiment.task_s_p50", "s", "lower", "run_cell time per (cell, seed) task, median",
           "sweep_s on every workload"),
    Metric("experiment.task_s_max", "s", "lower", "run_cell time per task, max",
           "sweep_s on flood_all"),
    Metric("experiment.write_s", "s", "lower",
           "write_report + aggregate_rows + write_aggregate per sweep",
           "sweep_s on stem_sqrt (most rows), small share"),
    Metric("experiment.self_s", "s", "lower",
           "experiment self time per sweep (run_cell glue, Simulation loop, sorting)",
           "sweep_s on stem_sqrt (Simulation set-up per cell), small share"),
    Metric("cli.import_s", "s", "lower", "import gossipsim.cli in a fresh process",
           "setup_s"),
    Metric("trace.overhead_ratio", "ratio", "lower",
           "traced sweep_s / untraced sweep_s, medians", "none (tracer cost)"),
]

def load_references():
    with open(REFERENCES_PATH) as fh:
        return json.load(fh)


def reference_for(workload, seed, size):
    """Recorded {report_sha256, aggregate_sha256} or None."""
    if size != "full":
        return None
    return load_references().get(workload, {}).get(str(seed))
