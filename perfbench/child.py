"""One benchmark step in a fresh interpreter: a set-up probe or one sweep.

Reads a JSON job on stdin and prints one JSON object as its last stdout line.
run.py starts it with PYTHONPATH pointing at the checkout's src/, so the
package under test is the one built from the checkout. A fresh process per
step means imports, the per-process graph cache and peak memory are paid and
measured the way a user of `gossipsim run` pays them.

Jobs:
  {"step": "warm"}                         import once (compiles bytecode)
  {"step": "setup", "config": text, "offset": i}
                                           time import + parse + first graphs
  {"step": "sweep", "config": text, "out_dir": dir, "trace": bool,
   "spans_path": path}                     one run_experiment call
"""

import json
import os
import resource
import sys
import time
import traceback

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_gossipsim():
    import gossipsim
    if not os.path.abspath(gossipsim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gossipsim was imported from {gossipsim.__file__}, not from {SRC}")
    return gossipsim


def _versions():
    import networkx
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "networkx": networkx.__version__,
            "cpu_count": os.cpu_count()}


def warm(job):
    _import_gossipsim()
    return {"versions": _versions()}


def setup(job):
    """Import gossipsim, parse the config, build the first seed's weighted graphs.

    job["offset"] shifts that seed, so the set-ups of one run average over
    several graphs instead of timing one graph's generation retries.
    """
    t0 = time.perf_counter()
    gossipsim = _import_gossipsim()
    t_import = time.perf_counter()
    cfg = gossipsim.parse_config(job["config"])
    t_parse = time.perf_counter()
    seed = cfg.seeds[0] + job["offset"]
    spec = cfg.weight_spec()
    for topology in cfg.topology_kinds:
        if topology == "regular":
            graph = gossipsim.gen_random_regular(cfg.n, cfg.k, seed)
        else:
            graph = gossipsim.gen_scale_free(cfg.n, cfg.m, seed)
        gossipsim.assign_weights(graph, spec, seed)
    t1 = time.perf_counter()
    return {"setup_s": t1 - t0, "import_s": t_import - t0, "parse_s": t_parse - t_import}


def _count_failed(experiment, cfg):
    """Run every (cell, seed) task on its own and count the ones that raise."""
    failed = 0
    for seed in cfg.seeds:
        for cell in cfg.cells():
            try:
                experiment.run_cell(cfg, cell, seed)
            except Exception:
                failed += 1
    return failed


def _graph_probes(gossipsim, cfg):
    """Memory of one weighted graph of the first topology, and its CSR build time."""
    import tracemalloc
    seed = cfg.seeds[0]
    tracemalloc.start()
    try:
        if cfg.topology_kinds[0] == "regular":
            graph = gossipsim.gen_random_regular(cfg.n, cfg.k, seed)
        else:
            graph = gossipsim.gen_scale_free(cfg.n, cfg.m, seed)
        graph = gossipsim.assign_weights(graph, cfg.weight_spec(), seed)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    t0 = time.perf_counter()
    graph.csr_latency_matrix()
    return {"graphs.graph_mb": held / 2 ** 20, "graphs.csr_s": time.perf_counter() - t0}


def sweep(job):
    """One run_experiment call, optionally traced; reports time, memory, tasks."""
    probes = {}
    t0 = time.perf_counter()
    import gossipsim.cli  # noqa: F401  (the CLI's import cost, fresh process)
    probes["cli.import_s"] = time.perf_counter() - t0
    gossipsim = _import_gossipsim()
    from gossipsim import experiment
    t0 = time.perf_counter()
    cfg = gossipsim.parse_config(job["config"])
    probes["experiment.parse_s"] = time.perf_counter() - t0
    tasks = len(cfg.cells()) * len(cfg.seeds)

    tracer = None
    error = None
    # installing counts as traced sweep time: it imports scipy.sparse.csgraph,
    # which an untraced sweep imports lazily on its first onion hop
    t0 = time.perf_counter()
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        experiment.run_experiment(cfg, out_dir=job["out_dir"], parallel=1)
    except Exception:
        error = traceback.format_exc()
    sweep_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    failed = _count_failed(experiment, cfg) if error else 0
    if error and not failed:
        failed = tasks  # the sweep itself broke outside any single task
    result = {"sweep_s": sweep_s, "peak_rss_mb": peak_rss_mb, "tasks": tasks,
              "failed": failed, "error": error}
    if tracer is not None:
        probes.update(_graph_probes(gossipsim, cfg))
        with open(job["spans_path"], "w") as fh:
            json.dump(tracer.dump(), fh)
        result["probes"] = probes
    return result


def main():
    job = json.load(sys.stdin)
    step = {"warm": warm, "setup": setup, "sweep": sweep}[job["step"]]
    print(json.dumps(step(job)))


if __name__ == "__main__":
    main()
