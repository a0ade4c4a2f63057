"""Command line interface: run experiments, validate configs, emit plot data."""

import argparse
import sys

from .errors import (ConfigError, FormatError, GenerationError, ParameterError,
                     SchemaError)
from .experiment import (FIGURE_PRESETS, _build_graph, emit_plot_data, load_config,
                         run_experiment)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gossipsim",
        description="Deanonymization experiments on simulated gossip networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the sweep described by a config file")
    p_run.add_argument("--config", required=True, help="experiment config file")
    p_run.add_argument("--out", default=".",
                       help="directory for the report CSVs (default: cwd)")
    p_run.add_argument("--parallel", type=int, default=1, metavar="N",
                       help="worker processes; each runs one seed at a time, so at "
                       "most one per seed is started (default: 1)")

    p_plot = sub.add_parser("plot-data",
                            help="reduce a report CSV to plot-ready series")
    p_plot.add_argument("--report", required=True, help="report CSV from 'run'")
    p_plot.add_argument("--figure", required=True, choices=sorted(FIGURE_PRESETS),
                        help="figure preset to emit")
    p_plot.add_argument("--out", default=None,
                        help="output CSV path (default: <report>_<figure>.csv)")

    p_val = sub.add_parser("validate", help="check a config file and print the plan")
    p_val.add_argument("--config", required=True, help="experiment config file")
    return parser


def _cmd_run(args):
    cfg = load_config(args.config)
    if args.parallel < 1:
        raise ConfigError(f"--parallel: must be >= 1, got {args.parallel}")
    rows, report_path, aggregate_path = run_experiment(
        cfg, out_dir=args.out, parallel=args.parallel)
    print(f"wrote {len(rows)} rows to {report_path}")
    print(f"wrote aggregate to {aggregate_path}")
    return EXIT_OK


def _cmd_plot_data(args):
    out = emit_plot_data(args.report, args.figure, args.out)
    print(f"wrote plot data to {out}")
    return EXIT_OK


def _cmd_validate(args):
    cfg = load_config(args.config)
    # build every graph run builds: whether a dense regular shape pairs
    # depends on the seed, and a bad file fails here too
    for seed in cfg.seeds:
        for topology in cfg.topology_kinds:
            _build_graph(cfg, topology, seed)
    cells = cfg.cells()
    expected = len(cells) * len(cfg.seeds) * len(cfg.estimators)
    print(f"config ok: {args.config}")
    print(f"topologies: {', '.join(cfg.topology_kinds)} (built at every seed)")
    print(f"cells: {len(cells)}")
    print(f"seeds: {len(cfg.seeds)}")
    print(f"estimators: {', '.join(cfg.estimators)}")
    print(f"messages per cell: {cfg.num_messages}")
    print(f"expected report rows: {expected}")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "plot-data": _cmd_plot_data,
                "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except (ConfigError, FormatError, SchemaError, ParameterError,
            GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
