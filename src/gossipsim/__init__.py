"""Discrete-event gossip simulator with privacy protocols and deanonymization
adversaries for Ethereum-style peer-to-peer broadcast networks."""

from .adversary import PLACEMENTS, Adversary, AdversaryConfig, Observation, place_adversaries
from .engine import (PHASE_BROADCAST, PHASE_CIRCUIT, PHASE_NAMES, PHASE_STEM,
                     SimMessage, Simulation, SimulationRun, derive_seed,
                     run_message, spawn_message)
from .errors import (ConfigError, FormatError, GenerationError, ParameterError,
                     SchemaError)
from .estimators import (CandidateDistribution, NoObservation,
                         estimate_first_reach, estimate_first_sent,
                         refine_dandelion)
from .evaluator import (ESTIMATORS, EvaluationReport, compute_report, evaluate,
                        rank_of)
from .experiment import (CellSpec, ExperimentConfig, FIGURE_PRESETS,
                         REPORT_COLUMNS, aggregate_rows, emit_plot_data,
                         load_config, parse_config, run_cell, run_experiment,
                         write_report)
from .graphs import (NetworkGraph, WeightGeneratorSpec, assign_weights,
                     gen_random_regular, gen_scale_free, get_central_nodes,
                     load_graph, load_node_weights, save_graph)
from .protocols import (BROADCAST_MODES, PROTOCOL_KINDS, STEM_KINDS,
                        AnonymityGraph, BroadcastProtocol, DandelionProtocol,
                        OnionProtocol, ProtocolConfig, build_anonymity_graph,
                        make_protocol)

__version__ = "0.1.0"

__all__ = [
    "Adversary", "AdversaryConfig", "AnonymityGraph", "BROADCAST_MODES",
    "BroadcastProtocol", "CandidateDistribution", "CellSpec", "ConfigError",
    "DandelionProtocol", "ESTIMATORS", "EvaluationReport", "ExperimentConfig",
    "FIGURE_PRESETS", "FormatError", "GenerationError", "NetworkGraph",
    "NoObservation", "Observation", "OnionProtocol", "PHASE_BROADCAST",
    "PHASE_CIRCUIT", "PHASE_NAMES", "PHASE_STEM", "PLACEMENTS",
    "PROTOCOL_KINDS", "ParameterError", "ProtocolConfig", "REPORT_COLUMNS",
    "STEM_KINDS", "SchemaError", "SimMessage", "Simulation", "SimulationRun",
    "WeightGeneratorSpec", "aggregate_rows", "assign_weights",
    "build_anonymity_graph", "compute_report", "derive_seed", "emit_plot_data",
    "estimate_first_reach", "estimate_first_sent", "evaluate",
    "gen_random_regular", "gen_scale_free", "get_central_nodes", "load_config",
    "load_graph", "load_node_weights", "make_protocol", "parse_config",
    "place_adversaries", "rank_of", "refine_dandelion", "run_cell",
    "run_experiment", "run_message", "save_graph", "spawn_message",
    "write_report",
]
