"""Discrete-event gossip simulator with privacy protocols and deanonymization
adversaries for Ethereum-style peer-to-peer broadcast networks.

The package exports the library API the README documents; everything else
lives in its submodule.
"""

from .adversary import Adversary, AdversaryConfig
from .engine import Simulation
from .errors import (ConfigError, FormatError, GenerationError, ParameterError,
                     SchemaError)
from .evaluator import evaluate
from .experiment import load_config, parse_config, run_experiment
from .graphs import (NetworkGraph, WeightGeneratorSpec, assign_weights,
                     gen_random_regular, gen_scale_free, load_graph, save_graph)
from .protocols import ProtocolConfig, make_protocol

__version__ = "0.1.0"

__all__ = [
    "Adversary", "AdversaryConfig", "ConfigError", "FormatError",
    "GenerationError", "NetworkGraph", "ParameterError", "ProtocolConfig",
    "SchemaError", "Simulation", "WeightGeneratorSpec", "assign_weights",
    "evaluate", "gen_random_regular", "gen_scale_free", "load_config",
    "load_graph", "make_protocol", "parse_config", "run_experiment",
    "save_graph",
]
