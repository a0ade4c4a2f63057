"""Golden report bytes: a small grid over every sweep axis, pinned by sha256.

Requirement 09 checks that two runs agree with each other; this file checks
that they agree with the bytes recorded here, so a change that moves any
report or aggregate CSV byte fails Tier-1. The grid covers the regular,
scale-free and file topologies, all four protocols, both fanout modes, two
broadcast probabilities, two adversary ratios, every placement, active and
passive adversaries and both estimators, once per edge-latency mode.

The hashes were recorded with numpy 2.4.6 on CPython 3.11.7 and hold on
every interpreter: report and aggregate cells are summed left to right
(evaluator.left_sum), never with sum(), which from CPython 3.12 on
compensates float rounding (Neumaier) and would move their last bits.
test_report_bytes_ignore_compensated_sum runs one case with sum() replaced
by an emulation of the 3.12 algorithm, so 3.11 checks that too. The bytes
also depend on numpy's Generator.normal, uniform, lognormal and permutation
algorithms, so another numpy version giving other hashes is a
reproducibility finding, not a flaky test. A change that moves the bytes on
purpose re-records these hashes together with perfbench/references.json.
"""

import builtins
import hashlib
import math

import pytest

from gossipsim.evaluator import left_sum
from gossipsim.experiment import ExperimentConfig, run_experiment
from gossipsim.graphs import gen_scale_free, save_graph

EDGE_MODES = ("normal", "uniform", "unweighted")
BUILTIN_SUM = builtins.sum

# edge mode -> (report sha256, aggregate sha256)
GOLDEN = {
    "normal": ("612f4dcf189e4df96af45b4685bb40bc7616c1dada1b5b4a77c036b30b7d1eda",
               "7fbc8dabe0ba28915188edb326bd35152c9c47a323d2149dbeb78b2349c9a2a3"),
    "uniform": ("fb95292f7ea8d1d20fd2a6c51c34cc466fe4d7fc633f67e38b06ba4364fde05e",
                "99552ebb80948a87ed67fe9ebc8ba99d3bf69497643f998bcae723add42f16d3"),
    "unweighted": ("2c27b50aa8e70f6e376b68e9b9a3fbe09533d8e86ffab6214325a5f3259ae21f",
                   "8e1a4c28ad124d705ef979ea167764286d485de5132ad7a2bd82571898a9687a"),
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _golden_hashes(tmp_path, edge_mode):
    graph_file = tmp_path / "net.txt"
    save_graph(gen_scale_free(120, 2, seed=11), graph_file)
    cfg = ExperimentConfig(
        topology_kinds=("regular", "scale_free", "file"),
        n=120, k=8, m=3,
        graph_path=str(graph_file),
        edge_mode=edge_mode,
        protocol_kinds=("broadcast", "dandelion", "dandelion_pp", "onion"),
        broadcast_modes=("all", "sqrt"),
        broadcast_probabilities=(0.5, 0.25),
        adversary_ratios=(0.1, 0.2),
        adversary_placements=("random", "degree", "betweenness"),
        adversary_actives=(False, True),
        protocol_aware=True,
        estimators=("first_reach", "first_sent"),
        num_messages=6,
        seeds=(0, 1),
        output_path="golden.csv",
    )
    rows, report, aggregate = run_experiment(cfg, out_dir=str(tmp_path))
    assert len(rows) == 1728
    return _sha256(report), _sha256(aggregate)


@pytest.mark.parametrize("edge_mode", EDGE_MODES)
def test_report_bytes_match_golden(tmp_path, edge_mode):
    assert _golden_hashes(tmp_path, edge_mode) == GOLDEN[edge_mode]


def compensated_sum(iterable, /, start=0):
    """sum() as CPython 3.12+ computes it over floats: Neumaier compensation."""
    values = list(iterable)
    if not any(isinstance(v, float) for v in values):
        return BUILTIN_SUM(values, start)
    total = start + 0.0
    c = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            c += (total - t) + v
        else:
            c += (v - t) + total
        total = t
    if c and math.isfinite(c):
        total += c
    return total


def test_compensated_sum_differs_from_left_to_right():
    values = [1.0, 1e100, 1.0, -1e100]
    assert compensated_sum(values) == 2.0
    assert left_sum(values) == 0.0


def test_report_bytes_ignore_compensated_sum(tmp_path, monkeypatch):
    # the bytes a 3.12+ interpreter writes: sum() compensates there
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert _golden_hashes(tmp_path, "normal") == GOLDEN["normal"]
