"""Quick self-check of the benchmark; prints every metric by name and unit.

    python3 perfbench/selfcheck.py            # tiny sizes, about a minute
    python3 perfbench/selfcheck.py --size full --seconds 60

Checks that BENCHMARK.json and spec.py name the same workloads and metrics,
runs every workload untraced and traced, and asserts that each run is correct
and reports every named metric with its unit. It also checks that a traced
run leaves out the metrics of a name the package no longer has, and that the
benchmark fails, without a result, in a directory without the package.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import spec
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench["paths"] == [os.path.basename(HERE)], bench["paths"]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        w.name: w.why for w in spec.WORKLOADS.values()}, "workloads differ from spec.py"
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END], "end_to_end differs from spec.py"
    for name in spec.WORKLOADS:
        for seed in (spec.DEFAULT_SEED, spec.HELDOUT_SEED):
            assert spec.reference_for(name, seed, "full"), f"no reference for {name} seed {seed}"
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER], "per_layer differs from spec.py"
    return bench


def check_missing_names():
    """A name gone from the package drops exactly the metrics that need it."""
    span = [0, None, 0, "spawn_message", 0.0, 0.001, {}]
    run = {"spans": [span], "tasks": [], "missing": ["spawn_message"]}
    metrics, _groups = tracer.summarize([run])
    assert "engine.spawn_ms" not in metrics and "engine.self_s" not in metrics, metrics
    run["missing"] = []
    metrics, _groups = tracer.summarize([run])
    assert abs(metrics["engine.spawn_ms"] - 1.0) < 1e-9, metrics


def run_bench(argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + argv,
                          capture_output=True, text=True, cwd=cwd, timeout=900)
    return proc


def check_run(workload, size, seconds, trace):
    catalog = spec.PER_LAYER if trace else spec.END_TO_END
    proc = run_bench(["--workload", workload, "--seed", str(spec.DEFAULT_SEED),
                      "--seconds", str(seconds), "--trace", str(trace), "--size", size])
    print(proc.stdout, end="")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    want = {m.name: m.unit for m in catalog}
    got = {name: v["unit"] for name, v in result["metrics"].items()}
    assert got == want, f"metrics differ: missing {set(want) - set(got)}, extra {set(got) - set(want)}"
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def check_fails_without_package():
    scratch = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(["--workload", "stem_sqrt", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], cwd=scratch)
    finally:
        shutil.rmtree(scratch)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=spec.SIZES, default="tiny")
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    check_benchmark_json()
    check_missing_names()
    check_fails_without_package()
    for workload in spec.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, args.size, args.seconds, trace)
    print("selfcheck ok")


if __name__ == "__main__":
    main()
