"""gossipsim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload stem_sqrt --seed 0 --seconds 60 --trace 0

Run from any directory; the package under test is <checkout>/src/gossipsim.
Each step runs in a fresh interpreter (child.py) with parallel = 1, one sweep
at a time (closed loop).

--trace 0 measures the end-to-end metrics: rounds of one set-up and one whole
run_experiment sweep repeat until --seconds have passed (at least MIN_SWEEPS),
so set-ups and sweeps sample the host's speed over the same whole run;
medians are reported. --trace 1 alternates untraced and traced
sweeps and reports the per-layer metrics from the traced ones (tracer.py),
plus the tracing overhead.

Every sweep's report and aggregate CSVs are checked: row counts and metric
ranges, byte identity across the sweeps of the run (and between traced and
untraced sweeps), and the sha256 recorded in references.json for the
default and held-out workload seeds. A (cell, seed) task that raises counts
as failed. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. A record of the run (environment, generated
config, samples, engine groups and the spans of the last traced sweep) is
written to perfbench/out/.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spec
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

MIN_SWEEPS = 3
# A run stops starting sweeps after HARD_STOP_S, whatever --seconds says, and
# gives up (no result) at RUN_LIMIT_S, so it ends within the 180 s a run may take.
HARD_STOP_S = 140
RUN_LIMIT_S = 170
STARTED = time.monotonic()


class BenchError(Exception):
    """The benchmark itself cannot run (no package, a child crashed)."""


def run_child(job):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          env=env, cwd=ROOT,
                          timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - STARTED)))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{job['step']} step failed (exit {proc.returncode}):\n"
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


# -- output checks ----------------------------------------------------------------

def _check_rows(report_text, aggregate_text, workload, size):
    """Problems found in one sweep's report and aggregate CSVs."""
    _n, _k, messages, seeds = workload.shape(size)
    problems = []
    rows = list(csv.DictReader(io.StringIO(report_text)))
    expected = workload.tasks(size) * len(workload.estimators)
    if len(rows) != expected:
        problems.append(f"report has {len(rows)} rows, expected {expected}")
    for row in rows:
        try:
            num_msg = int(row["num_msg"])
            unobserved = int(row["num_unobserved"])
            hit, inv, ent, ndcg, spread = (float(row[c]) for c in (
                "hit_ratio", "inverse_rank", "entropy", "ndcg", "message_spread_ratio"))
        except (KeyError, ValueError) as exc:
            problems.append(f"unreadable report row: {exc!r}")
            break
        ok = (num_msg == messages and 0 <= unobserved <= num_msg and 0.0 <= hit <= 1.0
              and 0.0 < inv <= 1.0 and 0.0 < ndcg <= 1.0 and ent >= 0.0
              and 0.0 < spread <= 1.0)
        # a passive adversary forwards, so a flood to all reaches every node
        if row["broadcast_mode"] == "all" and row["adversary_active"] == "false":
            ok = ok and spread == 1.0
        if not ok:
            problems.append(f"report row out of range: {row}")
            break
    agg = list(csv.DictReader(io.StringIO(aggregate_text)))
    expected = workload.cells() * len(workload.estimators)
    if len(agg) != expected:
        problems.append(f"aggregate has {len(agg)} rows, expected {expected}")
    elif any(row.get("num_seeds") != str(seeds) for row in agg):
        problems.append(f"aggregate rows do not all cover {seeds} seeds")
    return problems


def run_sweep(workload, config, size, work, index, trace):
    out_dir = os.path.join(work, f"sweep{index}")
    spans_path = os.path.join(work, f"spans{index}.json")
    result = run_child({"step": "sweep", "config": config, "out_dir": out_dir,
                        "trace": trace, "spans_path": spans_path})
    result["trace"] = trace
    result["problems"] = []
    if result["error"]:
        result["problems"].append(f"run_experiment raised:\n{result['error']}")
    report_path = os.path.join(out_dir, f"{workload.name}.csv")
    aggregate_path = os.path.join(out_dir, f"{workload.name}_aggregate.csv")
    try:
        with open(report_path, "rb") as fh:
            report = fh.read()
        with open(aggregate_path, "rb") as fh:
            aggregate = fh.read()
    except OSError as exc:
        result["problems"].append(f"missing CSV: {exc}")
        result["report_sha256"] = result["aggregate_sha256"] = None
    else:
        result["report_sha256"] = hashlib.sha256(report).hexdigest()
        result["aggregate_sha256"] = hashlib.sha256(aggregate).hexdigest()
        result["problems"] += _check_rows(report.decode(), aggregate.decode(), workload, size)
    if trace:
        with open(spans_path) as fh:
            result["spans"] = json.load(fh)
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def _hash_checks(sweeps, reference):
    """(csv_match, problems): byte identity across sweeps and against the reference."""
    problems = []
    hashes = {(s["report_sha256"], s["aggregate_sha256"]) for s in sweeps}
    if len(hashes) != 1:
        problems.append(f"CSV bytes differ between sweeps of one run: {sorted(hashes)}")
    csv_match = None
    if reference is not None:
        want = (reference["report_sha256"], reference["aggregate_sha256"])
        csv_match = int(hashes == {want})
        if not csv_match:
            problems.append(f"CSV sha256 {sorted(hashes)} != reference {want}")
    return csv_match, problems


# -- measurement ------------------------------------------------------------------

def _repeat(step, deadline, minimum):
    """Call step(i) until the next call would pass the deadline (at least minimum)."""
    results = []
    while True:
        t = time.monotonic()
        results.append(step(len(results)))
        took = time.monotonic() - t
        now = time.monotonic()
        if now - STARTED > HARD_STOP_S:
            break
        if len(results) >= minimum and now + took > deadline:
            break
    return results


def measure(workload, config, size, seconds, trace, work):
    deadline = time.monotonic() + seconds

    def untraced(i):
        return [run_child({"step": "setup", "config": config, "offset": i}),
                run_sweep(workload, config, size, work, i, False)]

    def pair(i):
        return [run_sweep(workload, config, size, work, 2 * i, False),
                run_sweep(workload, config, size, work, 2 * i + 1, True)]

    rounds = _repeat(pair if trace else untraced, deadline, 1 if trace else MIN_SWEEPS)
    setups = [] if trace else [r.pop(0) for r in rounds]
    sweeps = [s for r in rounds for s in r]
    plain = [s for s in sweeps if not s["trace"]]
    traced = [s for s in sweeps if s["trace"]]
    messages = workload.total_messages(size)
    metrics = {}
    groups = {}
    if not trace:
        sweep_s = [s["sweep_s"] for s in plain]
        metrics["sweep_s"] = statistics.median(sweep_s)
        metrics["msgs_per_s"] = statistics.median(messages / t for t in sweep_s)
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in plain)
    else:
        metrics, groups = tracer.summarize([s["spans"] for s in traced])
        for name in traced[0]["probes"]:
            metrics[name] = statistics.median(s["probes"][name] for s in traced)
        metrics["trace.overhead_ratio"] = (statistics.median(s["sweep_s"] for s in traced)
                                           / statistics.median(s["sweep_s"] for s in plain))
    return metrics, groups, setups, sweeps


def _environment():
    return run_child({"step": "warm"})["versions"]


def _print_metrics(catalog, metrics, groups, counts):
    for m in catalog:
        value = metrics.get(m.name)
        shown = "MISSING" if value is None else repr(value)
        print(f"  {m.name:28s} {shown:>22s} {m.unit:6s} {m.what}")
        if m.moves:
            print(f"  {'':28s} {'':>22s} {'':6s} moves -> {m.moves}")
    for key, figures in groups.items():
        shown = ", ".join(f"{k}={v:.6g}" for k, v in figures.items())
        print(f"  engine[{key}] {shown}")
    for name, value in counts.items():
        print(f"  {name:28s} {value}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=spec.SIZES, default="full",
                        help="tiny: a few messages on small graphs (self-check only)")
    parser.add_argument("--record", action="store_true",
                        help="store this run's CSV sha256 as the reference for the seed")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gossipsim", "__init__.py")):
        print(f"error: no gossipsim package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    workload = spec.WORKLOADS[args.workload]
    config = workload.config_text(args.seed, args.size)
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        env = _environment()
        metrics, groups, setups, sweeps = measure(workload, config, args.size,
                                                  args.seconds, bool(args.trace), work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = None if args.record else spec.reference_for(workload.name, args.seed,
                                                             args.size)
    csv_match, problems = _hash_checks(sweeps, reference)
    for s in sweeps:
        problems += s["problems"]
    attempted = sum(s["tasks"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    if args.record:
        if args.size != "full" or problems or failed:
            print("error: refusing to record a reference from a failed or tiny run",
                  file=sys.stderr)
            return 1
        refs = spec.load_references()
        refs.setdefault(workload.name, {})[str(args.seed)] = {
            "report_sha256": sweeps[0]["report_sha256"],
            "aggregate_sha256": sweeps[0]["aggregate_sha256"]}
        with open(spec.REFERENCES_PATH, "w") as fh:
            json.dump(refs, fh, indent=2, sort_keys=True)
            fh.write("\n")

    catalog = spec.PER_LAYER if args.trace else spec.END_TO_END
    missing = [m.name for m in catalog if m.name not in metrics]
    counts = {
        "csv_match": "n/a (no reference for this seed)" if csv_match is None else csv_match,
        "tasks_failed": f"{failed}/{attempted}",
        "sweeps": f"{sum(not s['trace'] for s in sweeps)} untraced, "
                  f"{sum(s['trace'] for s in sweeps)} traced",
    }
    if missing:
        counts["missing_metrics"] = ", ".join(missing)
    record = {
        "workload": workload.name, "workload_seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "config": config, "metrics": metrics, "engine_groups": groups,
        "counts": counts, "problems": problems,
        "setups": setups,
        "sweeps": [{k: v for k, v in s.items() if k != "spans"} for s in sweeps],
        "spans": next((s["spans"] for s in reversed(sweeps) if s["trace"]), None),
    }
    record_path = os.path.join(
        OUT_DIR, f"{workload.name}-seed{args.seed}-{args.size}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh)

    print(f"workload {workload.name}, workload seed {args.seed}, size {args.size}, "
          f"trace {args.trace}, {args.seconds} s")
    print("environment " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print("config:\n" + "".join(f"  {line}\n" for line in config.splitlines()), end="")
    _print_metrics(catalog, metrics, groups, counts)
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit}
                    for m in catalog if m.name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
