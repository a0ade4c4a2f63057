"""Span tracer that times gossipsim's layers from outside the package.

Tracing replaces the public names each module calls at its call sites (module
attributes, one class method and scipy's dijkstra) with thin wrappers. Every
call records a span (id, parent, task, name, start, end, counters); spans of
one (cell, seed) task share the task id that the run_cell wrapper assigns.
Names are resolved when tracing starts. A name the package no longer has is
listed as missing and the metrics that need it are left out, so an API move
shows up as missing metrics instead of a crash.

summarize() turns span lists into the per-layer metrics. It needs no gossipsim
import, so the parent process can merge spans from several traced sweeps.
"""

import importlib
import inspect
import statistics
import sys
import time

# span name -> (layer, module, attribute path)
TARGETS = {
    "gen_random_regular": ("graphs", "gossipsim.experiment", "gen_random_regular"),
    "gen_scale_free": ("graphs", "gossipsim.experiment", "gen_scale_free"),
    "assign_weights": ("graphs", "gossipsim.experiment", "assign_weights"),
    "csr_latency_matrix": ("graphs", "gossipsim.graphs", "NetworkGraph.csr_latency_matrix"),
    "make_protocol": ("protocols", "gossipsim.experiment", "make_protocol"),
    "dijkstra": ("protocols", "scipy.sparse.csgraph", "dijkstra"),
    "spawn_message": ("engine", "gossipsim.engine", "spawn_message"),
    "run_message": ("engine", "gossipsim.engine", "run_message"),
    "Adversary": ("adversary", "gossipsim.experiment", "Adversary"),
    "estimate_first_sent": ("estimators", "gossipsim.evaluator", "estimate_first_sent"),
    "estimate_first_reach": ("estimators", "gossipsim.evaluator", "estimate_first_reach"),
    "refine_dandelion": ("estimators", "gossipsim.evaluator", "refine_dandelion"),
    "build_distributions": ("evaluator", "gossipsim.evaluator", "build_distributions"),
    "compute_report": ("evaluator", "gossipsim.evaluator", "compute_report"),
    "run_cell": ("experiment", "gossipsim.experiment", "run_cell"),
    "write_report": ("experiment", "gossipsim.experiment", "write_report"),
    "aggregate_rows": ("experiment", "gossipsim.experiment", "aggregate_rows"),
    "write_aggregate": ("experiment", "gossipsim.experiment", "write_aggregate"),
}

# Span fields, in the order they are stored.
SID, PARENT, TASK, NAME, START, END, INFO = range(7)


def _resolve(module, path):
    """(owner, attribute, value) for a dotted path, or None if any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if value is None:
        return None
    return owner, parts[-1], value


def _deep_size(obj, seen):
    """Bytes of obj and the lists, tuples and floats it holds (each counted once)."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (list, tuple)):
        for item in obj:
            if isinstance(item, (list, tuple, float)):
                size += _deep_size(item, seen)
    return size


class Tracer:
    """Installs the wrappers and keeps the spans of one process in memory."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.tasks = []
        self._stack = []
        self._next_id = 0
        self._task = None
        self._task_state = None
        self._installed = []

    # -- install / uninstall -------------------------------------------------

    def install(self):
        for name, (_layer, module, path) in TARGETS.items():
            found = _resolve(module, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, fn = found
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def dump(self):
        """The traced sweep as plain data: spans, task metadata, missing names."""
        return {"spans": self.spans, "tasks": self.tasks, "missing": self.missing}

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed = []

    def _wrap(self, name, fn):
        before = getattr(self, f"_before_{name}", None)
        after = getattr(self, f"_after_{name}", None)
        if name == "run_message":
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):
                params = {}
            if "keep_events" not in params:
                before = after = None
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            info = {}
            if before is not None:
                args, kwargs = before(info, args, kwargs)
            span = [sid, stack[-1] if stack else None, self._task, name, 0.0, 0.0, info]
            stack.append(sid)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                spans.append(span)
            if after is not None:
                after(info, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-name hooks --------------------------------------------------------

    def _before_run_cell(self, info, args, kwargs):
        cell = args[1] if len(args) > 1 else kwargs.get("cell")
        seed = args[2] if len(args) > 2 else kwargs.get("seed")
        self._task = len(self.tasks)
        self.tasks.append({
            "cell": {key: getattr(cell, key, None) for key in
                     ("topology", "protocol", "broadcast_mode", "broadcast_probability",
                      "adversary_ratio", "adversary_placement", "adversary_active")},
            "seed": seed,
        })
        self._task_state = {"adversary": None, "mids": []}
        return args, kwargs

    def _after_run_cell(self, info, args, kwargs, result):
        state = self._task_state
        adversary = state["adversary"]
        if adversary is not None and hasattr(adversary, "observations"):
            seen = set()
            info["log_bytes"] = sum(_deep_size(adversary.observations(mid), seen)
                                    for mid in state["mids"])
        self._task = None
        self._task_state = None

    def _after_Adversary(self, info, args, kwargs, result):
        info["active"] = bool(getattr(result, "active", False))
        if self._task_state is not None:
            self._task_state["adversary"] = result

    def _before_run_message(self, info, args, kwargs):
        msg = args[0] if args else kwargs.get("msg")
        receipts = getattr(msg, "first_receipt", None)
        info["receipts_before"] = len(receipts) if receipts is not None else None
        if len(args) > 3:
            info["keep"] = bool(args[3])
            args = args[:3] + (True,) + args[4:]
        else:
            info["keep"] = bool(kwargs.get("keep_events", False))
            kwargs = dict(kwargs, keep_events=True)
        return args, kwargs

    def _after_run_message(self, info, args, kwargs, result):
        msg = args[0] if args else kwargs.get("msg")
        adversary = args[2] if len(args) > 2 else kwargs.get("adversary")
        events = getattr(msg, "events", None)
        if events is not None:
            info["events"] = len(events)
            if not info.pop("keep"):
                msg.events = None
        receipts = getattr(msg, "first_receipt", None)
        before = info.pop("receipts_before")
        if receipts is not None and before is not None:
            info["new_receipts"] = len(receipts) - before
        if adversary is not None and hasattr(adversary, "observations"):
            obs = len(adversary.observations(msg.mid))
            info["obs"] = obs
            info["censored"] = obs if getattr(adversary, "active", False) else 0
        if self._task_state is not None:
            self._task_state["mids"].append(getattr(msg, "mid", None))

    def _after_compute_report(self, info, args, kwargs, result):
        info["messages"] = getattr(result, "num_messages", None)
        info["unobserved"] = getattr(result, "num_unobserved", None)


# -- summary ----------------------------------------------------------------------

def _self_times(spans):
    """Span id -> duration minus the duration of its direct children."""
    own = {s[SID]: s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] is not None and s[PARENT] in own:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _info_total(spans, key):
    """Sum of a counter over spans, or None if any span lacks it."""
    values = [s[INFO].get(key) for s in spans]
    if not values or any(v is None for v in values):
        return None
    return sum(values)


def summarize(runs):
    """Per-layer metrics from traced sweeps.

    runs is a list of Tracer.dump() results, one per traced sweep. Per-sweep
    totals are averaged over the sweeps; per-call figures pool every call.
    Returns (metrics, groups): metrics maps name -> value and leaves out what
    a missing name prevents; groups holds the engine figures per
    protocol/fanout/adversary group.
    """
    missing = {name for run in runs for name in run["missing"]}
    by_name = {}
    layer_self = {}
    for run in runs:
        spans = run["spans"]
        own = _self_times(spans)
        for s in spans:
            by_name.setdefault(s[NAME], []).append(s)
            layer = TARGETS[s[NAME]][0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own[s[SID]]
    sweeps = len(runs)
    metrics = {}

    def total_s(*names):
        if any(n in missing for n in names):
            return None
        return sum(s[END] - s[START] for n in names for s in by_name.get(n, [])) / sweeps

    def per_call_ms(*names):
        calls = [s for n in names for s in by_name.get(n, [])]
        if any(n in missing for n in names) or not calls:
            return None
        return 1000.0 * statistics.fmean(s[END] - s[START] for s in calls)

    metrics["graphs.gen_s"] = total_s("gen_random_regular", "gen_scale_free")
    metrics["graphs.weights_s"] = total_s("assign_weights")
    metrics["protocols.build_s"] = total_s("make_protocol")
    if "dijkstra" not in missing:
        metrics["protocols.onion_rows"] = len(by_name.get("dijkstra", [])) / sweeps

    msgs = by_name.get("run_message", [])
    if msgs:
        figures = _message_figures(msgs)
        for key in ("msg_ms_p50", "msg_ms_p90", "events_per_msg", "useful_ratio"):
            metrics[f"engine.{key}"] = figures.get(key)
        obs = _info_total(msgs, "obs")
        if obs is not None:
            metrics["adversary.obs_per_msg"] = obs / len(msgs)
            metrics["adversary.censored_per_msg"] = _info_total(msgs, "censored") / len(msgs)
    metrics["engine.spawn_ms"] = per_call_ms("spawn_message")

    metrics["adversary.build_s"] = total_s("Adversary")
    cells = by_name.get("run_cell", [])
    log_bytes = [s[INFO]["log_bytes"] for s in cells if "log_bytes" in s[INFO]]
    if cells and len(log_bytes) == len(cells):
        metrics["adversary.log_mb"] = max(log_bytes) / 2 ** 20

    metrics["estimators.base_ms"] = per_call_ms("estimate_first_sent", "estimate_first_reach")
    metrics["estimators.refine_ms"] = per_call_ms("refine_dandelion")

    metrics["evaluator.dists_s"] = total_s("build_distributions")
    metrics["evaluator.report_s"] = total_s("compute_report")
    reports = by_name.get("compute_report", [])
    evaluated = _info_total(reports, "messages")
    if evaluated:
        metrics["evaluator.unobserved_ratio"] = _info_total(reports, "unobserved") / evaluated

    if cells:
        task_s = [s[END] - s[START] for s in cells]
        metrics["experiment.task_s_p50"] = statistics.median(task_s)
        metrics["experiment.task_s_max"] = max(task_s)
    metrics["experiment.write_s"] = total_s("write_report", "aggregate_rows", "write_aggregate")

    for layer in sorted({layer for layer, _m, _p in TARGETS.values()}):
        names = [n for n, (lay, _m, _p) in TARGETS.items() if lay == layer]
        if not any(n in missing for n in names):
            metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0) / sweeps

    metrics = {k: v for k, v in metrics.items() if v is not None}
    return metrics, _engine_groups(runs)


def _message_figures(msgs):
    """Per-message engine figures over a list of run_message spans."""
    msg_ms = [1000.0 * (s[END] - s[START]) for s in msgs]
    out = {"messages": len(msgs),
           "msg_ms_p50": statistics.median(msg_ms),
           "msg_ms_p90": _percentile(msg_ms, 0.9)}
    events = _info_total(msgs, "events")
    if events:
        out["events_per_msg"] = events / len(msgs)
        new = _info_total(msgs, "new_receipts")
        if new is not None:
            out["useful_ratio"] = new / events
    return out


def _engine_groups(runs):
    """Engine figures per protocol/fanout/adversary group."""
    samples = {}
    for run in runs:
        for s in run["spans"]:
            if s[NAME] != "run_message" or s[TASK] is None:
                continue
            cell = run["tasks"][s[TASK]]["cell"]
            mode = "active" if cell["adversary_active"] else "passive"
            key = f"{cell['protocol']}/{cell['broadcast_mode']}/{mode}"
            samples.setdefault(key, []).append(s)
    return {key: _message_figures(msgs) for key, msgs in sorted(samples.items())}
