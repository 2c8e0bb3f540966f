"""The benchmark's arithmetic: turns one workload process's raw result
into the metrics BENCHMARK.json declares.

Every median, percentile, ratio, self time and counter delta the
benchmark reports is computed here, from raw samples, spans and counter
snapshots that the workload process (perfbench_workload) records.
"""

import math
import statistics

WORKLOADS = ["campaign-c7552", "certify-c7552", "service-c7552", "compare-c880"]

END_TO_END = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
]

SCHEMES = ["cwsp", "tmr", "loco"]
FAULT_MODELS = ["single-set", "double-set", "protection-seu"]

_BATCH = "work_per_s @ campaign-c7552, compare-c880; p99_ms @ service-c7552"

# (metric, unit, how it is measured, source, what it should move).
# Kinds: "span" sums the self time of the named spans per op; "value" is
# a per-op value the workload recorded; "counter" is a function of the
# per-op counter deltas; "derived" is computed from other quantities.
PER_LAYER = [
    ("netlist.parse_ms", "ms", "span", "netlist.parse", "setup_s @ every workload"),
    ("sta.run_ms", "ms", "span", "sta.run", "setup_s @ every workload"),
    ("sim.context_ms", "ms", "span", "sim.context", "setup_s @ every workload"),
    ("service.session_ms", "ms", "span", "service.session", "setup_s @ every workload"),
    ("set.plan_ms", "ms", "span", "set.plan", "work_per_s @ campaign-c7552"),
    ("campaign.engine_ms", "ms", "span", "campaign.engine",
     "work_per_s @ campaign-c7552 (flat: certify-c7552)"),
    ("campaign.stimulus_ms", "ms", "span", "campaign.stimulus",
     "work_per_s @ campaign-c7552, compare-c880 (flat: certify-c7552)"),
    ("sim.batch_ms", "ms", "span", "sim.batch", _BATCH + " (flat: certify-c7552)"),
    ("sim.sweep_ms", "ms", "span", "sim.sweep", _BATCH + " (flat: certify-c7552)"),
    ("sim.resolve_ms", "ms", "span", "sim.resolve", _BATCH + " (flat: certify-c7552)"),
    ("sim.extract_ms", "ms", "derived", "sim.batch - sim.sweep - sim.resolve",
     _BATCH + " (flat: certify-c7552)"),
    ("campaign.format_ms", "ms", "span", "campaign.format", "work_per_s @ campaign-c7552"),
    ("campaign.lane_batches", "count", "counter", "campaign.lane_batches", "count"),
    ("campaign.lane_occupancy", "ratio", "counter",
     "campaign.lane_slots_filled / campaign.lane_slots_total", "count"),
    ("campaign.timed_per_lane_strike", "ratio", "counter",
     "campaign.lane_timed_resolutions / campaign.lane_slots_filled",
     "below 1 after a pre-filter or memo: work_per_s @ campaign-c7552"),
    ("campaign.analytic_strikes", "count", "counter", "campaign.lane_analytic_strikes",
     "count"),
    ("campaign.warm_op_ms", "ms", "value", "campaign.warm_op_ms",
     "lazy per-session caching: work_per_s must not gain at setup_s's expense"),
    ("campaign.scaling_j2", "ratio", "value", "campaign.scaling_j2",
     "not gated: scaling with --jobs"),
    ("campaign.scaling_j4", "ratio", "value", "campaign.scaling_j4",
     "not gated: scaling with --jobs"),
    ("analysis.windows_ms", "ms", "span", "analysis.windows",
     "work_per_s @ certify-c7552 (flat: campaign-c7552)"),
    ("analysis.certify_ms", "ms", "span", "analysis.certify", "work_per_s @ certify-c7552"),
    ("analysis.format_ms", "ms", "span", "analysis.format",
     "work_per_s and peak_rss_mb @ certify-c7552"),
    ("analysis.report_mb", "MB", "value", "analysis.report_mb",
     "work_per_s and peak_rss_mb @ certify-c7552"),
    ("analysis.proved_ratio", "ratio", "value", "analysis.proved_ratio",
     "count @ certify-c7552"),
    ("analysis.fallback_sites", "count", "value", "analysis.fallback_sites",
     "count @ certify-c7552"),
    ("service.hit_p50_ms", "ms", "span", "service.request.hit",
     "p50_ms and p99_ms @ service-c7552"),
    ("service.fresh_p50_ms", "ms", "span", "service.request.fresh",
     "p50_ms and p99_ms @ service-c7552"),
    ("service.exec_ms", "ms", "span", "service.exec",
     "p99_ms and work_per_s @ service-c7552 (flat: campaign-c7552)"),
    ("service.overhead_ms", "ms", "derived", "service.fresh_p50_ms - service.exec_ms",
     "p99_ms and work_per_s @ service-c7552 (flat: campaign-c7552)"),
    ("service.json_parse_ms", "ms", "span", "service.json_parse", "p50_ms @ service-c7552"),
    ("service.design_key_ms", "ms", "span", "service.design_key", "p50_ms @ service-c7552"),
    ("service.queue_wait_p50_us", "us", "value", "service.queue_wait_p50_us",
     "p99_ms @ service-c7552"),
    ("service.queue_wait_p99_us", "us", "value", "service.queue_wait_p99_us",
     "p99_ms @ service-c7552"),
    ("service.result_cache_hit_ratio", "ratio", "counter",
     "service.result_cache.hits / (hits + misses)",
     "p50_ms and work_per_s @ service-c7552"),
    ("service.session_hit_ratio", "ratio", "counter",
     "service.sessions.hits / (hits + misses)", "p50_ms and work_per_s @ service-c7552"),
    ("service.coalesced", "count", "counter", "service.batch.coalesced",
     "p50_ms and work_per_s @ service-c7552"),
    ("service.rejected", "count", "counter",
     "service.queue.rejected + service.deadline.shed",
     "p50_ms and work_per_s @ service-c7552; counted as failed ops"),
    ("scheme.characterize_ms", "ms", "span", "scheme.characterize", "work_per_s @ compare-c880"),
    ("scheme.plan_ms", "ms", "span", "scheme.plan", "work_per_s @ compare-c880"),
    ("scheme.format_ms", "ms", "span", "scheme.format", "work_per_s @ compare-c880"),
] + [
    ("campaign.cell_ms.%s.%s" % (s, m), "ms", "span", "campaign.cell.%s.%s" % (s, m),
     "work_per_s @ compare-c880"
     + ("" if s == "cwsp" else " (campaign-c7552 for non-CWSP cells)"))
    for s in SCHEMES for m in FAULT_MODELS
] + [
    ("trace.overhead_ms", "ms", "derived",
     "median traced op - median untraced op, own workload",
     "tracing overhead; not a layer"),
    ("noise.alu_ms", "ms", "noise", "fixed ALU loop", "machine drift; not a layer"),
    ("noise.mem_ms", "ms", "noise", "fixed random-access memory loop",
     "machine drift; not a layer"),
]


def _ratio(num, den):
    return num / den if den else None


# Per-op counter deltas -> value, for the "counter" metrics.
COUNTER_METRICS = {
    "campaign.lane_batches": lambda d: d.get("campaign.lane_batches", 0),
    "campaign.lane_occupancy": lambda d: _ratio(
        d.get("campaign.lane_slots_filled", 0), d.get("campaign.lane_slots_total", 0)),
    "campaign.timed_per_lane_strike": lambda d: _ratio(
        d.get("campaign.lane_timed_resolutions", 0), d.get("campaign.lane_slots_filled", 0)),
    "campaign.analytic_strikes": lambda d: d.get("campaign.lane_analytic_strikes", 0),
    "service.result_cache_hit_ratio": lambda d: _ratio(
        d.get("service.result_cache.hits", 0),
        d.get("service.result_cache.hits", 0) + d.get("service.result_cache.misses", 0)),
    "service.session_hit_ratio": lambda d: _ratio(
        d.get("service.sessions.hits", 0),
        d.get("service.sessions.hits", 0) + d.get("service.sessions.misses", 0)),
    "service.coalesced": lambda d: d.get("service.batch.coalesced", 0),
    "service.rejected": lambda d: d.get("service.queue.rejected", 0)
    + d.get("service.deadline.shed", 0),
}


# ---- statistics ----------------------------------------------------------

def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values, q, min_beyond=10):
    """Nearest-rank q-quantile of `values`.

    Refuses (ValueError) when fewer than `min_beyond` samples lie beyond
    it: a tail percentile is only reported where it has that support.
    """
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    rank = max(1, math.ceil(q * len(xs)))
    beyond = len(xs) - rank
    if beyond < min_beyond:
        raise ValueError("p%g of %d samples has %d beyond it, needs %d"
                         % (q * 100, len(xs), beyond, min_beyond))
    return xs[rank - 1]


def tail_rank(n, q, min_beyond=10):
    """1-based nearest rank of the q-quantile of n samples, lowered until
    `min_beyond` samples lie beyond it; 0 when no rank has that support."""
    return max(0, min(max(1, math.ceil(q * n)), n - min_beyond))


def tail_percentile(values, q, min_beyond=10):
    """The nearest-rank q-quantile of `values`, or, when fewer than
    `min_beyond` samples lie beyond it, the highest percentile that has
    that many beyond it (the level reached is tail_rank(n, q) / n)."""
    rank = tail_rank(len(values), q, min_beyond)
    if rank == 0:
        raise ValueError("no percentile of %d samples has %d beyond it"
                         % (len(values), min_beyond))
    return sorted(values)[rank - 1]


def work_per_s(op_work, op_ms):
    """Work per op (median over ops) divided by the median op time."""
    return median(op_work) / (median(op_ms) / 1000.0)


def counter_deltas(before, after):
    """after - before for every counter either snapshot names."""
    return {k: after.get(k, 0) - before.get(k, 0) for k in set(before) | set(after)}


def self_times(spans):
    """Self time (ns) of each span: its duration minus the part of it that
    its direct children cover. `spans` are (name, start, end, parent, op)
    tuples; parent is an index into `spans` or -1."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


# ---- metrics -------------------------------------------------------------

def end_to_end(raw):
    """The gated metrics of an untraced run, as {name: value}; a tail
    percentile without enough samples beyond it is None."""
    setup_s = median(raw["setup_ms"]) / 1000.0
    rss_mb = raw["peak_rss_kb"] / 1024.0
    if raw["workload"] == "service-c7552":
        lat = raw["latency_ms"]
        try:
            p99 = percentile(lat, 0.99)
        except ValueError:
            p99 = None
        return {
            "setup_s": setup_s,
            "work_per_s": len(lat) / raw["wall_s"],
            "peak_rss_mb": rss_mb,
            "p50_ms": median(lat),
            "p99_ms": p99,
        }
    ops = raw["op_ms"]
    return {
        "setup_s": setup_s,
        "work_per_s": work_per_s(raw["op_work"], ops),
        "peak_rss_mb": rss_mb,
        # A batch op is one CLI call's work. A run has too few ops for
        # ten to lie beyond their p99, so the tail reported is the highest
        # percentile that has ten beyond it.
        "p50_ms": median(ops),
        "p99_ms": tail_percentile(ops, 0.99),
    }


def _per_op(trace):
    """Per-op span sums (self time, ms) keyed by span name."""
    names = trace["names"]
    spans = trace["spans"]
    sums = [dict() for _ in trace["ops"]]
    for span, self_ns in zip(spans, self_times(spans)):
        name = names[span[0]]
        op = sums[span[4]]
        op[name] = op.get(name, 0.0) + self_ns / 1e6
    return sums


def _pick(ops, per_op):
    """Values of the ops that have one, preferring the run's own workload."""
    own = [v for op, v in zip(ops, per_op) if v is not None and op["own"]]
    if own:
        return own
    return [v for v in per_op if v is not None]


def per_layer(raw):
    """The per-layer metrics of a traced run, as {name: value}."""
    trace = raw["trace"]
    ops = trace["ops"]
    sums = _per_op(trace)
    out = {}

    def from_ops(fn):
        values = _pick(ops, [fn(op, s) for op, s in zip(ops, sums)])
        return median(values) if values else None

    for name, _, kind, source, _ in PER_LAYER:
        if kind == "span":
            out[name] = from_ops(lambda op, s, src=source: s.get(src))
        elif kind == "value":
            out[name] = from_ops(lambda op, s, src=source: op["values"].get(src))
        elif kind == "counter":
            fn = COUNTER_METRICS[name]
            out[name] = from_ops(
                lambda op, s, fn=fn: fn(counter_deltas(op["counters_before"],
                                                       op["counters_after"]))
                if "counters_before" in op else None)
    out["sim.extract_ms"] = from_ops(
        lambda op, s: s["sim.batch"] - s.get("sim.sweep", 0.0) - s.get("sim.resolve", 0.0)
        if "sim.batch" in s else None)
    if out["service.fresh_p50_ms"] is not None and out["service.exec_ms"] is not None:
        out["service.overhead_ms"] = out["service.fresh_p50_ms"] - out["service.exec_ms"]
    else:
        out["service.overhead_ms"] = None
    traced = [op["values"]["traced_ms"] for op in ops
              if op["own"] and "traced_ms" in op["values"]]
    untraced = [op["values"]["untraced_ms"] for op in ops
                if op["own"] and "untraced_ms" in op["values"]]
    out["trace.overhead_ms"] = (median(traced) - median(untraced)
                                if traced and untraced else None)
    out["noise.alu_ms"] = raw["noise"]["alu_ms"]
    out["noise.mem_ms"] = raw["noise"]["mem_ms"]
    return out


def units(trace):
    if trace:
        return {name: unit for name, unit, _, _, _ in PER_LAYER}
    return dict(END_TO_END)
