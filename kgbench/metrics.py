"""The benchmark's metric catalogue — the single list ``BENCHMARK.json``
mirrors (a self-test pins the two together).  Definitions, and which
end-to-end metric each per-layer metric should move on which workload,
are in README.md.  A layer a workload never runs reads 0."""

from __future__ import annotations

# Bounds: ten-run quartile spreads (IQR / median) on a 4-core shared VM,
# two sets per workload (README.md, "Run-to-run spread"): graphs_per_s
# 0.07-0.21, refresh_s 0.08-0.19, setup_s 0.02-0.15.  Host speed drifts
# by up to ±30% over tens of seconds, so tighter bounds would flag noise.
END_TO_END = [
    ("graphs_per_s", "1/s", "higher", 0.24),
    ("refresh_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
]

OP_STATS = [
    ("tasks", "count", "higher"),
    ("wall_sum_s", "s", "lower"),
    ("wall_max_s", "s", "lower"),
    ("cpu_sum_s", "s", "lower"),
    ("udf_sum_s", "s", "lower"),
    ("peak_heap_mb", "MiB", "lower"),
    ("rows_out", "count", "lower"),
    ("bytes_out", "B", "lower"),
]

OP_ROLES = ("extract", "exchange", "bucket", "part", "store_read")

LAYERS = (
    "extract_arrow",
    "extract_pandas",
    "to_pandas",
    "link",
    "marshal",
    "structure",
    "rdfc",
    "parse",
    "issue",
)

SETUP_PHASES = ("import_s", "ray_init_s", "transcripts_s", "layout_s",
                "store_build_s", "warm_s")

COUNTS = ("graphs", "mentions", "quads", "bnodes", "hndq_groups", "quarantined")

PER_LAYER = (
    [(f"op.{role}.{k}", u, b) for role in OP_ROLES for k, u, b in OP_STATS]
    + [("op.bucket.skew", "ratio", "lower"), ("op.part.skew", "ratio", "lower"),
       ("op.exchange.critical_s", "s", "lower")]
    + [(f"layer.{n}_ms_per_graph", "ms", "lower") for n in LAYERS]
    + [(f"setup.{p}", "s", "lower") for p in SETUP_PHASES]
    + [(f"count.{c}", "count", "lower" if c == "quarantined" else "higher")
       for c in COUNTS]
    + [("trace.untraced_s", "s", "lower"), ("trace.traced_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower")]
)

UNITS = {n: u for n, u, *_ in END_TO_END + PER_LAYER}


def result_metrics(values: dict, names) -> dict:
    """``{name: {"value", "unit"}}`` for exactly ``names``; a name the
    workload did not measure is a bug, not a silent gap."""
    missing = [n for n in names if n not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {n: {"value": values[n], "unit": UNITS[n]} for n in names}


def op_metrics(table: dict) -> dict:
    """Flatten an ``operator_roles`` table into ``op.<role>.<stat>``,
    with 0 for roles the plan did not contain."""
    out = {}
    for role in OP_ROLES:
        row = table.get(role, {})
        for k, _, _ in OP_STATS:
            out[f"op.{role}.{k}"] = row.get(k, 0)
    out["op.bucket.skew"] = table.get("bucket", {}).get("skew", 0.0)
    out["op.part.skew"] = table.get("part", {}).get("skew", 0.0)
    out["op.exchange.critical_s"] = table.get("exchange", {}).get("critical_s", 0.0)
    return out


def per_layer(out: dict, spans, counts: dict) -> dict:
    """Per-layer metric values of a traced run: operator roles, span
    totals per layer in ms/graph, set-up phases, counts, tracing cost."""
    totals = spans.totals()
    n = max(1, counts["graphs"])
    m = op_metrics(out["operators"])
    m.update({f"layer.{k}_ms_per_graph": 1000 * totals.get(k, 0.0) / n for k in LAYERS})
    m.update({f"setup.{k}": v for k, v in out["setup"].items()})
    m.update({f"count.{k}": v for k, v in counts.items()})
    t0, t1 = out["trace_times"]
    m.update({"trace.untraced_s": t0, "trace.traced_s": t1,
              "trace.overhead_s": t1 - t0, "trace.spans": len(spans.rows)})
    return m
