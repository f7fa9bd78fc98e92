"""Every metric the benchmark reports, with its unit (``BENCHMARK.json`` mirrors this).

Every workload reports every metric, so each end-to-end metric is defined
on every workload (see each workload module for what "one operation"
is there).  Per-layer shares, ratios and counts read 0 on a workload that
never enters the layer; per-layer times are measured on every workload.
"""

from __future__ import annotations

#: ``(name, unit, better, bound)`` of the end-to-end metrics, measured with
#: tracing off.  ``bound`` is the share of the parent's median by which the
#: metric may worsen before a change counts as a regression; every bound is
#: the largest allowed because wall times for identical work move by 15-30%
#: between runs minutes apart on the 2-CPU host the benchmark was tuned on.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_p90", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
]

#: ``(name, unit, better)`` of the per-layer metrics, measured in a traced run.
PER_LAYER = [
    ("datasets.load_s", "s", "lower"),
    ("kernels.share", "ratio", "lower"),
    ("kernels.gather_edges.us_per_call", "us", "lower"),
    ("kernels.scatter_min.us_per_call", "us", "lower"),
    ("pq.share", "ratio", "lower"),
    ("pq.hashtable.insert.share", "ratio", "lower"),
    ("pq.extract.dense_ratio", "ratio", "lower"),
    ("pq.update.touches", "count", "lower"),
    ("core.steps", "count", "lower"),
    ("core.waves", "count", "lower"),
    ("core.edges", "count", "lower"),
    ("core.relax_success_ratio", "ratio", "higher"),
    ("core.sim_ms", "sim_ms", "lower"),
    ("core.policy.decide.share", "ratio", "lower"),
    ("core.loop.self_share", "ratio", "lower"),
    ("core.batch_over_loop", "ratio", "lower"),
    ("native.scipy_ms_p50", "ms", "lower"),
    ("native.gap", "ratio", "lower"),
    ("admission.check.share", "ratio", "lower"),
    ("admission.shed_ratio.queue_full", "ratio", "lower"),
    ("admission.shed_ratio.deadline", "ratio", "lower"),
    ("shed_rate", "ratio", "lower"),
    ("error_rate", "ratio", "lower"),
    ("server.queue_wait_share", "ratio", "lower"),
    ("server.batch_fill_mean", "count", "higher"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.share", "ratio", "lower"),
    ("engine.execute.share", "ratio", "lower"),
    ("engine.self.share", "ratio", "lower"),
    ("labels.share", "ratio", "lower"),
    ("labels.check_share", "ratio", "lower"),
    ("labels.fallback_ratio", "ratio", "lower"),
    ("labels.build.setup_share", "ratio", "lower"),
    ("dynamic.share", "ratio", "lower"),
    ("dynamic.resolve_apply.share", "ratio", "lower"),
    ("dynamic.repair.share", "ratio", "lower"),
    ("dynamic.repaired_entries", "count", "higher"),
    ("loadgen.late_ratio", "ratio", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
]

#: Units whose value is a wall-clock time: those must be measured on every
#: workload; every other per-layer metric defaults to 0 (layer not entered).
TIME_UNITS = {"s", "ms", "us"}


def report(values: dict, trace: bool) -> dict:
    """``{name: {"value", "unit"}}`` for the metric set of this run kind.

    Raises ``KeyError`` naming a metric the workload did not measure and
    that cannot default to 0, and ``ValueError`` for an unknown metric.
    """
    spec = PER_LAYER if trace else END_TO_END
    known = {m[0] for m in spec}
    extra = set(values) - known
    if extra:
        raise ValueError(f"unknown metrics {sorted(extra)}")
    out = {}
    for name, unit, *_ in spec:
        if name in values:
            value = float(values[name])
        elif trace and unit not in TIME_UNITS:
            value = 0.0
        else:
            raise KeyError(f"metric {name} was not measured")
        out[name] = {"value": value, "unit": unit}
    return out
