"""Tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import layers, metrics, openloop  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402
from perfbench.stats import quantile, tail, tail_quantile, valid_name  # noqa: E402


# --------------------------------------------------------------------------- #
# percentile rule: the highest percentile with >= 10 samples beyond it


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 0.5), (99, 0.5), (100, 0.9), (999, 0.9),
    (1000, 0.99), (9999, 0.99), (10000, 0.999),
])
def test_tail_quantile_needs_ten_samples_beyond(n, expected):
    assert tail_quantile(n) == expected


def test_tail_refuses_a_thin_tail():
    tail(list(range(100)), 0.9)
    with pytest.raises(ValueError, match="10 samples beyond"):
        tail(list(range(99)), 0.9)


def test_quantile_interpolates():
    assert quantile([1, 2, 3, 4], 0.5) == 2.5
    assert quantile([5], 0.9) == 5


# --------------------------------------------------------------------------- #
# metric names


@pytest.mark.parametrize("bad", ["", "a b", "-x", ".x", "a/b", "x" * 65, "é"])
def test_invalid_names(bad):
    assert not valid_name(bad)


def test_benchmark_json_mirrors_the_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    assert e2e == [tuple(m) for m in metrics.END_TO_END]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert per_layer == [tuple(m) for m in metrics.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(valid_name(n) for n in names)


def test_report_defaults_only_untimed_layer_metrics_to_zero():
    out = metrics.report({"datasets.load_s": 0.1, "kernels.gather_edges.us_per_call": 1,
                          "kernels.scatter_min.us_per_call": 1,
                          "native.scipy_ms_p50": 1}, trace=True)
    assert out["cache.hit_ratio"] == {"value": 0.0, "unit": "ratio"}
    with pytest.raises(KeyError, match="native.scipy_ms_p50"):
        metrics.report({"datasets.load_s": 0.1, "kernels.gather_edges.us_per_call": 1,
                        "kernels.scatter_min.us_per_call": 1}, trace=True)
    with pytest.raises(KeyError):
        metrics.report({"setup_s": 1.0}, trace=False)
    with pytest.raises(ValueError, match="unknown"):
        metrics.report({"bogus": 1.0}, trace=False)


# --------------------------------------------------------------------------- #
# open-loop generator


def test_schedule_latency_counts_a_generator_stall():
    stall_s = 0.2
    schedule = [(0.005 * i, "row", (i,)) for i in range(40)]

    async def issue(kind, payload):
        if payload[0] == 10:
            time.sleep(stall_s)  # blocks the event loop, as a GIL-bound stall would
        return payload[0]

    reqs = asyncio.run(openloop.run(schedule, issue))
    assert [r.value for r in reqs] == list(range(40))
    delayed = [r for r in reqs if 10 < r.payload[0] < 40 and r.due < reqs[10].done]
    assert delayed, "the stall should overlap later due times"
    for r in delayed:
        # Timed from its scheduled time the request waited out the stall;
        # timed from the send, as after a sleep wakes, it looks instant.
        assert r.latency >= reqs[10].done - r.due - 1e-3
        assert r.done - r.sent < 0.05
    assert max(r.latency for r in reqs) >= 0.9 * stall_s
    assert openloop.late_ratio(reqs) >= len(delayed) / len(reqs)


# --------------------------------------------------------------------------- #
# traced layer times


def test_layer_self_times_sum_to_the_run_wall_time():
    from repro.core import delta_star_stepping, rho_stepping
    from repro.graphs.generators import road_grid
    import repro.core.framework as framework

    graph = road_grid(40, max_weight=float(2**16), seed=3)
    original = framework.gather_edges
    clock = layers.LayerClock()
    wall = 0.0
    with layers.installed(clock):
        assert framework.gather_edges is not original
        for s in range(0, graph.n, graph.n // 8):
            t0 = time.perf_counter()
            clock.call("core.loop", rho_stepping, graph, s, 64, seed=1)
            clock.call("core.loop", delta_star_stepping, graph, s, 2048.0, seed=1)
            wall += time.perf_counter() - t0
    assert framework.gather_edges is original
    self_s = clock.self_seconds()
    assert sum(self_s.values()) == pytest.approx(wall, rel=0.03)
    for layer in ("core.loop", "pq.flat", "pq.hashtable.insert", "core.policy.decide",
                  "kernels.gather_edges", "kernels.scatter_min", "kernels.unique_ids"):
        assert self_s.get(layer, 0.0) > 0.0, layer
    incl = clock.inclusive_seconds()
    assert incl["core.loop"] == pytest.approx(sum(self_s.values()), rel=1e-9)


def test_layer_clock_separates_threads():
    import threading

    clock = layers.LayerClock()

    def work():
        clock.call("outer", clock.call, "inner", time.sleep, 0.01)

    thread = threading.Thread(target=work)
    thread.start()
    clock.call("outer", time.sleep, 0.02)
    thread.join(timeout=5)
    assert not thread.is_alive()
    self_s = clock.self_seconds()
    assert self_s["inner"] >= 0.009
    assert clock.calls() == {"outer": 2, "inner": 1}
    # The main thread's call is not a child of the other thread's.
    assert self_s["outer"] >= 0.019
