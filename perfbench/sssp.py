"""``sssp-road`` and ``sssp-social``: metered single-source runs and ``*_batch`` calls.

One operation is one metered single-source run of one policy (PQ-ρ,
PQ-Δ*, PQ-BF) from a seeded source.  A timed run makes several passes,
each every (source, policy) run followed by one ``*_batch`` call per
policy, and keeps the fastest time of each run and of each batch call:
the host's speed swings by up to half for seconds at a time, and the
fastest of times taken seconds apart is much less swayed by that.  The
untimed part of a run compares every distance with scipy's Dijkstra and
every ``*_batch`` StepRecord stream with its scalar run's.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from perfbench import common, layers
from perfbench.stats import ratio, tail
from repro.core import (
    bellman_ford,
    bellman_ford_batch,
    delta_star_stepping,
    delta_star_stepping_batch,
    rho_stepping,
    rho_stepping_batch,
)
from repro.runtime.machine import MachineModel

#: dataset; Δ for PQ-Δ* (the golden-run value on GE; 2**16 on the R-MAT
#: weights in [1, 2**18)); sources per second of ``--seconds`` (a fixed
#: amount of work, so what a run measures does not depend on how fast the
#: host ran it: about half the time goes to scalar runs, half to batches);
#: timed passes (sssp-social's short runs swing most with the host, and
#: the fastest of four steadied its p50 more than of two); sources in a
#: traced run (fixed, so its counts repeat exactly for a seed).
WORKLOADS = {
    "sssp-road": {"dataset": "GE", "delta": 2048.0, "sources_per_s": 2,
                  "passes": 2, "trace_sources": 24},
    "sssp-social": {"dataset": "OK", "delta": 65536.0, "sources_per_s": 4,
                    "passes": 4, "trace_sources": 96},
}

SETUPS = 5
STRATA = 8
MIN_ROUNDS = 5  # 5 rounds x 8 sources x 3 policies >= 100 runs, so p90 has 10 beyond


def source_order(graph, rng) -> "list[int]":
    """Seeded sources that cover the id range evenly, round by round.

    Vertex ids are split into ``STRATA`` contiguous ranges (spatial blocks
    of the grid, degree classes of R-MAT); every consecutive ``STRATA``
    sources take one random vertex from each range, so how much work a run
    measures depends little on which seed drew its sources.
    """
    candidates = np.flatnonzero(graph.out_degree() > 0)
    strata = [rng.permutation(c) for c in np.array_split(candidates, STRATA)]
    rounds = min(len(c) for c in strata)
    return [int(c[r]) for r in range(rounds) for c in strata]


def _policies(delta: float):
    """``(scalar(g, s, seed), batch(g, sources, seed))`` for PQ-ρ, PQ-Δ*, PQ-BF."""
    return [
        (lambda g, s, seed: rho_stepping(g, s, seed=seed),
         lambda g, ss, seed: rho_stepping_batch(g, ss, seed=seed)),
        (lambda g, s, seed: delta_star_stepping(g, s, delta, seed=seed),
         lambda g, ss, seed: delta_star_stepping_batch(g, ss, delta, seed=seed)),
        (lambda g, s, seed: bellman_ford(g, s, seed=seed),
         lambda g, ss, seed: bellman_ford_batch(g, ss, seed=seed)),
    ]


def _scalar_pass(graph, sources, policies, algo_seed, clock=None):
    """Run every (source, policy) pair; returns ``(results, seconds each)``."""
    results, times = [], []
    for s in sources:
        for scalar, _ in policies:
            t0 = time.perf_counter()
            if clock is None:
                res = scalar(graph, s, algo_seed)
            else:
                res = clock.call("core.loop", scalar, graph, s, algo_seed)
            times.append(time.perf_counter() - t0)
            results.append(res)
    return results, times


def _batch_pass(graph, sources, policies, algo_seed):
    """One ``*_batch`` call per policy; returns ``(results, seconds)`` by policy."""
    out, times = [], []
    for _, batch in policies:
        t0 = time.perf_counter()
        out.append(batch(graph, sources, algo_seed))
        times.append(time.perf_counter() - t0)
    return out, times


def _check(ref, policies, scalar_results, batch_results) -> int:
    """Wrong answers: distances vs scipy's rows ``ref``, batch StepRecords vs scalar's."""
    wrong = 0
    k = len(policies)
    for i, res in enumerate(scalar_results):
        if not np.array_equal(res.dist, ref[i // k]):
            wrong += 1
    for p, results in enumerate(batch_results):
        for i, res in enumerate(results):
            scalar = scalar_results[i * k + p]
            if not (np.array_equal(res.dist, scalar.dist)
                    and res.stats.steps == scalar.stats.steps):
                wrong += 1
    return wrong


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cfg = WORKLOADS[name]
    common.warm_dataset(cfg["dataset"])
    setups = [common.timed_setup(cfg["dataset"]) for _ in range(SETUPS)]
    graph = setups[-1][2]
    policies = _policies(cfg["delta"])
    rng = np.random.default_rng(seed)
    order = source_order(graph, rng)
    algo_seed = int(rng.integers(1 << 31))

    if trace:
        sources = order[: cfg["trace_sources"]]
        _scalar_pass(graph, sources[:1], policies, algo_seed)  # warm-up
        clock = layers.LayerClock()
        untraced, plain_times, traced, traced_times = [], [], [], []
        for s in sources:  # alternate so that drifts in host speed hit both alike
            res, ts = _scalar_pass(graph, [s], policies, algo_seed)
            untraced += res
            plain_times += ts
            with layers.installed(clock):
                res, ts = _scalar_pass(graph, [s], policies, algo_seed, clock)
            traced += res
            traced_times += ts
        batch_results, batch_times = _batch_pass(graph, sources, policies, algo_seed)
        batch_s = sum(batch_times)
        wrong = _check(common.reference_rows(graph, sources), policies, untraced,
                       batch_results)
        wrong += sum(not np.array_equal(a.dist, b.dist) or a.stats.steps != b.stats.steps
                     for a, b in zip(untraced, traced))
        attempted = 2 * len(untraced) + len(sources) * len(policies)
        values = _layer_values(clock, traced, plain_times, traced_times, batch_s)
        values["datasets.load_s"] = statistics.median(s[1] for s in setups)
        native = common.native_ms_p50(graph, sources)
        values["native.scipy_ms_p50"] = native
        values["native.gap"] = statistics.median(plain_times) * 1e3 / native
        values["error_rate"] = wrong / attempted
    else:
        rounds = max(MIN_ROUNDS, round(seconds * cfg["sources_per_s"] / STRATA))
        sources = order[: rounds * STRATA]
        passes = []
        for _ in range(cfg["passes"]):
            scalar_results, times = _scalar_pass(graph, sources, policies, algo_seed)
            batch_results, batch_times = _batch_pass(graph, sources, policies, algo_seed)
            passes.append((scalar_results, times, batch_results, batch_times))
        ref = common.reference_rows(graph, sources)
        wrong = sum(_check(ref, policies, p[0], p[2]) for p in passes)
        attempted = cfg["passes"] * 2 * len(sources) * len(policies)
        times = np.min([p[1] for p in passes], axis=0)
        batch_s = float(np.sum(np.min([p[3] for p in passes], axis=0)))
        values = {
            "setup_s": statistics.median(s[0] for s in setups),
            "latency_ms_p50": float(np.median(times)) * 1e3,
            "latency_ms_p90": tail(times.tolist(), 0.9) * 1e3,
            "throughput_per_s": len(sources) * len(policies) / batch_s,
        }
    return {"values": values, "attempted": attempted, "failed": wrong,
            "wrong": wrong, "graphs": {cfg["dataset"]: graph}}


def _layer_values(clock, traced, plain_times, traced_times, batch_s) -> dict:
    run_s = clock.inclusive_seconds()["core.loop"]
    steps = [rec for res in traced for rec in res.stats.steps]
    edges = sum(r.edges for r in steps)
    model = MachineModel()
    return {
        **layers.common_values(clock, run_s),
        "pq.extract.dense_ratio": ratio(sum(r.mode == "dense" for r in steps), len(steps)),
        "pq.update.touches": sum(r.pq_touches for r in steps),
        "core.steps": len(steps),
        "core.waves": sum(r.waves for r in steps),
        "core.edges": edges,
        "core.relax_success_ratio": ratio(sum(r.relax_success for r in steps), edges),
        "core.sim_ms": 1e3 * sum(model.time_seconds(res.stats) for res in traced),
        "core.loop.self_share": clock.self_seconds()["core.loop"] / run_s,
        "core.batch_over_loop": batch_s / sum(plain_times),
        "obs.trace_overhead": sum(traced_times) / sum(plain_times) - 1.0,
    }
