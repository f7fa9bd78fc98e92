"""Serving-front-door benchmark: throughput, latency SLOs, overload shedding.

Drives the asyncio :class:`~repro.serving.server.ShortestPathServer` with
the open-loop load generator (:mod:`repro.serving.loadgen`) on two stand-in
graphs and reports, per (graph, profile):

* **achieved qps vs the scalar loop** — the scalar baseline is the
  popularity-weighted throughput of a one-scalar-run-per-request loop,
  timed from the same runs that produce the distance-equality oracle; the
  steady profile must beat it by >= 4x.
* **latency percentiles of admitted requests** (p50/p95/p99/max ms) and the
  fraction meeting their deadline (``slo_attained``).
* **overload behaviour** — the ``overload`` profile offers 2x the
  calibrated execution capacity at a bounded queue: the server must shed at
  admission (typed ``OverloadError``; ``shed > 0``) while the p95 of the
  requests it *did* admit stays within their deadline, with no queue
  growth beyond the bound.

Distance equality is asserted *inside the run*: every successful response
is compared bit-for-bit with the scalar reference for its source
(``mismatches`` must be 0) — a front door that changes answers is not a
front door.

Results land in ``BENCH_serving.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py            # full run
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke    # CI-sized
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import sys
from pathlib import Path

import numpy as np

from repro.datasets import load_dataset
from repro.serving.admission import AdmissionController
from repro.serving.loadgen import (
    LoadProfile,
    build_reference,
    run_profile,
    source_pool,
    zipf_weights,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

GRAPHS = ["OK", "GE"]

ALGO, PARAM = "rho", None


def profiles(smoke: bool) -> "list[tuple[LoadProfile, dict, dict]]":
    """(profile, engine kwargs, server kwargs) triples.

    The overload profile models *cold* traffic — 64 near-uniform sources at
    2x the calibrated execution capacity, with the result cache pinned to a
    few entries so offered load actually reaches the execution path (a
    256-entry cache would swallow a 64-source pool after one warm lap and
    nothing would ever overload) — and a deliberately small bounded queue
    so shedding, not queueing, is the pressure valve.
    """
    duration = 0.8 if smoke else 2.5
    steady = LoadProfile(
        "steady", duration=duration, rate_factor=0.5,
        num_sources=16, alpha=1.1, deadline=0.5, seed=1,
    )
    overload = LoadProfile(
        "overload", duration=duration, rate_factor=2.0,
        num_sources=64, alpha=0.3, deadline=0.6, seed=2,
    )
    # Small batches bound per-flush service time (a cold road-graph batch of
    # 16 approaches the deadline by itself), and slack=1.5 makes the
    # feasibility check conservative: requests that *might* just squeak in
    # are shed instead, keeping the p95 of admitted requests comfortably
    # inside the deadline under overload.
    overload_admission = AdmissionController(max_queue=64, max_batch=8, slack=1.5)
    return [
        (steady, {}, {}),
        (
            overload,
            {"cache_size": 8},
            {"max_batch": 8, "max_queue": 64, "admission": overload_admission},
        ),
    ]


def bench_graph(gname: str, smoke: bool) -> "list[dict]":
    graph = load_dataset(gname)
    rows = []
    for prof, engine_kwargs, server_kwargs in profiles(smoke):
        pool = source_pool(graph, prof.num_sources)
        weights = zipf_weights(len(pool), prof.alpha)
        reference, scalar_qps = build_reference(
            graph, pool, weights, algo=ALGO, param=PARAM
        )
        rep = asyncio.run(run_profile(
            graph, prof, algo=ALGO, param=PARAM, pool=pool,
            reference=reference, scalar_qps=scalar_qps,
            engine_kwargs=engine_kwargs, server_kwargs=server_kwargs,
        ))
        rep["graph"] = gname
        assert rep["mismatches"] == 0, (
            f"{gname}/{prof.name}: {rep['mismatches']} responses disagreed "
            f"with the scalar reference"
        )
        if prof.name == "steady":
            assert rep["speedup_vs_scalar"] >= 4.0, (
                f"{gname}/steady: {rep['speedup_vs_scalar']:.1f}x vs the "
                f"scalar loop, need >= 4x"
            )
            assert rep["shed"] == 0, f"{gname}/steady shed {rep['shed']} requests"
        else:
            assert rep["shed"] > 0, f"{gname}/overload shed nothing at 2x capacity"
            p95 = rep["latency_ms"]["p95"]
            assert rep["completed"] > 0 and p95 is not None, (
                f"{gname}/overload admitted nothing"
            )
            assert p95 <= rep["deadline_ms"], (
                f"{gname}/overload p95 of admitted requests {p95:.1f} ms "
                f"blew the {rep['deadline_ms']:.0f} ms deadline"
            )
            assert rep["queue_peak"] <= server_kwargs["max_queue"], (
                f"{gname}/overload queue grew past the bound"
            )
        rows.append(rep)
        lat = rep["latency_ms"]
        print(
            f"  {gname:3s} {prof.name:8s} offered={rep['offered_qps']:8.1f}/s "
            f"achieved={rep['achieved_qps']:8.1f}/s "
            f"scalar={rep['scalar_qps']:7.1f}/s "
            f"({rep['speedup_vs_scalar']:5.1f}x)  "
            f"p95={lat['p95'] if lat['p95'] is None else round(lat['p95'], 1)} ms  "
            f"shed={rep['shed']} expired={rep['expired']} "
            f"mism={rep['mismatches']}"
        )
        sys.stdout.flush()
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="CI-sized run")
    ap.add_argument("--out", default=str(REPO_ROOT / "BENCH_serving.json"))
    args = ap.parse_args()

    graphs = GRAPHS[:1] if args.smoke else GRAPHS
    all_rows = []
    for gname in graphs:
        print(f"{gname}:")
        all_rows.extend(bench_graph(gname, args.smoke))

    report = {
        "bench": "serving",
        "mode": "smoke" if args.smoke else "full",
        "scale": __import__("os").environ.get("REPRO_SCALE", "small"),
        "algo": ALGO,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "rows": all_rows,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {args.out} ({len(all_rows)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
