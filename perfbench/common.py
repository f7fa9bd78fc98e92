"""Set-up, native reference and environment helpers shared by the workloads."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.sparse.csgraph import dijkstra

from repro.datasets import load_dataset
from repro.graphs.interop import to_scipy_sparse
from repro.runtime import kernels

#: Every workload uses this scale, passed explicitly so an inherited
#: ``REPRO_SCALE`` cannot change what is measured.
SCALE = "small"


def warm_dataset(name: str):
    """Untimed warm-up: generate ``name`` into the graph cache and run the
    process's lazy kernel autotune, so neither lands in a timed run."""
    kernels.thresholds()
    return load_dataset(name, SCALE)


def timed_setup(name: str, build=None) -> "tuple[float, float, object]":
    """One set-up: cached dataset load, kernel autotune, then ``build(graph)``.

    Returns ``(setup_s, load_s, built)`` where ``built`` is what ``build``
    returned (the graph itself without ``build``).
    """
    t0 = time.perf_counter()
    graph = load_dataset(name, SCALE)
    t1 = time.perf_counter()
    kernels.autotune()
    built = build(graph) if build is not None else graph
    return time.perf_counter() - t0, t1 - t0, built


def reference_rows(graph, sources) -> np.ndarray:
    """``scipy.sparse.csgraph.dijkstra`` distance rows for ``sources``."""
    return dijkstra(to_scipy_sparse(graph), directed=True, indices=np.asarray(sources))


def native_ms_p50(graph, sources) -> float:
    """Median milliseconds of one single-source scipy Dijkstra on ``graph``."""
    matrix = to_scipy_sparse(graph)
    times = []
    for s in sources:
        t0 = time.perf_counter()
        dijkstra(matrix, directed=True, indices=int(s))
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: Path, graphs: dict) -> dict:
    """What a run's numbers depend on besides the code."""
    th = kernels.thresholds()
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "fingerprints": {name: g.fingerprint for name, g in graphs.items()},
        "kernel_thresholds": {
            "scatter_sort_min": th.scatter_sort_min,
            "dedup_mask_ratio": th.dedup_mask_ratio,
            "first_occ_dense_min": th.first_occ_dense_min,
            "source": th.source,
        },
    }
