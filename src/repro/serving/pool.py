"""Persistent process pool for the sweep grid.

:class:`SweepPool` is routed through
:class:`~repro.serving.supervisor.SupervisedPool` (timeouts, retries, crash
rebuild).  Each cell is one metered SSSP run.  The graph reaches every
worker through the pool initializer, including every worker started by a
supervised rebuild (DESIGN.md §11 says what that costs per start method),
and each task payload stays ``(impl_key, param, source, seed, machine)``.
"""

from __future__ import annotations

import math

from repro.graphs.csr import Graph
from repro.obs import OBS
from repro.runtime.machine import MachineModel
from repro.serving.faults import FaultPlan
from repro.serving.supervisor import SupervisedPool
from repro.utils.errors import ParameterError

__all__ = ["SweepPool"]

# The one graph this worker's pool serves, installed by the initializer.
_WORKER_GRAPH: "Graph | None" = None


def _init_worker(graph: Graph) -> None:
    global _WORKER_GRAPH
    _WORKER_GRAPH = graph
    # Warm the lazily-built CSR properties once per worker instead of once
    # per task.
    graph.degrees


def _run_cell(impl_key: str, param, source: int, seed, machine: MachineModel) -> float:
    # Imported here so the worker resolves the registry in its own process.
    from repro.analysis.runners import get_implementation, simulated_time

    impl = get_implementation(impl_key)
    res = impl.run(_WORKER_GRAPH, int(source), param, seed=seed)
    return float(simulated_time(res, machine, impl.profile))


def _valid_time(value) -> bool:
    """A sweep cell must come back as a finite non-negative simulated time."""
    return isinstance(value, float) and math.isfinite(value) and value >= 0.0


class SweepPool:
    """A persistent, supervised worker pool bound to one graph.

    Use as a context manager::

        with SweepPool(graph, jobs=4) as pool:
            times = pool.simulated_times("PQ-rho", 2**13, sources, machine)

    The pool survives across many calls (that is the point — workers keep
    the graph warm), recovers from worker crashes/hangs transparently (see
    :class:`~repro.serving.supervisor.SupervisedPool`), and shuts down with
    the context.  ``stats()`` exposes the supervision counters (rebuilds,
    retries, timeouts).  Worker-side metric deltas merge into the parent's
    registry whenever one is installed.
    """

    def __init__(
        self,
        graph: Graph,
        jobs: int,
        *,
        timeout: "float | None" = None,
        retries: int = 2,
        backoff: float = 0.05,
        seed: int = 0,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        if jobs < 2:
            raise ParameterError(f"SweepPool needs jobs >= 2, got {jobs} (use the serial path)")
        self.graph = graph
        self.jobs = jobs
        self._sup = SupervisedPool(
            jobs,
            initializer=_init_worker,
            initargs=(graph,),
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            seed=seed,
            fault_plan=fault_plan,
            collect_metrics=OBS.enabled and OBS.registry.enabled,
        )

    def simulated_times(
        self, impl_key: str, param, sources, machine: MachineModel, *, seed=0
    ) -> list[float]:
        """Simulated seconds for ``impl_key`` at one param across ``sources``."""
        tasks = [(impl_key, param, int(s), seed, machine) for s in sources]
        return self._sup.map_supervised(_run_cell, tasks, validate=_valid_time)

    def map_cells(
        self, impl_key: str, params, sources, machine: MachineModel, *, seed=0
    ) -> "list[list[float]]":
        """Times for the full grid: one inner list per param, all in flight."""
        params = list(params)
        sources = [int(s) for s in sources]
        tasks = [(impl_key, p, s, seed, machine) for p in params for s in sources]
        flat = self._sup.map_supervised(_run_cell, tasks, validate=_valid_time)
        k = len(sources)
        return [flat[i * k : (i + 1) * k] for i in range(len(params))]

    def health_probe(self, timeout: float = 5.0) -> bool:
        """True when a worker answers a trivial round-trip within ``timeout``."""
        return self._sup.health_probe(timeout)

    def stats(self) -> dict:
        """Supervision counters (submitted, completed, retries, rebuilds, ...)."""
        return self._sup.stats()

    def close(self) -> None:
        self._sup.close()

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

