"""Persistent process pool for the sweep grid.

:class:`SweepPool` is routed through
:class:`~repro.serving.supervisor.SupervisedPool` (timeouts, retries, crash
rebuild).  Each cell is one metered SSSP run; the graph reaches workers
**once**, as an O(1)-picklable
:class:`~repro.runtime.shm.SharedGraphHandle` when the platform has the
zero-copy shared-memory plane (:mod:`repro.runtime.shm`) — all workers map
the same physical CSR pages, including every worker spawned by a supervised
rebuild — and each task payload stays ``(impl_key, param, source, seed,
machine)``.

Transport selection: ``use_shm=None`` (default) probes
:func:`~repro.runtime.shm.shm_available`; ``False`` forces the pickle
path; ``True`` demands shm and still degrades gracefully (with a warning
and an ``shm.fallbacks`` count) if registration fails.  ``stats()``
reports the chosen ``transport`` so dashboards can attribute their numbers.

Worker-side attaches fire the ``shm.attach`` fault site *lazily on the
first task* (not in the pool initializer), so an injected attach fault
surfaces as a supervised task failure that the retry budget absorbs — the
chaos suite asserts recovery converges to bit-identical results.
"""

from __future__ import annotations

import logging
import math

from repro.graphs.csr import Graph
from repro.obs import OBS
from repro.runtime.machine import MachineModel
from repro.runtime.shm import SharedGraphHandle, get_manager, shm_available
from repro.serving.faults import FaultPlan
from repro.serving.supervisor import SupervisedPool
from repro.utils.errors import ParameterError

__all__ = ["SweepPool"]

_LOG = logging.getLogger("repro.serving")

# Worker-side globals installed by the pool initializer: either the one
# graph this pool serves (pickle path) or the handle it attaches lazily.
_WORKER_GRAPH: "Graph | None" = None
_WORKER_HANDLE: "SharedGraphHandle | None" = None


def _init_worker(graph_or_handle) -> None:
    global _WORKER_GRAPH, _WORKER_HANDLE
    if isinstance(graph_or_handle, SharedGraphHandle):
        # Attach lazily in the first task so an injected ``shm.attach``
        # fault is a retryable task failure, not an initializer crash loop.
        _WORKER_HANDLE = graph_or_handle
        _WORKER_GRAPH = None
    else:
        _WORKER_HANDLE = None
        _WORKER_GRAPH = graph_or_handle
        # Warm the lazily-built CSR properties once per worker instead of
        # once per task.
        graph_or_handle.degrees


def _worker_graph() -> Graph:
    """The worker's graph, attaching the shared CSR on first use."""
    global _WORKER_GRAPH
    if _WORKER_GRAPH is None:
        if _WORKER_HANDLE is None:  # pragma: no cover - initializer contract
            raise RuntimeError("pool worker has no graph installed")
        graph = _WORKER_HANDLE.attach()
        graph.degrees
        _WORKER_GRAPH = graph
    return _WORKER_GRAPH


def _run_cell(impl_key: str, param, source: int, seed, machine: MachineModel) -> float:
    # Imported here so the worker resolves the registry in its own process.
    from repro.analysis.runners import get_implementation, simulated_time

    impl = get_implementation(impl_key)
    res = impl.run(_worker_graph(), int(source), param, seed=seed)
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
    retries, timeouts) plus the graph ``transport`` (``"shm"`` when workers
    map the parent's CSR segments, ``"pickle"`` otherwise).
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
        collect_metrics: bool = False,
        use_shm: "bool | None" = None,
    ) -> None:
        if jobs < 2:
            raise ParameterError(f"SweepPool needs jobs >= 2, got {jobs} (use the serial path)")
        self.graph = graph
        self.jobs = jobs
        payload = self._setup_transport(graph, use_shm)
        self._sup = SupervisedPool(
            jobs,
            initializer=_init_worker,
            initargs=(payload,),
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            seed=seed,
            fault_plan=fault_plan,
            collect_metrics=collect_metrics,
        )

    def _setup_transport(self, graph: Graph, use_shm: "bool | None") -> object:
        """Pick shm vs pickle; returns the worker initializer payload."""
        self._shm_handle: "SharedGraphHandle | None" = None
        self.transport = "pickle"
        if use_shm is None:
            use_shm = shm_available()
        if use_shm:
            try:
                self._shm_handle = get_manager().share_graph(graph)
                self.transport = "shm"
                return self._shm_handle
            except Exception as exc:
                _LOG.warning(
                    "shared-memory registration failed (%s); falling back to "
                    "the pickle transport", exc,
                )
                if OBS.enabled:
                    OBS.registry.inc("shm.fallbacks")
        return graph

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
        """Supervision counters plus the graph transport in use."""
        out = self._sup.stats()
        out["transport"] = self.transport
        return out

    def close(self) -> None:
        self._sup.close()
        if self._shm_handle is not None:
            get_manager().release_graph(self._shm_handle)
            self._shm_handle = None

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

