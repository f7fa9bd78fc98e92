"""Query-serving layer: batched fast-path execution, cache, pools, faults.

The research core (:mod:`repro.core`) simulates the paper's parallel
machine — every probe and scan is metered, which is what the analysis layer
needs but not what a latency-sensitive caller wants.  This package serves
SSSP queries at wall-clock speed and keeps serving them when things break:

* :mod:`repro.serving.fastpath` — native multi-source executor (scipy's
  compiled Dijkstra) producing bit-identical distances to the scalar
  algorithms with no accounting overhead.
* :mod:`repro.serving.cache` — LRU result cache keyed by
  ``(graph_id, algo, param, source)``.
* :mod:`repro.serving.engine` — :class:`QueryEngine` front door with
  batch-aware admission (validation + in-flight dedup + cache
  short-circuit), per-batch deadlines, bounded retries and a circuit
  breaker around one in-process fast-path executor.
* :mod:`repro.serving.supervisor` — :class:`SupervisedPool`: self-healing
  process-pool execution (timeouts, retries with backoff, rebuild on worker
  crash, health probe).
* :mod:`repro.serving.pool` — :class:`SweepPool`, the persistent sweep-grid
  pool routed through the supervisor; workers get the graph through the
  pool initializer.
* :mod:`repro.serving.faults` — deterministic fault injection
  (:class:`FaultPlan`/:class:`FaultInjector`) driving the chaos suite;
  a no-op unless explicitly installed.
* :mod:`repro.serving.admission` — overload policy for the async front
  door: p95 latency tracking, deadline-feasibility checks, bounded-queue
  reject-newest shedding, and a token-bucket retry budget.
* :mod:`repro.serving.server` — :class:`ShortestPathServer`, the asyncio
  micro-batching front door (flush at **B** requests or **T** ms) plus the
  newline-delimited-JSON TCP front that ``repro serve`` runs.
* :mod:`repro.serving.loadgen` — open-loop load generator (Poisson
  arrivals, power-law source popularity) with per-profile SLO reports and
  in-run distance-equality asserts against scalar runs.
"""

from repro.serving.admission import (
    AdmissionController,
    LatencyTracker,
    RetryBudget,
)
from repro.serving.cache import ResultCache, graph_id
from repro.serving.engine import QueryEngine
from repro.serving.fastpath import multi_source_distances
from repro.serving.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    get_injector,
    install_injector,
)
from repro.serving.loadgen import LoadProfile
from repro.serving.pool import SweepPool
from repro.serving.server import ShortestPathServer, serve_tcp
from repro.serving.supervisor import SupervisedPool

__all__ = [
    "AdmissionController",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "LatencyTracker",
    "LoadProfile",
    "QueryEngine",
    "ResultCache",
    "RetryBudget",
    "ShortestPathServer",
    "SupervisedPool",
    "SweepPool",
    "get_injector",
    "graph_id",
    "install_injector",
    "multi_source_distances",
    "serve_tcp",
]
