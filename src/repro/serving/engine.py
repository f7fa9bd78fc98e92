"""Front-door query engine: cache, batch admission, one execution path.

A :class:`QueryEngine` is bound to one graph and one algorithm
configuration.  ``query_batch`` is the serving entry point: it answers each
source from the LRU cache when possible, dedupes the remaining sources (a
batch that asks for the same vertex twice runs it once), executes the
residue through one in-process
:func:`~repro.serving.fastpath.multi_source_distances` pass (distances
bit-identical to the scalar algorithms, no work-span accounting), and
returns rows aligned with the request order.  Callers that need metered
results use the ``*_batch`` functions of :mod:`repro.core` directly.

Two modes:

* ``"fast"`` (default) — row queries only.
* ``"p2p"`` — fast-path batches **plus** the precomputed point-to-point
  tier (:mod:`repro.labels`): the engine eagerly builds landmark + hub
  label tables at construction (with the engine's retry budget, through
  the ``labels.build`` fault site) and serves :meth:`QueryEngine.dist` /
  :meth:`QueryEngine.reachable` / :meth:`QueryEngine.knearest` from them
  in microseconds.  Every label answer is validated against the exact ALT
  bound sandwich; a violation, a lookup fault, or a build that kept
  failing degrades to the cached SSSP path — bit-identical answers,
  slower.  ``labels_path`` persists the tables as a ``.labels`` artifact
  (loaded in preference to rebuilding, rejected-and-rebuilt when corrupt
  or stale).

Resilience (all off the hot path unless something goes wrong):

* **admission validation** — non-integer, negative or out-of-range sources
  raise :class:`~repro.utils.errors.ParameterError` naming the offending
  value, before anything reaches the kernels;
* **per-batch deadlines** — ``query_batch(..., deadline=s)`` (or the
  engine-level default) bounds the execution phase; with a deadline set the
  batch executes in chunks with a deadline check between chunks and raises
  :class:`~repro.utils.errors.DeadlineExceeded` on overrun;
* **bounded retries** — transient execution failures (including injected
  ones) are retried up to ``retries`` times; every result is sanity-checked
  (shape, no NaN, non-negative, zero self-distance) so corrupted payloads
  are rejected and re-executed rather than served;
* **circuit breaker** — after ``failure_threshold`` *consecutive* execution
  failures the circuit opens: misses fail fast with
  :class:`~repro.utils.errors.CircuitOpenError` while cache hits are still
  served; after ``cooldown`` seconds the circuit half-opens and one trial
  batch decides between closing (success) and re-opening (failure).

Dynamic graphs: :meth:`QueryEngine.apply_updates` applies an edge-update
batch (see :mod:`repro.dynamic`) to the served graph — stale cache entries
for the pre-update fingerprint are invalidated (never served again) and
their warm distances seed :func:`~repro.dynamic.incremental_sssp` repair on
the updated graph, so popular sources stay hot across updates without a
full recompute.  A repair that keeps failing degrades to a fresh fast-path
recompute for that entry, and failing that the entry is simply dropped
(the next query recomputes) — updates never leave wrong answers behind.

Fault-injection sites: ``engine.execute`` fires on every execution attempt;
``engine.update`` fires on every cache-repair attempt inside
:meth:`QueryEngine.apply_updates`; ``labels.build`` / ``labels.lookup``
fire inside the label tier (see :mod:`repro.labels`).
"""

from __future__ import annotations

import logging
import operator
import threading
import time

import numpy as np

from repro.core.algorithms import DEFAULT_RHO
from repro.graphs.csr import Graph
from repro.obs import OBS
from repro.serving.cache import ResultCache
from repro.serving.fastpath import multi_source_distances
from repro.serving.faults import get_injector
from repro.utils.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    ExecutionError,
    ParameterError,
    ReproError,
)

__all__ = ["QueryEngine"]

_LOG = logging.getLogger("repro.serving")

#: Sources per execution chunk when a deadline is active (the deadline is
#: checked between chunks; with no deadline the whole batch runs in one call
#: so the fault-free fast path is untouched).
_DEADLINE_CHUNK = 8


def _check_deadline(deadline_at: "float | None") -> None:
    if deadline_at is not None and time.monotonic() > deadline_at:
        raise DeadlineExceeded("batch missed its deadline")


class QueryEngine:
    """Cached, batch-aware SSSP query service over one graph.

    Parameters
    ----------
    graph:
        The CSR graph to serve.
    algo:
        ``"rho"``, ``"delta"`` or ``"bf"`` — the three production
        implementations (PQ-ρ, PQ-Δ, PQ-BF).
    param:
        ρ for ``"rho"`` (defaults to :data:`~repro.core.algorithms.DEFAULT_RHO`),
        Δ for ``"delta"`` (required); ignored for ``"bf"``.
    mode:
        ``"fast"`` or ``"p2p"`` (see module docstring).
    cache_size:
        LRU capacity in distance vectors.
    seed:
        Seed for the label builds and the incremental cache repair (the
        fast path is deterministic and seed-free).
    retries:
        Extra execution attempts after a transient failure (0 = none).
    deadline:
        Default per-batch deadline in seconds (``None`` = unbounded);
        overridable per call via ``query_batch(..., deadline=s)``.
    failure_threshold:
        Consecutive execution failures that trip the circuit breaker.
    cooldown:
        Seconds the circuit stays open before half-opening for a trial.
    num_landmarks / label_strategy:
        Size and selection strategy of the landmark table built in
        ``"p2p"`` mode (see :func:`repro.labels.build_landmarks`).
    labels_path:
        Optional ``.labels`` artifact path for ``"p2p"`` mode: loaded in
        preference to rebuilding when it matches the served graph, written
        after every (re)build.  A corrupt or stale artifact is rejected
        with a warning and rebuilt — it can never serve.
    """

    def __init__(
        self,
        graph: Graph,
        algo: str = "rho",
        param=None,
        *,
        mode: str = "fast",
        cache_size: int = 256,
        seed=0,
        retries: int = 2,
        deadline: "float | None" = None,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        num_landmarks: int = 16,
        label_strategy: str = "farthest",
        labels_path=None,
    ) -> None:
        if algo not in ("rho", "delta", "bf"):
            raise ParameterError(f"unknown algo {algo!r}; choose rho, delta or bf")
        if mode not in ("fast", "p2p"):
            raise ParameterError(f"unknown mode {mode!r}; choose fast or p2p")
        if labels_path is not None and mode != "p2p":
            raise ParameterError("labels_path requires mode='p2p'")
        if num_landmarks < 1:
            raise ParameterError(f"num_landmarks must be >= 1, got {num_landmarks}")
        if retries < 0:
            raise ParameterError(f"retries must be >= 0, got {retries}")
        if failure_threshold < 1:
            raise ParameterError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if cooldown <= 0:
            raise ParameterError(f"cooldown must be positive, got {cooldown}")
        if deadline is not None and deadline <= 0:
            raise ParameterError(f"deadline must be positive, got {deadline}")
        if algo == "rho":
            param = int(param) if param is not None else DEFAULT_RHO
        elif algo == "delta":
            if param is None:
                raise ParameterError("delta engine requires a delta param")
            param = float(param)
        else:
            param = None
        self.graph = graph
        self.algo = algo
        self.param = param
        self.mode = mode
        self.seed = seed
        self.retries = retries
        self.deadline = deadline
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.cache = ResultCache(cache_size)
        # Serving counters, updated in place; ``stats()`` hands out a copy
        # so callers can never mutate engine state through the dict.
        self._counters = {
            # sources answered without execution (cache or in-batch dup)
            "deduped": 0,
            # sources actually executed
            "executed": 0,
            # total failed execution attempts over the engine's lifetime
            "exec_failures": 0,
            # execution retry attempts (re-runs after a transient failure)
            "retries": 0,
            # closed → open transitions of the circuit breaker
            "circuit_trips": 0,
            # concurrent half-open arrivals shed while a probe was in flight
            "half_open_shed": 0,
            # edge-update batches applied through apply_updates()
            "updates": 0,
            # update batches that resolved to a pure no-op (graph unchanged)
            "update_noops": 0,
            # stale cache entries brought forward by incremental repair
            "repaired": 0,
            # entries whose repair failed and degraded to a full recompute
            "repair_degraded": 0,
            # p2p queries answered (dist/reachable/knearest entry points)
            "p2p_queries": 0,
            # label-table builds that completed and validated
            "label_builds": 0,
            # label-build attempts that failed (injected or real)
            "label_build_failures": 0,
            # p2p queries served by SSSP because no label tables were live
            "label_fallbacks": 0,
            # label tables rebuilt after apply_updates invalidated them
            "label_rebuilds": 0,
        }
        self._consecutive_failures = 0
        self._open_until: "float | None" = None
        self._exec_seq = 0  # execution-batch sequence number (injection index)
        self._update_seq = 0  # repair-entry sequence number (engine.update index)
        # Half-open probe gate: exactly one trial batch may be in flight.
        # The lock (not just a flag) matters because the serving front door
        # drives the engine from a worker thread while callers may also use
        # it directly — check-then-set must be atomic.
        self._circuit_lock = threading.Lock()
        self._probe_inflight = False
        # Point-to-point label tier (p2p mode only): the store is the
        # fingerprint-keyed registry whose invalidation marks bundles stale;
        # the index is the validated query front end over the live bundle.
        self.num_landmarks = int(num_landmarks)
        self.label_strategy = label_strategy
        self.labels_path = labels_path
        self._label_store = None
        self._label_index = None
        if mode == "p2p":
            from repro.labels import LabelStore

            self._label_store = LabelStore()
            # Eager build: p2p engines come up hot (or provably degraded).
            self._ensure_labels()

    # Read-only views of the counters (the pre-observability attribute API).
    @property
    def deduped(self) -> int:
        return self._counters["deduped"]

    @property
    def executed(self) -> int:
        return self._counters["executed"]

    @property
    def exec_failures(self) -> int:
        return self._counters["exec_failures"]

    @property
    def circuit_trips(self) -> int:
        return self._counters["circuit_trips"]

    # ------------------------------------------------------------------ #
    # admission

    def _admit(self, sources) -> list[int]:
        """Validate and normalise a batch of requested sources.

        Every source must be an integer vertex id in ``[0, n)``; anything
        else is rejected here, by name, instead of crashing (or silently
        negative-indexing) deep inside the relaxation kernels.
        """
        n = self.graph.n
        admitted = []
        for s in sources:
            try:
                v = operator.index(s)  # ints and np.integers; floats/str fail
            except TypeError:
                raise ParameterError(
                    f"source {s!r} is not an integer vertex id"
                ) from None
            if v < 0 or v >= n:
                raise ParameterError(f"source {v} is out of range [0, {n})")
            admitted.append(v)
        return admitted

    # ------------------------------------------------------------------ #

    def query(self, source: int) -> np.ndarray:
        """Distances from one source (row vector of length ``n``)."""
        return self.query_batch([source])[0]

    def query_batch(self, sources, *, deadline: "float | None" = None) -> np.ndarray:
        """Distances for each requested source as a ``(K, n)`` matrix.

        Admission: cached sources are answered immediately; the rest are
        deduped so each distinct source executes once per batch even if
        requested several times.  ``deadline`` (seconds, default the
        engine-level setting) bounds the execution phase.
        """
        sources = self._admit(sources)
        if not sources:
            return np.zeros((0, self.graph.n))
        t0 = time.perf_counter()
        deadline = self.deadline if deadline is None else deadline
        deadline_at = None if deadline is None else time.monotonic() + float(deadline)
        keys = [ResultCache.key(self.graph, self.algo, self.param, s) for s in sources]
        rows: "dict[tuple, np.ndarray]" = {}
        missing: list[int] = []
        for s, key in zip(sources, keys):
            if key in rows:
                continue
            hit = self.cache.get(key)
            if hit is not None:
                rows[key] = hit
            else:
                missing.append(s)
                rows[key] = None  # placeholder: claimed by this batch
        if missing:
            probe = self._claim_probe()
            try:
                dist = self._execute_resilient(missing, deadline_at)
            finally:
                if probe:
                    with self._circuit_lock:
                        self._probe_inflight = False
            for i, s in enumerate(missing):
                key = ResultCache.key(self.graph, self.algo, self.param, s)
                rows[key] = self.cache.put(key, dist[i])
        self._counters["executed"] += len(missing)
        self._counters["deduped"] += len(sources) - len(missing)
        if OBS.enabled:
            registry = OBS.registry
            registry.inc("serving.engine.batches")
            registry.inc("serving.engine.executed", len(missing))
            registry.inc("serving.engine.deduped", len(sources) - len(missing))
            registry.observe("serving.batch.seconds", time.perf_counter() - t0)
        return np.stack([rows[key] for key in keys])

    # ------------------------------------------------------------------ #
    # point-to-point tier (p2p mode)

    @property
    def labels_ready(self) -> bool:
        """Whether live label tables are serving (p2p mode, build healthy)."""
        return (
            self._label_index is not None
            and not self._label_index.bundle.stale
        )

    def _require_p2p(self) -> None:
        if self.mode != "p2p":
            raise ParameterError(
                "point-to-point queries require mode='p2p' "
                f"(engine mode is {self.mode!r})"
            )

    def _count(self, counter: str) -> None:
        """Bump one serving counter and its ``serving.engine.*`` mirror."""
        self._counters[counter] += 1
        if OBS.enabled:
            OBS.registry.inc(f"serving.engine.{counter}")

    def _label_fallback_row(self, source: int) -> np.ndarray:
        """Exact SSSP row for the label tier's fallback — cached, resilient."""
        return self.query_batch([source])[0]

    def _build_labels(self):
        """One resilient label build (landmarks + hubs), or ``None``.

        Each attempt passes through the ``labels.build`` fault site (inside
        the builders) and full structural validation; a corrupt build is
        rejected there and retried like any transient execution failure.
        ``None`` after the retry budget means the engine serves p2p queries
        from the SSSP fallback until the next build opportunity.
        """
        from repro.labels import LabelBundle, build_hub_labels, build_landmarks

        L = min(self.num_landmarks, self.graph.n)
        for attempt in range(self.retries + 1):
            try:
                landmarks = build_landmarks(
                    self.graph, L, strategy=self.label_strategy,
                    algo=self.algo, param=self.param, seed=self.seed,
                )
                hubs = build_hub_labels(self.graph, seed=self.seed)
                bundle = LabelBundle(
                    fingerprint=self.graph.fingerprint,
                    landmarks=landmarks, hubs=hubs,
                    meta={"algo": self.algo, "param": self.param},
                )
                bundle.validate(self.graph)
                self._counters["label_builds"] += 1
                if OBS.enabled:
                    OBS.registry.inc("serving.engine.label_builds")
                return bundle
            except Exception as exc:
                self._counters["label_build_failures"] += 1
                if OBS.enabled:
                    OBS.registry.inc("serving.engine.label_build_failures")
                _LOG.warning(
                    "label build attempt %d/%d failed: %s",
                    attempt + 1, self.retries + 1, exc,
                )
        _LOG.warning(
            "label build exhausted its retry budget; serving p2p queries "
            "from the SSSP fallback"
        )
        return None

    def _ensure_labels(self):
        """The live :class:`~repro.labels.LabelIndex`, (re)building as needed.

        Resolution order: live index → store entry for the current
        fingerprint → ``labels_path`` artifact (rejected if corrupt or
        stale) → fresh build (persisted back to ``labels_path``).  Returns
        ``None`` when building kept failing — callers degrade, never crash.
        """
        if self.labels_ready:
            return self._label_index
        from repro.labels import LabelIndex, LabelStore, load_or_none, save_labels

        self._label_index = None
        key = LabelStore.key(self.graph)
        bundle = self._label_store.get(key)
        if bundle is not None and bundle.stale:  # pragma: no cover - defensive
            bundle = None
        if bundle is None and self.labels_path is not None:
            bundle = load_or_none(self.labels_path, graph=self.graph)
        if bundle is None:
            bundle = self._build_labels()
            if bundle is None:
                return None
            if self.labels_path is not None:
                save_labels(self.labels_path, bundle)
        self._label_store.put(key, bundle)
        self._label_index = LabelIndex(
            self.graph, bundle, fallback=self._label_fallback_row
        )
        return self._label_index

    def dist(self, source: int, target: int) -> float:
        """Exact point-to-point distance (``inf`` when unreachable).

        Label-served in microseconds when the tables are live and pass
        bound validation; otherwise answered from the cached SSSP path —
        bit-identical either way.
        """
        self._require_p2p()
        source, target = self._admit([source, target])
        self._count("p2p_queries")
        index = self._ensure_labels()
        if index is None:
            self._count("label_fallbacks")
            return float(self._label_fallback_row(source)[target])
        return index.dist(source, target)

    def reachable(self, source: int, target: int) -> bool:
        """Whether a ``source -> target`` path exists (p2p mode)."""
        self._require_p2p()
        source, target = self._admit([source, target])
        self._count("p2p_queries")
        index = self._ensure_labels()
        if index is None:
            self._count("label_fallbacks")
            return bool(np.isfinite(self._label_fallback_row(source)[target]))
        return index.reachable(source, target)

    def knearest(self, target: int, sources, k: int) -> "list[tuple[int, float]]":
        """The ``k`` sources nearest to ``target`` as ``(source, dist)`` pairs."""
        self._require_p2p()
        (target,) = self._admit([target])
        sources = self._admit(sources)
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        self._count("p2p_queries")
        index = self._ensure_labels()
        if index is not None:
            return index.knearest(target, sources, k)
        self._count("label_fallbacks")
        rows = self.query_batch(sources)
        pairs = sorted(
            (float(rows[i, target]), s)
            for i, s in enumerate(sources)
            if np.isfinite(rows[i, target])
        )
        return [(s, d) for d, s in pairs[:k]]

    def stats(self) -> dict:
        """Serving counters for dashboards and tests.

        The returned dict is a copy (every counter is a flat int) — callers
        may mutate it freely without corrupting engine state (pinned by a
        regression test).
        """
        out = dict(self._counters)
        out.update(
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
            cache_evictions=self.cache.evictions,
            cache_invalidations=self.cache.invalidations,
            cache_size=len(self.cache),
            circuit_state=self._circuit_state(),
            labels_ready=self.labels_ready,
        )
        if self._label_index is not None:
            out["label_lookup"] = dict(self._label_index.stats)
        return out

    # ------------------------------------------------------------------ #
    # circuit breaker

    def _circuit_state(self) -> str:
        if self._open_until is None:
            return "closed"
        if time.monotonic() >= self._open_until:
            return "half-open"
        return "open"

    @property
    def circuit_state(self) -> str:
        """``"closed"`` / ``"half-open"`` / ``"open"`` (cheap, lock-free read)."""
        return self._circuit_state()

    def _claim_probe(self) -> bool:
        """Gate execution on the breaker; claim the half-open trial slot.

        Returns True when this batch is *the* half-open probe (the caller
        must release the slot when the attempt resolves).  Raises
        :class:`CircuitOpenError` when the circuit is open, and also when
        it is half-open but another probe is already in flight — without
        this second check, N concurrent arrivals at the cooldown boundary
        would all be admitted as "one" trial, defeating the breaker exactly
        when the backend is most fragile.
        """
        state = self._circuit_state()
        if state == "open":
            raise CircuitOpenError(
                f"circuit open after {self._consecutive_failures} consecutive "
                f"execution failures; retrying in <= {self.cooldown:g}s "
                "(cache hits are still served)"
            )
        if state != "half-open":
            return False
        with self._circuit_lock:
            if self._probe_inflight:
                self._counters["half_open_shed"] += 1
                if OBS.enabled:
                    OBS.registry.inc("serving.circuit.half_open_shed")
                raise CircuitOpenError(
                    "circuit half-open and a trial probe is already in "
                    "flight; shedding until it resolves"
                )
            self._probe_inflight = True
        return True

    def _record_failure(self) -> None:
        self._counters["exec_failures"] += 1
        self._consecutive_failures += 1
        if OBS.enabled:
            OBS.registry.inc("serving.engine.exec_failures")
        if self._open_until is not None:
            # A half-open trial failed: re-open for another cooldown.
            self._open_until = time.monotonic() + self.cooldown
            self._note_circuit("open")
            _LOG.warning("circuit re-opened after failed half-open trial")
        elif self._consecutive_failures >= self.failure_threshold:
            self._open_until = time.monotonic() + self.cooldown
            self._counters["circuit_trips"] += 1
            self._note_circuit("open")
            _LOG.warning(
                "circuit opened after %d consecutive failures (cooldown %.3gs)",
                self._consecutive_failures, self.cooldown,
            )

    def _record_success(self) -> None:
        if self._open_until is not None:
            self._note_circuit("closed")
            _LOG.info("circuit closed after successful half-open trial")
        self._consecutive_failures = 0
        self._open_until = None

    #: gauge encoding of the breaker state (``serving.circuit.state``)
    _CIRCUIT_LEVEL = {"closed": 0, "half-open": 1, "open": 2}

    def _note_circuit(self, state: str) -> None:
        """Mirror a breaker transition into the metrics registry."""
        if OBS.enabled:
            OBS.registry.inc(f"serving.circuit.{state}_transitions")
            OBS.registry.set_gauge("serving.circuit.state", self._CIRCUIT_LEVEL[state])

    # ------------------------------------------------------------------ #
    # execution

    def _execute_resilient(self, sources: list[int], deadline_at) -> np.ndarray:
        """Execute with retries and circuit accounting; failures surface typed."""
        try:
            dist = self._attempts(sources, deadline_at)
        except ReproError:
            raise
        except Exception as exc:
            raise ExecutionError(f"batch execution failed: {exc}") from exc
        self._record_success()
        return dist

    def _attempts(self, sources: list[int], deadline_at) -> np.ndarray:
        index = self._exec_seq
        self._exec_seq += 1
        last: "Exception | None" = None
        for attempt in range(self.retries + 1):
            if attempt > 0:
                self._counters["retries"] += 1
                if OBS.enabled:
                    OBS.registry.inc("serving.engine.retries")
            try:
                return self._execute_once(sources, deadline_at, index, attempt)
            except DeadlineExceeded:
                self._record_failure()
                raise
            except Exception as exc:
                last = exc
                self._record_failure()
                _LOG.warning("execution attempt %d/%d failed: %s",
                             attempt + 1, self.retries + 1, exc)
                if self._circuit_state() == "open":
                    # The breaker tripped mid-retry: stop burning attempts.
                    raise CircuitOpenError(
                        f"circuit breaker tripped after {self._consecutive_failures} "
                        f"consecutive execution failures: {exc}"
                    ) from exc
        raise last

    def _execute_once(
        self, sources: list[int], deadline_at, index: int, attempt: int
    ) -> np.ndarray:
        directive = get_injector().fire("engine.execute", index=index, attempt=attempt)
        _check_deadline(deadline_at)
        # Without a deadline the batch runs in one call; with one it runs in
        # chunks with a deadline check between them.
        step = len(sources) if deadline_at is None else _DEADLINE_CHUNK
        outs = []
        for lo in range(0, len(sources), step):
            outs.append(multi_source_distances(
                self.graph, sources[lo : lo + step], algo=self.algo, param=self.param
            ))
            _check_deadline(deadline_at)
        dist = outs[0] if len(outs) == 1 else np.vstack(outs)
        if directive == "corrupt":
            dist = np.array(dist, copy=True)
            dist[0, sources[0]] += 1.0  # breaks the zero-self-distance invariant
        self._validate_result(dist, sources)
        return dist

    def _make_policy(self):
        """A fresh stepping policy for cache repair (policies are stateful)."""
        from repro.core.policies import (
            BellmanFordPolicy,
            DeltaStarPolicy,
            RhoPolicy,
        )

        if self.algo == "rho":
            return RhoPolicy(self.param)
        if self.algo == "delta":
            return DeltaStarPolicy(self.param)
        return BellmanFordPolicy()

    # ------------------------------------------------------------------ #
    # dynamic updates

    def apply_updates(self, batch) -> dict:
        """Apply an edge-update batch to the served graph.

        The batch (a :class:`repro.dynamic.UpdateBatch`) is resolved against
        the current graph; a pure no-op leaves everything untouched (same
        graph object, same fingerprint, cache intact).  Otherwise:

        1. the updated graph is assembled (new CSR, new fingerprint);
        2. every cache entry keyed by the *old* fingerprint is invalidated —
           the key scheme guarantees stale distances can never be served —
           and the dropped entries are kept as warm seeds;
        3. each warm entry is repaired on the new graph via
           :func:`~repro.dynamic.incremental_sssp` (bit-identical to a fresh
           run) and re-inserted under the new fingerprint's key.  Repair
           attempts pass through the ``engine.update`` fault site with the
           engine's retry budget; an entry whose repair keeps failing
           degrades to a full fast-path recompute, and if that fails too the
           entry is dropped so the next query recomputes it.

        Returns a summary dict: ``changed`` (edge deltas applied),
        ``invalidated`` / ``repaired`` / ``degraded`` cache entries, and the
        new ``fingerprint``.
        """
        from repro.dynamic import apply_resolved, resolve_updates
        from repro.serving.cache import graph_id

        t0 = time.perf_counter()
        old = self.graph
        resolved = resolve_updates(old, batch)
        if not resolved.size:
            self._counters["update_noops"] += 1
            if OBS.enabled:
                OBS.registry.inc("dynamic.engine.update_noops")
            return {
                "changed": 0, "invalidated": 0, "repaired": 0, "degraded": 0,
                "labels_invalidated": 0, "labels_rebuilt": False,
                "fingerprint": old.fingerprint,
            }
        new_graph = apply_resolved(old, resolved)
        dropped = self.cache.invalidate(graph_id(old), old.fingerprint)
        # The label tier is pinned to the old CSR: drop its entries AND mark
        # the bundles stale (stale-never-served — even a held reference
        # refuses to answer), then detach the live index before the graph
        # swap so no query can race a stale lookup.
        labels_invalidated = 0
        if self._label_store is not None:
            labels_invalidated = len(
                self._label_store.invalidate(graph_id(old), old.fingerprint)
            )
            self._label_index = None
        self.graph = new_graph
        repaired = degraded = 0
        for key, warm in dropped.items():
            source = key[4]
            dist = self._repair_entry(new_graph, resolved, warm, source)
            if dist is None:
                degraded += 1
                dist = self._recompute_entry(source)
            if dist is not None:
                self.cache.put(
                    ResultCache.key(new_graph, self.algo, self.param, source), dist
                )
        repaired = len(dropped) - degraded
        # Bring the p2p tier back up on the new graph (eager, like
        # construction) so the first post-update query is label-served.
        labels_rebuilt = False
        if self.mode == "p2p":
            labels_rebuilt = self._ensure_labels() is not None
            if labels_rebuilt:
                self._counters["label_rebuilds"] += 1
                if OBS.enabled:
                    OBS.registry.inc("serving.engine.label_rebuilds")
        self._counters["updates"] += 1
        self._counters["repaired"] += repaired
        self._counters["repair_degraded"] += degraded
        if OBS.enabled:
            registry = OBS.registry
            registry.inc("dynamic.engine.updates")
            registry.inc("dynamic.engine.edges_changed", resolved.size)
            registry.inc("dynamic.engine.repaired", repaired)
            registry.inc("dynamic.engine.repair_degraded", degraded)
            registry.observe("dynamic.update.seconds", time.perf_counter() - t0)
        return {
            "changed": resolved.size,
            "invalidated": len(dropped),
            "repaired": repaired,
            "degraded": degraded,
            "labels_invalidated": labels_invalidated,
            "labels_rebuilt": labels_rebuilt,
            "fingerprint": new_graph.fingerprint,
        }

    def _repair_entry(self, graph, resolved, warm, source: int) -> "np.ndarray | None":
        """Repair one warm cache entry on the updated graph, or ``None``.

        Mirrors ``_attempts``: every attempt fires the ``engine.update``
        fault site, the result is validated like an executed batch (so a
        corrupted repair is rejected and retried, never cached), and
        ``None`` after the retry budget signals the caller to degrade to a
        full recompute.
        """
        from repro.dynamic import incremental_sssp

        injector = get_injector()
        index = self._update_seq
        self._update_seq += 1
        for attempt in range(self.retries + 1):
            try:
                directive = injector.fire("engine.update", index=index, attempt=attempt)
                res = incremental_sssp(
                    graph, resolved, np.asarray(warm),
                    policy=self._make_policy(), source=source, seed=self.seed,
                )
                dist = res.dist
                if directive == "corrupt":
                    dist = np.array(dist, copy=True)
                    dist[source] += 1.0  # breaks the zero-self-distance invariant
                self._validate_result(dist[None, :], [source])
                return dist
            except Exception as exc:
                _LOG.warning(
                    "repair of source %d failed (attempt %d/%d): %s",
                    source, attempt + 1, self.retries + 1, exc,
                )
        return None

    def _recompute_entry(self, source: int) -> "np.ndarray | None":
        """Full-recompute fallback for a repair that kept failing.

        Calls the fast path directly, outside the retry envelope; returns
        ``None`` if even the recompute fails, in which case the entry is
        dropped and the next query pays the miss.
        """
        try:
            dist = multi_source_distances(
                self.graph, [source], algo=self.algo, param=self.param
            )
            self._validate_result(dist, [source])
            return dist[0]
        except Exception as exc:
            _LOG.warning(
                "full-recompute fallback for source %d failed (%s); "
                "dropping the cache entry", source, exc,
            )
            return None

    def close(self) -> None:
        """Release engine resources (none today; kept for ``with`` scoping)."""

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _validate_result(self, dist: np.ndarray, sources: list[int]) -> None:
        """Reject corrupted execution payloads before they reach the cache."""
        if dist.shape != (len(sources), self.graph.n):
            raise ExecutionError(
                f"execution returned shape {dist.shape}, expected {(len(sources), self.graph.n)}"
            )
        if np.isnan(dist).any():
            raise ExecutionError("execution produced NaN distances")
        if (dist < 0).any():
            raise ExecutionError("execution produced negative distances")
        for i, s in enumerate(sources):
            if dist[i, s] != 0.0:
                raise ExecutionError(
                    f"corrupted payload: dist[{s}, {s}] = {dist[i, s]!r}, expected 0"
                )
