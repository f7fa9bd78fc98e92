"""Per-layer self times, measured from outside the program.

The program has no spans on its request path yet, so the traced run times
calls into each layer's public functions from here: :func:`installed`
swaps a timing wrapper in for every call site :func:`_patches` names
(at the import site the caller uses, since ``from x import f`` binds a
module-level name) and restores the originals on exit.  Each thread keeps a
stack of open calls; a layer's *self* time is its calls' duration minus the
part covered by nested wrapped calls, so the self times of one thread sum
to the duration of its outermost calls.

Untraced runs never install anything, so they execute the program as is.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

_clock = time.perf_counter


class _ThreadTimes:
    __slots__ = ("stack", "self_s", "incl_s", "calls", "events")

    def __init__(self) -> None:
        self.stack: "list[float]" = []  # child time accumulated per open call
        self.self_s: "dict[str, float]" = defaultdict(float)
        self.incl_s: "dict[str, float]" = defaultdict(float)
        self.calls: "dict[str, int]" = defaultdict(int)
        self.events: "dict[str, list]" = defaultdict(list)


class LayerClock:
    """Self and inclusive time per layer, per thread, merged on read."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: "list[_ThreadTimes]" = []

    def _times(self) -> _ThreadTimes:
        times = getattr(self._local, "times", None)
        if times is None:
            times = self._local.times = _ThreadTimes()
            with self._lock:
                self._threads.append(times)
        return times

    def call(self, layer: str, fn, *args, note=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one call of ``layer``.

        ``note(args, kwargs)``, when given, is stored with the call's start
        time in :meth:`events` (the server's batch start times use it).
        """
        times = self._times()
        stack = times.stack
        t0 = _clock()
        if note is not None:
            times.events[layer].append((t0, note(args, kwargs)))
        stack.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _clock() - t0
            child = stack.pop()
            times.self_s[layer] += dt - child
            times.incl_s[layer] += dt
            times.calls[layer] += 1
            if stack:
                stack[-1] += dt

    def wrap(self, layer: str, fn, note=None):
        """``fn`` timed as ``layer`` on every call."""

        @wraps(fn)
        def timed(*args, **kwargs):
            return self.call(layer, fn, *args, note=note, **kwargs)

        return timed

    def _merged(self, attr: str) -> dict:
        out: dict = defaultdict(float)
        with self._lock:
            for times in self._threads:
                for key, value in getattr(times, attr).items():
                    out[key] += value
        return out

    def self_seconds(self) -> "dict[str, float]":
        return dict(self._merged("self_s"))

    def inclusive_seconds(self) -> "dict[str, float]":
        return dict(self._merged("incl_s"))

    def calls(self) -> "dict[str, int]":
        return {k: int(v) for k, v in self._merged("calls").items()}

    def events(self, layer: str) -> list:
        with self._lock:
            out = [e for times in self._threads for e in times.events.get(layer, ())]
        return sorted(out, key=lambda e: e[0])

    def total(self, prefix: str) -> float:
        """Summed self seconds of every layer under ``prefix``."""
        return sum(v for k, v in self.self_seconds().items()
                   if k == prefix or k.startswith(prefix + "."))


def common_values(clock: LayerClock, run_s: float) -> dict:
    """The per-layer metrics every workload reads off ``clock`` alone.

    Shares are self time over ``run_s``, the time the workload ran.
    """
    self_s = clock.self_seconds()
    incl = clock.inclusive_seconds()
    calls = clock.calls()

    def us_per_call(layer):
        return 1e6 * incl.get(layer, 0.0) / calls[layer] if calls.get(layer) else 0.0

    return {
        "kernels.share": clock.total("kernels") / run_s,
        "kernels.gather_edges.us_per_call": us_per_call("kernels.gather_edges"),
        "kernels.scatter_min.us_per_call": us_per_call("kernels.scatter_min"),
        "pq.share": clock.total("pq") / run_s,
        "pq.hashtable.insert.share": self_s.get("pq.hashtable.insert", 0.0) / run_s,
        "core.policy.decide.share": self_s.get("core.policy.decide", 0.0) / run_s,
    }


def _sources_arg(args, kwargs):
    return list(kwargs.get("sources", args[1] if len(args) > 1 else ()))


def _n_sources(args, kwargs):
    return len(_sources_arg(args, kwargs))


def _patches():
    """``(owner, attribute, layer, note)`` for every timed call site."""
    import repro.core.framework as framework
    import repro.dynamic as dynamic
    import repro.labels as labels
    import repro.labels.query as label_query
    import repro.pq.flat as flat
    import repro.pq.hashtable as hashtable
    import repro.runtime.atomics as atomics
    import repro.serving.engine as engine
    import repro.serving.fastpath as fastpath
    from repro.core.policies import BellmanFordPolicy, DeltaStarPolicy, RhoPolicy
    from repro.serving.admission import AdmissionController
    from repro.serving.cache import ResultCache

    return [
        # runtime.kernels, at each module that imported them by name
        (framework, "gather_edges", "kernels.gather_edges", None),
        (framework, "unique_ids", "kernels.unique_ids", None),
        (framework, "segmented_min", "kernels.segmented_min", None),
        (atomics, "scatter_min", "kernels.scatter_min", None),
        (atomics, "first_occurrence", "kernels.first_occurrence", None),
        (flat, "unique_ids", "kernels.unique_ids", None),
        (hashtable, "first_occurrence", "kernels.first_occurrence", None),
        (fastpath, "gather_edges", "kernels.gather_edges", None),
        (fastpath, "scatter_min", "kernels.scatter_min", None),
        (fastpath, "segmented_min", "kernels.segmented_min", None),
        # pq
        (flat.FlatPQ, "update", "pq.flat", None),
        (flat.FlatPQ, "extract", "pq.flat", None),
        (flat.FlatPQ, "remove", "pq.flat", None),
        (hashtable.ScatterHashTable, "insert", "pq.hashtable.insert", None),
        # core.policies
        (RhoPolicy, "decide", "core.policy.decide", None),
        (DeltaStarPolicy, "decide", "core.policy.decide", None),
        (BellmanFordPolicy, "decide", "core.policy.decide", None),
        # serving
        (AdmissionController, "check", "admission.check", None),
        (engine.QueryEngine, "query_batch", "engine.query_batch", _sources_arg),
        (engine.QueryEngine, "dist", "engine.p2p", None),
        (engine, "multi_source_distances", "engine.execute", _n_sources),
        (ResultCache, "get", "cache.get", None),
        (ResultCache, "put", "cache.put", None),
        # labels (the engine imports the builders lazily from the package)
        (label_query.LabelIndex, "dist", "labels.dist", None),
        (label_query, "hub_distance", "labels.hub_distance", None),
        (labels, "build_landmarks", "labels.build", None),
        (labels, "build_hub_labels", "labels.build", None),
        # dynamic (imported lazily from the package by the engine)
        (engine.QueryEngine, "apply_updates", "dynamic.apply_updates", None),
        (dynamic, "resolve_updates", "dynamic.resolve_apply", None),
        (dynamic, "apply_resolved", "dynamic.resolve_apply", None),
        (dynamic, "incremental_sssp", "dynamic.repair", None),
    ]


@contextmanager
def installed(clock: LayerClock):
    """Time every call site in :func:`_patches` through ``clock``."""
    undo = []
    try:
        for owner, attr, layer, note in _patches():
            had_own = attr in vars(owner)
            original = getattr(owner, attr)
            setattr(owner, attr, clock.wrap(layer, original, note))
            undo.append((owner, attr, original, had_own))
        yield clock
    finally:
        for owner, attr, original, had_own in reversed(undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def wrapper_cost_s(samples: int = 20000) -> float:
    """Seconds one timing wrapper adds to a call (for overhead estimates)."""
    clock = LayerClock()

    def noop():
        return None

    timed = clock.wrap("probe", noop)
    t0 = _clock()
    for _ in range(samples):
        noop()
    bare = _clock() - t0
    t0 = _clock()
    for _ in range(samples):
        timed()
    return max(0.0, (_clock() - t0 - bare) / samples)
