"""``serve-cold`` and ``serve-hot``: open-loop traffic through ``ShortestPathServer``.

One process drives the load: the asyncio generator on the main thread and
the server's single worker thread.  One operation is one request, timed
from its scheduled send time (closed-loop requests from their send).
After the timed window every answer is compared bit for bit with scipy's
Dijkstra on the graph version that served it.

``serve-cold`` (GE, ``mode="fast"``, default 256-entry cache): distance
rows for sources drawn uniformly from a 2000-vertex pool, in two phases.
Latency comes from an open-loop phase at a fixed nominal rate of about
a third of the one-client capacity; throughput (answers correct within the deadline
per second) from a closed-loop phase of 8 clients, which measures the
cold capacity itself.  There is no overload phase: every request of a run
must succeed, and at twice the cold capacity the engine fails admitted
batches with ``DeadlineExceeded`` instead of shedding them at admission.

``serve-hot`` (OK, ``mode="p2p"``, labels built in set-up): a read phase
mixing Zipf-skewed distance rows with uniform point-to-point pairs, a
write phase of edge-update batches through ``QueryEngine.apply_updates``
with the server drained, and a second read phase on the updated graph.
Latency covers both read phases; throughput is update batches per second
(one over the median ``apply_updates`` time).  The update batches come from
``synth_trace`` with each weight rounded to an integer: the graphs carry
integer weights, and the hub labels answer bit-exactly only on those.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import statistics
import time
from collections import defaultdict

import numpy as np

from perfbench import common, layers, openloop
from perfbench.stats import ratio, tail
from repro.dynamic import batch_from_event, synth_trace
from repro.serving import QueryEngine, ShortestPathServer
from repro.serving.admission import SHED_DEADLINE, SHED_QUEUE_FULL
from repro.serving.loadgen import source_pool, zipf_weights

#: Set-ups before the timed window and after it.  serve-hot's set-up is
#: mostly the label build, whose speed drifts with the host's over tens of
#: seconds: set-ups on both sides of the window average over that drift.
WORKLOADS = {
    "serve-cold": {"dataset": "GE", "mode": "fast", "setups": (5, 0)},
    "serve-hot": {"dataset": "OK", "mode": "p2p", "setups": (2, 3)},
}

DEADLINE_S = 0.5
#: Fixed absolute rates.  On a 2-CPU x86 host the serve-cold pool measured
#: 43 requests/s with one closed-loop client and 91-114 with 8 to 64, which
#: batch.  Nominal is about a third of the one-client rate: at half that
#: rate, a host running a third slower for minutes pushed the p90 from 40
#: to 110 ms, since near capacity latency is mostly queueing.
NOMINAL_QPS = 16.0
COLD_CLIENTS = 8
COLD_POOL = 2000
HOT_ROW_QPS = 40.0
HOT_P2P_QPS = 160.0
HOT_SOURCES = 64
ZIPF_ALPHA = 1.1
#: An update costs 1.5-2 s here, mostly the label rebuild, and the host's
#: speed for a rebuild drifts by a third over tens of seconds, so the write
#: phase takes most of a run: its median then averages over that drift.
UPDATE_BATCHES = 14
UPDATE_SIZE = 8
REFERENCE_CHUNK = 256
NATIVE_SAMPLE = 50


async def _setup(cfg):
    """Timed set-up up to the first admissible request."""
    t0 = time.perf_counter()
    _, load_s, engine = common.timed_setup(
        cfg["dataset"], lambda g: QueryEngine(g, "rho", mode=cfg["mode"])
    )
    server = ShortestPathServer(engine)
    await server.start()
    return time.perf_counter() - t0, load_s, engine, server


async def _setups(cfg, count, clock, *, keep_last=True):
    """``count`` set-ups; every engine and server but a kept last one is closed."""
    out = []
    for i in range(count):
        with _timed_by(clock):
            item = await _setup(cfg)
        if i + 1 < count or not keep_last:
            await item[3].stop()
            item[2].close()
        out.append(item)
    return out


def _timed_by(clock):
    """Layer timing through ``clock``, or nothing in an untraced run."""
    return layers.installed(clock) if clock is not None else contextlib.nullcontext()


def _issue(server):
    async def issue(kind, payload):
        if kind == "row":
            return await server.submit(payload[0], deadline=DEADLINE_S)
        return await server.submit_p2p(payload[0], payload[1], deadline=DEADLINE_S)

    return issue


def _label_counts(engine) -> dict:
    return dict(engine.stats().get("label_lookup", {}))


def _check(reqs, versions) -> int:
    """Mark each answered request right or wrong; returns the wrong count."""
    wrong = 0
    by_version = defaultdict(list)
    for r in reqs:
        if r.outcome == "ok":
            by_version[r.version].append(r)
    for v, answered in by_version.items():
        sources = sorted({r.payload[0] for r in answered})
        for lo in range(0, len(sources), REFERENCE_CHUNK):
            chunk = sources[lo:lo + REFERENCE_CHUNK]
            ref = common.reference_rows(versions[v], chunk)
            index = {s: i for i, s in enumerate(chunk)}
            for r in answered:
                i = index.get(r.payload[0])
                if i is None:
                    continue
                if r.kind == "row":
                    r.right = np.array_equal(np.asarray(r.value), ref[i])
                else:
                    r.right = float(r.value) == float(ref[i, r.payload[1]])
                wrong += not r.right
    return wrong


def _cold_load(graph, seed, seconds):
    """The nominal schedule, and the closed-loop source draw and rng."""
    pool = source_pool(graph, COLD_POOL, seed=seed)
    rng = np.random.default_rng(seed)

    def draw(rng, k):
        return [(pool[i],) for i in rng.integers(0, len(pool), size=k)]

    # At least 6 s, so that p90 keeps 10 samples beyond it even on short runs.
    # Most of the run: the p90 of about 450 requests still spread by a
    # quarter over ten seeds, while the closed loop's rate spread by 0.06.
    nominal = openloop.poisson_schedule(
        [("row", NOMINAL_QPS, draw)], max(0.75 * seconds, 6.0), rng)
    return nominal, draw, rng


def _hot_schedules(graph, seed, seconds):
    pool = source_pool(graph, HOT_SOURCES, seed=seed)
    weights = zipf_weights(len(pool), ZIPF_ALPHA)
    rng = np.random.default_rng(seed)
    n = graph.n

    def rows(rng, k):
        return [(pool[i],) for i in rng.choice(len(pool), size=k, p=weights)]

    def pairs(rng, k):
        return [(int(s), int(t)) for s, t in rng.integers(0, n, size=(k, 2))]

    streams = [("row", HOT_ROW_QPS, rows), ("p2p", HOT_P2P_QPS, pairs)]
    return [openloop.poisson_schedule(streams, 0.1 * seconds, rng) for _ in range(2)]


async def _serve_cold(graph, issue, seed, seconds):
    """Nominal (latency), then closed-loop (throughput)."""
    nominal, draw, rng = _cold_load(graph, seed, seconds)
    timed = await openloop.run(nominal, issue)
    t0 = time.perf_counter()
    closed = await openloop.closed_loop(
        issue, draw, clients=COLD_CLIENTS, duration=0.25 * seconds, rng=rng)
    closed_s = time.perf_counter() - t0
    good = [r for r in closed if r.outcome == "ok" and r.latency <= DEADLINE_S]
    # The throughput is read after the correctness check has marked answers.
    return timed, closed, lambda: sum(r.right for r in good) / closed_s


def _integer_weights(event: dict) -> dict:
    """``event`` with each insert and reweight weight rounded to an integer."""
    def rounded(ops):
        return [[u, v, float(round(w))] for u, v, w in ops]

    return {**event, "inserts": rounded(event["inserts"]),
            "reweights": rounded(event["reweights"])}


async def _serve_hot(engine, issue, seed, seconds, summaries, labels, versions):
    """Read phase, write phase with the server drained, read phase."""
    read1, read2 = _hot_schedules(engine.graph, seed, seconds)
    first = await openloop.run(read1, issue, version=0)
    labels.append(_label_counts(engine))
    update_s = []
    for event in synth_trace(engine.graph, events=UPDATE_BATCHES, update_every=1,
                             batch_size=UPDATE_SIZE, seed=seed):
        batch = batch_from_event(_integer_weights(event))
        t0 = time.perf_counter()
        summaries.append(engine.apply_updates(batch))
        update_s.append(time.perf_counter() - t0)
    versions.append(engine.graph)
    second = await openloop.run(read2, issue, version=1)
    labels.append(_label_counts(engine))
    return first + second, [], lambda: 1.0 / statistics.median(update_s)


async def _run_async(name, seed, seconds, trace):
    cfg = WORKLOADS[name]
    common.warm_dataset(cfg["dataset"])
    setup_clock = layers.LayerClock() if trace else None
    first_setups, last_setups = cfg["setups"]
    setups = await _setups(cfg, first_setups, setup_clock)
    _, _, engine, server = setups[-1]
    graph = engine.graph
    issue = _issue(server)
    clock = layers.LayerClock() if trace else None
    versions = [graph]
    summaries = []
    labels = []
    before = engine.stats()
    with _timed_by(clock):
        t0 = time.perf_counter()
        if name == "serve-cold":
            timed, untimed, throughput = await _serve_cold(graph, issue, seed, seconds)
        else:
            timed, untimed, throughput = await _serve_hot(
                engine, issue, seed, seconds, summaries, labels, versions)
        t_end = time.perf_counter()
    after = engine.stats()
    await server.stop()
    engine.close()
    setups += await _setups(cfg, last_setups, setup_clock, keep_last=False)

    reqs = timed + untimed
    wrong = _check(reqs, versions)
    # A shed counts as failed too: no workload is meant to overload the server.
    typed = sum(r.outcome != "ok" for r in reqs)
    good = [r for r in reqs if r.outcome == "ok" and r.right]
    out = {"attempted": len(reqs), "failed": wrong + typed, "wrong": wrong,
           "graphs": {cfg["dataset"]: graph}}
    if not trace:
        lat = [r.latency for r in timed if r.outcome == "ok" and r.right]
        out["values"] = {
            "setup_s": statistics.median(s[0] for s in setups),
            "latency_ms_p50": statistics.median(lat) * 1e3,
            "latency_ms_p90": tail(lat, 0.9) * 1e3,
            "throughput_per_s": throughput(),
        }
        return out

    window = t_end - t0
    sample = sorted({r.payload[0] for r in good})[:NATIVE_SAMPLE]
    native = common.native_ms_p50(versions[-1], sample)
    values = _layer_values(clock, window, reqs, before, after, labels, summaries)
    executed = sum(n for _, n in clock.events("engine.execute"))
    exec_ms = 1e3 * ratio(clock.inclusive_seconds().get("engine.execute", 0.0), executed)
    values.update({
        "datasets.load_s": statistics.median(s[1] for s in setups),
        "native.scipy_ms_p50": native,
        "native.gap": exec_ms / native,
        "error_rate": out["failed"] / len(reqs),
        "labels.build.setup_share": ratio(
            setup_clock.inclusive_seconds().get("labels.build", 0.0),
            sum(s[0] for s in setups)),
    })
    out["values"] = values
    return out


def _queue_wait_share(clock, reqs) -> float:
    """Mean share of a row request's latency spent before its batch started."""
    starts = defaultdict(list)
    for t, sources in clock.events("engine.query_batch"):
        for s in sources:
            starts[s].append(t)
    waited = total = 0.0
    for r in reqs:
        if r.kind != "row" or r.outcome != "ok":
            continue
        times = starts.get(r.payload[0], ())
        i = bisect.bisect_left(times, r.sent)
        if i < len(times) and times[i] <= r.done:
            waited += times[i] - r.sent
            total += r.latency
    return ratio(waited, total)


def _layer_values(clock, window, reqs, before, after, labels, summaries) -> dict:
    self_s = clock.self_seconds()
    incl = clock.inclusive_seconds()
    calls = clock.calls()
    offered = len(reqs)
    shed = defaultdict(int)
    for r in reqs:
        if r.outcome == "shed":
            shed[r.reason] += 1
    hits = after["cache_hits"] - before["cache_hits"]
    misses = after["cache_misses"] - before["cache_misses"]
    batches = clock.events("engine.query_batch")
    lookups = sum(c.get("lookups", 0) for c in labels)
    fallbacks = sum(c.get("fallbacks", 0) for c in labels)
    updates_s = incl.get("dynamic.apply_updates", 0.0)
    return {
        **layers.common_values(clock, window),
        "admission.check.share": ratio(self_s.get("admission.check", 0.0), window),
        "admission.shed_ratio.queue_full": ratio(shed[SHED_QUEUE_FULL], offered),
        "admission.shed_ratio.deadline": ratio(shed[SHED_DEADLINE], offered),
        "shed_rate": ratio(sum(shed.values()), offered),
        "server.queue_wait_share": _queue_wait_share(clock, reqs),
        "server.batch_fill_mean": ratio(sum(len(s) for _, s in batches), len(batches)),
        "cache.hit_ratio": ratio(hits, hits + misses),
        "cache.share": ratio(self_s.get("cache.get", 0.0) + self_s.get("cache.put", 0.0),
                             window),
        "engine.execute.share": ratio(incl.get("engine.execute", 0.0), window),
        "engine.self.share": ratio(self_s.get("engine.query_batch", 0.0), window),
        "labels.share": ratio(incl.get("labels.dist", 0.0), window),
        "labels.check_share": (1.0 - ratio(incl.get("labels.hub_distance", 0.0),
                                           incl["labels.dist"])
                               if incl.get("labels.dist") else 0.0),
        "labels.fallback_ratio": ratio(fallbacks, lookups),
        "dynamic.share": ratio(updates_s, window),
        "dynamic.resolve_apply.share": ratio(incl.get("dynamic.resolve_apply", 0.0), updates_s),
        "dynamic.repair.share": ratio(incl.get("dynamic.repair", 0.0), updates_s),
        "dynamic.repaired_entries": sum(s["repaired"] for s in summaries),
        "loadgen.late_ratio": openloop.late_ratio(reqs),
        "obs.trace_overhead": layers.wrapper_cost_s() * sum(calls.values()) / window,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    return asyncio.run(_run_async(name, seed, seconds, trace))
