"""Open-loop load generator that times requests from their scheduled send time.

One dispatcher coroutine walks a precomputed schedule, sleeps until each
request is due and fires it as its own task, so a slow server never slows
the arrivals.  Latency runs from the *scheduled* time: when the event loop
stalls, the requests that fell due meanwhile go out late and that wait is
part of their latency (``repro.serving.loadgen.run_profile`` starts its
clock after the sleep wakes, which hides such stalls).  The lateness of
each send is kept too.

:func:`closed_loop` is the other discipline: a fixed number of clients,
each sending its next request when the previous one resolves, which
measures capacity without overloading the server.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

from repro.serving.loadgen import sample_arrivals
from repro.utils.errors import OverloadError, ReproError

_clock = time.perf_counter


@dataclass
class Request:
    """One scheduled request and what became of it."""

    kind: str
    payload: tuple
    due: float
    sent: float = 0.0
    done: float = 0.0
    outcome: str = "pending"  # "ok", "shed", or the typed failure's class name
    reason: str = ""
    value: object = None
    version: int = 0  # which graph version served it
    right: bool = False  # set by the correctness check after the window

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


def poisson_schedule(streams, duration: float, rng) -> "list[tuple[float, str, tuple]]":
    """Merge independent Poisson streams into one sorted schedule.

    ``streams`` is a list of ``(kind, rate, draw)`` where ``draw(rng, k)``
    returns ``k`` payload tuples.  Entries are ``(offset_s, kind, payload)``.
    """
    out = []
    for kind, rate, draw in streams:
        times = sample_arrivals(rate, duration, rng)
        out.extend(zip(times.tolist(), [kind] * len(times), draw(rng, len(times))))
    out.sort(key=lambda e: e[0])
    return out


async def _one(req: Request, issue) -> None:
    try:
        req.value = await issue(req.kind, req.payload)
        req.outcome = "ok"
    except OverloadError as exc:
        req.outcome = "shed"
        req.reason = exc.reason
    except ReproError as exc:
        req.outcome = type(exc).__name__
    finally:
        req.done = _clock()


async def run(schedule, issue, *, version: int = 0) -> "list[Request]":
    """Fire ``schedule`` through ``issue(kind, payload)``; await every reply."""
    origin = _clock()
    tasks = []
    reqs = []
    for offset, kind, payload in schedule:
        due = origin + offset
        delay = due - _clock()
        if delay > 0:
            await asyncio.sleep(delay)
        req = Request(kind, payload, due, sent=_clock(), version=version)
        reqs.append(req)
        tasks.append(asyncio.create_task(_one(req, issue)))
    await asyncio.gather(*tasks)
    return reqs


async def closed_loop(issue, draw, *, clients: int, duration: float, rng) -> "list[Request]":
    """``clients`` callers issue ``draw(rng, 1)[0]`` back to back for ``duration`` s."""
    reqs: "list[Request]" = []
    stop_at = _clock() + duration

    async def client():
        while _clock() < stop_at:
            now = _clock()
            req = Request("row", draw(rng, 1)[0], now, sent=now)
            reqs.append(req)
            await _one(req, issue)

    await asyncio.gather(*(client() for _ in range(clients)))
    return reqs


def late_ratio(reqs, threshold_s: float = 1e-3) -> float:
    """Share of requests the generator sent more than ``threshold_s`` late."""
    if not reqs:
        return 0.0
    return float(np.mean([r.late > threshold_s for r in reqs]))
