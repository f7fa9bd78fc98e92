"""Small statistics and naming helpers shared by the workloads."""

from __future__ import annotations

import math
import re
import statistics

#: What a metric or workload name may look like: starts with a letter or
#: digit, at most 64 characters of letters, digits, ``_ . -``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Samples a reported tail percentile must have beyond it.
TAIL_SAMPLES = 10


def valid_name(name: str) -> bool:
    """Whether ``name`` is a legal metric or workload name."""
    return NAME_RE.fullmatch(name) is not None


def tail_quantile(n: int, ladder=(0.5, 0.9, 0.99, 0.999)) -> "float | None":
    """The highest quantile of ``ladder`` with >= 10 of ``n`` samples beyond it.

    ``None`` when not even the first rung qualifies.
    """
    best = None
    for q in ladder:
        if n * (1.0 - q) >= TAIL_SAMPLES - 1e-9:
            best = q
    return best


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in ``[0, 1]`` of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values, q: float) -> float:
    """Quantile ``q`` of ``values``, refusing a tail with < 10 samples beyond."""
    best = tail_quantile(len(values), ladder=(q,))
    if best is None:
        raise ValueError(
            f"p{q * 100:g} needs >= {TAIL_SAMPLES} samples beyond it; "
            f"only {len(values)} samples"
        )
    return quantile(values, q)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median: a metric's spread over seeds."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was measured (``den == 0``)."""
    return num / den if den else 0.0
