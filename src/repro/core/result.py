"""Result type returned by every SSSP algorithm in this package."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.runtime.workspan import RunStats

__all__ = ["SSSPResult"]


@dataclass
class SSSPResult:
    """Distances plus the instrumentation of the run that produced them.

    Attributes
    ----------
    dist:
        ``float64[n]`` tentative distances at termination — the true shortest
        distances (``inf`` for unreachable vertices).
    source:
        The source vertex.
    algorithm:
        Human-readable algorithm label (``"rho-stepping"`` etc.).
    params:
        The parameters the run used (Δ, ρ, optimisation switches).
    stats:
        Per-step work–span records (see :class:`repro.runtime.RunStats`);
        feed to a :class:`repro.runtime.MachineModel` for simulated time.
    wall_seconds:
        Physical single-core execution time of the vectorised kernels
        (a secondary work proxy, reported alongside simulated time).
    """

    dist: np.ndarray
    source: int
    algorithm: str
    params: dict = field(default_factory=dict)
    stats: RunStats = field(default_factory=RunStats)
    wall_seconds: float = 0.0

    @property
    def reached(self) -> int:
        """Number of vertices with a finite distance."""
        return int(np.count_nonzero(np.isfinite(self.dist)))

    def check_against(self, expected: np.ndarray) -> None:
        """Raise ``AssertionError`` unless distances equal ``expected`` exactly."""
        if not np.array_equal(self.dist, expected):
            bad = np.flatnonzero(self.dist != expected)
            raise AssertionError(
                f"{self.algorithm}: {len(bad)} distances differ "
                f"(first at v={bad[0]}: got {self.dist[bad[0]]}, want {expected[bad[0]]})"
            )
