"""Compressed-sparse-row graph representation.

This is the substrate every algorithm in the package runs on.  The layout is
the standard CSR triple ``(indptr, indices, weights)`` used by GAPBS, Ligra,
and the paper's own implementation: ``indices[indptr[v]:indptr[v+1]]`` are the
out-neighbours of ``v`` and ``weights`` holds the parallel edge weights.

Weights follow the paper's convention: positive, with minimum weight intended
to be ~1 (the paper normalises ``min w(e) = 1``; we do not force it but
:meth:`Graph.validate` rejects non-positive weights).  We store weights as
``float64`` — the paper's integer weights (up to 2**25) are exactly
representable, and float keeps the API open to arbitrary positive weights.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.utils.errors import GraphFormatError

__all__ = ["Graph"]

_INDEX_DTYPE = np.int64
_WEIGHT_DTYPE = np.float64


@dataclass(frozen=True, eq=False)
class Graph:
    """A weighted graph in CSR form.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; monotone, ``indptr[0] == 0``,
        ``indptr[n] == m``.
    indices:
        ``int64`` array of length ``m`` with the target vertex of each edge.
    weights:
        ``float64`` array of length ``m`` with positive edge weights.
    directed:
        If ``False`` the CSR is expected to contain both orientations of each
        undirected edge (i.e. it is *symmetric*); algorithms use this flag to
        enable undirected-only optimisations (bidirectional relaxation) and
        undirected-only theory (ρ-stepping's tighter span bound).
    name:
        Optional label used by benchmark reports.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    directed: bool = True
    name: str = ""

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_edges(
        n: int,
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray,
        *,
        directed: bool = True,
        symmetrize: bool = False,
        dedup: bool = True,
        name: str = "",
    ) -> "Graph":
        """Build a CSR graph from an edge list.

        Parameters
        ----------
        n:
            Number of vertices; every endpoint must be in ``[0, n)``.
        src, dst, weight:
            Parallel edge arrays.
        directed:
            Interpretation of the input edges.
        symmetrize:
            If ``True``, add the reverse of every edge (making the result an
            undirected graph stored symmetrically).  Implies
            ``directed=False`` on the result.
        dedup:
            Drop self loops and keep the *minimum-weight* copy of parallel
            edges, matching the paper's simple-graph assumption.
        """
        src = np.asarray(src, dtype=_INDEX_DTYPE)
        dst = np.asarray(dst, dtype=_INDEX_DTYPE)
        weight = np.asarray(weight, dtype=_WEIGHT_DTYPE)
        if not (src.shape == dst.shape == weight.shape):
            raise GraphFormatError(
                f"edge arrays must have equal shapes, got {src.shape}, {dst.shape}, {weight.shape}"
            )
        if src.size and (src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n):
            raise GraphFormatError(f"edge endpoints out of range [0, {n})")

        if symmetrize:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            weight = np.concatenate([weight, weight])
            directed = False

        if dedup and src.size:
            keep = src != dst  # drop self loops
            src, dst, weight = src[keep], dst[keep], weight[keep]
            # Keep the lightest copy of each parallel edge: sort by (src, dst,
            # weight) and take the first of each (src, dst) run.
            order = np.lexsort((weight, dst, src))
            src, dst, weight = src[order], dst[order], weight[order]
            if src.size:
                first = np.r_[True, (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])]
                src, dst, weight = src[first], dst[first], weight[first]
        else:
            order = np.lexsort((dst, src))
            src, dst, weight = src[order], dst[order], weight[order]

        counts = np.bincount(src, minlength=n).astype(_INDEX_DTYPE)
        indptr = np.zeros(n + 1, dtype=_INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        return Graph(indptr=indptr, indices=dst, weights=weight, directed=directed, name=name)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.indptr) - 1

    @property
    def m(self) -> int:
        """Number of (directed) edges stored in the CSR."""
        return len(self.indices)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (cached; do not mutate).

        The relaxation hot path gathers per-frontier degrees every wave;
        caching the ``np.diff`` turns that into one fancy-index gather
        (:func:`repro.runtime.kernels.gather_edges`).
        """
        return np.diff(self.indptr)

    @cached_property
    def edge_sources(self) -> np.ndarray:
        """COO row array: ``edge_sources[e]`` is the source of CSR edge ``e``
        (cached; do not mutate).  Lets edge-parallel kernels recover the
        source of any gathered edge position without per-wave ``np.repeat``
        arithmetic."""
        return np.repeat(np.arange(self.n, dtype=_INDEX_DTYPE), self.degrees)

    @cached_property
    def fingerprint(self) -> str:
        """Content hash over ``(indptr, indices, weights, directed)``.

        Two graphs share a fingerprint iff they are the same CSR bit for bit,
        regardless of ``name`` or object identity — which is what makes it a
        safe cache-key component: two differently-weighted graphs that happen
        to share a name (and even a shape) can never alias each other's
        cached distance vectors.  Computed once per object (``Graph`` is
        immutable) and reused by :class:`repro.serving.cache.ResultCache`.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(b"directed" if self.directed else b"undirected")
        h.update(np.int64(self.n).tobytes())
        h.update(np.ascontiguousarray(self.indptr, dtype=_INDEX_DTYPE).tobytes())
        h.update(np.ascontiguousarray(self.indices, dtype=_INDEX_DTYPE).tobytes())
        h.update(np.ascontiguousarray(self.weights, dtype=_WEIGHT_DTYPE).tobytes())
        return h.hexdigest()

    @property
    def max_weight(self) -> float:
        """The paper's ``L`` — the heaviest edge weight (0.0 if no edges)."""
        return float(self.weights.max()) if self.m else 0.0

    @property
    def min_weight(self) -> float:
        """The lightest edge weight (0.0 if no edges)."""
        return float(self.weights.min()) if self.m else 0.0

    def out_degree(self, v: int | np.ndarray | None = None) -> np.ndarray | int:
        """Out-degree of ``v``, or of all vertices when ``v is None``."""
        if v is None:
            return self.degrees
        return self.degrees[v]

    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbour ids of vertex ``v`` (a CSR view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights parallel to :meth:`neighbors` (a CSR view)."""
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the edge list ``(src, dst, weight)`` of this CSR."""
        return self.edge_sources.copy(), self.indices.copy(), self.weights.copy()

    def apply_updates(self, batch) -> "Graph":
        """A new :class:`Graph` with an edge-update batch applied.

        ``batch`` is a :class:`repro.dynamic.UpdateBatch` (inserts, deletes
        and reweights); see :func:`repro.dynamic.apply_updates` for the full
        semantics (upsert inserts, no-op missing deletes, last-wins
        duplicates, mirrored updates on undirected graphs).  The receiver is
        never mutated — ``Graph`` stays immutable and cache keys stay valid;
        the result is a freshly assembled canonical CSR with its own content
        :attr:`fingerprint`.  Returns ``self`` (the same object) when the
        batch is a pure no-op, so callers can cheaply detect "nothing
        changed" by identity.
        """
        from repro.dynamic.updates import apply_updates as _apply

        return _apply(self, batch)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check all structural invariants; raise :class:`GraphFormatError`.

        Checks: indptr monotone and consistent with ``indices``; endpoints in
        range; weights positive and finite; if ``directed=False``, the CSR is
        symmetric (every edge has a same-weight reverse edge).
        """
        if self.indptr.ndim != 1 or len(self.indptr) < 1:
            raise GraphFormatError(
                f"indptr must be a 1-D array of length n+1 >= 1, got shape {self.indptr.shape}"
            )
        if self.indptr[0] != 0:
            raise GraphFormatError(f"indptr[0] must be 0, got {int(self.indptr[0])}")
        drops = np.flatnonzero(np.diff(self.indptr) < 0)
        if drops.size:
            v = int(drops[0])
            raise GraphFormatError(
                f"indptr must be non-decreasing: indptr[{v}]={int(self.indptr[v])} > "
                f"indptr[{v + 1}]={int(self.indptr[v + 1])} (vertex {v})"
            )
        if self.indptr[-1] != len(self.indices):
            raise GraphFormatError(
                f"indptr[-1]={self.indptr[-1]} does not match len(indices)={len(self.indices)}"
            )
        if len(self.weights) != len(self.indices):
            raise GraphFormatError(
                f"weights and indices must have equal length, got "
                f"{len(self.weights)} weights for {len(self.indices)} edges"
            )
        if self.m:
            bad = np.flatnonzero((self.indices < 0) | (self.indices >= self.n))
            if bad.size:
                e = int(bad[0])
                raise GraphFormatError(
                    f"edge target out of range [0, {self.n}): indices[{e}]="
                    f"{int(self.indices[e])} (edge {e} of vertex {int(self.edge_sources[e])})"
                )
            bad = np.flatnonzero(~np.isfinite(self.weights) | (self.weights <= 0))
            if bad.size:
                e = int(bad[0])
                raise GraphFormatError(
                    f"edge weights must be positive and finite: weights[{e}]="
                    f"{float(self.weights[e])!r} (edge {e} of vertex {int(self.edge_sources[e])})"
                )
        if not self.directed and not self.is_symmetric:
            u, v = self._first_asymmetric_edge()
            raise GraphFormatError(
                f"directed=False but the CSR is not symmetric: edge "
                f"({u}, {v}) has no same-weight reverse edge"
            )

    @cached_property
    def is_symmetric(self) -> bool:
        """Whether every edge has a same-weight reverse edge (cached).

        The check re-sorts all ``m`` edges twice, so it is computed at most
        once per object — ``Graph`` is immutable, which makes the cached
        answer permanently valid.  Repeated :meth:`validate` calls on
        undirected graphs therefore pay the sort only the first time.
        """
        src, dst, w = self.edges()
        fwd = np.lexsort((w, dst, src))
        rev = np.lexsort((w, src, dst))
        return (
            np.array_equal(src[fwd], dst[rev])
            and np.array_equal(dst[fwd], src[rev])
            and np.allclose(w[fwd], w[rev])
        )

    @cached_property
    def exact_sums(self) -> bool:
        """Whether every path-sum combination is an exact float64 (cached).

        True iff every weight is an integer and ``2 (n - 1) L`` stays below
        ``2**53``: a shortest path has at most ``n - 1`` edges, so every
        distance, every hub sum ``d(s, h) + d(h, t)`` and every ALT bound is
        then an exact integer, whatever order it was summed in.  The label
        tier serves hub and ALT answers only when this holds; ``Graph`` is
        immutable, and an update builds a new object, so the cached answer
        never goes stale.
        """
        w = self.weights
        if not np.array_equal(w, np.floor(w)):
            return False
        return 2.0 * max(self.n - 1, 0) * self.max_weight < 2.0**53

    def _first_asymmetric_edge(self) -> tuple[int, int]:
        """The lexically first edge whose reverse is missing or misweighted."""
        src, dst, w = self.edges()
        fwd = np.lexsort((w, dst, src))
        rev = np.lexsort((w, src, dst))
        mismatch = (
            (src[fwd] != dst[rev])
            | (dst[fwd] != src[rev])
            | ~np.isclose(w[fwd], w[rev])
        )
        bad = np.flatnonzero(mismatch)
        if not bad.size:  # pragma: no cover - only called when asymmetric
            return (-1, -1)
        e = fwd[bad[0]]
        return int(src[e]), int(dst[e])

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #

    def with_name(self, name: str) -> "Graph":
        """Return the same graph relabelled as ``name`` (arrays shared)."""
        return Graph(self.indptr, self.indices, self.weights, self.directed, name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} {kind} n={self.n} m={self.m}>"
