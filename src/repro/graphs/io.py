"""Graph serialization: NumPy ``.npz``, plain edge lists, and DIMACS ``.gr``.

The DIMACS shortest-path format (``p sp n m`` header + ``a u v w`` arc lines)
is the format the paper's road inputs (RoadUSA, Germany) ship in, so we
support it for users who want to run the benchmarks on the real datasets.
"""

from __future__ import annotations

import os

import numpy as np

from repro.graphs.csr import Graph
from repro.utils.errors import GraphFormatError

__all__ = [
    "load_dimacs",
    "load_edgelist",
    "load_npz",
    "save_dimacs",
    "save_edgelist",
    "save_npz",
]


def save_npz(graph: Graph, path: str | os.PathLike) -> None:
    """Save a graph to a compressed ``.npz`` file."""
    np.savez_compressed(
        path,
        indptr=graph.indptr,
        indices=graph.indices,
        weights=graph.weights,
        directed=np.array(graph.directed),
        name=np.array(graph.name),
    )


_NPZ_ARRAYS = ("indptr", "indices", "weights", "directed", "name")


def load_npz(path: str | os.PathLike) -> Graph:
    """Load a graph saved by :func:`save_npz`.

    A structurally bad file — missing arrays, mismatched shapes, broken CSR
    invariants — raises :class:`~repro.utils.errors.GraphFormatError` naming
    the file, never a bare ``KeyError``/``ValueError`` from deep inside the
    loader.
    """
    from repro.serving.faults import get_injector  # local: avoids an import cycle

    get_injector().fire("graph.load")
    with np.load(path, allow_pickle=False) as data:
        missing = [k for k in _NPZ_ARRAYS if k not in data.files]
        if missing:
            raise GraphFormatError(
                f"{path}: .npz graph is missing array(s) {', '.join(missing)}"
            )
        try:
            g = Graph(
                indptr=data["indptr"],
                indices=data["indices"],
                weights=data["weights"],
                directed=bool(data["directed"]),
                name=str(data["name"]),
            )
            g.validate()
        except GraphFormatError as exc:
            raise GraphFormatError(f"{path}: {exc}") from exc
        except ValueError as exc:
            raise GraphFormatError(f"{path}: invalid graph arrays ({exc})") from exc
    return g


def _validated(path, g: Graph) -> Graph:
    """Check a parsed graph's invariants, naming ``path`` on failure."""
    try:
        g.validate()
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
    return g


def save_edgelist(graph: Graph, path: str | os.PathLike) -> None:
    """Write ``src dst weight`` lines (one directed edge per line)."""
    src, dst, w = graph.edges()
    with open(path, "w") as fh:
        fh.write(f"# n={graph.n} m={graph.m} directed={int(graph.directed)}\n")
        for s, d, ww in zip(src, dst, w):
            fh.write(f"{s} {d} {ww:g}\n")


def load_edgelist(
    path: str | os.PathLike, *, n: int | None = None, directed: bool = True
) -> Graph:
    """Read an edge list written by :func:`save_edgelist` (or any
    whitespace-separated ``src dst [weight]`` file; missing weights become 1).

    A weight that is not positive and finite raises
    :class:`~repro.utils.errors.GraphFormatError` naming the file.
    """
    srcs, dsts, ws = [], [], []
    header_directed = None
    header_n = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if token.startswith("n="):
                        header_n = int(token[2:])
                    elif token.startswith("directed="):
                        header_directed = bool(int(token[9:]))
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(f"bad edge line: {line!r}")
            srcs.append(int(parts[0]))
            dsts.append(int(parts[1]))
            ws.append(float(parts[2]) if len(parts) > 2 else 1.0)
    src = np.array(srcs, dtype=np.int64)
    dst = np.array(dsts, dtype=np.int64)
    w = np.array(ws)
    if n is None:
        n = header_n if header_n is not None else (int(max(src.max(), dst.max())) + 1 if len(src) else 0)
    if header_directed is not None:
        directed = header_directed
    return _validated(path, Graph.from_edges(n, src, dst, w, directed=directed, dedup=False))


def save_dimacs(graph: Graph, path: str | os.PathLike) -> None:
    """Write the graph in DIMACS ``.gr`` format (1-indexed, integer weights)."""
    src, dst, w = graph.edges()
    with open(path, "w") as fh:
        fh.write("c generated by repro\n")
        fh.write(f"p sp {graph.n} {graph.m}\n")
        for s, d, ww in zip(src, dst, w):
            fh.write(f"a {s + 1} {d + 1} {int(round(ww))}\n")


def load_dimacs(path: str | os.PathLike, *, directed: bool = True) -> Graph:
    """Read a DIMACS shortest-path ``.gr`` file (bad weights rejected as in
    :func:`load_edgelist`)."""
    n = None
    srcs, dsts, ws = [], [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("c") or not line.strip():
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "sp":
                    raise GraphFormatError(f"bad DIMACS problem line: {line!r}")
                n = int(parts[2])
            elif line.startswith("a"):
                parts = line.split()
                if len(parts) != 4:
                    raise GraphFormatError(f"bad DIMACS arc line: {line!r}")
                srcs.append(int(parts[1]) - 1)
                dsts.append(int(parts[2]) - 1)
                ws.append(float(parts[3]))
    if n is None:
        raise GraphFormatError("DIMACS file has no 'p sp' problem line")
    return _validated(path, Graph.from_edges(
        n, np.array(srcs, dtype=np.int64), np.array(dsts, dtype=np.int64), np.array(ws),
        directed=directed, dedup=False,
    ))
