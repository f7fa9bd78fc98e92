"""Unit tests for graph serialization (npz, edge list, DIMACS)."""

import numpy as np
import pytest

from repro.graphs import (
    load_dimacs,
    load_edgelist,
    load_npz,
    rmat,
    save_dimacs,
    save_edgelist,
    save_npz,
)
from repro.utils import GraphFormatError


@pytest.fixture(scope="module")
def g():
    return rmat(7, 6, seed=11)


class TestNpz:
    def test_roundtrip(self, g, tmp_path):
        p = tmp_path / "g.npz"
        save_npz(g, p)
        h = load_npz(p)
        assert h.n == g.n and h.m == g.m
        assert np.array_equal(h.indices, g.indices)
        assert np.array_equal(h.weights, g.weights)
        assert h.directed == g.directed
        assert h.name == g.name

    def test_missing_arrays_raise_named_format_error(self, g, tmp_path):
        p = tmp_path / "partial.npz"
        np.savez_compressed(p, indptr=g.indptr, indices=g.indices)
        with pytest.raises(GraphFormatError) as excinfo:
            load_npz(p)
        msg = str(excinfo.value)
        assert str(p) in msg and "weights" in msg

    def test_mismatched_shapes_raise_named_format_error(self, g, tmp_path):
        p = tmp_path / "short.npz"
        np.savez_compressed(
            p,
            indptr=g.indptr,
            indices=g.indices,
            weights=g.weights[:-1],  # one weight short of the edge count
            directed=np.array(g.directed),
            name=np.array(g.name),
        )
        with pytest.raises(GraphFormatError) as excinfo:
            load_npz(p)
        assert str(p) in str(excinfo.value)


class TestEdgelist:
    def test_roundtrip(self, g, tmp_path):
        p = tmp_path / "g.txt"
        save_edgelist(g, p)
        h = load_edgelist(p)
        assert h.n == g.n and h.m == g.m
        assert np.array_equal(np.sort(h.weights), np.sort(g.weights))
        assert h.directed == g.directed

    def test_missing_weights_default_to_one(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("0 1\n1 2\n")
        h = load_edgelist(p)
        assert h.n == 3
        assert np.all(h.weights == 1.0)

    def test_bad_line_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0\n")
        with pytest.raises(GraphFormatError):
            load_edgelist(p)

    @pytest.mark.parametrize("weight", ["nan", "-1", "0", "inf"])
    def test_bad_weight_rejected_naming_file(self, tmp_path, weight):
        p = tmp_path / "w.txt"
        p.write_text(f"# n=3 directed=0\n0 1 1\n1 2 {weight}\n")
        with pytest.raises(GraphFormatError) as excinfo:
            load_edgelist(p)
        msg = str(excinfo.value)
        assert str(p) in msg and "positive and finite" in msg
        assert f"={float(weight)!r} " in msg


class TestDimacs:
    def test_roundtrip(self, g, tmp_path):
        p = tmp_path / "g.gr"
        save_dimacs(g, p)
        h = load_dimacs(p)
        assert h.n == g.n and h.m == g.m
        assert np.array_equal(np.sort(h.weights), np.sort(np.round(g.weights)))

    def test_header_required(self, tmp_path):
        p = tmp_path / "no_header.gr"
        p.write_text("a 1 2 3\n")
        with pytest.raises(GraphFormatError):
            load_dimacs(p)

    @pytest.mark.parametrize("weight", ["nan", "-1", "0", "inf"])
    def test_bad_weight_rejected_naming_file(self, tmp_path, weight):
        p = tmp_path / "w.gr"
        p.write_text(f"p sp 3 2\na 1 2 1\na 2 3 {weight}\n")
        with pytest.raises(GraphFormatError) as excinfo:
            load_dimacs(p)
        msg = str(excinfo.value)
        assert str(p) in msg and "positive and finite" in msg
        assert f"={float(weight)!r} " in msg

    def test_one_indexing(self, tmp_path):
        p = tmp_path / "small.gr"
        p.write_text("c comment\np sp 2 1\na 1 2 7\n")
        h = load_dimacs(p)
        assert h.n == 2 and h.m == 1
        assert list(h.neighbors(0)) == [1]
        assert h.weights[0] == 7.0
