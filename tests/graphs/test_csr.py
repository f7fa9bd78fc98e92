"""Unit tests for the CSR graph representation."""

import numpy as np
import pytest

from repro.graphs import Graph
from repro.utils import GraphFormatError


def _triangle(directed=True):
    return Graph.from_edges(
        3,
        np.array([0, 1, 2]),
        np.array([1, 2, 0]),
        np.array([1.0, 2.0, 3.0]),
        directed=directed,
    )


class TestFromEdges:
    def test_basic_shape(self):
        g = _triangle()
        assert g.n == 3
        assert g.m == 3
        g.validate()

    def test_neighbors_sorted_by_target(self):
        g = Graph.from_edges(
            4, np.array([0, 0, 0]), np.array([3, 1, 2]), np.array([1.0, 1.0, 1.0])
        )
        assert list(g.neighbors(0)) == [1, 2, 3]

    def test_weights_parallel_to_indices(self):
        g = Graph.from_edges(
            3, np.array([0, 0]), np.array([2, 1]), np.array([5.0, 7.0])
        )
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbor_weights(0)) == [7.0, 5.0]

    def test_self_loops_dropped(self):
        g = Graph.from_edges(2, np.array([0, 0]), np.array([0, 1]), np.array([1.0, 1.0]))
        assert g.m == 1

    def test_parallel_edges_keep_min_weight(self):
        g = Graph.from_edges(
            2, np.array([0, 0, 0]), np.array([1, 1, 1]), np.array([3.0, 1.0, 2.0])
        )
        assert g.m == 1
        assert g.weights[0] == 1.0

    def test_dedup_disabled_keeps_duplicates(self):
        g = Graph.from_edges(
            2, np.array([0, 0]), np.array([1, 1]), np.array([3.0, 1.0]), dedup=False
        )
        assert g.m == 2

    def test_symmetrize_adds_reverse_edges(self):
        g = Graph.from_edges(
            2, np.array([0]), np.array([1]), np.array([2.0]), symmetrize=True
        )
        assert g.m == 2
        assert not g.directed
        g.validate()

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(2, np.array([0]), np.array([5]), np.array([1.0]))

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, np.array([0, 1]), np.array([1]), np.array([1.0]))

    def test_empty_graph(self):
        g = Graph.from_edges(4, np.array([]), np.array([]), np.array([]))
        assert g.n == 4 and g.m == 0
        g.validate()
        assert g.max_weight == 0.0


class TestAccessors:
    def test_out_degree_all(self):
        g = _triangle()
        assert list(g.out_degree()) == [1, 1, 1]

    def test_out_degree_single(self):
        g = _triangle()
        assert g.out_degree(0) == 1

    def test_min_max_weight(self):
        g = _triangle()
        assert g.min_weight == 1.0
        assert g.max_weight == 3.0

    def test_edges_roundtrip(self):
        g = _triangle()
        src, dst, w = g.edges()
        g2 = Graph.from_edges(3, src, dst, w, dedup=False)
        assert np.array_equal(g.indptr, g2.indptr)
        assert np.array_equal(g.indices, g2.indices)
        assert np.array_equal(g.weights, g2.weights)

    def test_with_name(self):
        g = _triangle().with_name("tri")
        assert g.name == "tri"
        assert g.indices is _triangle().indices or g.m == 3  # arrays shared


class TestFingerprint:
    def test_stable_across_calls(self):
        g = _triangle()
        assert g.fingerprint == g.fingerprint
        assert "fingerprint" in g.__dict__  # cached after first access

    def test_equal_for_identical_content(self):
        # Same CSR content, different objects and names -> same fingerprint.
        a = _triangle()
        b = _triangle().with_name("other")
        assert a.fingerprint == b.fingerprint

    def test_differs_when_weights_differ(self):
        a = _triangle()
        w = a.weights.copy()
        w[0] += 1.0
        b = Graph(a.indptr, a.indices, w, directed=True)
        assert a.fingerprint != b.fingerprint

    def test_differs_when_structure_differs(self):
        a = _triangle()
        b = Graph.from_edges(
            3, np.array([0, 1, 2]), np.array([2, 0, 1]), np.array([1.0, 2.0, 3.0])
        )
        assert a.fingerprint != b.fingerprint

    def test_differs_on_directedness(self):
        g = Graph.from_edges(
            2, np.array([0]), np.array([1]), np.array([1.0]), symmetrize=True
        )
        flipped = Graph(g.indptr, g.indices, g.weights, directed=True)
        assert g.fingerprint != flipped.fingerprint


class TestSymmetryCache:
    def test_is_symmetric_computed_once(self):
        g = Graph.from_edges(
            3, np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0]),
            symmetrize=True,
        )
        assert "is_symmetric" not in g.__dict__
        assert g.is_symmetric
        assert "is_symmetric" in g.__dict__  # repeated validate() reuses it
        g.validate()
        g.validate()

    def test_asymmetric_cached_false(self):
        g = _triangle(directed=False)
        assert g.is_symmetric is False
        assert g.__dict__["is_symmetric"] is False


class TestExactSums:
    def test_integer_weights_exact_and_cached(self):
        g = _triangle()
        assert "exact_sums" not in g.__dict__
        assert g.exact_sums is True
        assert g.__dict__["exact_sums"] is True

    def test_one_fractional_weight_is_inexact(self):
        g = _triangle()
        w = g.weights.copy()
        w[1] = 2.5
        assert Graph(g.indptr, g.indices, w).exact_sums is False

    def test_sum_bound_at_two_to_the_53(self):
        # 2 (n - 1) L must stay below 2**53: n = 3 gives 4 L.
        g = _triangle()
        below = np.full(g.m, 2.0**51 - 1)
        at = np.full(g.m, 2.0**51)
        assert Graph(g.indptr, g.indices, below).exact_sums is True
        assert Graph(g.indptr, g.indices, at).exact_sums is False

    def test_edgeless_graph_exact(self):
        g = Graph.from_edges(4, np.array([]), np.array([]), np.array([]))
        assert g.exact_sums is True


class TestValidate:
    def test_negative_weight_rejected(self):
        g = _triangle()
        bad = Graph(g.indptr, g.indices, -g.weights, directed=True)
        with pytest.raises(GraphFormatError):
            bad.validate()

    def test_nan_weight_rejected(self):
        g = _triangle()
        w = g.weights.copy()
        w[0] = np.nan
        with pytest.raises(GraphFormatError):
            Graph(g.indptr, g.indices, w).validate()

    def test_indptr_mismatch_rejected(self):
        g = _triangle()
        bad = Graph(g.indptr[:-1], g.indices, g.weights)
        with pytest.raises(GraphFormatError):
            bad.validate()

    def test_asymmetric_undirected_rejected(self):
        g = _triangle(directed=False)  # a directed cycle claimed undirected
        with pytest.raises(GraphFormatError):
            g.validate()

    def test_symmetric_undirected_accepted(self):
        g = Graph.from_edges(
            3, np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0]),
            symmetrize=True,
        )
        g.validate()

    def test_error_names_offending_weight(self):
        g = _triangle()
        w = g.weights.copy()
        w[2] = -4.0
        with pytest.raises(GraphFormatError, match=r"weights\[2\]=.*-4\.0"):
            Graph(g.indptr, g.indices, w).validate()

    def test_error_names_offending_target(self):
        g = _triangle()
        idx = g.indices.copy()
        idx[1] = 9
        with pytest.raises(GraphFormatError, match=r"indices\[1\]=9"):
            Graph(g.indptr, idx, g.weights).validate()

    def test_error_names_offending_vertex(self):
        g = _triangle()
        bad = g.indptr.copy()
        bad[1], bad[2] = bad[2], bad[1]  # indptr dips at vertex 1
        with pytest.raises(GraphFormatError, match="vertex 1"):
            Graph(bad, g.indices, g.weights).validate()

    def test_error_names_asymmetric_edge(self):
        g = _triangle(directed=False)
        with pytest.raises(GraphFormatError, match=r"\(0, 1\)"):
            g.validate()
