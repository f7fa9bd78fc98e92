"""Native fast path: distances must equal the metered scalar algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DEFAULT_RHO, bellman_ford, delta_star_stepping, rho_stepping
from repro.graphs import Graph
from repro.serving import multi_source_distances
from repro.utils.errors import ParameterError

SOURCES = [0, 3, 9, 17, 3]


def scalar_matrix(graph, runner, sources=SOURCES):
    return np.stack([runner(graph, int(s)).dist for s in sources])


class TestDistanceEquality:
    def test_bf_undirected(self, rmat_small):
        ref = scalar_matrix(rmat_small, lambda g, s: bellman_ford(g, s, seed=0))
        out = multi_source_distances(rmat_small, SOURCES, algo="bf")
        assert np.array_equal(ref, out)

    def test_bf_directed(self, rmat_directed):
        ref = scalar_matrix(rmat_directed, lambda g, s: bellman_ford(g, s, seed=0))
        out = multi_source_distances(rmat_directed, SOURCES, algo="bf")
        assert np.array_equal(ref, out)

    def test_rho_road(self, road_small):
        ref = scalar_matrix(road_small, lambda g, s: rho_stepping(g, s, 64, seed=0))
        out = multi_source_distances(road_small, SOURCES, algo="rho", param=64)
        assert np.array_equal(ref, out)

    def test_rho_default_param(self, rmat_small):
        ref = scalar_matrix(
            rmat_small, lambda g, s: rho_stepping(g, s, DEFAULT_RHO, seed=0)
        )
        out = multi_source_distances(rmat_small, SOURCES, algo="rho", param=DEFAULT_RHO)
        assert np.array_equal(ref, out)

    def test_delta(self, gnm_small):
        ref = scalar_matrix(
            gnm_small, lambda g, s: delta_star_stepping(g, s, 4.0, seed=0)
        )
        out = multi_source_distances(gnm_small, SOURCES, algo="delta", param=4.0)
        assert np.array_equal(ref, out)

    def test_unreachable_vertices_stay_inf(self, star_graph):
        # A leaf of an undirected star reaches everything; but a 1-source
        # batch on a path graph from the far end still exercises long chains.
        out = multi_source_distances(star_graph, [1], algo="bf")
        assert np.isfinite(out).all()

    def test_single_source_matches_scalar(self, path_graph):
        ref = bellman_ford(path_graph, 49, seed=0).dist
        out = multi_source_distances(path_graph, [49], algo="bf")
        assert out.shape == (1, path_graph.n)
        assert np.array_equal(out[0], ref)


class TestValidation:
    def test_empty_batch(self, rmat_small):
        out = multi_source_distances(rmat_small, [], algo="bf")
        assert out.shape == (0, rmat_small.n)

    def test_unknown_algo(self, rmat_small):
        with pytest.raises(ParameterError):
            multi_source_distances(rmat_small, [0], algo="dijkstra")

    def test_delta_needs_param(self, rmat_small):
        with pytest.raises(ParameterError):
            multi_source_distances(rmat_small, [0], algo="delta")

    def test_rho_needs_param(self, rmat_small):
        with pytest.raises(ParameterError):
            multi_source_distances(rmat_small, [0], algo="rho", param=0)

    def test_source_out_of_range(self, rmat_small):
        with pytest.raises(ParameterError):
            multi_source_distances(rmat_small, [rmat_small.n], algo="bf")


# Real weights spanning ~15 binary orders of magnitude on either side of 1,
# so path sums round and tiny edges can vanish into large distances.
_WEIGHTS = st.one_of(
    st.floats(min_value=2.0**-15, max_value=2.0**15, allow_nan=False,
              allow_infinity=False, exclude_min=True),
    st.integers(1, 64).map(float),
)


@st.composite
def oracle_cases(draw):
    """A random graph over the whole accepted domain plus a source batch.

    Real weights, parallel edges and self loops (``dedup=False``), directed
    or undirected, connectivity not required (unreachable rows stay inf),
    and duplicate sources in one batch.
    """
    n = draw(st.integers(1, 24))
    m = draw(st.integers(0, 80))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    w = draw(st.lists(_WEIGHTS, min_size=m, max_size=m))
    directed = draw(st.booleans())
    g = Graph.from_edges(
        n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
        np.array(w, dtype=float), directed=directed,
        symmetrize=not directed, dedup=draw(st.booleans()),
    )
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    if len(sources) > 1:
        sources.append(sources[0])  # always one duplicate source
    return g, sources


@given(oracle_cases(), st.sampled_from([1, 3, 64]),
       st.sampled_from([2.0**-10, 1.0, 2.0**12]))
@settings(max_examples=150, deadline=None)
def test_native_executor_bit_identical_to_every_stepping_rule(case, rho, delta):
    g, sources = case
    expected = {
        "rho": (rho, scalar_matrix(g, lambda g, s: rho_stepping(g, s, rho, seed=0),
                                   sources)),
        "delta": (delta, scalar_matrix(
            g, lambda g, s: delta_star_stepping(g, s, delta, seed=0), sources)),
        "bf": (None, scalar_matrix(g, lambda g, s: bellman_ford(g, s, seed=0),
                                   sources)),
    }
    for algo, (param, ref) in expected.items():
        out = multi_source_distances(g, sources, algo=algo, param=param)
        assert out.shape == (len(sources), g.n)
        # array_equal on float arrays: inf == inf, and every finite distance
        # must match to the last bit.
        assert np.array_equal(out, ref), algo
