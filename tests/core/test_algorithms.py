"""Correctness of every stepping algorithm against the gold Dijkstra."""

import numpy as np
import pytest

from repro.core import (
    SteppingOptions,
    bellman_ford,
    compute_radii,
    delta_star_stepping,
    delta_stepping,
    dijkstra_stepping,
    radius_stepping,
    rho_stepping,
)

ALGOS = [
    ("rho", lambda g, s, **kw: rho_stepping(g, s, rho=64, **kw)),
    ("rho-exact", lambda g, s, **kw: rho_stepping(g, s, rho=64, exact_threshold=True, **kw)),
    ("delta-star", lambda g, s, **kw: delta_star_stepping(g, s, delta=500.0, **kw)),
    ("delta", lambda g, s, **kw: delta_stepping(g, s, delta=500.0, **kw)),
    ("bf", bellman_ford),
    ("dijkstra", dijkstra_stepping),
]

GRAPHS = ["rmat_small", "rmat_directed", "road_small", "gnm_small", "fig5_gadget",
          "path_graph", "star_graph"]


@pytest.mark.parametrize("graph_name", GRAPHS)
@pytest.mark.parametrize("algo_name,algo", ALGOS)
def test_distances_match_gold(graph_name, algo_name, algo, gold, request):
    g = request.getfixturevalue(graph_name)
    expected = gold(g, 0)
    res = algo(g, 0, seed=0)
    res.check_against(expected)
    assert res.algorithm
    assert res.source == 0


@pytest.mark.parametrize("algo_name,algo", ALGOS)
def test_nonzero_source(algo_name, algo, rmat_small, gold):
    s = rmat_small.n // 2
    algo(rmat_small, s, seed=1).check_against(gold(rmat_small, s))


@pytest.mark.parametrize("algo_name,algo", ALGOS[:5])
def test_tournament_pq_matches(algo_name, algo, rmat_small, gold):
    res = algo(rmat_small, 0, seed=0, options=SteppingOptions(pq="tournament"))
    res.check_against(gold(rmat_small, 0))


@pytest.mark.parametrize(
    "options",
    [
        SteppingOptions(fusion=False),
        SteppingOptions(bidirectional=False),
        SteppingOptions(fusion=False, bidirectional=False),
        SteppingOptions(dense_frac=1.0),       # always-sparse
        SteppingOptions(dense_frac=0.0001),    # almost-always dense
        SteppingOptions(fusion_limit=8, fusion_frontier_max=2),
    ],
    ids=["no-fusion", "no-bidir", "neither", "sparse-only", "dense-heavy", "tiny-fusion"],
)
def test_all_option_combinations_correct(options, rmat_small, road_small, gold):
    for g in (rmat_small, road_small):
        rho_stepping(g, 0, rho=32, options=options, seed=0).check_against(gold(g, 0))
        delta_star_stepping(g, 0, 800.0, options=options, seed=0).check_against(gold(g, 0))


class TestRadiusStepping:
    def test_matches_gold(self, road_small, gold):
        res = radius_stepping(road_small, 0, rho=6, seed=0)
        res.check_against(gold(road_small, 0))

    def test_precomputed_radii_reused(self, road_small, gold):
        radii = compute_radii(road_small, 6)
        for s in (0, 5):
            res = radius_stepping(road_small, s, rho=6, radii=radii, seed=0)
            res.check_against(gold(road_small, s))

    def test_radii_monotone_in_rho(self, road_small):
        r2 = compute_radii(road_small, 2)
        r8 = compute_radii(road_small, 8)
        assert np.all(r8 >= r2)

    def test_wrong_radii_length_rejected(self, road_small):
        from repro.utils import ParameterError

        with pytest.raises(ParameterError):
            radius_stepping(road_small, 0, rho=4, radii=np.zeros(3))


class TestSourceValidation:
    def test_bad_source_rejected(self, rmat_small):
        from repro.utils import ParameterError

        with pytest.raises(ParameterError):
            rho_stepping(rmat_small, rmat_small.n)

    def test_bad_delta_rejected(self, rmat_small):
        from repro.utils import ParameterError

        with pytest.raises(ParameterError):
            delta_star_stepping(rmat_small, 0, 0.0)

    def test_bad_rho_rejected(self, rmat_small):
        from repro.utils import ParameterError

        with pytest.raises(ParameterError):
            rho_stepping(rmat_small, 0, rho=0)


class TestUnreachable:
    def test_unreachable_vertices_stay_inf(self):
        from repro.graphs import Graph

        # 0 -> 1, and an isolated vertex 2.
        g = Graph.from_edges(3, np.array([0]), np.array([1]), np.array([1.0]), directed=True)
        for algo_name, algo in ALGOS:
            res = algo(g, 0, seed=0)
            assert res.dist[1] == 1.0
            assert np.isinf(res.dist[2]), algo_name
            assert res.reached == 2


class TestCheckAgainst:
    """The distance oracle is exact equality, not a relative tolerance."""

    def _result(self, dist):
        from repro.core import SSSPResult

        return SSSPResult(dist=np.asarray(dist, dtype=np.float64), source=0,
                          algorithm="probe")

    def test_off_by_one_weight_raises(self):
        # np.allclose(134725.0, 134726.0) is True under its default rtol.
        res = self._result([0.0, 134725.0, np.inf])
        with pytest.raises(AssertionError, match="v=1"):
            res.check_against(np.array([0.0, 134726.0, np.inf]))

    def test_equal_distances_pass_including_inf(self):
        self._result([0.0, 134725.0, np.inf]).check_against(
            np.array([0.0, 134725.0, np.inf])
        )
