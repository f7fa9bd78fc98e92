"""SweepPool: pooled sweep cells must equal the serial path exactly."""

import multiprocessing

import pytest

from repro.analysis import get_implementation, simulated_time
from repro.analysis.sweeps import sweep_param
from repro.graphs import Graph
from repro.runtime import MachineModel
from repro.serving import FaultPlan, SweepPool
from repro.utils.errors import ParameterError


@pytest.fixture(scope="module")
def machine():
    return MachineModel()


class TestPool:
    def test_rejects_serial_job_count(self, rmat_small):
        with pytest.raises(ParameterError):
            SweepPool(rmat_small, jobs=1)

    def test_pooled_times_equal_serial(self, rmat_small, machine):
        impl = get_implementation("PQ-rho")
        sources = [0, 3, 5]
        serial = [
            simulated_time(impl.run(rmat_small, s, 64, seed=0), machine, impl.profile)
            for s in sources
        ]
        with SweepPool(rmat_small, jobs=2) as pool:
            pooled = pool.simulated_times("PQ-rho", 64, sources, machine, seed=0)
        assert pooled == serial

    def test_map_cells_full_grid(self, rmat_small, machine):
        impl = get_implementation("PQ-delta")
        params, sources = [8.0, 32.0], [0, 1]
        with SweepPool(rmat_small, jobs=2) as pool:
            grid = pool.map_cells("PQ-delta", params, sources, machine, seed=0)
        assert len(grid) == 2 and all(len(row) == 2 for row in grid)
        for p, row in zip(params, grid):
            for s, t in zip(sources, row):
                ref = simulated_time(
                    impl.run(rmat_small, s, p, seed=0), machine, impl.profile
                )
                assert t == ref


class TestSupervision:
    def test_stats_and_probe_on_healthy_pool(self, rmat_small, machine):
        with SweepPool(rmat_small, jobs=2) as pool:
            pool.simulated_times("PQ-rho", 64, [0, 1], machine)
            st = pool.stats()
            assert pool.health_probe(timeout=30.0)
        assert st["submitted"] == 2 and st["completed"] == 2
        assert st["rebuilds"] == 0 and st["retried"] == 0


class TestGraphInheritance:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only fork workers inherit the graph without pickling it",
    )
    def test_fork_workers_never_pickle_the_graph(self, rmat_small, machine, monkeypatch):
        """Forked workers, rebuilt ones included, inherit the graph's pages."""
        impl = get_implementation("PQ-rho")
        sources = [0, 1, 2, 3]
        serial = [
            simulated_time(impl.run(rmat_small, s, 64, seed=0), machine, impl.profile)
            for s in sources
        ]

        def no_pickle(self, protocol):
            raise AssertionError("the graph was pickled on its way to a worker")

        monkeypatch.setattr(Graph, "__reduce_ex__", no_pickle)
        plan = FaultPlan.single("pool.worker", "crash", at=(2,), times=1)
        with SweepPool(rmat_small, 2, retries=2, backoff=0.01, fault_plan=plan) as pool:
            before = pool.simulated_times("PQ-rho", 64, sources[:1], machine)
            assert pool.stats()["rebuilds"] == 0
            after = pool.simulated_times("PQ-rho", 64, sources, machine)
            assert pool.stats()["rebuilds"] >= 1
        assert before == serial[:1]
        assert after == serial


class TestSweepJobs:
    def test_sweep_param_jobs_matches_serial(self, road_small, machine):
        impl = get_implementation("PQ-rho")
        params, sources = [32.0, 128.0], [0, 2]
        serial = sweep_param(impl, road_small, params, sources, machine, seed=0)
        pooled = sweep_param(
            impl, road_small, params, sources, machine, seed=0, jobs=2
        )
        assert pooled.times == serial.times
        assert pooled.best_param == serial.best_param
