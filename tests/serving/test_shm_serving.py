"""Shm plane through the sweep pool: leaks, fallback, attach chaos.

The contract under test: the shared-memory transport is an *optimisation*,
never a semantic change — pooled sweep cells must be identical between the
shm and pickle paths, every segment must be gone after pools close (even
when a crash forced a pool rebuild mid-grid), and an injected
``shm.attach`` fault must be absorbed by supervised retries.
"""

import pytest

from repro.analysis import get_implementation, simulated_time
from repro.graphs import rmat
from repro.runtime import (
    SHM_PREFIX,
    MachineModel,
    close_manager,
    get_manager,
    leaked_segments,
    shm_available,
)
from repro.serving import FaultPlan, SweepPool

pytestmark = pytest.mark.skipif(not shm_available(), reason="no shared memory")

SOURCES = [0, 2, 4, 6]


@pytest.fixture(scope="module")
def machine():
    return MachineModel()


@pytest.fixture(autouse=True)
def _no_leaks():
    yield
    assert leaked_segments(SHM_PREFIX) == []


def _serial_times(graph, sources, machine):
    impl = get_implementation("PQ-rho")
    return [
        simulated_time(impl.run(graph, s, 64, seed=0), machine, impl.profile)
        for s in sources
    ]


class TestLeakChecks:
    def test_pool_shutdown_unlinks_everything(self, rmat_small, machine):
        with SweepPool(rmat_small, 2, use_shm=True) as pool:
            pool.simulated_times("PQ-rho", 64, SOURCES, machine)
            assert get_manager().live_segments() != []
        assert get_manager().live_segments() == []
        assert leaked_segments(SHM_PREFIX) == []

    def test_crash_triggered_rebuild_does_not_leak(self, rmat_small, machine):
        serial = _serial_times(rmat_small, SOURCES, machine)
        plan = FaultPlan.single("pool.worker", "crash", at=(0,), times=1)
        with SweepPool(
            rmat_small, 2, use_shm=True, retries=2, fault_plan=plan
        ) as pool:
            out = pool.simulated_times("PQ-rho", 64, SOURCES, machine)
            st = pool.stats()
        assert out == serial
        assert st["crashes"] >= 1 and st["rebuilds"] >= 1
        assert leaked_segments(SHM_PREFIX) == []

    def test_manager_close_unlinks_even_with_live_refs(self, rmat_small, road_small):
        mgr = get_manager()
        mgr.share_graph(rmat_small)
        mgr.share_graph(road_small)
        assert mgr.live_segments() != []
        close_manager()
        assert leaked_segments(SHM_PREFIX) == []

    def test_two_pools_share_one_registration(self, rmat_small, machine):
        with SweepPool(rmat_small, 2, use_shm=True) as a:
            graph_segments = len(get_manager().live_segments())
            with SweepPool(rmat_small, 2, use_shm=True) as b:
                # Same fingerprint: the CSR triple is not re-registered.
                assert len(get_manager().live_segments()) == graph_segments
                assert a.simulated_times("PQ-rho", 64, [0, 1], machine) == (
                    b.simulated_times("PQ-rho", 64, [0, 1], machine)
                )
            # First pool still works after the second released its ref.
            a.simulated_times("PQ-rho", 64, [3], machine)
        assert leaked_segments(SHM_PREFIX) == []


class TestFallback:
    def test_forced_pickle_is_bit_identical(self, rmat_small, machine):
        serial = _serial_times(rmat_small, SOURCES, machine)
        with SweepPool(rmat_small, 2, use_shm=True) as shm_pool:
            via_shm = shm_pool.simulated_times("PQ-rho", 64, SOURCES, machine)
            assert shm_pool.stats()["transport"] == "shm"
        with SweepPool(rmat_small, 2, use_shm=False) as pickle_pool:
            via_pickle = pickle_pool.simulated_times("PQ-rho", 64, SOURCES, machine)
            assert pickle_pool.stats()["transport"] == "pickle"
        assert via_shm == serial
        assert via_pickle == serial


class TestAttachChaos:
    def test_attach_fault_retried_to_identical_result(self, machine):
        # A graph no earlier test attached: attaches are cached per
        # fingerprint, and forked workers inherit the parent's cache, so a
        # graph the parent attached before would never reach the site.
        graph = rmat(7, 6, seed=2024)
        serial = _serial_times(graph, SOURCES, machine)
        plan = FaultPlan.single("shm.attach", "exception", at=(0,), times=1)
        with SweepPool(
            graph, 2, use_shm=True, retries=2, fault_plan=plan
        ) as pool:
            out = pool.simulated_times("PQ-rho", 64, SOURCES, machine)
            st = pool.stats()
        assert out == serial
        assert st["transport"] == "shm"
        assert st["retried"] >= 1  # the injected attach fault actually landed
