"""Shared-memory plane: O(1) handles, bit-identity, refcounts, leak-free close."""

import os
import pickle
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.runtime import (
    SHM_PREFIX,
    ShmManager,
    ShmUnavailable,
    close_manager,
    get_manager,
    leaked_segments,
    shm_available,
)
from repro.serving.faults import FaultPlan, InjectedFault, install_injector

pytestmark = pytest.mark.skipif(not shm_available(), reason="no shared memory")


@pytest.fixture()
def mgr():
    m = ShmManager()
    yield m
    m.close()
    assert leaked_segments(SHM_PREFIX) == []


class TestHandles:
    def test_graph_handle_pickles_o1(self, rmat_small, mgr):
        handle = mgr.share_graph(rmat_small)
        blob = pickle.dumps(handle)
        graph_blob = pickle.dumps(rmat_small)
        assert len(blob) < 1024
        assert len(blob) * 10 < len(graph_blob)

    def test_attach_is_bit_identical_and_readonly(self, rmat_small, mgr):
        handle = mgr.share_graph(rmat_small)
        g = handle.attach()
        assert np.array_equal(g.indptr, rmat_small.indptr)
        assert np.array_equal(g.indices, rmat_small.indices)
        assert np.array_equal(g.weights, rmat_small.weights)
        assert g.directed == rmat_small.directed
        # Fingerprint is seeded from the handle, not recomputed.
        assert g.__dict__["fingerprint"] == rmat_small.fingerprint
        with pytest.raises(ValueError):
            g.weights[0] = 0.0

    def test_attach_cached_per_fingerprint(self, rmat_small, mgr):
        handle = mgr.share_graph(rmat_small)
        assert handle.attach() is handle.attach()

    def test_handle_nbytes(self, rmat_small, mgr):
        handle = mgr.share_graph(rmat_small)
        expected = (
            rmat_small.indptr.nbytes
            + rmat_small.indices.nbytes
            + rmat_small.weights.nbytes
        )
        assert handle.nbytes == expected


class TestRefcounting:
    def test_share_twice_registers_once(self, rmat_small, mgr):
        h1 = mgr.share_graph(rmat_small)
        n_after_first = len(mgr.live_segments())
        h2 = mgr.share_graph(rmat_small)
        assert h2 is h1
        assert len(mgr.live_segments()) == n_after_first == 3

    def test_unlink_only_at_refcount_zero(self, rmat_small, mgr):
        h = mgr.share_graph(rmat_small)
        mgr.share_graph(rmat_small)
        mgr.release_graph(h)
        assert len(mgr.live_segments()) == 3
        mgr.release_graph(h)
        assert mgr.live_segments() == []
        assert leaked_segments(SHM_PREFIX) == []

    def test_release_unknown_handle_is_noop(self, rmat_small, road_small, mgr):
        h_other = ShmManager()
        try:
            foreign = h_other.share_graph(road_small)
            mgr.share_graph(rmat_small)
            mgr.release_graph(foreign)  # not ours: must not touch our segments
            assert len(mgr.live_segments()) == 3
        finally:
            h_other.close()

    def test_release_none_is_noop(self, mgr):
        mgr.release_graph(None)
        assert mgr.live_segments() == []


class TestLifecycle:
    def test_close_unlinks_everything(self, rmat_small, road_small):
        mgr = ShmManager()
        mgr.share_graph(rmat_small)
        mgr.share_graph(road_small)
        assert len(mgr.live_segments()) == 6
        mgr.close()
        assert mgr.live_segments() == []
        assert leaked_segments(SHM_PREFIX) == []
        mgr.close()  # idempotent

    def test_closed_manager_rejects_work(self, rmat_small):
        mgr = ShmManager()
        mgr.close()
        with pytest.raises(ShmUnavailable):
            mgr.share_graph(rmat_small)

    def test_context_manager(self, rmat_small):
        with ShmManager() as mgr:
            mgr.share_graph(rmat_small)
        assert mgr.closed
        assert leaked_segments(SHM_PREFIX) == []

    def test_global_manager_recreated_after_close(self):
        a = get_manager()
        assert get_manager() is a
        close_manager()
        b = get_manager()
        assert b is not a and not b.closed
        close_manager()


class TestSigintCleanup:
    """Ctrl-C on a serving process must unlink segments AND stay a Ctrl-C.

    Runs a real subprocess (signal handlers are process-global state) that
    owns live segments, interrupts it, and checks two things: the segments
    are gone from ``/dev/shm``, and the previously-installed SIGINT
    behaviour still ran afterwards — the cleanup handler *chains*, it does
    not swallow the interrupt.
    """

    _COMMON = """\
import signal, sys
{prior}
from repro.graphs import rmat
from repro.runtime import get_manager
mgr = get_manager()
handle = mgr.share_graph(rmat(6, 4, seed=1))
{wait}
"""

    # The parent fires SIGINT the moment it reads the SEGMENTS line, so the
    # print must already sit inside the protection that the variant is
    # testing — otherwise the interrupt can land in the gap before pause().
    _ANNOUNCE = 'print("SEGMENTS:" + ",".join(mgr.live_segments()), flush=True)'

    def _spawn(self, body):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        return subprocess.Popen(
            [sys.executable, "-c", body],
            stdout=subprocess.PIPE, text=True, env=env,
        )

    def _interrupt_and_collect(self, proc):
        line = proc.stdout.readline().strip()
        assert line.startswith("SEGMENTS:")
        names = line.split(":", 1)[1].split(",")
        assert names and all(n in leaked_segments(SHM_PREFIX) for n in names)
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=30)
        # The oracle: every segment the child owned is unlinked.
        assert not set(names) & set(leaked_segments(SHM_PREFIX))
        return out, proc.returncode

    def test_sigint_unlinks_and_keyboard_interrupt_still_raises(self):
        body = self._COMMON.format(
            prior="",
            wait=(
                "try:\n"
                f"    {self._ANNOUNCE}\n"
                "    signal.pause()\n"
                "except KeyboardInterrupt:\n"
                "    print('KBD', flush=True)\n"
                "    sys.exit(33)\n"
            ),
        )
        out, code = self._interrupt_and_collect(self._spawn(body))
        assert "KBD" in out  # default chain: Ctrl-C semantics preserved
        assert code == 33

    def test_sigint_chains_to_preinstalled_handler(self):
        prior = (
            "def prior(signum, frame):\n"
            "    print('CHAINED', flush=True)\n"
            "    sys.exit(55)\n"
            "signal.signal(signal.SIGINT, prior)\n"
        )
        body = self._COMMON.format(
            prior=prior, wait=f"{self._ANNOUNCE}\nsignal.pause()"
        )
        out, code = self._interrupt_and_collect(self._spawn(body))
        assert "CHAINED" in out  # the app's own handler still ran
        assert code == 55


class TestFaultSite:
    def test_attach_fires_shm_attach_site(self, rmat_small, mgr):
        # One CSR array's handle: in the owning process every array attach
        # fires the site (a graph attach is cached per fingerprint).
        handle = mgr.share_graph(rmat_small).weights
        injector = install_injector(
            FaultPlan.single("shm.attach", "exception", at=(0,))
        )
        try:
            with pytest.raises(InjectedFault):
                handle.attach()
            # The fault is transient: the next attach (site index 1) succeeds.
            assert np.array_equal(handle.attach(), rmat_small.weights)
            assert ("shm.attach", "exception", 0, 0) in injector.fired
        finally:
            install_injector(None)
