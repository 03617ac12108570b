"""Process-level fault-tolerance tests: real workers, real signals.

These are the acceptance scenarios for elastic dispatch:

* authenticated rendezvous — matching keys give full parity, wrong or
  missing keys are rejected with a diagnostic ``DispatcherError`` and
  the worker keeps serving;
* heartbeat liveness — a SIGSTOPped worker is detected in bounded time
  (< 3x the heartbeat interval of observed silence), while an idle but
  beating worker is never flagged;
* retry/re-queue — SIGKILLing one of three shard workers mid-sweep
  re-queues its in-flight shards onto survivors and the merged trace
  stays bit-for-bit identical to the serial ensemble; a partitioned run
  with round-boundary checkpoints re-places the dead worker's blocks
  and replays to the exact serial result;
* failure timing windows — SIGKILL during rendezvous or mid-job
  surfaces as a clean, bounded ``DispatcherError``, never a hang.
  (Mid-frame truncation per transport is covered by test_faults.py.)
"""

import signal
import threading
import time

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer
from repro.distributed.dispatcher import (
    DispatcherError,
    HeartbeatLost,
    close_workers,
    connect_workers,
    dispatch_partitioned,
    dispatch_sharded,
)
from repro.distributed.worker import launch_worker_process
from repro.graphs.generators import torus_2d
from repro.simulation.engine import Simulator
from repro.simulation.ensemble import EnsembleSimulator
from repro.simulation.stopping import MaxRounds, Stagnation

KEY = "s3cret-rendezvous"


def spawn_worker(*extra):
    return launch_worker_process(extra_args=("--timeout", "60", *extra))


def _reap(*procs):
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        proc.wait(timeout=10)


def _wait_ready(*addrs):
    """Handshake once with every worker and hang up again.

    ``launch_worker_process`` returns before the worker is up, so a kill
    timer started at launch could land during start-up; started after
    this, it lands mid-job as the tests intend.
    """
    close_workers(connect_workers(list(addrs)))


def _kill_after(proc, delay):
    """SIGKILL ``proc`` after ``delay`` seconds; returns the Timer."""
    t = threading.Timer(delay, proc.kill)
    t.start()
    return t


class TestAuthenticatedRendezvous:
    @pytest.fixture(scope="class")
    def keyed_worker(self):
        proc, addr = spawn_worker("--authkey", KEY)
        yield addr
        _reap(proc)

    def test_matching_keys_full_parity(self, keyed_worker):
        topo = torus_2d(6, 6)
        loads = np.random.default_rng(5).uniform(0.0, 10_000.0, topo.n)
        ref = EnsembleSimulator(
            DiffusionBalancer(topo), stopping=[MaxRounds(20)], serial_singleton=False
        ).run(loads.copy(), seed=0, replicas=4)
        trace, stats = dispatch_sharded(
            DiffusionBalancer(topo), loads.copy(), [keyed_worker],
            shards=2, seed=0, replicas=4, stopping=[MaxRounds(20)],
            authkey=KEY,
        )
        assert np.array_equal(ref.final_loads, trace.final_loads)
        assert stats["auth"] is True

    def test_wrong_key_rejected_and_worker_survives(self, keyed_worker):
        with pytest.raises(DispatcherError, match="authentication failed"):
            connect_workers([keyed_worker], timeout=10.0, authkey="not-the-key")
        # The worker shrugged off the impostor and still serves.
        handles = connect_workers([keyed_worker], timeout=10.0, authkey=KEY)
        close_workers(handles)

    def test_missing_key_rejected_with_diagnostic(self, keyed_worker):
        with pytest.raises(DispatcherError, match="requires an authkey"):
            connect_workers([keyed_worker], timeout=10.0)
        handles = connect_workers([keyed_worker], timeout=10.0, authkey=KEY)
        close_workers(handles)

    def test_keyed_dispatcher_rejects_keyless_worker(self):
        proc, addr = spawn_worker()
        try:
            with pytest.raises(DispatcherError, match="no authkey"):
                connect_workers([addr], timeout=10.0, authkey=KEY)
            # Keyless rendezvous still works afterwards.
            handles = connect_workers([addr], timeout=10.0)
            close_workers(handles)
        finally:
            _reap(proc)

    def test_signed_peer_links_partitioned_parity(self):
        """Two keyed workers build an HMAC-signed block mesh; the run is
        still bit-for-bit with the serial engine."""
        procs, addrs = [], []
        for _ in range(2):
            proc, addr = spawn_worker("--authkey", KEY)
            procs.append(proc)
            addrs.append(addr)
        try:
            topo = torus_2d(6, 6)
            loads = np.random.default_rng(5).integers(0, 10_000, topo.n).astype(np.int64)
            serial = Simulator(
                DiffusionBalancer(topo, mode="discrete"), stopping=[MaxRounds(30)]
            ).run(loads.copy(), 0)
            trace, stats = dispatch_partitioned(
                DiffusionBalancer(topo, mode="discrete"), loads.copy(), addrs,
                partitions=2, stopping=[MaxRounds(30)], authkey=KEY,
            )
            assert np.array_equal(
                np.asarray(serial._last_loads, dtype=np.int64), trace.final_loads[0]
            )
            assert stats["auth"] is True
        finally:
            _reap(*procs)


class TestHeartbeatLiveness:
    HB = 0.5

    def test_sigstopped_worker_detected_within_three_intervals(self):
        proc, addr = spawn_worker()
        try:
            handles = connect_workers([addr], timeout=10.0, heartbeat=self.HB)
            h = handles[0]
            time.sleep(2.5 * self.HB)  # beats accumulate while we ignore them
            proc.send_signal(signal.SIGSTOP)
            start = time.monotonic()
            with pytest.raises(HeartbeatLost):
                h.recv(timeout=10.0)
            # Queued pre-stop beats drain instantly; detection then fires
            # after the miss budget (2 intervals) of true silence.
            assert time.monotonic() - start < 3 * self.HB
            proc.send_signal(signal.SIGCONT)
            close_workers(handles)
        finally:
            _reap(proc)

    def test_idle_beating_worker_is_never_flagged(self):
        """last_seen only refreshes when frames are read, so a dispatcher
        that ignores the channel far longer than the miss budget must not
        misread the queued (stale) beats as death."""
        proc, addr = spawn_worker()
        try:
            handles = connect_workers([addr], timeout=10.0, heartbeat=0.2)
            h = handles[0]
            time.sleep(1.5)  # ~7 intervals of unread beats
            assert h.try_recv(0.05) is None  # drains beats, no HeartbeatLost
            # And the handle still runs a real job.
            topo = torus_2d(4, 4)
            loads = np.random.default_rng(3).uniform(0.0, 100.0, topo.n)
            trace, stats = dispatch_sharded(
                DiffusionBalancer(topo), loads.copy(), handles,
                shards=2, seed=0, replicas=2, stopping=[MaxRounds(10)],
            )
            assert stats["heartbeat"] == 0.2
            close_workers(handles)
        finally:
            _reap(proc)


class TestShardedRequeue:
    def test_kill_one_of_three_workers_mid_sweep(self):
        """The acceptance chaos test: SIGKILL one of three workers while
        its shards are in flight.  The dispatcher re-queues them onto the
        survivors and the merged trace is bit-for-bit the serial one."""
        procs, addrs = [], []
        for _ in range(3):
            proc, addr = spawn_worker()
            procs.append(proc)
            addrs.append(addr)
        try:
            topo = torus_2d(48, 48)
            loads = np.random.default_rng(5).uniform(0.0, 10_000.0, topo.n)
            B, K, R = 6, 6, 15_000  # ~0.8 s per shard: a wide kill window
            ref = EnsembleSimulator(
                DiffusionBalancer(topo), stopping=[MaxRounds(R)], serial_singleton=False
            ).run(loads.copy(), seed=0, replicas=B)
            _wait_ready(*addrs)
            killer = _kill_after(procs[0], 0.4)
            start = time.monotonic()
            try:
                trace, stats = dispatch_sharded(
                    DiffusionBalancer(topo), loads.copy(), addrs,
                    shards=K, seed=0, replicas=B, stopping=[MaxRounds(R)],
                    timeout=120.0,
                )
            finally:
                killer.cancel()
            assert time.monotonic() - start < 120.0
            assert np.array_equal(ref.final_loads, trace.final_loads)
            assert trace.replicas == B
            assert stats["retries"] >= 1
            assert stats["requeued_shards"] >= 1
            # Only survivors appear in the completion map.
            assert addrs[0] not in stats["shards_by_worker"]
            assert sum(len(v) for v in stats["shards_by_worker"].values()) == K
        finally:
            _reap(*procs)

    def test_all_workers_lost_is_a_clean_bounded_error(self):
        proc, addr = spawn_worker()
        try:
            topo = torus_2d(48, 48)
            loads = np.random.default_rng(5).uniform(0.0, 10_000.0, topo.n)
            _wait_ready(addr)
            killer = _kill_after(proc, 0.4)
            start = time.monotonic()
            try:
                with pytest.raises(DispatcherError, match="all workers lost|retry budget"):
                    dispatch_sharded(
                        DiffusionBalancer(topo), loads.copy(), [addr],
                        shards=2, seed=0, replicas=2,
                        stopping=[MaxRounds(15_000)], timeout=60.0,
                    )
            finally:
                killer.cancel()
            assert time.monotonic() - start < 60.0, "death must not hang the loop"
        finally:
            _reap(proc)


class TestPartitionedCheckpointRecovery:
    def test_kill_one_block_worker_recovers_from_checkpoint(self):
        """checkpoint_every snapshots at round boundaries; killing a block
        worker mid-run re-places its blocks on the survivor, replays from
        the last checkpoint, and the final loads match the serial engine
        exactly."""
        procs, addrs = [], []
        for _ in range(2):
            proc, addr = spawn_worker()
            procs.append(proc)
            addrs.append(addr)
        try:
            topo = torus_2d(16, 16)
            loads = np.random.default_rng(5).integers(0, 10_000, topo.n).astype(np.int64)
            R = 20_000
            serial = Simulator(
                DiffusionBalancer(topo, mode="discrete"), stopping=[MaxRounds(R)]
            ).run(loads.copy(), 0)
            _wait_ready(*addrs)
            killer = _kill_after(procs[1], 1.0)
            start = time.monotonic()
            try:
                trace, stats = dispatch_partitioned(
                    DiffusionBalancer(topo, mode="discrete"), loads.copy(), addrs,
                    partitions=2, stopping=[MaxRounds(R)],
                    checkpoint_every=2_000, timeout=120.0,
                )
            finally:
                killer.cancel()
            assert time.monotonic() - start < 120.0
            assert np.array_equal(
                np.asarray(serial._last_loads, dtype=np.int64), trace.final_loads[0]
            )
            assert stats["rounds"] == R
            assert stats["retries"] >= 1
            assert stats["requeued_blocks"] >= 1
            assert stats["checkpoint_every"] == 2_000
        finally:
            _reap(*procs)


    @pytest.mark.parametrize("when", ["after-rewind", "during-rewind"])
    def test_kill_around_a_mid_chunk_rewind(self, monkeypatch, when):
        """A replica stops inside a speculative chunk, the blocks rewind,
        and a worker is SIGKILLed right after (or right before) that
        rewind.  Recovery rebuilds from the last checkpoint, whose replay
        log holds the rewound chunk as the rounds it committed, so the
        run stays bit-for-bit with the global engine."""
        from repro.distributed.dispatcher import _RemoteBlockExecutor

        procs, addrs = [], []
        for _ in range(2):
            proc, addr = spawn_worker()
            procs.append(proc)
            addrs.append(addr)
        topo = torus_2d(8, 8)
        rng = np.random.default_rng(3)
        batch = np.stack(
            [rng.integers(0, 10 ** (3 + b), topo.n) for b in range(3)]
        ).astype(np.int64)
        rules = lambda: [Stagnation(5), MaxRounds(2_000)]
        expected = EnsembleSimulator(
            DiffusionBalancer(topo, mode="discrete"), stopping=rules(),
            serial_singleton=False,
        ).run(batch.copy(), seed=0)
        logs = []
        real_rewind = _RemoteBlockExecutor.rewind

        def rewind_then_kill(self, rounds, frozen):
            if logs:
                return real_rewind(self, rounds, frozen)
            granted = self._chunk
            if when == "after-rewind":
                real_rewind(self, rounds, frozen)
            procs[1].kill()
            procs[1].wait(timeout=10)
            if when == "during-rewind":
                real_rewind(self, rounds, frozen)
            logs.append((granted, rounds, list(self._replay)))

        monkeypatch.setattr(_RemoteBlockExecutor, "rewind", rewind_then_kill)
        try:
            trace, stats = dispatch_partitioned(
                DiffusionBalancer(topo, mode="discrete"), batch.copy(), addrs,
                partitions=2, stopping=rules(), checkpoint_every=50, timeout=60.0,
            )
            granted, committed, replay = logs[0]
            assert committed < granted
            # The log ends with the rewound chunk, as the rounds it committed.
            assert replay[-1][0] == committed
            assert np.array_equal(trace.final_loads, expected.final_loads)
            assert np.array_equal(trace.rounds_vector, expected.rounds_vector)
            assert trace.stopped_by == expected.stopped_by
            assert stats["retries"] >= 1
            assert stats["requeued_blocks"] >= 1
        finally:
            _reap(*procs)


class TestFailureTimingWindows:
    def test_sigkill_during_rendezvous_is_bounded(self):
        proc, addr = spawn_worker()
        proc.kill()
        proc.wait(timeout=10)
        start = time.monotonic()
        with pytest.raises(DispatcherError, match="cannot reach"):
            connect_workers([addr], timeout=5.0)
        assert time.monotonic() - start < 20.0

    def test_sigkill_mid_job_without_retry_aborts_cleanly(self):
        """Partitioned dispatch *without* checkpoints keeps the PR-6
        abort contract: a clean DispatcherError naming the dead worker,
        never a hang."""
        procs, addrs = [], []
        for _ in range(2):
            proc, addr = spawn_worker()
            procs.append(proc)
            addrs.append(addr)
        try:
            topo = torus_2d(16, 16)
            loads = np.random.default_rng(5).integers(0, 10_000, topo.n).astype(np.int64)
            _wait_ready(*addrs)
            killer = _kill_after(procs[0], 1.0)
            start = time.monotonic()
            try:
                with pytest.raises(DispatcherError, match="died|failed"):
                    dispatch_partitioned(
                        DiffusionBalancer(topo, mode="discrete"), loads.copy(), addrs,
                        partitions=2, stopping=[MaxRounds(20_000)], timeout=60.0,
                    )
            finally:
                killer.cancel()
            assert time.monotonic() - start < 60.0
        finally:
            _reap(*procs)
