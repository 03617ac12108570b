"""End-to-end dispatcher tests: real ``repro-lb worker`` subprocesses.

The acceptance property: partitioned and sharded runs dispatched over
the ``tcp`` transport to 2+ workers on loopback produce load
trajectories **bit-for-bit identical** to the serial
:class:`Simulator` / :class:`EnsembleSimulator`, across schemes,
P ∈ {2, 4} and K ∈ {2, 4}; and a worker dying mid-run aborts the
dispatch cleanly — nonzero/diagnostic, never a hang.
"""

import re
import signal
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.baselines.first_order import FirstOrderBalancer
from repro.core.diffusion import DiffusionBalancer
from repro.distributed.dispatcher import (
    DispatcherError,
    close_workers,
    connect_workers,
    dispatch_partitioned,
    dispatch_sharded,
)
from repro.distributed.transport import PROTOCOL_VERSION, parse_address, tcp_connect
from repro.distributed.worker import launch_worker_process
from repro.graphs.dynamic import EdgeSamplingDynamics
from repro.graphs.generators import torus_2d
from repro.simulation.engine import Simulator
from repro.simulation.ensemble import EnsembleSimulator
from repro.simulation.partitioned import PartitionedSimulator
from repro.simulation.stopping import MaxRounds, PotentialFractionBelow, Stagnation

ROUNDS = 20


def spawn_worker():
    """Launch ``repro-lb worker`` on an ephemeral port; returns (proc, addr)."""
    return launch_worker_process(extra_args=("--timeout", "60"))


@pytest.fixture(scope="module")
def workers():
    """Two long-lived worker processes shared by the parity tests."""
    procs, addrs = [], []
    for _ in range(2):
        proc, addr = spawn_worker()
        procs.append(proc)
        addrs.append(addr)
    yield addrs
    for proc in procs:
        proc.terminate()
    for proc in procs:
        proc.wait(timeout=10)


def _loads(topo, discrete, seed=5):
    rng = np.random.default_rng(seed)
    if discrete:
        return rng.integers(0, 10_000, topo.n).astype(np.int64)
    return rng.uniform(0.0, 10_000.0, topo.n)


def _serial_snapshots(balancer, loads, rounds=ROUNDS):
    trace = Simulator(balancer, stopping=[MaxRounds(rounds)], keep_snapshots=True).run(loads, 0)
    return [np.asarray(s) for s in trace._snapshots]


BALANCER_FACTORIES = [
    ("diffusion-cont", lambda net: DiffusionBalancer(net), False),
    ("diffusion-disc", lambda net: DiffusionBalancer(net, mode="discrete"), True),
    ("fos", lambda net: FirstOrderBalancer(net), False),
]


class TestPartitionedDispatchParity:
    """Remote partitioned runs == serial engine, bit for bit."""

    @pytest.fixture(scope="class")
    def topo(self):
        return torus_2d(6, 6)

    @pytest.mark.parametrize("label,factory,discrete", BALANCER_FACTORIES,
                             ids=[b[0] for b in BALANCER_FACTORIES])
    @pytest.mark.parametrize("P", [2, 4])
    def test_matches_serial(self, workers, topo, label, factory, discrete, P):
        loads = _loads(topo, discrete)
        expected = _serial_snapshots(factory(topo), loads.copy())
        trace, stats = dispatch_partitioned(
            factory(topo), loads.copy(), workers,
            partitions=P, strategy="bfs",
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True,
        )
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"
        assert stats["rounds"] == ROUNDS
        assert stats["blocks"] == P
        assert stats["halo_values"] > 0
        assert stats["halo_bytes"] > 0
        assert sorted(stats["workers"]) == sorted(workers)
        # P=4 over 2 workers: each worker hosts 2 thread-driven blocks.
        hosted = [b for blocks in stats["blocks_by_worker"].values() for b in blocks]
        assert sorted(hosted) == list(range(P))

    def test_dynamic_edge_failures_over_tcp(self, workers):
        """The cut set changes per round; the dispatched pairwise
        protocol must not desync (satellite: dynamic topologies over the
        tcp transport)."""
        base = torus_2d(6, 6)
        loads = _loads(base, discrete=True)
        make = lambda: DiffusionBalancer(EdgeSamplingDynamics(base, p=0.6, seed=9), mode="discrete")
        expected = _serial_snapshots(make(), loads.copy())
        trace, stats = dispatch_partitioned(
            make(), loads.copy(), workers,
            partitions=4, stopping=[MaxRounds(ROUNDS)], keep_snapshots=True,
        )
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"
        assert stats["halo_values"] > 0

    def test_replicas_compose_with_blocks(self, workers):
        """(n_block, B) slabs travel the wire; ensemble parity holds."""
        topo = torus_2d(6, 6)
        B = 4
        rng = np.random.default_rng(11)
        batch = rng.integers(0, 10_000, (B, topo.n)).astype(np.int64)
        make = lambda: DiffusionBalancer(topo, mode="discrete")
        ens = EnsembleSimulator(
            make(), stopping=[MaxRounds(15)], keep_snapshots=True, serial_singleton=False
        ).run(batch.copy(), seed=0)
        trace, _ = dispatch_partitioned(
            make(), batch.copy(), workers,
            partitions=3, stopping=[MaxRounds(15)], keep_snapshots=True,
        )
        assert np.array_equal(ens.final_loads, trace.final_loads)
        for t in range(ens.recorded_states):
            assert np.array_equal(ens.snapshots[t], trace.snapshots[t]), f"round {t}"

    def test_free_running_chunks_final_loads(self, workers):
        """Pure MaxRounds stopping free-runs remote workers; final loads
        still match the serial run exactly."""
        topo = torus_2d(6, 6)
        loads = _loads(topo, discrete=True)
        serial = Simulator(
            DiffusionBalancer(topo, mode="discrete"), stopping=[MaxRounds(40)]
        ).run(loads.copy(), 0)
        trace, stats = dispatch_partitioned(
            DiffusionBalancer(topo, mode="discrete"), loads.copy(), workers,
            partitions=4, stopping=[MaxRounds(40)],
        )
        assert stats["rounds"] == 40
        assert np.array_equal(
            np.asarray(serial._last_loads, dtype=np.int64), trace.final_loads[0]
        )


def _staggered_batch(topo, B=4, seed=3):
    """Discrete replicas at different load scales: each stopping rule
    fires for them at a different round."""
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.integers(0, 10 ** (3 + b), topo.n) for b in range(B)]
    ).astype(np.int64)


SPECULATIVE_RULES = {
    "fraction": lambda: [PotentialFractionBelow(1e-3), MaxRounds(400)],
    "stagnation": lambda: [Stagnation(5), MaxRounds(2_000)],
}


class TestSpeculativeRewind:
    """Dispatched runs grant speculative chunks and rewind mid-chunk
    stops over the workers' tcp links: every committed row is the
    in-process run's, bit for bit."""

    @pytest.fixture(scope="class")
    def topo(self):
        return torus_2d(8, 8)

    def _inprocess(self, topo, rules):
        return PartitionedSimulator(
            DiffusionBalancer(topo, mode="discrete"), partitions=4,
            stopping=rules,
        ).run(_staggered_batch(topo))

    @pytest.mark.parametrize("rules", sorted(SPECULATIVE_RULES))
    def test_staggered_stops_match_inprocess(self, workers, topo, rules):
        expected = self._inprocess(topo, SPECULATIVE_RULES[rules]())
        trace, stats = dispatch_partitioned(
            DiffusionBalancer(topo, mode="discrete"), _staggered_batch(topo), workers,
            partitions=4, stopping=SPECULATIVE_RULES[rules](),
        )
        assert len(set(expected.rounds_vector.tolist())) > 1
        assert np.array_equal(trace.rounds_vector, expected.rounds_vector)
        assert trace.stopped_by == expected.stopped_by
        assert np.array_equal(trace.final_loads, expected.final_loads)
        assert np.array_equal(trace.potentials_matrix, expected.potentials_matrix)
        assert stats["rounds"] == trace.rounds
        assert stats["chunks"] < trace.rounds
        if rules == "stagnation":
            assert stats["replayed_rounds"] > 0

    def test_halo_stats_match_lockstep(self, workers, topo, monkeypatch):
        def run():
            return dispatch_partitioned(
                DiffusionBalancer(topo, mode="discrete"), _staggered_batch(topo), workers,
                partitions=4, stopping=SPECULATIVE_RULES["stagnation"](),
            )

        speculative, spec = run()
        monkeypatch.setattr(PartitionedSimulator, "_chunk_rounds",
                            lambda self, trace, active: 1)
        lockstep, lock = run()
        assert np.array_equal(speculative.final_loads, lockstep.final_loads)
        assert np.array_equal(speculative.rounds_vector, lockstep.rounds_vector)
        for key in ("rounds", "halo_values", "halo_bytes", "links"):
            assert spec[key] == lock[key], key
        assert spec["replayed_rounds"] > 0 and lock["replayed_rounds"] == 0
        assert lock["chunks"] == lockstep.rounds > spec["chunks"]


class TestShardedDispatchParity:
    """Remote shard runs == local sharded == single-process ensemble."""

    @pytest.mark.parametrize("K", [2, 4])
    def test_matches_ensemble(self, workers, K):
        topo = torus_2d(6, 6)
        loads = _loads(topo, discrete=False)
        B = 8
        ref = EnsembleSimulator(
            DiffusionBalancer(topo), stopping=[MaxRounds(ROUNDS)], serial_singleton=False
        ).run(loads.copy(), seed=0, replicas=B)
        trace, stats = dispatch_sharded(
            DiffusionBalancer(topo), loads.copy(), workers,
            shards=K, seed=0, replicas=B, stopping=[MaxRounds(ROUNDS)],
        )
        assert np.array_equal(ref.final_loads, trace.final_loads)
        assert trace.replicas == B
        assert stats["shards"] == K
        dealt = [s for shard_ids in stats["shards_by_worker"].values() for s in shard_ids]
        assert sorted(dealt) == list(range(K))

    def test_single_shard_matches_local_unsharded_run_exactly(self, workers):
        """A dispatch handing one worker the whole batch must reproduce
        the local unsharded path bit for bit — statistics included (the
        whole-batch payload keeps the engine's default dispatch)."""
        from repro.simulation.sharding import run_sharded_ensemble

        topo = torus_2d(5, 5)
        loads = _loads(topo, discrete=False)
        local = run_sharded_ensemble(
            DiffusionBalancer(topo), loads.copy(), seed=2, replicas=1, workers=1,
            stopping=[MaxRounds(10)],
        )
        remote, stats = dispatch_sharded(
            DiffusionBalancer(topo), loads.copy(), [workers[0]],
            shards=1, seed=2, replicas=1, stopping=[MaxRounds(10)],
        )
        assert stats["shards"] == 1
        assert np.array_equal(local.final_loads, remote.final_loads)
        assert np.array_equal(local.potentials_matrix, remote.potentials_matrix)

    def test_default_one_shard_per_worker(self, workers):
        topo = torus_2d(4, 4)
        loads = _loads(topo, discrete=True)
        trace, stats = dispatch_sharded(
            DiffusionBalancer(topo, mode="discrete"), loads.copy(), workers,
            seed=0, replicas=4, stopping=[MaxRounds(5)],
        )
        assert stats["shards"] == len(workers)
        assert trace.replicas == 4


class TestRendezvous:
    def test_preconnected_handles_reusable_across_dispatches(self, workers):
        """connect_workers handles survive several dispatch_* calls: a
        dispatcher connection is handshaken once and streams jobs."""
        topo = torus_2d(4, 4)
        loads = _loads(topo, discrete=True)
        handles = connect_workers(workers)
        try:
            _, stats1 = dispatch_partitioned(
                DiffusionBalancer(topo, mode="discrete"), loads, handles,
                partitions=2, stopping=[MaxRounds(5)],
            )
            _, stats2 = dispatch_sharded(
                DiffusionBalancer(topo, mode="discrete"), loads, handles,
                seed=0, replicas=4, stopping=[MaxRounds(5)],
            )
            _, stats3 = dispatch_partitioned(
                DiffusionBalancer(topo, mode="discrete"), loads, handles,
                partitions=2, stopping=[MaxRounds(5)],
            )
            assert stats1["rounds"] == stats3["rounds"] == 5
            assert stats2["shards"] == len(workers)
        finally:
            close_workers(handles)

    def test_connect_workers_info(self, workers):
        handles = connect_workers(workers)
        try:
            for handle in handles:
                assert handle.info["version"] == PROTOCOL_VERSION
                assert handle.peer_address[1] > 0
                assert handle.info["pid"] > 0
        finally:
            close_workers(handles)

    def test_advertise_host_overrides_control_route(self):
        """--advertise fixes mixed-routing clusters: peers dial the
        advertised host, not the one the dispatcher happened to use."""
        proc, addr = launch_worker_process(
            bind="0.0.0.0:0", extra_args=("--advertise", "127.0.0.1")
        )
        try:
            # The announced control host is the wildcard bind; reach it
            # via loopback like a colocated dispatcher would.
            port = addr.rsplit(":", 1)[1]
            handles = connect_workers([f"127.0.0.1:{port}"])
            try:
                assert handles[0].peer_address[0] == "127.0.0.1"
                assert handles[0].info["advertise_host"] == "127.0.0.1"
            finally:
                close_workers(handles)
            # A full dispatch through the wildcard-bound worker works.
            topo = torus_2d(4, 4)
            _, stats = dispatch_partitioned(
                DiffusionBalancer(topo, mode="discrete"),
                _loads(topo, discrete=True), [f"127.0.0.1:{port}"],
                partitions=2, stopping=[MaxRounds(5)],
            )
            assert stats["rounds"] == 5
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_unreachable_worker_fails_fast(self):
        with pytest.raises(DispatcherError, match="cannot reach worker"):
            connect_workers(["127.0.0.1:1"], timeout=2.0)

    def test_malformed_clients_do_not_kill_the_server(self, workers):
        """Raw junk bytes, a truncated hello, and a non-dict job spec
        must each be rejected without taking the server down."""
        import socket as socketlib
        import struct

        host, port = parse_address(workers[0])
        # 1: junk that frames as an unpicklable payload.
        raw = socketlib.create_connection((host, port), timeout=10)
        raw.sendall(struct.pack(">Q", 4) + b"\x00junk"[:4])
        raw.close()
        # 2: a hello tuple with no version field.
        channel = tcp_connect(parse_address(workers[0]))
        channel.send(("hello",))
        reply = channel.recv(timeout=10.0)
        assert reply[0] == "error" and "hello" in reply[1]
        channel.close()
        # 3: a job whose spec is not a dict.
        channel = tcp_connect(parse_address(workers[0]))
        channel.send(("hello", PROTOCOL_VERSION))
        assert channel.recv(timeout=10.0)[0] == "ready"
        channel.send(("job", "not-a-spec"))
        reply = channel.recv(timeout=10.0)
        assert reply[0] == "error"
        channel.close()
        # The server survived all three: a real dispatch still works.
        topo = torus_2d(4, 4)
        _, stats = dispatch_partitioned(
            DiffusionBalancer(topo, mode="discrete"), _loads(topo, discrete=True),
            [workers[0]], partitions=2, stopping=[MaxRounds(3)],
        )
        assert stats["rounds"] == 3

    def test_version_mismatch_refused(self, workers):
        channel = tcp_connect(parse_address(workers[0]))
        try:
            channel.send(("hello", PROTOCOL_VERSION + 999))
            reply = channel.recv(timeout=10.0)
            assert reply[0] == "error" and "version" in reply[1]
        finally:
            channel.close()

    def test_previous_protocol_version_refused(self, workers):
        """A dispatcher that would still ship positional block payloads
        (protocol 4) is refused at hello, before any job arrives."""
        assert PROTOCOL_VERSION == 6
        channel = tcp_connect(parse_address(workers[0]))
        try:
            channel.send(("hello", 4, {}))
            reply = channel.recv(timeout=10.0)
            assert reply[0] == "error" and "version" in reply[1]
        finally:
            channel.close()

    def test_positional_shard_protocol_refused(self, workers):
        """A dispatcher that would still ship positional shard payloads
        (protocol 5) is refused at hello, before any job arrives."""
        channel = tcp_connect(parse_address(workers[0]))
        try:
            channel.send(("hello", PROTOCOL_VERSION - 1, {}))
            reply = channel.recv(timeout=10.0)
            assert reply[0] == "error" and "version" in reply[1]
        finally:
            channel.close()

    def test_no_workers_rejected(self):
        topo = torus_2d(4, 4)
        with pytest.raises(DispatcherError, match="at least one worker"):
            dispatch_sharded(DiffusionBalancer(topo), np.ones(topo.n), [])

    def test_duplicate_worker_addresses_rejected_upfront(self):
        """A worker serves one dispatcher connection at a time, so a
        duplicated address would block until timeout — reject the
        copy-paste input with a diagnostic instead (no network needed)."""
        with pytest.raises(DispatcherError, match="duplicate worker address"):
            connect_workers(["127.0.0.1:7101", "127.0.0.1:7101"])

    def test_nonpositive_shards_rejected(self, workers):
        topo = torus_2d(4, 4)
        with pytest.raises(ValueError, match="shards must be >= 1"):
            dispatch_sharded(
                DiffusionBalancer(topo), np.ones(topo.n, dtype=np.int64), workers,
                shards=0, replicas=4, stopping=[MaxRounds(2)],
            )

    def test_max_jobs_counts_jobs_not_connections(self):
        """--max-jobs 1: a junk handshake counts zero, the real job
        counts one, and the worker exits after serving it."""
        proc, addr = launch_worker_process(extra_args=("--max-jobs", "1"))
        try:
            bad = tcp_connect(parse_address(addr))
            bad.send("not-a-hello-tuple")
            bad.close()
            topo = torus_2d(4, 4)
            _, stats = dispatch_partitioned(
                DiffusionBalancer(topo, mode="discrete"), _loads(topo, discrete=True),
                [addr], partitions=2, stopping=[MaxRounds(3)],
            )
            assert stats["rounds"] == 3
            assert proc.wait(timeout=15) == 0  # limit reached -> clean exit
        finally:
            proc.terminate()


class TestHandshakeCap:
    """A keyless peer's oversized hello is refused before the worker
    allocates what it declares; the worker logs it and keeps serving."""

    @pytest.mark.parametrize("authkey", [None, "handshake-cap-key"], ids=["default-key", "explicit-key"])
    def test_oversized_hello_rejected_then_dispatch_served(self, authkey):
        import re
        import socket as socketlib

        from repro.distributed import transport
        from repro.distributed.worker import serve

        lines: list[str] = []
        started = threading.Event()

        def log(line):
            lines.append(line)
            started.set()

        # authkey=None serves with REPRO_AUTHKEY when it is set.
        server = threading.Thread(
            target=serve, kwargs={"max_jobs": 1, "timeout": 30.0, "authkey": authkey, "log": log},
            daemon=True,
        )
        server.start()
        assert started.wait(10.0)
        addr = re.search(r"listening on (\S+?:\d+)", lines[0]).group(1)
        declared = 64 << 20
        head = transport.HEAD_FIXED.pack(0, declared, 1 << 16)
        raw = socketlib.create_connection(parse_address(addr), timeout=10)
        try:
            stranger = "%s:%d" % raw.getsockname()[:2]
            raw.sendall(transport._HEAD_PREFIX.pack(len(head)) + head)
            # The worker drops the connection: EOF, not a challenge.
            assert raw.recv(1) == b""
        finally:
            raw.close()
        assert any(str(declared) in line and "MAX_HANDSHAKE_BYTES" in line for line in lines)
        # Logged as the stranger's refused hello, not a lost dispatcher.
        refused = [line for line in lines if str(declared) in line]
        assert refused[0].startswith(f"worker: rejected handshake from {stranger}: ")
        assert not any("connection lost" in line for line in lines)
        topo = torus_2d(4, 4)
        _, stats = dispatch_partitioned(
            DiffusionBalancer(topo, mode="discrete"), _loads(topo, discrete=True),
            [addr], partitions=2, stopping=[MaxRounds(3)], authkey=authkey,
        )
        assert stats["rounds"] == 3
        server.join(timeout=15)
        assert not server.is_alive()


class TestLaunchHandoff:
    """``launch_worker_process`` binds the control port, hands the
    listening socket to the worker and returns at once; the start-up
    wait moves into ``connect_workers``."""

    def test_launch_returns_before_the_worker_is_up(self, tmp_path, monkeypatch):
        wrapper = tmp_path / "python"
        wrapper.write_text(f'#!/bin/sh\nsleep 2\nexec "{sys.executable}" "$@"\n')
        wrapper.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(wrapper))
        start = time.monotonic()
        proc, addr = spawn_worker()
        try:
            assert time.monotonic() - start < 1.0
            handles = connect_workers([addr])
            try:
                assert handles[0].info["pid"] == proc.pid
            finally:
                close_workers(handles)
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_worker_failing_at_startup_is_a_named_dispatcher_error(self):
        proc, addr = launch_worker_process(extra_args=("--no-such-flag",))
        try:
            start = time.monotonic()
            with pytest.raises(DispatcherError, match=re.escape(addr)):
                connect_workers([addr], timeout=10.0)
            assert time.monotonic() - start < 5.0
            assert proc.wait(timeout=10) != 0
            # The cause is not in the error; the worker's output tail has it.
            deadline = time.monotonic() + 5.0
            while not any("--no-such-flag" in line for line in proc.log_tail):
                assert time.monotonic() < deadline, list(proc.log_tail)
                time.sleep(0.05)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)

    def test_killed_worker_refuses_connects(self):
        """The launcher keeps no copy of the listener: once the worker is
        gone a connect is refused, not queued in an orphaned backlog."""
        proc, addr = spawn_worker()
        try:
            close_workers(connect_workers([addr]))
        finally:
            proc.kill()
            proc.wait(timeout=10)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(parse_address(addr), timeout=5).close()


class TestWorkerFailure:
    def test_worker_death_aborts_cleanly(self):
        """SIGKILL one of two workers mid-run: the dispatcher must raise
        a diagnostic DispatcherError promptly — no hang — and the
        surviving worker must accept the next job."""
        proc1, addr1 = spawn_worker()
        proc2, addr2 = spawn_worker()
        try:
            topo = torus_2d(8, 8)
            loads = _loads(topo, discrete=True, seed=1)
            outcome = {}

            def run():
                try:
                    # A threshold no discrete trajectory reaches: the run
                    # only ends when the dispatch is aborted.
                    dispatch_partitioned(
                        DiffusionBalancer(topo, mode="discrete"), loads, [addr1, addr2],
                        partitions=2,
                        stopping=[PotentialFractionBelow(1e-300), MaxRounds(10_000_000)],
                        timeout=60.0,
                    )
                    outcome["result"] = "completed"
                except DispatcherError as exc:
                    outcome["result"] = f"error: {exc}"

            # The launch returns before the workers are up: handshake
            # first, so the kill lands mid-run rather than in start-up.
            close_workers(connect_workers([addr1, addr2]))
            thread = threading.Thread(target=run)
            thread.start()
            time.sleep(1.0)
            proc2.send_signal(signal.SIGKILL)
            thread.join(timeout=30)
            assert not thread.is_alive(), "dispatcher hung after worker death"
            assert outcome["result"].startswith("error:"), outcome
            # Survivor still serves.
            trace, stats = dispatch_partitioned(
                DiffusionBalancer(topo, mode="discrete"), loads, [addr1],
                partitions=2, stopping=[MaxRounds(5)],
            )
            assert stats["rounds"] == 5
        finally:
            proc1.terminate()
            proc2.wait(timeout=10)
            proc1.wait(timeout=10)


class TestDispatchCLI:
    def test_cli_dispatch_partitioned_and_sharded(self, workers, capsys):
        from repro.cli import main

        rc = main([
            "dispatch", "--workers", *workers, "--balancer", "diffusion-discrete",
            "--topology", "torus:6x6", "--rounds", "10", "--partitions", "4",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "4 block(s)" in out and "halo values" in out and "B/round" in out
        rc = main([
            "dispatch", "--workers", *workers, "--balancer", "diffusion",
            "--topology", "torus:6x6", "--rounds", "10", "--replicas", "4",
            "--shards", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 shard(s)" in out

    def test_cli_dispatch_dead_address_exits_nonzero(self, capsys):
        from repro.cli import main

        rc = main([
            "dispatch", "--workers", "127.0.0.1:1", "--balancer", "diffusion",
            "--topology", "torus:4x4", "--rounds", "5", "--timeout", "2",
        ])
        assert rc == 1
        assert "dispatch failed" in capsys.readouterr().err

    def test_cli_dispatch_exclusive_axes(self, capsys):
        from repro.cli import main

        rc = main([
            "dispatch", "--workers", "127.0.0.1:1", "--balancer", "diffusion",
            "--topology", "torus:4x4", "--partitions", "2", "--shards", "2",
        ])
        assert rc == 2
        assert "exclusive" in capsys.readouterr().err
