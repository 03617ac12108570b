"""End-to-end telemetry over tcp: traced dispatch stays bit-for-bit,
the merged trace validates against the schema, and the opt-in stats
frames never confuse a peer (protocol-4 compatibility)."""

import time

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer
from repro.distributed.dispatcher import (
    WorkerHandle,
    close_workers,
    connect_workers,
    dispatch_partitioned,
    dispatch_sharded,
)
from repro.distributed.worker import launch_worker_process
from repro.graphs.generators import torus_2d
from repro.observability import (
    Recorder,
    load_trace,
    set_recorder,
    trace_report,
    validate_trace,
)
from repro.simulation.engine import Simulator
from repro.simulation.stopping import MaxRounds

ROUNDS = 12


@pytest.fixture(scope="module")
def workers():
    procs, addrs = [], []
    for _ in range(2):
        proc, addr = launch_worker_process(extra_args=("--timeout", "60"))
        procs.append(proc)
        addrs.append(addr)
    yield addrs
    for proc in procs:
        proc.terminate()
    for proc in procs:
        proc.wait(timeout=10)


@pytest.fixture(autouse=True)
def _restore_global_recorder():
    yield
    set_recorder(None)


def _loads(topo, seed=5):
    return np.random.default_rng(seed).uniform(0.0, 10_000.0, topo.n)


class TestTracedDispatchParity:
    def test_partitioned_trace_schema_and_parity(self, workers, tmp_path):
        """The acceptance scenario: a 2-worker tcp partitioned run with
        tracing on equals the untraced serial engine bit for bit, and
        the merged trace validates and covers every phase/link."""
        topo = torus_2d(6, 6)
        loads = _loads(topo)
        serial = Simulator(
            DiffusionBalancer(topo), stopping=[MaxRounds(ROUNDS)],
            keep_snapshots=True).run(loads.copy(), 0)
        expected = [np.asarray(s) for s in serial._snapshots]

        path = str(tmp_path / "dispatch.jsonl")
        set_recorder(Recorder(enabled=True, path=path, role="dispatcher"))
        trace, stats = dispatch_partitioned(
            DiffusionBalancer(topo), loads.copy(), workers,
            partitions=4, strategy="bfs",
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True,
            stats_interval=0.05,
        )
        rec = set_recorder(None)
        rec.close()

        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"

        events = load_trace(path)
        assert validate_trace(events) == []
        spans = [ev for ev in events if ev.get("ev") == "span"]
        names = {ev["name"] for ev in spans}
        assert {"interior", "boundary", "halo_send", "halo_wait", "chunk"} <= names

        # Every worker-phase span carries the worker label the
        # dispatcher stamped at ingest; each maps to a roster address.
        phase_spans = [ev for ev in spans
                       if ev["name"] in ("interior", "halo_send", "halo_wait")]
        assert phase_spans
        assert {ev["worker"] for ev in phase_spans} == set(stats["workers"])

        report = trace_report(events)
        assert report["rounds"] == ROUNDS
        assert set(report["workers"]) == set(stats["workers"])
        for w in report["workers"].values():
            assert 0.999 < sum(w["share"].values()) < 1.001
        # Per-link bytes in the trace equal the transport's own count.
        for link, nbytes in stats["links"].items():
            if nbytes:
                assert report["links"][link]["bytes"] == nbytes
                assert report["links"][link]["wait_s"] >= 0.0

    def test_untraced_dispatch_sends_no_events(self, workers):
        """Telemetry off (the default recorder) — the payload flag is
        false, workers skip the traced round entirely."""
        topo = torus_2d(6, 6)
        trace, stats = dispatch_partitioned(
            DiffusionBalancer(topo), _loads(topo), workers,
            partitions=2, stopping=[MaxRounds(ROUNDS)],
        )
        assert stats["rounds"] == ROUNDS


class TestStatsFrameProtocol:
    def test_consume_aside_shapes(self):
        """The three ``"stats"``-tagged frame shapes stay disjoint:
        only the unsolicited 3-tuple progress frame is consumed."""
        h = WorkerHandle(address=("127.0.0.1", 1), channel=None)
        assert h._consume_aside(("hb", 1)) is True
        assert h.hb_count == 1
        # Unsolicited progress frame: consumed, latest-seq wins.
        assert h._consume_aside(("stats", 1, {"rounds_done": 3})) is True
        assert h._consume_aside(("stats", 0, {"rounds_done": 1})) is True
        assert h.stats == {"rounds_done": 3} and h.stats_seq == 1
        # Block chunk reply (4/5-tuple, msg[1] a list): NOT consumed.
        assert h._consume_aside(("stats", [1.0], {}, {})) is False
        assert h._consume_aside(("stats", [1.0], {}, {}, [])) is False
        # Merged partition reply (2-tuple): NOT consumed.
        assert h._consume_aside(("stats", {0: ([], {}, {})})) is False
        assert h._consume_aside(("ok",)) is False
        assert h._consume_aside("hb") is False

    def test_liveness_summary(self):
        h = WorkerHandle(address=("127.0.0.1", 1), channel=None)
        for _ in range(3):
            h._consume_aside(("hb", 0))
            time.sleep(0.01)
        live = h.liveness()
        assert live["hb_count"] == 3
        assert live["last_seen_age_s"] >= 0.0
        assert live["hb_interval_mean_s"] > 0.0
        assert (live["hb_interval_min_s"] <= live["hb_interval_mean_s"]
                <= live["hb_interval_max_s"])

    def test_worker_streams_stats_only_when_asked(self, workers):
        """Protocol compat: a peer that didn't request stats never sees
        a stats frame; one that did gets monotonically-sequenced
        snapshots without corrupting job replies."""
        plain = connect_workers([workers[0]], timeout=10.0)
        asked = connect_workers([workers[1]], timeout=10.0,
                                stats_interval=0.05)
        try:
            assert plain[0].info.get("stats") is None
            assert asked[0].info.get("stats") == pytest.approx(0.05)
            time.sleep(0.3)
            # Drain pending frames: aside frames (hb/stats) are consumed
            # inside try_recv and report as None; a job frame would leak
            # through and fail the assertion.
            for h in (plain[0], asked[0]):
                for _ in range(10):
                    assert h.try_recv(0.01) is None
            assert plain[0].stats is None
            assert asked[0].stats is not None
            snap = asked[0].stats
            assert {"uptime_s", "jobs_accepted", "jobs_done", "rounds_done",
                    "busy_s", "phase_s"} <= set(snap)
        finally:
            close_workers(plain + asked)

    def test_sharded_dispatch_with_stats_frames(self, workers):
        """Stats frames interleave with shard replies; the event loop
        must route around them and liveness must reach the stats dict."""
        topo = torus_2d(6, 6)
        loads = _loads(topo)
        from repro.simulation.ensemble import EnsembleSimulator

        ens = EnsembleSimulator(
            DiffusionBalancer(topo), stopping=[MaxRounds(ROUNDS)],
            serial_singleton=False)
        expected = ens.run(loads.copy(), seed=0, replicas=4)
        trace, stats = dispatch_sharded(
            DiffusionBalancer(topo), loads.copy(), workers,
            shards=2, seed=0, replicas=4,
            stopping=[MaxRounds(ROUNDS)],
            heartbeat=0.05, stats_interval=0.05,
        )
        assert np.array_equal(expected.final_loads, trace.final_loads)
        assert stats["stats_interval"] == pytest.approx(0.05)
        assert set(stats["workers_live"]) == set(stats["workers"])
        for live in stats["workers_live"].values():
            assert "last_seen_age_s" in live and "hb_count" in live
