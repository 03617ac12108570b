"""Analytical-bound convergence diagnostics.

The monitor turns Theorem 4 / Lemma 5 / Theorem 6 into live per-round
checks; these tests pin down the unit behavior (violation / stall /
threshold logic, event caps, summary fit), the ``monitor_for`` gating,
the bounded-cost ``lambda_2`` acquisition, and the engine integration —
including the non-negotiable bit-for-bit guarantee with tracing on.
"""

import json

import numpy as np
import pytest

from repro.core.bounds import lemma5_drop_factor, theorem6_threshold
from repro.core.diffusion import DiffusionBalancer
from repro.graphs.generators import by_name, torus_2d
from repro.graphs.spectral import lambda_2, lambda2_torus
from repro.observability import Recorder, set_recorder, trace_report
from repro.observability.convergence import (
    _MAX_EVENT_LINES,
    ConvergenceMonitor,
    _bounded_lambda2,
    _closed_form_lambda2,
    monitor_for,
)
from repro.observability.server import get_status_board
from repro.simulation.engine import Simulator
from repro.simulation.ensemble import EnsembleSimulator
from repro.simulation.stopping import MaxRounds


@pytest.fixture(autouse=True)
def _clean_globals():
    yield
    get_status_board().clear()
    set_recorder(None)


def _named(rec: Recorder, name: str) -> list[dict]:
    return [ev for ev in rec.drain_events() if ev.get("name") == name]


class TestLambda2Acquisition:
    @pytest.mark.parametrize("spec", [
        "cycle:32", "path:17", "torus:6x8", "hypercube:5", "complete:16", "star:32",
    ])
    def test_closed_form_matches_spectral(self, spec):
        topo = by_name(spec)
        assert _closed_form_lambda2(topo.name) == pytest.approx(
            lambda_2(topo), rel=1e-9)

    def test_unknown_families_are_none(self):
        assert _closed_form_lambda2("petersen") is None
        assert _closed_form_lambda2("debruijn:6") is None
        assert _closed_form_lambda2("torus:notxnums") is None

    def test_large_closed_form_family_is_instant(self):
        # n=2304 > the cold-eigensolve limit, but the torus closed form
        # still arms the monitor (this is what keeps a heartbeat-
        # supervised worker alive when telemetry is on).
        topo = torus_2d(48, 48)
        assert _bounded_lambda2(topo) == pytest.approx(lambda2_torus(48, 48))

    def test_large_unknown_family_is_skipped(self):
        topo = by_name("debruijn:11")  # n=2048, no closed form
        assert _bounded_lambda2(topo) is None

    def test_small_unknown_family_uses_dense_solve(self):
        topo = by_name("petersen")
        assert _bounded_lambda2(topo) == pytest.approx(lambda_2(topo))


class TestMonitorFor:
    def test_disabled_recorder_gives_none(self):
        bal = DiffusionBalancer(torus_2d(4, 4))
        assert monitor_for(bal, Recorder(enabled=False)) is None

    def test_non_diffusion_balancer_gives_none(self):
        class NotDiffusion:
            pass

        assert monitor_for(NotDiffusion(), Recorder(enabled=True)) is None

    def test_armed_monitor_carries_paper_bounds(self):
        topo = torus_2d(4, 4)
        rec = Recorder(enabled=True)
        mon = monitor_for(DiffusionBalancer(topo, mode="discrete"), rec)
        assert mon is not None
        lam2 = lambda_2(topo)
        assert mon.drop_bound == pytest.approx(
            lemma5_drop_factor(topo.max_degree, lam2).value, rel=1e-9)
        assert mon.threshold == pytest.approx(
            theorem6_threshold(topo.n, topo.max_degree, lam2).value, rel=1e-9)
        (params,) = _named(rec, "convergence_params")
        assert params["mode"] == "discrete" and params["n"] == 16

    def test_continuous_mode_has_no_threshold(self):
        topo = torus_2d(4, 4)
        mon = monitor_for(DiffusionBalancer(topo), Recorder(enabled=True))
        assert mon.threshold == 0.0
        assert mon.drop_bound == pytest.approx(
            lambda_2(topo) / (4.0 * topo.max_degree))

    def test_env_overrides_misparameterize(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONV_LAM2", "4.0")
        monkeypatch.setenv("REPRO_CONV_DELTA", "2")
        mon = monitor_for(
            DiffusionBalancer(torus_2d(4, 4)), Recorder(enabled=True))
        assert mon.lam2 == 4.0 and mon.delta == 2


class TestMonitorObserve:
    def _mk(self, **kw):
        rec = Recorder(enabled=True)
        params = dict(n=16, delta=4, lam2=1.0, mode="continuous")
        params.update(kw)
        return rec, ConvergenceMonitor(rec, **params)

    def test_healthy_geometric_series(self):
        rec, mon = self._mk()  # bound = 1/16
        phi = 1000.0
        mon.observe([phi])
        for _ in range(10):
            phi *= 0.5
            mon.observe([phi])
        summary = mon.finish()
        assert summary["violations"] == 0 and summary["stalls"] == 0
        assert mon.empirical_drop_factor == pytest.approx(0.5)
        events = rec.drain_events()
        assert sum(ev.get("name") == "phi" for ev in events) == 11
        assert sum(ev.get("name") == "convergence_summary" for ev in events) == 1

    def test_violation_fires_below_bound(self):
        rec, mon = self._mk(lam2=3.2)  # bound = 0.2
        mon.observe([1000.0])
        mon.observe([999.0])  # drop 0.001 << 0.2
        (ev,) = _named(rec, "bound_violation")
        assert ev["observed"] == pytest.approx(0.001)
        assert ev["bound"] == pytest.approx(0.2)
        assert ev["round"] == 1
        assert mon.finish()["violations"] == 1

    def test_discrete_threshold_suppresses_checks_below(self):
        rec, mon = self._mk(mode="discrete")
        assert mon.threshold > 0
        lo = mon.threshold / 10.0
        mon.observe([lo])
        mon.observe([lo])  # flat below Phi*: Lemma 5 promises nothing
        assert mon.finish()["violations"] == 0
        assert _named(rec, "bound_violation") == []

    def test_stall_detected_after_patience(self):
        rec, mon = self._mk(stall_patience=3)
        mon.observe([100.0])
        for _ in range(4):
            mon.observe([100.0])
        (ev,) = _named(rec, "stall_detected")
        assert ev["rounds_flat"] == 3
        assert mon.finish()["stalls"] == 1  # latched: fires once

    def test_event_lines_capped_but_all_counted(self):
        rec, mon = self._mk(lam2=3.2)  # every round violates
        phi = 1e6
        mon.observe([phi])
        for _ in range(60):
            phi *= 0.999
            mon.observe([phi])
        assert len(_named(rec, "bound_violation")) == _MAX_EVENT_LINES
        assert mon.finish()["violations"] == 60

    def test_per_replica_masking(self):
        rec, mon = self._mk(lam2=3.2)  # bound = 0.2
        mon.observe([100.0, 100.0])
        # Replica 1 is inactive (stopped): its flat potential is ignored.
        mon.observe([50.0, 100.0], active=np.array([True, False]))
        assert mon.finish()["violations"] == 0

    def test_finish_is_idempotent(self):
        rec, mon = self._mk()
        mon.observe([10.0])
        mon.observe([5.0])
        first = mon.finish()
        again = mon.finish()
        assert again["rounds_observed"] == first["rounds_observed"]
        assert len(_named(rec, "convergence_summary")) == 1

    def test_board_snapshot_registered(self):
        rec, mon = self._mk()
        mon.observe([10.0])
        snap = get_status_board().snapshot()["convergence"]
        assert snap["rounds_observed"] == 0
        assert snap["phi_recent"] == [[0, 10.0]]


def _stripped(rec: Recorder) -> str:
    """The event stream without timestamps, as JSON (NaN compares equal)."""
    return json.dumps([{k: v for k, v in ev.items() if k != "t"} for ev in rec.drain_events()])


class TestScalarPath:
    """Floats with no mask take the float path; it must match the row path."""

    SERIES = {
        "healthy": [1000.0 * 0.5**k for k in range(12)],
        "violating": [1e6 * 0.999**k for k in range(40)],
        "stalling": [100.0] * 9 + [50.0, 50.0],
        "to-zero": [16.0, 4.0, 0.0, 0.0, 0.0],
        "non-finite": [10.0, 5.0, float("inf"), float("nan"), 1.0],
    }

    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    @pytest.mark.parametrize("name", sorted(SERIES))
    def test_scalar_matches_row(self, name, mode):
        params = dict(n=16, delta=4, lam2=3.2, mode=mode, stall_patience=3)
        if mode == "discrete":
            params["lam2"] = 1e6  # Phi* < 0.1: the series stays checked
        streams, summaries = [], []
        for wrap in (float, lambda phi: [phi]):
            rec = Recorder(enabled=True)
            mon = ConvergenceMonitor(rec, **params)
            for phi in self.SERIES[name]:
                mon.observe(wrap(phi))
            summaries.append(mon.finish())
            streams.append(_stripped(rec))
            get_status_board().clear()
        assert streams[0] == streams[1]
        assert repr(summaries[0]) == repr(summaries[1])


class TestEngineIntegration:
    def test_serial_traced_run_verdict_ok(self):
        topo = torus_2d(4, 4)
        rec = Recorder(enabled=True)
        set_recorder(rec)
        loads = np.zeros(topo.n)
        loads[0] = 1600.0
        Simulator(DiffusionBalancer(topo), stopping=[MaxRounds(40)]).run(loads, 0)
        set_recorder(None)
        conv = trace_report(rec.drain_events())["convergence"]
        assert conv["verdict"] == "ok"
        assert conv["violations"] == 0 and conv["stalls"] == 0
        assert len(conv["rounds"]) == 41  # baseline + 40 rounds
        assert conv["empirical_drop_factor"] >= conv["predicted_drop_bound"] * 0.999

    def test_misparameterized_run_emits_bound_violation(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONV_LAM2", "8.0")  # absurd for a torus
        topo = torus_2d(4, 4)
        rec = Recorder(enabled=True)
        set_recorder(rec)
        loads = np.zeros(topo.n)
        loads[0] = 1600.0
        Simulator(DiffusionBalancer(topo), stopping=[MaxRounds(40)]).run(loads, 0)
        set_recorder(None)
        conv = trace_report(rec.drain_events())["convergence"]
        assert conv["verdict"] == "violated"
        assert conv["violations"] > 0

    def test_ensemble_traced_is_bit_for_bit_and_ok(self):
        topo = torus_2d(4, 4)
        rng = np.random.default_rng(7)
        loads = rng.integers(0, 1000, topo.n).astype(np.int64)

        def bal():
            return DiffusionBalancer(topo, mode="discrete")

        ref = EnsembleSimulator(
            bal(), stopping=[MaxRounds(30)], serial_singleton=False,
        ).run(loads.copy(), seed=0, replicas=3)
        rec = Recorder(enabled=True)
        set_recorder(rec)
        traced = EnsembleSimulator(
            bal(), stopping=[MaxRounds(30)], serial_singleton=False,
        ).run(loads.copy(), seed=0, replicas=3)
        set_recorder(None)
        assert np.array_equal(ref.final_loads, traced.final_loads)
        assert np.array_equal(ref.potentials_matrix, traced.potentials_matrix)
        conv = trace_report(rec.drain_events())["convergence"]
        assert conv["verdict"] == "ok"

    def test_partitioned_traced_matches_serial(self):
        from repro.simulation.partitioned import PartitionedSimulator

        topo = torus_2d(4, 4)
        rng = np.random.default_rng(3)
        loads = rng.integers(0, 1000, topo.n).astype(np.int64)
        serial = Simulator(
            DiffusionBalancer(topo, mode="discrete"), stopping=[MaxRounds(25)],
        ).run(loads.copy(), 0)
        rec = Recorder(enabled=True)
        set_recorder(rec)
        part = PartitionedSimulator(
            DiffusionBalancer(topo, mode="discrete"),
            partitions=2, stopping=[MaxRounds(25)],
        ).run(loads.copy(), replicas=1)
        set_recorder(None)
        assert np.array_equal(
            np.asarray(serial._last_loads, dtype=np.int64), part.final_loads[0])
        conv = trace_report(rec.drain_events())["convergence"]
        assert conv["verdict"] == "ok"

    def test_untraced_run_never_builds_a_monitor(self):
        # Tracing off: the board must stay empty (structurally zero-cost).
        topo = torus_2d(4, 4)
        loads = np.zeros(topo.n)
        loads[0] = 160.0
        Simulator(DiffusionBalancer(topo), stopping=[MaxRounds(5)]).run(loads, 0)
        assert "convergence" not in get_status_board().snapshot()
