"""The telemetry bargain: tracing-off costs (almost) nothing, and
tracing-on never changes a trajectory.

Three guards:

1. **Structural no-op guard** — with the recorder disabled the round
   loops never call into the recorder at all (a poisoned ``record_span``
   proves the ``if traced:`` hoisting works), and the disabled ``span()``
   path returns a shared singleton (no allocation).
2. **Bit-for-bit invariance** — serial, ensemble and partitioned runs
   produce byte-identical trajectories with tracing on and off.
3. **Structural append guard** — with the recorder enabled a round
   takes no recorder lock (a counting lock proves a run of 200 rounds
   takes it as often as one of 20).
"""

import threading

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer
from repro.graphs.generators import torus_2d
from repro.observability import Recorder, set_recorder
from repro.observability.recorder import get_recorder
from repro.simulation.engine import Simulator
from repro.simulation.ensemble import EnsembleSimulator
from repro.simulation.partitioned import PartitionedSimulator
from repro.simulation.stopping import MaxRounds

ROUNDS = 15


@pytest.fixture(autouse=True)
def _restore_global_recorder():
    yield
    set_recorder(None)


def _loads(topo, seed=3):
    return np.random.default_rng(seed).uniform(0.0, 10_000.0, topo.n)


def _poisoned_recorder():
    """A disabled recorder whose recording methods raise if ever called."""

    class Poisoned(Recorder):
        def record_span(self, *a, **k):  # pragma: no cover - must not run
            raise AssertionError("record_span called with tracing off")

        def event(self, *a, **k):  # pragma: no cover - must not run
            raise AssertionError("event called with tracing off")

    return Poisoned(enabled=False)


class TestDisabledPathIsNeverEntered:
    """The hot loops hoist ``traced = rec.enabled`` — recorder off means
    zero recorder calls per round, hence zero telemetry allocations."""

    def test_serial_loop(self):
        set_recorder(_poisoned_recorder())
        topo = torus_2d(4, 4)
        Simulator(DiffusionBalancer(topo), stopping=[MaxRounds(ROUNDS)]).run(
            _loads(topo), 0)

    def test_ensemble_loop(self):
        set_recorder(_poisoned_recorder())
        topo = torus_2d(4, 4)
        EnsembleSimulator(DiffusionBalancer(topo), stopping=[MaxRounds(ROUNDS)]).run(
            _loads(topo), seed=0, replicas=3)

    def test_partitioned_loop(self):
        set_recorder(_poisoned_recorder())
        topo = torus_2d(4, 4)
        PartitionedSimulator(
            DiffusionBalancer(topo), partitions=2,
            stopping=[MaxRounds(ROUNDS)],
        ).run(_loads(topo))


class TestBitForBitInvariance:
    """Tracing observes; it must never perturb arithmetic or ordering."""

    def _run_serial(self, topo):
        sim = Simulator(
            DiffusionBalancer(topo), stopping=[MaxRounds(ROUNDS)],
            keep_snapshots=True)
        trace = sim.run(_loads(topo), 0)
        return [np.asarray(s).copy() for s in trace._snapshots]

    def test_serial(self, tmp_path):
        topo = torus_2d(5, 5)
        plain = self._run_serial(topo)
        set_recorder(Recorder(enabled=True, path=str(tmp_path / "t.jsonl")))
        traced = self._run_serial(topo)
        set_recorder(None)
        assert len(plain) == len(traced)
        for a, b in zip(plain, traced):
            assert np.array_equal(a, b)

    def _run_partitioned(self, topo):
        sim = PartitionedSimulator(
            DiffusionBalancer(topo), partitions=4, strategy="bfs",
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True)
        trace = sim.run(_loads(topo))
        return [np.asarray(s).copy() for s in trace.snapshots]

    def test_partitioned_inprocess(self, tmp_path):
        topo = torus_2d(6, 6)
        plain = self._run_partitioned(topo)
        set_recorder(Recorder(enabled=True, path=str(tmp_path / "t.jsonl")))
        traced = self._run_partitioned(topo)
        rec = get_recorder()
        set_recorder(None)
        assert rec.n_events > 0  # tracing actually happened
        for a, b in zip(plain, traced):
            assert np.array_equal(a, b)

    def test_ensemble(self, tmp_path):
        topo = torus_2d(5, 5)
        def run():
            ens = EnsembleSimulator(
                DiffusionBalancer(topo), stopping=[MaxRounds(ROUNDS)])
            return ens.run(_loads(topo), seed=7, replicas=4)
        plain = run()
        set_recorder(Recorder(enabled=True, path=str(tmp_path / "t.jsonl")))
        traced = run()
        set_recorder(None)
        assert np.array_equal(plain.final_loads, traced.final_loads)
        assert np.array_equal(
            plain.potentials_matrix, traced.potentials_matrix)


class _CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


class TestEnabledPathTakesNoLockPerRound:
    """Tracing on, a round only appends to the recorder's buffer: a run's
    lock acquisitions do not grow with its length."""

    @staticmethod
    def _acquisitions(rounds):
        rec = Recorder(enabled=True)
        rec._lock = lock = _CountingLock()
        set_recorder(rec)
        topo = torus_2d(6, 6)
        Simulator(DiffusionBalancer(topo), stopping=[MaxRounds(rounds)]).run(_loads(topo), 0)
        set_recorder(None)
        names = [ev["name"] for ev in rec.drain_events()]
        assert names.count("round") == names.count("phi") - 1 == rounds
        return lock.acquired

    def test_serial_loop(self):
        assert self._acquisitions(200) == self._acquisitions(20)
