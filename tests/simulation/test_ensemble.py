"""Unit tests for the lockstep ensemble engine."""

import math

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer
from repro.core.random_partner import RandomPartnerBalancer
from repro.graphs.generators import cycle
from repro.simulation.engine import Simulator
from repro.simulation.ensemble import EnsembleSimulator, initial_batch, spawn_rngs
from repro.simulation.initial import point_load
from repro.simulation.montecarlo import trial_rngs
from repro.simulation.stopping import (
    DiscrepancyBelow,
    MaxRounds,
    PotentialFractionBelow,
    Stagnation,
    StoppingRule,
)


class TestRunBasics:
    def test_lockstep_round_counts(self, torus):
        ens = EnsembleSimulator(DiffusionBalancer(torus), stopping=[MaxRounds(9)])
        trace = ens.run(point_load(torus.n, discrete=False), seed=0, replicas=4)
        assert trace.replicas == 4
        assert trace.rounds == 9
        assert trace.rounds_vector.tolist() == [9, 9, 9, 9]
        assert trace.stopped_by == ["max-rounds(9)"] * 4
        assert trace.final_loads.shape == (4, torus.n)

    def test_zero_rounds(self, torus):
        ens = EnsembleSimulator(DiffusionBalancer(torus), stopping=[MaxRounds(0)])
        trace = ens.run(point_load(torus.n, discrete=False), seed=0, replicas=3)
        assert trace.rounds == 0
        assert trace.potentials_matrix.shape == (1, 3)

    def test_default_max_rounds_injected(self, torus):
        ens = EnsembleSimulator(DiffusionBalancer(torus))
        assert any(isinstance(r, MaxRounds) for r in ens.stopping)

    def test_single_replica_matches_simulator(self, torus):
        loads = point_load(torus.n, discrete=False)
        serial = Simulator(DiffusionBalancer(torus), stopping=[MaxRounds(7)], keep_snapshots=True)
        strace = serial.run(loads, spawn_rngs(5, 1)[0])
        ens = EnsembleSimulator(DiffusionBalancer(torus), stopping=[MaxRounds(7)])
        etrace = ens.run(loads, seed=5)  # replicas defaults to 1
        assert etrace.replicas == 1
        assert np.array_equal(strace.snapshots[-1], etrace.final_loads[0])

    def test_single_replica_snapshots_not_aliased(self, torus):
        """B=1 snapshots must be copies, not views of the recycled
        ping-pong buffers (regression: every round matches serial)."""
        loads = point_load(torus.n, discrete=False)
        strace = Simulator(
            DiffusionBalancer(torus), stopping=[MaxRounds(6)], keep_snapshots=True
        ).run(loads, spawn_rngs(5, 1)[0])
        etrace = EnsembleSimulator(
            DiffusionBalancer(torus), stopping=[MaxRounds(6)], keep_snapshots=True
        ).run(loads, seed=5)
        for t, snap in enumerate(strace.snapshots):
            assert np.array_equal(snap, etrace.snapshots[t][0]), f"round {t}"

    def test_singleton_dispatches_to_serial_engine(self, torus, monkeypatch):
        """B=1 runs route to the serial stepper (perf: nothing to amortize)."""
        from repro.simulation import ensemble

        calls = []
        orig = ensemble.serial_rounds

        def spy(balancer, trace, loads, rng):
            calls.append(loads.shape)
            return orig(balancer, trace, loads, rng)

        monkeypatch.setattr(ensemble, "serial_rounds", spy)
        ens = EnsembleSimulator(DiffusionBalancer(torus), stopping=[MaxRounds(5)])
        trace = ens.run(point_load(torus.n, discrete=False), seed=0)
        assert calls == [(torus.n,)]
        assert trace.replicas == 1
        assert trace.rounds == 5

    def test_singleton_dispatch_can_be_disabled(self, torus, monkeypatch):
        from repro.simulation import ensemble

        called = []
        monkeypatch.setattr(
            ensemble, "serial_rounds",
            lambda balancer, trace, loads, rng: called.append(1),
        )
        ens = EnsembleSimulator(
            DiffusionBalancer(torus), stopping=[MaxRounds(5)], serial_singleton=False
        )
        trace = ens.run(point_load(torus.n, discrete=False), seed=0)
        assert not called
        assert trace.rounds == 5

    def test_singleton_discrete_final_loads_int(self, torus):
        ens = EnsembleSimulator(DiffusionBalancer(torus, mode="discrete"), stopping=[MaxRounds(6)])
        trace = ens.run(point_load(torus.n, total=64_000), seed=1)
        assert trace.final_loads.dtype == np.int64
        serial = Simulator(
            DiffusionBalancer(torus, mode="discrete"), stopping=[MaxRounds(6)], keep_snapshots=True
        ).run(point_load(torus.n, total=64_000), spawn_rngs(1, 1)[0])
        assert np.array_equal(trace.final_loads[0], serial.snapshots[-1])

    def test_singleton_discrete_final_loads_exact_above_2_53(self):
        # float64 cannot hold 2**53 + 1: the repackaged final loads must
        # come from the loads' own dtype, not a float64 copy of them.
        topo = cycle(8)
        loads = np.full(8, 2**53 + 1, dtype=np.int64)
        loads[0] += 64
        trace = EnsembleSimulator(
            DiffusionBalancer(topo, "discrete"), stopping=[MaxRounds(3)]
        ).run(loads, seed=0, replicas=1)
        bal = DiffusionBalancer(topo, "discrete")
        rng = np.random.default_rng(0)
        ref = loads
        for _ in range(3):
            ref = bal.step(ref, rng)
        assert trace.final_loads.dtype == np.int64
        assert trace.final_loads[0].tolist() == ref.tolist()
        assert ref[0] == 2**53 + 33  # odd: not representable in float64

    def test_singleton_runs_unbatchable_balancer(self, torus):
        """With serial dispatch, B=1 ensembles work for *any* balancer."""
        from repro.core.protocols import Balancer

        class _Plain(Balancer):
            name = "plain"

            def step(self, loads, rng):
                return loads.copy()

        trace = EnsembleSimulator(_Plain(), stopping=[MaxRounds(3)]).run(np.ones(4), seed=0)
        assert trace.replicas == 1
        assert trace.rounds == 3

    def test_singleton_stopping_and_stats(self, torus):
        rules = [PotentialFractionBelow(1e-3), MaxRounds(5_000)]
        ens = EnsembleSimulator(RandomPartnerBalancer(), stopping=rules)
        trace = ens.run(point_load(32, total=3200, discrete=False), seed=4)
        assert trace.stopped_by[0].startswith("potential<=")
        assert trace.potentials_matrix.shape == (trace.rounds + 1, 1)
        assert trace.load_sums_matrix.shape == (trace.rounds + 1, 1)
        t = trace.replica_trace(0)
        assert t.rounds == trace.rounds

    def test_spawned_rngs_match_montecarlo_derivation(self):
        a = [r.integers(0, 1 << 30) for r in spawn_rngs(42, 3)]
        b = [r.integers(0, 1 << 30) for r in trial_rngs(42, 3)]
        assert a == b

    def test_explicit_generator_sequence(self, torus):
        loads = point_load(torus.n, discrete=False)
        rngs = spawn_rngs(11, 3)
        ens = EnsembleSimulator(RandomPartnerBalancer(), stopping=[MaxRounds(5)])
        trace = ens.run(loads, seed=rngs)
        assert trace.replicas == 3

    def test_generator_iterator_accepted(self, torus):
        loads = point_load(torus.n, discrete=False)
        ens = EnsembleSimulator(RandomPartnerBalancer(), stopping=[MaxRounds(3)])
        trace = ens.run(loads, seed=iter(spawn_rngs(11, 3)))
        assert trace.replicas == 3

    def test_partner_batch_exposes_realized_concurrency(self, torus):
        from repro.core.random_partner import link_degrees

        bal = RandomPartnerBalancer()
        ens = EnsembleSimulator(bal, stopping=[MaxRounds(4)])
        ens.run(point_load(torus.n, discrete=False), seed=2, replicas=3)
        assert isinstance(bal.last_links, list) and len(bal.last_links) == 3
        for links, deg in zip(bal.last_links, bal.last_degrees):
            assert np.array_equal(deg, link_degrees(torus.n, links))

    def test_generator_count_mismatch_rejected(self, torus):
        ens = EnsembleSimulator(DiffusionBalancer(torus), stopping=[MaxRounds(2)])
        with pytest.raises(ValueError, match="generators"):
            ens.run(point_load(torus.n, discrete=False), seed=spawn_rngs(0, 2), replicas=3)

    def test_unbatchable_balancer_rejected(self):
        from repro.core.protocols import Balancer

        class _Plain(Balancer):
            name = "plain"

            def step(self, loads, rng):
                return loads.copy()

        ens = EnsembleSimulator(_Plain(), stopping=[MaxRounds(1)])
        with pytest.raises(TypeError, match="batched"):
            ens.run(np.ones(4), seed=0, replicas=2)

    def test_bad_record_mode_rejected(self, torus):
        with pytest.raises(ValueError, match="record"):
            EnsembleSimulator(DiffusionBalancer(torus), record="everything")



class TestInitialBatch:
    """Per-replica ``(B, n)`` states are validated as one matrix."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    def test_rows_become_the_batch_columns(self, order, mode):
        bal = RandomPartnerBalancer(mode)
        rows = np.asarray(np.arange(24).reshape(3, 8), dtype=np.float64, order=order)
        L, B = initial_batch(bal, rows, None)
        assert B == 3 and L.dtype == bal.dtype
        assert np.array_equal(L, rows.T)
        # Small integer totals go replica-major; float batches node-major.
        assert (L.T if mode == "discrete" else L).flags.c_contiguous
        assert not np.shares_memory(L, rows)

    def test_error_names_the_problem(self):
        rows = np.ones((3, 8), dtype=np.int64)
        rows[1, 4] = -1
        with pytest.raises(ValueError, match="loads must be non-negative"):
            initial_batch(RandomPartnerBalancer("discrete"), rows, None)
        with pytest.raises(ValueError, match="non-empty"):
            initial_batch(RandomPartnerBalancer("discrete"), np.ones((3, 0)), None)


class TestPerReplicaStopping:
    def test_replicas_stop_independently(self):
        """Random-partner replicas reach the target at different rounds."""
        n = 32
        loads = point_load(n, total=100 * n, discrete=False)
        ens = EnsembleSimulator(
            RandomPartnerBalancer(),
            stopping=[PotentialFractionBelow(1e-3), MaxRounds(10_000)],
        )
        trace = ens.run(loads, seed=7, replicas=6)
        rounds = trace.rounds_vector
        assert (rounds > 0).all()
        assert len(set(rounds.tolist())) > 1, "expected replica-dependent stop rounds"
        assert all(r.startswith("potential<=") for r in trace.stopped_by)
        # Frozen replicas keep their stopped-state potential.
        pots = trace.potentials_matrix
        for b in range(6):
            stop = int(rounds[b])
            assert pots[stop, b] <= 1e-3 * pots[0, b]
            assert np.all(pots[stop:, b] == pots[stop, b])

    def test_frozen_replica_matches_serial_final(self):
        n = 32
        loads = point_load(n, total=100 * n, discrete=False)
        seed = 3
        ens = EnsembleSimulator(
            RandomPartnerBalancer(), stopping=[PotentialFractionBelow(1e-2), MaxRounds(10_000)]
        )
        trace = ens.run(loads, seed=seed, replicas=4)
        rngs = spawn_rngs(seed, 4)
        for b in range(4):
            serial = Simulator(
                RandomPartnerBalancer(),
                stopping=[PotentialFractionBelow(1e-2), MaxRounds(10_000)],
                keep_snapshots=True,
            ).run(loads, rngs[b])
            assert serial.rounds == trace.rounds_vector[b]
            assert np.array_equal(serial.snapshots[-1], trace.final_loads[b])

    def test_stagnation_batch_fires(self, torus):
        # A perfectly balanced discrete system makes no progress: the
        # stagnation rule must end every replica before the round cap.
        loads = np.full(torus.n, 7, dtype=np.int64)
        ens = EnsembleSimulator(
            DiffusionBalancer(torus, mode="discrete"),
            stopping=[Stagnation(patience=4), MaxRounds(500)],
        )
        trace = ens.run(loads, seed=0, replicas=3)
        assert trace.rounds == 4
        assert trace.stopped_by == ["stagnation(4)"] * 3

    def test_discrepancy_rule_auto_enables_recording(self, torus):
        loads = point_load(torus.n, total=1600, discrete=False)
        ens = EnsembleSimulator(
            DiffusionBalancer(torus), stopping=[DiscrepancyBelow(1e-6), MaxRounds(5000)]
        )
        trace = ens.run(loads, seed=0, replicas=2)
        assert trace.record_discrepancies
        assert (trace.last_discrepancies <= 1e-6).all()

    def test_custom_rule_without_batch_form_rejected(self, torus):
        class _Odd(StoppingRule):
            def should_stop(self, trace):
                return False

        ens = EnsembleSimulator(DiffusionBalancer(torus), stopping=[_Odd(), MaxRounds(3)])
        with pytest.raises(NotImplementedError, match="batched"):
            ens.run(point_load(torus.n, discrete=False), seed=0, replicas=2)


class TestRecordingModes:
    def test_auto_mode_skips_unread_series(self, torus):
        ens = EnsembleSimulator(DiffusionBalancer(torus), stopping=[MaxRounds(3)], record="auto")
        trace = ens.run(point_load(torus.n, discrete=False), seed=0, replicas=2)
        with pytest.raises(ValueError):
            trace.discrepancies_matrix
        with pytest.raises(ValueError):
            trace.movements_matrix

    def test_full_mode_matches_serial_trace_stats(self, torus):
        loads = point_load(torus.n, total=1600, discrete=True)
        ens = EnsembleSimulator(
            DiffusionBalancer(torus, mode="discrete"), stopping=[MaxRounds(20)], record="full"
        )
        trace = ens.run(loads, seed=0, replicas=2)
        serial = Simulator(DiffusionBalancer(torus, mode="discrete"), stopping=[MaxRounds(20)],
                           record="full").run(loads, spawn_rngs(0, 2)[0])
        rep = trace.replica_trace(0)
        assert rep.rounds == serial.rounds
        assert np.allclose(rep.potential_array, serial.potential_array, rtol=1e-9, atol=1e-6)
        assert np.array_equal(rep.net_movements, serial.net_movements)
        assert rep.discrepancies == serial.discrepancies
        assert np.allclose(trace.total_net_movements()[0], serial.total_net_movement())

    def test_summary_shape(self, torus):
        ens = EnsembleSimulator(DiffusionBalancer(torus), stopping=[MaxRounds(4)])
        trace = ens.run(point_load(torus.n, discrete=False), seed=0, replicas=3)
        s = trace.summary()
        assert s["replicas"] == 3
        assert s["rounds_min"] == s["rounds_max"] == 4
        assert s["stopped_by"] == {"max-rounds(4)": 3}

    def test_rounds_to_potential_vector(self, torus):
        loads = point_load(torus.n, total=1600, discrete=False)
        ens = EnsembleSimulator(DiffusionBalancer(torus), stopping=[MaxRounds(400)])
        trace = ens.run(loads, seed=0, replicas=2)
        serial = Simulator(DiffusionBalancer(torus), stopping=[MaxRounds(400)]).run(loads, 0)
        threshold = 0.01 * serial.initial_potential
        got = trace.rounds_to_potential(threshold)
        assert got[0] == got[1] == serial.rounds_to_potential(threshold)


class TestReplicaTrace:
    def test_default_record_reads_back_what_was_recorded(self, torus):
        """A ``record="auto"`` ensemble records neither movements nor
        discrepancies: its replica traces still summarize (the final
        discrepancy from the final loads), report the final loads' exact
        totals, and refuse the series never recorded."""
        bal = DiffusionBalancer(torus, mode="discrete")
        trace = EnsembleSimulator(bal, stopping=[MaxRounds(5)]).run(
            point_load(torus.n, total=1600), seed=0, replicas=3)
        for b in range(3):
            rep = trace.replica_trace(b)
            s = rep.summary()
            assert s["rounds"] == 5 and s["stopped_by"] == "max-rounds(5)"
            assert s["phi_final"] == trace.potentials_matrix[5, b]
            final = trace.final_loads[b]
            assert s["discrepancy_final"] == float(final.max() - final.min())
            assert rep.last_totals == trace.final_loads[b].sum()
            assert rep.last_totals.dtype == trace.final_loads.dtype
            for series in ("net_movements", "discrepancies"):
                with pytest.raises(ValueError, match="not recorded"):
                    getattr(rep, series)
            with pytest.raises(ValueError, match="not recorded"):
                rep.total_net_movement()

    def test_one_replica_ensemble_is_its_own_trace(self, torus):
        """B=1 runs the serial stepper straight into the run's trace: the
        same records a serial run makes, read through the ensemble views."""
        loads = point_load(torus.n, total=1600, discrete=False)
        rules = [PotentialFractionBelow(1e-3), MaxRounds(500)]
        serial = Simulator(DiffusionBalancer(torus), stopping=rules, record="full").run(
            loads, spawn_rngs(2, 1)[0])
        trace = EnsembleSimulator(DiffusionBalancer(torus), stopping=rules, record="full").run(
            loads, seed=2)
        assert trace.rounds_vector.tolist() == [serial.rounds]
        assert trace.potentials_matrix[:, 0].tolist() == serial.potentials
        assert trace.discrepancies_matrix[:, 0].tolist() == serial.discrepancies
        assert trace.movements_matrix[:, 0].tolist() == serial.net_movements.tolist()
        assert trace.stopped_by == [serial.stopped_by]
        rep = trace.replica_trace(0)
        assert rep.summary() == serial.summary()


class TestConservationAudit:
    def test_leak_names_replica(self, torus):
        from repro.core.protocols import Balancer

        class _LeakyBatch(Balancer):
            name = "leaky-batch"
            mode = "continuous"
            supports_batch = True

            def step(self, loads, rng):  # pragma: no cover - not used
                return loads.copy()

            def step_batch(self, loads, rngs, out=None):
                new = loads.copy()
                new[0, 1] += 5.0  # replica 1 gains mass
                return new

        ens = EnsembleSimulator(_LeakyBatch(), stopping=[MaxRounds(3)])
        with pytest.raises(AssertionError, match="replica 1"):
            ens.run(np.full(8, 4.0), seed=0, replicas=3)

    def test_audit_can_be_disabled(self, torus):
        ens = EnsembleSimulator(
            DiffusionBalancer(torus), stopping=[MaxRounds(2)], check_conservation=False
        )
        trace = ens.run(point_load(torus.n, discrete=False), seed=0, replicas=2)
        assert trace.rounds == 2
