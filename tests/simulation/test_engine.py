"""Unit tests for the Simulator engine."""

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer
from repro.core.protocols import Balancer
from repro.simulation.engine import Simulator, run_balancer, simulate
from repro.simulation.initial import point_load
from repro.simulation.stopping import MaxRounds, PotentialBelow, PotentialFractionBelow


class TestBasicRun:
    def test_runs_exact_round_count(self, torus):
        bal = DiffusionBalancer(torus)
        trace = run_balancer(bal, point_load(torus.n, discrete=False), rounds=17)
        assert trace.rounds == 17
        assert trace.stopped_by == "max-rounds(17)"

    def test_zero_rounds(self, torus):
        bal = DiffusionBalancer(torus)
        trace = run_balancer(bal, point_load(torus.n, discrete=False), rounds=0)
        assert trace.rounds == 0

    def test_stops_at_potential_rule(self, torus):
        bal = DiffusionBalancer(torus)
        sim = Simulator(bal, stopping=[PotentialFractionBelow(0.01), MaxRounds(10_000)])
        trace = sim.run(point_load(torus.n, discrete=False), 0)
        assert trace.last_potential <= 0.01 * trace.initial_potential
        assert trace.stopped_by.startswith("potential<=")

    def test_default_max_rounds_injected(self, torus):
        sim = Simulator(DiffusionBalancer(torus), stopping=[PotentialBelow(-1.0)])
        assert any(isinstance(r, MaxRounds) for r in sim.stopping)

    def test_balancer_reset_between_runs(self, torus):
        bal = DiffusionBalancer(torus)
        sim = Simulator(bal, stopping=[MaxRounds(5)])
        sim.run(point_load(torus.n, discrete=False), 0)
        assert bal.state.round == 5
        sim.run(point_load(torus.n, discrete=False), 0)
        assert bal.state.round == 5  # reset, then 5 fresh rounds

    def test_trace_has_final_loads(self, torus):
        loads = point_load(torus.n, discrete=True)
        trace = Simulator(DiffusionBalancer(torus, mode="discrete"), stopping=[MaxRounds(6)],
                          keep_snapshots=True).run(loads, 0)
        assert trace.final_loads.shape == (1, torus.n)
        assert np.array_equal(trace.final_loads[0], trace.snapshots[-1])
        assert trace.last_totals == loads.sum()
        short = run_balancer(DiffusionBalancer(torus), point_load(torus.n, discrete=False), 2)
        assert short.final_loads.shape == (1, torus.n)

    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    def test_default_record_is_auto(self, torus, mode):
        """A default ``Simulator`` records only what its rules read; an
        unrecorded series names the mode that records it, and the summary's
        final discrepancy (from the final loads) equals a full run's."""
        loads = point_load(torus.n, discrete=mode == "discrete", total=1600)
        rules = [PotentialFractionBelow(0.01), MaxRounds(500)]
        trace = Simulator(DiffusionBalancer(torus, mode=mode), stopping=rules).run(loads, 0)
        assert not trace.record_movements and not trace.record_discrepancies
        for series in ("net_movements", "discrepancies"):
            with pytest.raises(ValueError, match='record="full"'):
                getattr(trace, series)
        full = Simulator(DiffusionBalancer(torus, mode=mode), stopping=rules,
                         record="full").run(loads, 0)
        assert full.record_movements and full.record_discrepancies
        assert full.potentials == trace.potentials
        assert np.array_equal(full.load_sums, trace.load_sums)
        assert trace.summary() == full.summary()
        assert trace.summary()["discrepancy_final"] == full.discrepancies[-1]
        short = run_balancer(DiffusionBalancer(torus, mode=mode), loads, 3, record="full")
        assert len(short.net_movements) == 3

    def test_seed_accepts_generator(self, torus):
        bal = DiffusionBalancer(torus)
        rng = np.random.default_rng(3)
        trace = run_balancer(bal, point_load(torus.n, discrete=False), rounds=3, seed=rng)
        assert trace.rounds == 3

    def test_reproducible_given_seed(self, torus):
        from repro.core.random_partner import RandomPartnerBalancer

        loads = point_load(torus.n, discrete=False)
        t1 = run_balancer(RandomPartnerBalancer(), loads, rounds=20, seed=5)
        t2 = run_balancer(RandomPartnerBalancer(), loads, rounds=20, seed=5)
        assert t1.potentials == t2.potentials

    def test_different_seeds_differ(self, torus):
        from repro.core.random_partner import RandomPartnerBalancer

        loads = point_load(torus.n, discrete=False)
        t1 = run_balancer(RandomPartnerBalancer(), loads, rounds=20, seed=5)
        t2 = run_balancer(RandomPartnerBalancer(), loads, rounds=20, seed=6)
        assert t1.potentials != t2.potentials


class _LeakyBalancer(Balancer):
    """Deliberately loses load — must trip the conservation audit."""

    name = "leaky"
    mode = "continuous"

    def step(self, loads, rng):
        out = loads.copy()
        out[0] = 0.0
        return out


class _LeakyDiscrete(Balancer):
    name = "leaky-int"
    mode = "discrete"

    def step(self, loads, rng):
        out = loads.copy()
        out[0] += 1
        return out


class _NaNBalancer(Balancer):
    name = "nan"
    mode = "continuous"

    def step(self, loads, rng):
        out = loads.copy()
        out[0] = np.nan
        return out


class TestConservationAudit:
    def test_non_finite_sum_detected(self):
        sim = Simulator(_NaNBalancer(), stopping=[MaxRounds(5)])
        with pytest.raises(AssertionError, match="non-finite sum nan"):
            sim.run(np.asarray([5.0, 5.0]), 0)

    def test_continuous_leak_detected(self):
        sim = Simulator(_LeakyBalancer(), stopping=[MaxRounds(5)])
        with pytest.raises(AssertionError, match="leaked"):
            sim.run(np.asarray([5.0, 5.0]), 0)

    def test_discrete_leak_detected(self):
        sim = Simulator(_LeakyDiscrete(), stopping=[MaxRounds(5)])
        with pytest.raises(AssertionError, match="leaked"):
            sim.run(np.asarray([5, 5], dtype=np.int64), 0)

    def test_audit_can_be_disabled(self):
        sim = Simulator(_LeakyBalancer(), stopping=[MaxRounds(2)], check_conservation=False)
        trace = sim.run(np.asarray([5.0, 5.0]), 0)
        assert trace.rounds == 2

    def test_healthy_run_passes_audit(self, torus):
        sim = Simulator(DiffusionBalancer(torus, mode="discrete"), stopping=[MaxRounds(50)])
        trace = sim.run(point_load(torus.n, total=6400), 0)
        assert trace.conservation_error() == 0.0


class TestRunBalancerStoppingContract:
    def test_exact_rounds_even_when_converged(self, torus):
        """A balanced start makes zero progress; the default call must
        still run every requested round (no hidden stagnation rule)."""
        bal = DiffusionBalancer(torus, mode="discrete")
        trace = run_balancer(bal, np.full(torus.n, 5, dtype=np.int64), rounds=40)
        assert trace.rounds == 40
        assert trace.stopped_by == "max-rounds(40)"

    def test_extra_rules_may_stop_earlier(self, torus):
        from repro.simulation.stopping import Stagnation

        bal = DiffusionBalancer(torus, mode="discrete")
        trace = run_balancer(
            bal,
            np.full(torus.n, 5, dtype=np.int64),
            rounds=40,
            stopping=[Stagnation(patience=3)],
        )
        assert trace.rounds == 3
        assert trace.stopped_by == "stagnation(3)"

    def test_rounds_beyond_engine_default_cap(self, torus):
        """The engine's implicit 1e6-round safety net must not shadow a
        larger caller-supplied budget (regression guard)."""
        bal = DiffusionBalancer(torus)
        trace = run_balancer(bal, point_load(torus.n, discrete=False), rounds=0)
        assert trace.rounds == 0
        from repro.simulation.engine import Simulator
        from repro.simulation.stopping import MaxRounds

        sim = Simulator(bal, stopping=[MaxRounds(2_000_000)])
        assert sum(isinstance(r, MaxRounds) for r in sim.stopping) == 1
        assert sim.stopping[0].rounds == 2_000_000


class TestSnapshots:
    def test_snapshots_align_with_rounds(self, torus):
        bal = DiffusionBalancer(torus)
        trace = run_balancer(bal, point_load(torus.n, discrete=False), rounds=4, keep_snapshots=True)
        assert len(trace.snapshots) == 5  # initial + 4 rounds


class TestSimulate:
    """Each engine choice of ``simulate`` returns what the engine it picks
    returns when called directly: final loads bit for bit, per-replica
    rounds and stopping reasons."""

    @staticmethod
    def rules():
        return [PotentialFractionBelow(1e-3), MaxRounds(400)]

    @staticmethod
    def assert_same(got, want_loads, want_rounds, want_reasons):
        assert np.array_equal(got.final_loads, want_loads)
        assert got.rounds_vector.tolist() == list(want_rounds)
        assert got.stopped_by == list(want_reasons)

    @pytest.mark.parametrize("workers,mode", [(1, "inprocess"), (2, "process")])
    def test_partitioned(self, torus, workers, mode):
        from repro.simulation.partitioned import PartitionedSimulator

        loads = point_load(torus.n, discrete=True)
        trace, halo = simulate(DiffusionBalancer(torus, mode="discrete"), loads, self.rules(),
                               replicas=2, workers=workers, partitions="2:bfs")
        psim = PartitionedSimulator(DiffusionBalancer(torus, mode="discrete"), partitions=2,
                                    strategy="bfs", stopping=self.rules(), mode=mode)
        want = psim.run(loads, replicas=2)
        self.assert_same(trace, want.final_loads, want.rounds_vector, want.stopped_by)
        assert halo == psim.halo_stats and halo["mode"] == mode

    def test_unbatched_replicas_merge_serial_runs(self, torus, monkeypatch):
        from repro.core.random_partner import RandomPartnerBalancer
        from repro.simulation.ensemble import spawn_rngs

        monkeypatch.setattr(RandomPartnerBalancer, "supports_batch", False)
        loads = point_load(torus.n, discrete=False)
        trace, halo = simulate(RandomPartnerBalancer(), loads, self.rules(), seed=4,
                               replicas=3, partitions=2)
        serial = [Simulator(RandomPartnerBalancer(), stopping=self.rules(), keep_snapshots=True)
                  .run(loads, rng) for rng in spawn_rngs(4, 3)]
        self.assert_same(trace, np.stack([t.snapshots[-1] for t in serial]),
                         [t.rounds for t in serial], [t.stopped_by for t in serial])
        assert halo is None

    def test_sharded(self, torus):
        from repro.core.random_partner import RandomPartnerBalancer
        from repro.simulation.sharding import run_sharded_ensemble

        loads = point_load(torus.n, discrete=True)
        trace, halo = simulate(RandomPartnerBalancer(mode="discrete"), loads, self.rules(),
                               seed=6, replicas=4, workers="2x")
        want = run_sharded_ensemble(RandomPartnerBalancer(mode="discrete"), loads, seed=6,
                                    replicas=4, workers=2, stopping=self.rules())
        self.assert_same(trace, want.final_loads, want.rounds_vector, want.stopped_by)
        assert halo is None

    def test_one_replica_is_the_serial_run(self, torus):
        from repro.core.random_partner import RandomPartnerBalancer

        loads = point_load(torus.n, discrete=False)
        trace, halo = simulate(RandomPartnerBalancer(), loads, self.rules(), seed=8,
                               workers=2, record="full")
        want = Simulator(RandomPartnerBalancer(), stopping=self.rules(),
                         keep_snapshots=True).run(loads, 8)
        self.assert_same(trace, want.snapshots[-1][None], [want.rounds], [want.stopped_by])
        assert trace.replica_trace(0).summary() == want.summary()
        assert halo is None

    def test_ensemble(self, torus):
        from repro.core.random_partner import RandomPartnerBalancer
        from repro.simulation.ensemble import EnsembleSimulator

        loads = point_load(torus.n, discrete=False)
        trace, halo = simulate(RandomPartnerBalancer(), loads, self.rules(), seed=8, replicas=3)
        want = EnsembleSimulator(RandomPartnerBalancer(), stopping=self.rules()).run(
            loads, seed=8, replicas=3)
        self.assert_same(trace, want.final_loads, want.rounds_vector, want.stopped_by)
        assert halo is None

    def test_seed_takes_generators(self, torus):
        from repro.core.random_partner import RandomPartnerBalancer
        from repro.simulation.ensemble import spawn_rngs

        loads = point_load(torus.n, discrete=False)
        want, _ = simulate(RandomPartnerBalancer(), loads, self.rules(), seed=8, replicas=3)
        got, _ = simulate(RandomPartnerBalancer(), loads, self.rules(),
                          seed=spawn_rngs(8, 3), replicas=3)
        self.assert_same(got, want.final_loads, want.rounds_vector, want.stopped_by)
        one, _ = simulate(RandomPartnerBalancer(), loads, self.rules(), seed=8)
        gen, _ = simulate(RandomPartnerBalancer(), loads, self.rules(),
                          seed=np.random.default_rng(8))
        self.assert_same(gen, one.final_loads, one.rounds_vector, one.stopped_by)
        with pytest.raises(ValueError, match="2 generators for 3 replicas"):
            simulate(RandomPartnerBalancer(), loads, self.rules(), seed=spawn_rngs(8, 2),
                     replicas=3)

    def test_bad_specs_rejected(self, torus):
        loads = point_load(torus.n, discrete=False)
        for kwargs in ({"replicas": 0}, {"workers": 0}, {"partitions": "2:metis"}):
            with pytest.raises(ValueError):
                simulate(DiffusionBalancer(torus), loads, self.rules(), **kwargs)
