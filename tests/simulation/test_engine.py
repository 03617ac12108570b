"""Unit tests for the Simulator engine."""

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer
from repro.core.protocols import Balancer
from repro.simulation.engine import Simulator, run_balancer
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
