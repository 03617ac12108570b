"""Unit tests for the first-order scheme (FOS) and its discretizations."""

import numpy as np
import pytest

from repro.baselines import first_order
from repro.baselines.first_order import (
    FirstOrderBalancer,
    cap_extra_tokens,
    fos_alpha,
    fos_flows,
    fos_round_continuous,
    fos_round_discrete_floor,
    fos_round_discrete_randomized,
)
from repro.core.potential import l2_error, potential
from repro.graphs import generators as g
from repro.graphs.spectral import diffusion_matrix, gamma
from repro.graphs.topology import Topology


class TestContinuous:
    def test_round_equals_matrix_product(self, any_topology, rng):
        loads = rng.uniform(0, 100, any_topology.n)
        m = diffusion_matrix(any_topology)
        assert np.allclose(fos_round_continuous(loads, any_topology), m @ loads, atol=1e-9)

    def test_alpha_default(self, torus):
        assert fos_alpha(torus) == pytest.approx(1 / (torus.max_degree + 1))

    def test_conservation(self, torus, rng):
        loads = rng.uniform(0, 100, torus.n)
        assert fos_round_continuous(loads, torus).sum() == pytest.approx(loads.sum(), rel=1e-12)

    def test_error_contracts_by_gamma(self, any_topology, rng):
        """Cybenko: ||e(t+1)|| <= gamma ||e(t)||."""
        gam = gamma(any_topology)
        loads = rng.uniform(0, 100, any_topology.n)
        out = fos_round_continuous(loads, any_topology)
        assert l2_error(out) <= gam * l2_error(loads) + 1e-9

    def test_converges_on_bipartite_cycle(self, rng):
        # Even cycles are bipartite; alpha = 1/(delta+1) still converges.
        topo = g.cycle(6)
        loads = rng.uniform(0, 100, 6)
        for _ in range(500):
            loads = fos_round_continuous(loads, topo)
        assert np.allclose(loads, loads.mean(), atol=1e-6)


class TestDiscreteFloor:
    def test_conserves_exactly(self, torus, rng):
        loads = rng.integers(0, 10_000, torus.n).astype(np.int64)
        out = fos_round_discrete_floor(loads, torus)
        assert out.sum() == loads.sum()
        assert out.dtype == np.int64

    def test_two_node_example(self):
        t = Topology(2, [(0, 1)])
        # alpha = 1/2; flow = floor(8/2) = 4 -> perfectly balanced.
        out = fos_round_discrete_floor(np.asarray([9, 1], dtype=np.int64), t)
        assert out.tolist() == [5, 5]

    def test_small_differences_stall(self):
        t = g.path(4)
        loads = np.asarray([2, 1, 1, 0], dtype=np.int64)
        # alpha = 1/3: all flows floor to zero.
        out = fos_round_discrete_floor(loads, t)
        assert np.array_equal(out, loads)


class TestDiscreteRandomized:
    def test_conserves_exactly(self, torus, rng):
        loads = rng.integers(0, 10_000, torus.n).astype(np.int64)
        out = fos_round_discrete_randomized(loads, torus, rng)
        assert out.sum() == loads.sum()

    def test_unbiased_expectation(self):
        """E[randomized tokens] equals the continuous flow (EM03's point)."""
        t = Topology(2, [(0, 1)])
        loads = np.asarray([2, 0], dtype=np.int64)  # continuous flow = 1.0
        rng = np.random.default_rng(0)
        outs = np.asarray([fos_round_discrete_randomized(loads, t, rng)[1] for _ in range(3000)])
        # flow exactly 1.0 -> always ships 1: no variance in this case
        assert outs.mean() == pytest.approx(1.0)

    def test_fractional_flow_randomizes(self):
        t = Topology(2, [(0, 1)])
        loads = np.asarray([3, 0], dtype=np.int64)  # continuous flow = 1.5
        rng = np.random.default_rng(0)
        received = np.asarray([fos_round_discrete_randomized(loads, t, rng)[1] for _ in range(4000)])
        assert set(np.unique(received)) == {1, 2}
        assert received.mean() == pytest.approx(1.5, abs=0.05)

    def test_escapes_floor_stall(self):
        """Randomized rounding keeps making progress where floor stalls."""
        t = g.path(4)
        loads = np.asarray([2, 1, 1, 0], dtype=np.int64)
        rng = np.random.default_rng(3)
        for _ in range(200):
            loads = fos_round_discrete_randomized(loads, t, rng)
        assert potential(loads) <= potential(np.asarray([2, 1, 1, 0]))


class TestRandomizedOverdraw:
    """A node never ships more tokens than it holds.

    On cycle:64 from a point load, a node holding one token whose two
    rounded-up flows both come up owes two; uncapped, that run dies with
    ``loads must be non-negative``, serial and batched.
    """

    CMD = ["run", "--balancer", "fos-randomized", "--topology", "cycle:64",
           "--rounds", "4000", "--seed", "0"]

    @staticmethod
    def cli_loads():
        from repro.simulation.initial import make_loads

        return make_loads("point", 64, rng=np.random.default_rng(0), discrete=True)

    def test_holder_of_one_token_ships_one(self):
        # path 0 - 1 - 2 with the token on node 1: both flows leave node 1
        f = np.asarray([-1 / 3, 1 / 3])
        extra = np.asarray([True, True])
        cap_extra_tokens(np.asarray([0, 1, 0]), f, np.zeros(2), extra,
                         np.asarray([0, 1]), np.asarray([1, 2]))
        assert extra.tolist() == [True, False]

    def test_rng_consumption_unchanged(self):
        t = g.cycle(64)
        loads = self.cli_loads()
        drawn, fresh = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(50):
            loads = fos_round_discrete_randomized(loads, t, drawn)
            fresh.random(t.m)
        assert drawn.random() == fresh.random()

    @pytest.mark.parametrize("extra", [[], ["--replicas", "2"]], ids=["serial", "batched"])
    def test_cli_run_completes(self, extra, capsys):
        from repro.cli import main

        assert main(self.CMD + extra) == 0
        assert "max-rounds(4000)" in capsys.readouterr().out

    @pytest.mark.parametrize("capped", [True, False])
    def test_serial_run_stays_non_negative(self, capped, monkeypatch):
        from repro.simulation.engine import Simulator
        from repro.simulation.stopping import MaxRounds

        if not capped:
            monkeypatch.setattr(first_order, "cap_extra_tokens", lambda *args: None)
        sim = Simulator(FirstOrderBalancer(g.cycle(64), "randomized"), [MaxRounds(4000)])
        if not capped:
            with pytest.raises(ValueError, match="non-negative"):
                sim.run(self.cli_loads(), 0)
            return
        trace = sim.run(self.cli_loads(), 0)
        assert trace.rounds == 4000 and trace.final_loads.min() >= 0

    @pytest.mark.parametrize("capped", [True, False])
    def test_batched_run_stays_non_negative(self, capped, monkeypatch):
        from repro.simulation.ensemble import EnsembleSimulator
        from repro.simulation.stopping import MaxRounds

        if not capped:
            monkeypatch.setattr(first_order, "cap_extra_tokens", lambda *args: None)
        sim = EnsembleSimulator(
            FirstOrderBalancer(g.cycle(64), "randomized"), [MaxRounds(4000)],
            keep_snapshots=True,
        )
        if not capped:
            with pytest.raises(ValueError, match="non-negative"):
                sim.run(self.cli_loads(), seed=0, replicas=2)
            return
        trace = sim.run(self.cli_loads(), seed=0, replicas=2)
        assert min(int(snap.min()) for snap in trace.snapshots) >= 0


class TestBalancer:
    def test_variant_validation(self, torus):
        with pytest.raises(ValueError):
            FirstOrderBalancer(torus, variant="stochastic")

    def test_alpha_stability_guard(self, torus):
        with pytest.raises(ValueError, match="stable range"):
            FirstOrderBalancer(torus, alpha=1.0)

    def test_modes(self, torus):
        assert FirstOrderBalancer(torus).mode == "continuous"
        assert FirstOrderBalancer(torus, variant="floor").mode == "discrete"
        assert FirstOrderBalancer(torus, variant="randomized").mode == "discrete"

    def test_step_dispatch(self, torus, rng):
        loads = rng.integers(0, 500, torus.n).astype(np.int64)
        floor_bal = FirstOrderBalancer(torus, variant="floor")
        assert np.array_equal(
            floor_bal.step(loads, np.random.default_rng(0)),
            fos_round_discrete_floor(loads, torus),
        )
