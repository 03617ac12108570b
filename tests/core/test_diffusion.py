"""Unit tests for Algorithm 1 (diffusion) kernels and balancer."""

import pickle

import numpy as np
import pytest

from repro.core.diffusion import (
    DiffusionBalancer,
    apply_edge_flows,
    diffusion_flows,
    diffusion_round_continuous,
    diffusion_round_discrete,
    edge_denominators,
)
from repro.core.backends import available_backends
from repro.core.potential import potential
from repro.graphs import generators as g
from repro.graphs.dynamic import StaticDynamics
from repro.graphs.topology import Topology
from repro.simulation.engine import Simulator, run_balancer
from repro.simulation.stopping import MaxRounds


class TestFlows:
    def test_denominators_formula(self):
        t = g.star(4)  # hub degree 3, leaves degree 1
        assert edge_denominators(t).tolist() == [12.0, 12.0, 12.0]

    def test_continuous_flow_two_nodes(self):
        t = Topology(2, [(0, 1)])
        loads = np.asarray([10.0, 2.0])
        f = diffusion_flows(loads, t)
        # (10-2)/(4*max(1,1)) = 2
        assert f.tolist() == [2.0]

    def test_flow_antisymmetric_in_loads(self):
        t = Topology(2, [(0, 1)])
        f_ab = diffusion_flows(np.asarray([10.0, 2.0]), t)
        f_ba = diffusion_flows(np.asarray([2.0, 10.0]), t)
        assert f_ab[0] == -f_ba[0]

    def test_discrete_flow_floors_magnitude(self):
        t = Topology(2, [(0, 1)])
        f = diffusion_flows(np.asarray([9, 2], dtype=np.int64), t, discrete=True)
        assert f.dtype == np.int64
        assert f.tolist() == [1]  # floor(7/4)

    def test_discrete_flow_negative_direction(self):
        t = Topology(2, [(0, 1)])
        f = diffusion_flows(np.asarray([2, 9], dtype=np.int64), t, discrete=True)
        assert f.tolist() == [-1]

    def test_zero_diff_no_flow(self):
        t = Topology(2, [(0, 1)])
        assert diffusion_flows(np.asarray([5.0, 5.0]), t)[0] == 0.0


class TestApplyFlows:
    def test_apply_conserves(self, torus, rng):
        loads = rng.uniform(0, 100, torus.n)
        flows = diffusion_flows(loads, torus)
        out = apply_edge_flows(loads, torus, flows)
        assert out.sum() == pytest.approx(loads.sum(), rel=1e-12)

    def test_out_buffer_reuse(self, torus, rng):
        loads = rng.uniform(0, 100, torus.n)
        flows = diffusion_flows(loads, torus)
        buf = np.empty_like(loads)
        out = apply_edge_flows(loads, torus, flows, out=buf)
        assert out is buf

    def test_out_must_not_alias_input(self, torus, rng):
        loads = rng.uniform(0, 100, torus.n)
        flows = diffusion_flows(loads, torus)
        with pytest.raises(ValueError):
            apply_edge_flows(loads, torus, flows, out=loads)

    def test_input_not_mutated(self, torus, rng):
        loads = rng.uniform(0, 100, torus.n)
        snapshot = loads.copy()
        apply_edge_flows(loads, torus, diffusion_flows(loads, torus))
        assert np.array_equal(loads, snapshot)


class TestContinuousRound:
    def test_two_node_closed_form(self):
        t = Topology(2, [(0, 1)])
        out = diffusion_round_continuous(np.asarray([10.0, 2.0]), t)
        assert out.tolist() == [8.0, 4.0]

    def test_balanced_is_fixed_point(self, any_topology):
        loads = np.full(any_topology.n, 7.5)
        out = diffusion_round_continuous(loads, any_topology)
        assert np.allclose(out, loads)

    def test_potential_never_increases(self, any_topology, rng):
        loads = rng.uniform(0, 100, any_topology.n)
        for _ in range(10):
            new = diffusion_round_continuous(loads, any_topology)
            assert potential(new) <= potential(loads) + 1e-9
            loads = new

    def test_theorem4_per_round_drop(self, any_topology, rng):
        from repro.graphs.spectral import lambda_2

        lam2 = lambda_2(any_topology)
        guaranteed = lam2 / (4 * any_topology.max_degree)
        loads = rng.uniform(0, 100, any_topology.n)
        phi = potential(loads)
        new_phi = potential(diffusion_round_continuous(loads, any_topology))
        assert (phi - new_phi) / phi >= guaranteed - 1e-9

    def test_loads_stay_nonnegative(self, any_topology, rng):
        # Damping by 1/(4 max degree) caps total outflow at 1/4 of surplus.
        loads = rng.uniform(0, 100, any_topology.n)
        for _ in range(5):
            loads = diffusion_round_continuous(loads, any_topology)
            assert (loads >= -1e-9).all()


class TestDiscreteRound:
    def test_two_node_closed_form(self):
        t = Topology(2, [(0, 1)])
        out = diffusion_round_discrete(np.asarray([10, 2], dtype=np.int64), t)
        assert out.tolist() == [8, 4]  # floor(8/4) = 2 moves

    def test_conservation_exact(self, any_topology, rng):
        loads = rng.integers(0, 10_000, any_topology.n).astype(np.int64)
        out = diffusion_round_discrete(loads, any_topology)
        assert out.sum() == loads.sum()
        assert out.dtype == np.int64

    def test_stalled_ramp_on_path(self):
        # The paper's example: load i on node i of a path never moves.
        t = g.path(6)
        loads = np.arange(6, dtype=np.int64)
        out = diffusion_round_discrete(loads, t)
        assert np.array_equal(out, loads)

    def test_potential_never_increases(self, any_topology, rng):
        loads = rng.integers(0, 10_000, any_topology.n).astype(np.int64)
        for _ in range(10):
            new = diffusion_round_discrete(loads, any_topology)
            assert potential(new) <= potential(loads) + 1e-9
            loads = new

    def test_loads_stay_nonnegative(self, any_topology, rng):
        loads = rng.integers(0, 1000, any_topology.n).astype(np.int64)
        for _ in range(5):
            loads = diffusion_round_discrete(loads, any_topology)
            assert (loads >= 0).all()


class TestBalancer:
    def test_mode_validation(self, torus):
        with pytest.raises(ValueError):
            DiffusionBalancer(torus, mode="quantum")

    def test_discrete_rejects_fractional(self, torus):
        bal = DiffusionBalancer(torus, mode="discrete")
        with pytest.raises(ValueError):
            bal.step(np.full(torus.n, 1.5), np.random.default_rng(0))

    def test_rejects_negative_loads(self, torus):
        bal = DiffusionBalancer(torus, mode="continuous")
        loads = np.full(torus.n, 1.0)
        loads[0] = -1.0
        with pytest.raises(ValueError):
            bal.step(loads, np.random.default_rng(0))

    def test_size_mismatch(self, torus):
        bal = DiffusionBalancer(torus)
        with pytest.raises(ValueError, match="nodes"):
            bal.step(np.ones(torus.n + 1), np.random.default_rng(0))

    def test_step_matches_kernel(self, torus, rng):
        bal = DiffusionBalancer(torus, mode="discrete")
        loads = rng.integers(0, 500, torus.n).astype(np.int64)
        out = bal.step(loads, np.random.default_rng(0))
        assert np.array_equal(out, diffusion_round_discrete(loads, torus))

    def test_dynamic_network_round_tracking(self, torus):
        bal = DiffusionBalancer(StaticDynamics(torus), mode="continuous")
        assert bal.dynamic
        rng0 = np.random.default_rng(0)
        loads = np.ones(torus.n)
        bal.step(loads, rng0)
        bal.step(loads, rng0)
        assert bal.state.round == 2
        bal.reset()
        assert bal.state.round == 0

    def test_name_mentions_mode_and_graph(self, torus):
        assert "discrete" in DiffusionBalancer(torus, mode="discrete").name
        assert torus.name in DiffusionBalancer(torus).name


class TestOperatorCache:
    """A static topology resolves its operator once per run."""

    @staticmethod
    def _count_lookups(monkeypatch) -> list:
        import repro.core.diffusion as diffusion

        calls = []
        real = diffusion.edge_operator

        def spy(topo, backend=None):
            calls.append(backend)
            return real(topo, backend)

        monkeypatch.setattr(diffusion, "edge_operator", spy)
        return calls

    def test_static_topology_looks_up_once_per_run(self, torus, monkeypatch):
        calls = self._count_lookups(monkeypatch)
        bal = DiffusionBalancer(torus)
        run_balancer(bal, np.arange(torus.n, dtype=np.float64), 12)
        assert len(calls) == 1
        run_balancer(bal, np.arange(torus.n, dtype=np.float64), 12)
        assert len(calls) == 2  # reset() drops the resolved operator

    def test_dynamic_network_looks_up_every_round(self, torus, monkeypatch):
        calls = self._count_lookups(monkeypatch)
        bal = DiffusionBalancer(StaticDynamics(torus))
        run_balancer(bal, np.arange(torus.n, dtype=np.float64), 12)
        assert len(calls) == 12

    @pytest.mark.skipif("scipy" not in available_backends(), reason="scipy not installed")
    def test_operator_follows_backend_switch_between_runs(self, torus):
        loads = np.arange(torus.n, dtype=np.float64)
        bal = DiffusionBalancer(torus)
        bal.backend = "numpy"
        ref = run_balancer(bal, loads, 5)
        assert bal._op.backend == "numpy"
        traced = Simulator(bal, stopping=[MaxRounds(5)], backend="scipy").run(loads, 0)
        assert bal._op.backend == "scipy"
        assert traced.potentials == ref.potentials

    @pytest.mark.skipif("scipy" not in available_backends(), reason="scipy not installed")
    def test_operator_follows_backend_switch_within_run(self, torus):
        bal = DiffusionBalancer(torus, backend="numpy")
        loads = np.arange(torus.n, dtype=np.float64)
        bal.step(loads, np.random.default_rng(0))
        bal.backend = "scipy"
        bal.step(loads, np.random.default_rng(0))
        assert bal._op.backend == "scipy"

    def test_node_count_mismatch_after_caching_raises(self, torus):
        bal = DiffusionBalancer(torus)
        bal.step(np.ones(torus.n), np.random.default_rng(0))
        with pytest.raises(ValueError, match="nodes"):
            bal.step(np.ones(torus.n + 1), np.random.default_rng(0))
        with pytest.raises(ValueError, match="nodes"):
            bal.step_batch(np.ones((torus.n - 1, 2)), None)

    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    def test_ran_balancer_pickles_no_operator(self, mode):
        topo = g.torus_2d(16, 16)
        fresh = pickle.dumps(DiffusionBalancer(topo, mode))
        bal = DiffusionBalancer(topo, mode)
        loads = np.zeros(topo.n, dtype=bal.dtype)
        loads[0] = 25_600
        Simulator(bal, stopping=[MaxRounds(20)]).run(loads, 0)
        assert bal._op is not None
        shipped = pickle.dumps(bal)
        assert b"EdgeOperator" not in shipped
        assert len(shipped) <= len(fresh)
        clone = pickle.loads(shipped)
        assert "_op" not in vars(clone) and "_op_backend" not in vars(clone)
        clone.reset()
        bal.reset()
        rng = np.random.default_rng(0)
        assert np.array_equal(clone.step(loads, rng), bal.step(loads, rng))
