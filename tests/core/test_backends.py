"""Unit tests for the pluggable kernel-backend layer.

The backend contract is *bit-for-bit interchangeability*: every backend
must produce identical results for every operator primitive, so backend
choice is purely a speed knob.  These tests pin that contract at the
primitive level (the property suite pins it at the trajectory level),
plus the selection policy, the int32 index downcast and the
plumbing through engines, sweep and Monte-Carlo.
"""

import numpy as np
import pytest

import repro.core.backends as B
from repro.core.backends import (
    NumbaBackend,
    PlainCSR,
    available_backends,
    backend_summaries,
    get_backend,
    index_dtype,
    resolve_backend,
)
from repro.core.operators import EdgeOperator, edge_operator, truncated_half
from repro.graphs import generators as g


def forced_numba_operator(topo):
    """An operator running the numba backend's *algorithms*.

    Without numba installed the kernels degrade to pure Python (the
    ``@njit`` shim), which is far too slow for production but exercises
    exactly the fused-kernel logic on small graphs; with numba installed
    this is the real JIT backend.
    """
    return EdgeOperator(topo, NumbaBackend())


BACKEND_OPS = [
    ("numpy", lambda t: edge_operator(t, "numpy")),
    pytest.param(
        "scipy",
        lambda t: edge_operator(t, "scipy"),
        marks=pytest.mark.skipif(not B.HAVE_SCIPY, reason="scipy unavailable"),
    ),
    ("numba", forced_numba_operator),
]


class TestIndexDtype:
    def test_small_values_downcast(self):
        assert index_dtype(0) == np.int32
        assert index_dtype(4096, 8192) == np.int32

    def test_boundary(self):
        """2**31 - 1 is the last representable int32 index; one past
        overflows and must stay int64."""
        assert index_dtype(2**31 - 1) == np.int32
        assert index_dtype(2**31) == np.int64
        assert index_dtype(5, 2**31) == np.int64

    def test_operator_arrays_are_int32_for_small_graphs(self, torus):
        op = edge_operator(torus)
        assert op.idx_dtype == np.int32
        A = op.incidence_csr()
        assert A.indptr.dtype == np.int32 and A.indices.dtype == np.int32
        M = op.round_csr()
        assert M.indptr.dtype == np.int32 and M.indices.dtype == np.int32
        indptr, indices, eids = op.adjacency()
        assert indptr.dtype == np.int32
        assert indices.dtype == np.int32
        assert eids.dtype == np.int32

    def test_scipy_views_keep_downcast_indices(self, torus):
        if not B.HAVE_SCIPY:
            pytest.skip("scipy unavailable")
        assert edge_operator(torus).incidence().indices.dtype == np.int32
        assert edge_operator(torus).round_matrix().indices.dtype == np.int32


class TestSelection:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_auto_prefers_fastest(self):
        names = available_backends()
        assert resolve_backend("auto") == names[0]
        if B.HAVE_SCIPY and not NumbaBackend.available():
            assert resolve_backend("auto") == "scipy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("cuda")

    def test_unavailable_backend_raises(self, monkeypatch):
        monkeypatch.setattr(B.ScipyBackend, "available", classmethod(lambda cls: False))
        with pytest.raises(RuntimeError, match="not available"):
            resolve_backend("scipy")

    def test_auto_degrades_without_scipy_and_numba(self, monkeypatch):
        monkeypatch.setattr(B.ScipyBackend, "available", classmethod(lambda cls: False))
        monkeypatch.setattr(B.NumbaBackend, "available", classmethod(lambda cls: False))
        assert resolve_backend("auto") == "numpy"
        assert resolve_backend(None) == "numpy"

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert resolve_backend(None) == "numpy"
        monkeypatch.delenv("REPRO_BACKEND")
        assert resolve_backend(None) == resolve_backend("auto")

    def test_summaries_cover_all_backends(self):
        rows = backend_summaries()
        assert {r["name"] for r in rows} == {"numpy", "scipy", "numba"}
        assert sum(r["default"] for r in rows) == 1
        for row in rows:
            assert isinstance(row["detail"], str) and row["detail"]

    def test_get_backend_is_singleton(self):
        assert get_backend("numpy") is get_backend("numpy")


class TestOperatorCache:
    def test_default_backend_operator_cached(self, torus):
        assert edge_operator(torus) is edge_operator(torus)

    def test_distinct_backends_get_distinct_operators(self, torus):
        a = edge_operator(torus, "numpy")
        b = edge_operator(torus)
        if a.backend == b.backend:
            pytest.skip("only one backend available")
        assert a is not b

    def test_scratch_never_shared_across_backends(self, torus):
        ops = [edge_operator(torus, "numpy")]
        if B.HAVE_SCIPY:
            ops.append(edge_operator(torus, "scipy"))
        ops.append(forced_numba_operator(torus))
        bufs = [op.scratch("probe", (8, 3), np.float64) for op in ops]
        for i in range(len(bufs)):
            for j in range(i + 1, len(bufs)):
                assert bufs[i] is not bufs[j]
                assert not np.shares_memory(bufs[i], bufs[j])


class TestPrimitiveParity:
    """Every backend primitive equals the numpy reference, bit for bit."""

    @pytest.fixture(
        scope="class",
        params=["cycle:12", "torus:5x5", "star:32", "complete:16", "debruijn:5"],
        ids=lambda s: s,
    )
    def topo(self, request):
        return g.by_name(request.param)

    @pytest.mark.parametrize("name,make_op", BACKEND_OPS)
    def test_round_parity(self, topo, name, make_op):
        rng = np.random.default_rng(7)
        ref = edge_operator(topo, "numpy")
        op = make_op(topo)
        x = rng.uniform(0, 1000.0, topo.n)
        X = np.ascontiguousarray(rng.uniform(0, 1000.0, (topo.n, 5)))
        xi = rng.integers(0, 100_000, topo.n)
        Xi = np.ascontiguousarray(rng.integers(0, 100_000, (topo.n, 5)))
        assert np.array_equal(op.round_continuous(x), ref.round_continuous(x))
        assert np.array_equal(op.round_continuous(X), ref.round_continuous(X))
        assert np.array_equal(op.round_discrete(xi), ref.round_discrete(xi))
        assert np.array_equal(op.round_discrete(Xi), ref.round_discrete(Xi))
        # One-column slabs (a block worker's B=1 state) equal the 1-D round.
        x1, xi1 = x[:, None].copy(), xi[:, None].copy()
        assert np.array_equal(op.round_continuous(x1), ref.round_continuous(x1))
        assert np.array_equal(op.round_continuous(x1)[:, 0], op.round_continuous(x))
        assert np.array_equal(op.round_discrete(xi1)[:, 0], ref.round_discrete(xi))
        for alpha in (0.01, 1.0 / (topo.max_degree + 1)):
            assert np.array_equal(op.fos_round(alpha, x), ref.fos_round(alpha, x))
            assert np.array_equal(op.fos_round(alpha, X), ref.fos_round(alpha, X))
        flows = ref.differences(x) / ref.denominators
        assert np.array_equal(op.apply_flows(x, flows), ref.apply_flows(x, flows))
        # Integer flows on loads near 2**60 (past float64's exact range)
        # scatter exactly on every backend, (n,) and (n, B).
        A = ref.incidence_csr(np.int64)
        for big in (xi + 2**60, Xi + 2**60):
            diff = ref.differences(big)
            den = ref.denominators_int.reshape((-1,) + (1,) * (big.ndim - 1))
            iflows = np.sign(diff) * (np.abs(diff) // den)
            old = ref.kernels.add_matvec(A, big, iflows, np.empty_like(big))
            buf = np.empty_like(big)
            assert op.apply_flows(big, iflows, out=buf) is buf
            assert np.array_equal(buf, old)

    @pytest.mark.parametrize("name,make_op", BACKEND_OPS)
    def test_discrete_beyond_reciprocal_range(self, topo, name, make_op):
        """The int64 floor-division fallback path is also backend-exact."""
        from repro.core.operators import RECIP_DIV_LIMIT

        ref = edge_operator(topo, "numpy")
        op = make_op(topo)
        loads = np.zeros(topo.n, dtype=np.int64)
        loads[0] = RECIP_DIV_LIMIT * 8
        loads[-1] = 17
        assert np.array_equal(op.round_discrete(loads), ref.round_discrete(loads))
        batch = np.ascontiguousarray(np.stack([loads, loads[::-1].copy()], axis=1))
        assert np.array_equal(op.round_discrete(batch), ref.round_discrete(batch))

    def test_scipy_backend_matches_legacy_matrix_product(self, topo):
        """The scipy backend must preserve the pre-backend-seam semantics
        (``M @ loads``) exactly — the committed bench baseline depends on
        the numbers not moving."""
        if not B.HAVE_SCIPY:
            pytest.skip("scipy unavailable")
        rng = np.random.default_rng(8)
        op = edge_operator(topo, "scipy")
        x = rng.uniform(0, 1000.0, topo.n)
        assert np.array_equal(op.round_continuous(x), op.round_matrix() @ x)

    def test_empty_graph_identity_on_all_backends(self):
        from repro.graphs.topology import Topology

        topo = Topology(3, [])
        loads = np.asarray([1.0, 2.0, 3.0])
        tokens = np.asarray([1, 2, 3], dtype=np.int64)
        for _, make_op in (("numpy", lambda t: edge_operator(t, "numpy")),
                           ("numba", forced_numba_operator)):
            op = make_op(topo)
            assert np.array_equal(op.round_continuous(loads), loads)
            assert np.array_equal(op.round_discrete(tokens), tokens)


class TestAccumulateMatvec:
    """``accumulate_matvec`` folds ``csr @ x`` into ``out`` in place, on
    every backend (numba through the base-class default)."""

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("name,make_op", BACKEND_OPS)
    def test_adds_product_into_out(self, name, make_op, dtype):
        topo = g.by_name("star:32")
        op = make_op(topo)
        ref = edge_operator(topo, "numpy")
        A = op.incidence_csr(dtype)
        rng = np.random.default_rng(5)
        for tail in ((), (1,), (5,)):
            x = rng.integers(-1000, 1000, (topo.m,) + tail).astype(dtype)
            base = rng.integers(-(10**6), 10**6, (topo.n,) + tail).astype(dtype)
            want = base + ref.kernels.matvec(A, x, np.empty_like(base))
            out = base.copy()
            assert op.kernels.accumulate_matvec(A, x, out) is out
            assert np.array_equal(out, want), tail


class TestFosCSR:
    def test_data_matches_from_scratch_build(self, any_topology):
        """The pattern-shared per-alpha data fill must be bitwise the
        values of a full ``_laplacian_style`` rebuild."""
        op = edge_operator(any_topology, "numpy")
        for alpha in (0.3, 1.0 / (any_topology.max_degree + 1)):
            fast = op.fos_csr(alpha, cache=False)
            full = op._laplacian_style(np.full(any_topology.m, alpha, dtype=np.float64))
            assert np.array_equal(fast.indptr, full.indptr)
            assert np.array_equal(fast.indices, full.indices)
            assert np.array_equal(fast.data, full.data)

    def test_cache_flag(self, torus):
        op = edge_operator(torus, "numpy")
        a = op.fos_csr(0.125)
        assert op.fos_csr(0.125) is a
        b = op.fos_csr(0.126, cache=False)
        assert op.fos_csr(0.126, cache=False) is not b


class TestTruncatedHalf:
    def test_matches_sign_floor_halve(self):
        rng = np.random.default_rng(9)
        d = rng.integers(-(10**12), 10**12, 500)
        assert np.array_equal(truncated_half(d), np.sign(d) * (np.abs(d) // 2))

    def test_beyond_float_exact_range(self):
        d = np.asarray([2**60 + 1, -(2**60) - 1, 2**52, -(2**52), 3, -3], dtype=np.int64)
        assert np.array_equal(truncated_half(d), np.sign(d) * (np.abs(d) // 2))

    def test_out_buffer_and_empty(self):
        d = np.asarray([5, -5], dtype=np.int64)
        buf = np.empty_like(d)
        assert truncated_half(d, out=buf) is buf
        empty = np.empty(0, dtype=np.int64)
        assert truncated_half(empty).shape == (0,)


class TestEnginePassThrough:
    def test_simulator_sets_balancer_backend(self, torus):
        from repro.core.diffusion import DiffusionBalancer
        from repro.simulation.engine import Simulator

        bal = DiffusionBalancer(torus)
        Simulator(bal, backend="numpy")
        assert bal.backend == "numpy"

    def test_ensemble_sets_balancer_backend(self, torus):
        from repro.core.diffusion import DiffusionBalancer
        from repro.simulation.ensemble import EnsembleSimulator

        bal = DiffusionBalancer(torus)
        EnsembleSimulator(bal, backend="numpy")
        assert bal.backend == "numpy"

    def test_sharded_sets_balancer_backend(self, torus):
        from repro.core.diffusion import DiffusionBalancer
        from repro.simulation.sharding import run_sharded_ensemble
        from repro.simulation.stopping import MaxRounds

        bal = DiffusionBalancer(torus)
        loads = np.random.default_rng(1).uniform(0, 100, torus.n)
        trace = run_sharded_ensemble(
            bal, loads, replicas=2, workers=1, stopping=[MaxRounds(3)], backend="numpy"
        )
        assert bal.backend == "numpy"
        assert trace.replicas == 2

    def test_sweep_backend_kwarg(self):
        from repro.simulation.sweep import sweep

        table, cells = sweep(
            ["torus:4x4"], ["diffusion"], eps=0.01, max_rounds=200, backend="numpy"
        )
        assert cells and "torus:4x4" in table.to_text()

    def test_monte_carlo_forwards_backend_kwarg(self):
        from repro.simulation.montecarlo import monte_carlo

        result = monte_carlo(_backend_probe_trial, trials=3, backend="numpy")
        assert np.all(result.samples["value"] == 1.0)
        plain = monte_carlo(_backend_probe_trial, trials=3)
        assert np.all(plain.samples["value"] == 0.0)


def _backend_probe_trial(rng, backend=None):
    return 1.0 if backend == "numpy" else 0.0
