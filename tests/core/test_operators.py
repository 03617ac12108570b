"""Unit tests for the cached per-topology EdgeOperator."""

import hashlib
import math

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer, diffusion_flows
from repro.core.operators import HAVE_SCIPY, RECIP_DIV_LIMIT, EdgeOperator, edge_operator
from repro.graphs import generators as g
from repro.graphs.partition import make_partition
from repro.graphs.topology import Topology
from repro.simulation.ensemble import EnsembleSimulator
from repro.simulation.partitioned import BlockLocal, PartitionedSimulator
from repro.simulation.stopping import MaxRounds


class TestCaching:
    def test_same_instance_per_topology(self, torus):
        assert edge_operator(torus) is edge_operator(torus)

    def test_distinct_topologies_get_distinct_operators(self):
        a, b = g.torus_2d(4, 4), g.torus_2d(4, 4)
        assert edge_operator(a) is not edge_operator(b)

    def test_denominators_shared_with_topology_cache(self, torus):
        op = edge_operator(torus)
        assert op.denominators is torus.edge_denominators
        assert op.denominators_int is torus.edge_denominators_int

    def test_round_matrix_cached(self, torus):
        op = edge_operator(torus)
        if op.round_matrix() is None:
            pytest.skip("SciPy unavailable")
        assert op.round_matrix() is op.round_matrix()
        assert op.fos_round_matrix(0.2) is op.fos_round_matrix(0.2)
        assert op.fos_round_matrix(0.2) is not op.fos_round_matrix(0.1)


class TestDenominatorCache:
    def test_values_match_formula(self, any_topology):
        deg = any_topology.degrees
        u, v = any_topology.edges[:, 0], any_topology.edges[:, 1]
        want = 4 * np.maximum(deg[u], deg[v])
        assert np.array_equal(any_topology.edge_denominators_int, want)
        assert np.array_equal(any_topology.edge_denominators, want.astype(np.float64))

    def test_read_only(self, torus):
        with pytest.raises(ValueError):
            torus.edge_denominators[0] = 1.0


class TestRoundMatrix:
    def test_matches_flow_formulation(self, any_topology, rng):
        """M @ l equals the explicit flows-and-scatter round (within fp)."""
        op = edge_operator(any_topology)
        M = op.round_matrix()
        if M is None:
            pytest.skip("SciPy unavailable")
        loads = rng.uniform(0, 100, any_topology.n)
        diff = op.differences(loads)
        explicit = op.apply_flows(loads, diff / op.denominators)
        assert np.allclose(M @ loads, explicit, rtol=1e-12, atol=1e-9)

    def test_row_sums_one(self, any_topology):
        op = edge_operator(any_topology)
        M = op.round_matrix()
        if M is None:
            pytest.skip("SciPy unavailable")
        ones = np.ones(any_topology.n)
        assert np.allclose(M @ ones, ones)  # uniform loads are a fixed point

    def test_empty_graph_is_identity(self):
        topo = Topology(3, [])
        op = edge_operator(topo)
        loads = np.asarray([1.0, 2.0, 3.0])
        assert np.array_equal(op.round_continuous(loads), loads)
        assert np.array_equal(
            op.round_discrete(np.asarray([1, 2, 3], dtype=np.int64)), [1, 2, 3]
        )


class TestApplyFlows:
    def test_out_buffer_respected(self, torus, rng):
        op = edge_operator(torus)
        loads = rng.uniform(0, 100, torus.n)
        flows = op.differences(loads) / op.denominators
        buf = np.empty_like(loads)
        out = op.apply_flows(loads, flows, out=buf)
        assert out is buf
        assert np.array_equal(out, op.apply_flows(loads, flows))

    def test_out_aliasing_rejected(self, torus, rng):
        op = edge_operator(torus)
        loads = rng.uniform(0, 100, torus.n)
        flows = op.differences(loads) / op.denominators
        with pytest.raises(ValueError):
            op.apply_flows(loads, flows, out=loads)

    def test_int_apply_exact(self, torus, rng):
        op = edge_operator(torus)
        loads = rng.integers(0, 10_000, torus.n).astype(np.int64)
        diff = op.differences(loads)
        flows = np.sign(diff) * (np.abs(diff) // op.denominators_int)
        out = op.apply_flows(loads, flows)
        assert out.dtype == np.int64
        assert out.sum() == loads.sum()


class TestScratch:
    def test_scratch_reused_by_key(self, torus):
        op = edge_operator(torus)
        a = op.scratch("x", (4, 2), np.float64)
        b = op.scratch("x", (4, 2), np.float64)
        assert a is b
        assert op.scratch("x", (4, 3), np.float64) is not a
        assert op.scratch("y", (4, 2), np.float64) is not a

    def test_new_shape_replaces_buffer(self, torus):
        op = EdgeOperator(torus)
        op.scratch("x", (4, 2), np.float64)
        wide = op.scratch("x", (4, 3), np.float64)
        assert wide.shape == (4, 3)
        assert op.scratch("x", (4, 3), np.float64) is wide
        assert len(op._scratch) == 1

    def test_replica_sweep_keeps_one_buffer_per_name(self):
        topo = g.torus_2d(6, 6)
        op = EdgeOperator(topo, backend="numpy")
        loc = BlockLocal(make_partition(topo, 2, "bfs"), 0, backend="numpy")
        rng = np.random.default_rng(3)
        for B in range(1, 17):
            loads = rng.integers(0, 1000, (topo.n, B)).astype(np.int64)
            op.round_discrete(loads)
            ext = np.ascontiguousarray(loads[loc.ext_ids])
            for rows in (None, "interior", "boundary"):
                loc.round_discrete(ext, rows=rows)
        for cache in (op._scratch, loc._scratch):
            names = [key[0] for key in cache]
            assert names and len(names) == len(set(names))
        assert op._scratch[("disc-flows", np.dtype(np.int64).char)].shape == (topo.m, 16)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _literal_round(topo, loads):
    """The literal discrete round: ``diffusion_flows`` + ``np.add.at``.

    ``loads`` is node-major ``(n,)`` or ``(n, B)``."""
    flows = diffusion_flows(loads.T, topo, discrete=True).T
    new = np.array(loads, dtype=np.int64, copy=True)
    np.add.at(new, topo.edges[:, 0], -flows)
    np.add.at(new, topo.edges[:, 1], flows)
    return new


def _planted_loads(topo, top, B, seed, peaks=(0,)):
    """Loads whose edge differences sit at ``k d`` and ``k d +- 1``.

    Every load is ``top - k L - o`` with ``L`` the lcm of the edge
    denominators and ``o`` in {0, 1}, so each edge difference is a
    multiple of its own denominator ``d`` (``d | L``) plus -1, 0 or +1.
    Nodes in ``peaks`` hold exactly ``top``, the maximum."""
    L = math.lcm(*np.unique(topo.edge_denominators_int).tolist())
    rng = np.random.default_rng(seed)
    shape = (topo.n,) if B is None else (topo.n, B)
    small = rng.integers(0, 4, shape)  # flows of 0..3 tokens
    large = rng.integers(0, top // L, shape)  # differences near the bound
    k = np.where(rng.random(shape) < 0.5, small, large)
    loads = top - k * L - rng.integers(0, 2, shape)
    loads[list(peaks)] = top
    return loads.astype(np.int64)


# star:50 is irregular and its denominator 196 is one where an unbiased
# reciprocal 1/d truncates exact multiples one short.
ORACLE_GRAPHS = ["torus:6x6", "hypercube:4", "star:50", "path:9"]
ORACLE_BACKENDS = [
    "numpy",
    pytest.param("scipy", marks=pytest.mark.skipif(not HAVE_SCIPY, reason="SciPy unavailable")),
]
# The largest loads the float64 fast branch accepts, and the smallest
# that take the exact int64 branch.
ORACLE_TOPS = [RECIP_DIV_LIMIT - 1, RECIP_DIV_LIMIT]


class TestDiscreteRoundOracle:
    """Both discrete rounds equal the literal flows-and-scatter round."""

    @pytest.mark.parametrize("top", ORACLE_TOPS, ids=["fast", "exact"])
    @pytest.mark.parametrize("B", [None, 1, 3, 64], ids=lambda b: f"B{b}")
    @pytest.mark.parametrize("backend", ORACLE_BACKENDS)
    @pytest.mark.parametrize("spec", ORACLE_GRAPHS)
    def test_operator_round(self, spec, backend, B, top):
        topo = g.by_name(spec)
        op = edge_operator(topo, backend)
        for seed in range(3):
            loads = _planted_loads(topo, top, B, seed)
            got = op.round_discrete(loads)
            assert got.dtype == np.int64
            assert np.array_equal(got, _literal_round(topo, loads)), seed

    @pytest.mark.parametrize("top", ORACLE_TOPS, ids=["fast", "exact"])
    @pytest.mark.parametrize("B", [None, 3], ids=lambda b: f"B{b}")
    @pytest.mark.parametrize("rows", [None, "interior", "boundary"])
    @pytest.mark.parametrize("backend", ORACLE_BACKENDS + ["numba"])
    @pytest.mark.parametrize("spec", ORACLE_GRAPHS)
    def test_block_round(self, spec, backend, rows, B, top, monkeypatch):
        """Blocks run the staged round on every backend, numba included
        (its pure-Python kernel shims stand in when numba is absent)."""
        import repro.core.backends as backends_mod

        if backend == "numba" and not backends_mod.NumbaBackend.available():
            monkeypatch.setattr(
                backends_mod.NumbaBackend, "available", classmethod(lambda cls: True)
            )
        topo = g.by_name(spec)
        part = make_partition(topo, 2, "bfs")
        peaks = [int(owned[0]) for owned in part.owned]
        loads = _planted_loads(topo, top, B, seed=7, peaks=peaks)
        want = _literal_round(topo, loads)
        for p in range(part.blocks):
            loc = BlockLocal(part, p, backend=backend)
            ext = np.ascontiguousarray(loads[loc.ext_ids])
            pos = np.arange(loc.n_owned) if rows is None else loc._rows_positions(rows)
            got = loc.round_discrete(ext, rows=rows)
            assert np.array_equal(got[pos], want[loc.owned[pos]]), p

    def test_interior_copies_only_owned_rows(self):
        topo = g.torus_2d(6, 6)
        loc = BlockLocal(make_partition(topo, 2, "bfs"), 0, backend="numpy")
        loads = _planted_loads(topo, RECIP_DIV_LIMIT - 1, 3, seed=1)
        want = _literal_round(topo, loads)
        ext = np.ascontiguousarray(loads[loc.ext_ids])
        # Ghost values far past the fast-branch limit: reading any of
        # them would change the bound and the copied region.
        ext[loc.n_owned :] = RECIP_DIV_LIMIT * 64
        got = loc.round_discrete(ext, rows="interior")
        pos = loc.interior
        assert pos.size
        assert np.array_equal(got[pos], want[loc.owned[pos]])
        lf = loc._scratch[("disc-interior-lf", np.dtype(np.float64).char)]
        assert lf.shape == (loc.n_owned, 3)
        assert ("disc-interior-mag", np.dtype(np.int64).char) not in loc._scratch


# Final loads captured from the gather-based discrete round; the
# difference-operator round must reproduce them bit-for-bit.
GOLDEN_ENSEMBLE = "6e1e14ca046b9e7e8225fc9fccb84b321b3cd5ca0f9cc06ae496c253d5a282e9"
GOLDEN_PARTITIONED = "ca62d91e6a34e8702fcad3a6089ccdf4f2012da625131ab83c46609ef552cd93"


class TestDiscreteGolden:
    def test_ensemble_b8(self):
        topo = g.torus_2d(8, 8)
        rng = np.random.default_rng(2026)
        batch = rng.integers(0, 1 << 20, (8, topo.n)).astype(np.int64)
        trace = EnsembleSimulator(
            DiffusionBalancer(topo, mode="discrete"),
            stopping=[MaxRounds(40)],
            serial_singleton=False,
        ).run(batch, seed=0)
        assert _digest(trace.final_loads) == GOLDEN_ENSEMBLE

    def test_partitioned_p2_inprocess(self):
        topo = g.torus_2d(12, 12)
        rng = np.random.default_rng(2027)
        loads = rng.integers(0, 1 << 20, topo.n).astype(np.int64)
        trace = PartitionedSimulator(
            DiffusionBalancer(topo, mode="discrete"),
            partitions=2,
            stopping=[MaxRounds(40)],
        ).run(loads)
        assert _digest(trace.final_loads) == GOLDEN_PARTITIONED


class TestReciprocalFloorDivision:
    """The biased-reciprocal fast path is exact, with a guarded fallback."""

    def test_matches_integer_division_randomized(self, torus, rng):
        op = edge_operator(torus)
        for _ in range(20):
            diff = rng.integers(-(1 << 45), 1 << 45, torus.m)
            want = np.sign(diff) * (np.abs(diff) // op.denominators_int)
            got = op.floor_divide_denominators(diff, np.empty_like(diff))
            assert np.array_equal(got, want)

    def test_exact_at_multiples_of_denominator(self, torus):
        """Exact multiples are the adversarial case for reciprocal division:
        an unbiased reciprocal truncates them one short."""
        op = edge_operator(torus)
        for k in (0, 1, 2, 3, 1000, (1 << 45) // (8 * torus.max_degree)):
            for off in (-1, 0, 1):
                for sign in (1, -1):
                    diff = sign * (k * op.denominators_int + off)
                    want = np.sign(diff) * (np.abs(diff) // op.denominators_int)
                    got = op.floor_divide_denominators(diff, np.empty_like(diff))
                    assert np.array_equal(got, want), (k, off, sign)

    def test_batched_form(self, torus, rng):
        op = edge_operator(torus)
        diff = rng.integers(-(1 << 40), 1 << 40, (torus.m, 6))
        want = np.sign(diff) * (np.abs(diff) // op.denominators_int[:, None])
        got = op.floor_divide_denominators(diff, np.empty_like(diff))
        assert np.array_equal(got, want)

    def test_out_of_range_falls_back_exactly(self, torus):
        from repro.core.operators import RECIP_DIV_LIMIT

        op = edge_operator(torus)
        diff = np.full(torus.m, RECIP_DIV_LIMIT * 4, dtype=np.int64)
        diff[::2] = -diff[::2]
        want = np.sign(diff) * (np.abs(diff) // op.denominators_int)
        got = op.floor_divide_denominators(diff, np.empty_like(diff))
        assert np.array_equal(got, want)

    def test_round_discrete_unchanged_by_fast_path(self, any_topology, rng):
        """The discrete round is bit-identical whichever division path runs
        (both compute the exact floor)."""
        op = edge_operator(any_topology)
        loads = rng.integers(0, 100_000, any_topology.n).astype(np.int64)
        diff = op.differences(loads)
        flows = np.sign(diff) * (np.abs(diff) // op.denominators_int)
        want = op.apply_flows(loads, flows)
        got = op.round_discrete(loads)
        assert np.array_equal(got, want)

    def test_round_discrete_negative_loads_stay_exact(self, torus):
        """The fast-path guard must bound |diff| via max - min: a caller
        passing negative loads (the public kernel does not validate) must
        not slip oversized differences past the reciprocal exactness range."""
        from repro.core.operators import RECIP_DIV_LIMIT

        op = edge_operator(torus)
        loads = np.zeros(torus.n, dtype=np.int64)
        loads[0] = -(RECIP_DIV_LIMIT * 8 - 1)
        diff = op.differences(loads)
        flows = np.sign(diff) * (np.abs(diff) // op.denominators_int)
        want = op.apply_flows(loads, flows)
        assert np.array_equal(op.round_discrete(loads), want)

    def test_recip_cache_read_only(self, torus):
        op = edge_operator(torus)
        with pytest.raises(ValueError):
            op.denominators_recip[0] = 1.0
