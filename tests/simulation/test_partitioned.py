"""Parity + unit tests for node-axis partitioned execution.

The load-bearing property: :class:`PartitionedSimulator` trajectories are
**bit-for-bit identical** to the serial :class:`Simulator` and the
lockstep :class:`EnsembleSimulator` — for diffusion (continuous and
discrete), FOS, P in {2, 4, 7}, both partition strategies, and dynamic
topologies whose cut set changes between rounds.
"""

import numpy as np
import pytest

from repro.baselines.first_order import FirstOrderBalancer
from repro.baselines.ops import OptimalPolynomialBalancer
from repro.core.diffusion import DiffusionBalancer, diffusion_flows
from repro.core.operators import HAVE_SCIPY, RECIP_DIV_LIMIT
from repro.graphs.dynamic import AlternatingDynamics, EdgeSamplingDynamics
from repro.graphs.generators import hypercube, torus_2d
from repro.graphs.partition import PARTITION_STRATEGIES, make_partition
from repro.simulation.engine import Simulator
from repro.simulation.ensemble import EnsembleSimulator
from repro.simulation.partitioned import BlockLocal, PartitionedSimulator, block_local
from repro.simulation.stopping import (
    DiscrepancyBelow,
    MaxRounds,
    PotentialBelow,
    PotentialFractionBelow,
    Stagnation,
)

ROUNDS = 25


def _loads(topo, discrete, seed=5):
    rng = np.random.default_rng(seed)
    if discrete:
        return rng.integers(0, 10_000, topo.n).astype(np.int64)
    return rng.uniform(0.0, 10_000.0, topo.n)


def _serial_snapshots(balancer, loads, rounds=ROUNDS):
    trace = Simulator(balancer, stopping=[MaxRounds(rounds)], keep_snapshots=True).run(loads, 0)
    return [np.asarray(s) for s in trace._snapshots]


BALANCER_FACTORIES = [
    ("diffusion-cont", lambda net: DiffusionBalancer(net), False),
    ("diffusion-disc", lambda net: DiffusionBalancer(net, mode="discrete"), True),
    ("fos", lambda net: FirstOrderBalancer(net), False),
]


class TestPartitionedParity:
    """Partitioned == serial == ensemble, bit for bit, across the grid."""

    @pytest.fixture(scope="class")
    def topo(self):
        return torus_2d(6, 6)

    @pytest.mark.parametrize("label,factory,discrete", BALANCER_FACTORIES,
                             ids=[b[0] for b in BALANCER_FACTORIES])
    @pytest.mark.parametrize("P", [2, 4, 7])
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_inprocess_matches_serial(self, topo, label, factory, discrete, P, strategy):
        loads = _loads(topo, discrete)
        expected = _serial_snapshots(factory(topo), loads.copy())
        psim = PartitionedSimulator(
            factory(topo), partitions=P, strategy=strategy,
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True,
        )
        trace = psim.run(loads.copy())
        assert trace.rounds == ROUNDS
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"
        assert psim.halo_stats["rounds"] == ROUNDS
        if P > 1:
            assert psim.halo_stats["halo_values"] > 0

    @pytest.mark.parametrize("label,factory,discrete", BALANCER_FACTORIES,
                             ids=[b[0] for b in BALANCER_FACTORIES])
    def test_inprocess_matches_ensemble_replicas(self, topo, label, factory, discrete):
        """The node axis composes with the replica axis: (n_block, B) slabs."""
        B = 5
        rng = np.random.default_rng(11)
        if discrete:
            batch = rng.integers(0, 10_000, (B, topo.n)).astype(np.int64)
        else:
            batch = rng.uniform(0.0, 10_000.0, (B, topo.n))
        ens = EnsembleSimulator(
            factory(topo), stopping=[MaxRounds(ROUNDS)], keep_snapshots=True,
            serial_singleton=False,
        ).run(batch.copy(), seed=0)
        part = PartitionedSimulator(
            factory(topo), partitions=4, strategy="bfs",
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True,
        ).run(batch.copy())
        assert np.array_equal(ens.final_loads, part.final_loads)
        for t in range(ens.recorded_states):
            assert np.array_equal(ens.snapshots[t], part.snapshots[t]), f"round {t}"
        # In-process statistics come from the assembled global matrix, so
        # they match the ensemble engine exactly, not just to the ulp.
        assert np.array_equal(ens.potentials_matrix, part.potentials_matrix)

    @pytest.mark.parametrize("P", [2, 4, 7])
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_dynamic_edge_failures_parity(self, P, strategy):
        """The cut set changes between rounds; trajectories still match."""
        base = torus_2d(6, 6)
        loads = _loads(base, discrete=True)
        expected = _serial_snapshots(
            DiffusionBalancer(EdgeSamplingDynamics(base, p=0.6, seed=9), mode="discrete"),
            loads.copy(),
        )
        psim = PartitionedSimulator(
            DiffusionBalancer(EdgeSamplingDynamics(base, p=0.6, seed=9), mode="discrete"),
            partitions=P, strategy=strategy,
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True,
        )
        trace = psim.run(loads.copy())
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"

    def test_alternating_dynamics_parity(self):
        """Phased topologies (disjoint edge sets per round) stay exact."""
        base = torus_2d(6, 6)
        rows = base.subgraph_with_edges(base.edges[:, 1] == base.edges[:, 0] + 1)
        cols = base.subgraph_with_edges(base.edges[:, 1] != base.edges[:, 0] + 1)
        loads = _loads(base, discrete=False)
        dyn = AlternatingDynamics([rows, cols])
        expected = _serial_snapshots(DiffusionBalancer(dyn), loads.copy())
        trace = PartitionedSimulator(
            DiffusionBalancer(AlternatingDynamics([rows, cols])),
            partitions=4, strategy="contiguous",
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True,
        ).run(loads.copy())
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"

    def test_stopping_rules_fire_like_ensemble(self):
        topo = torus_2d(6, 6)
        loads = _loads(topo, discrete=False)
        rules = lambda: [PotentialFractionBelow(1e-3), MaxRounds(2000)]
        ens = EnsembleSimulator(
            DiffusionBalancer(topo), stopping=rules(), serial_singleton=False
        ).run(loads.copy(), seed=0, replicas=1)
        part = PartitionedSimulator(
            DiffusionBalancer(topo), partitions=3, stopping=rules()
        ).run(loads.copy())
        assert part.stopped_by == ens.stopped_by
        assert part.rounds == ens.rounds
        assert np.array_equal(ens.final_loads, part.final_loads)

    def test_hypercube_parity(self):
        topo = hypercube(6)
        loads = _loads(topo, discrete=True)
        expected = _serial_snapshots(DiffusionBalancer(topo, mode="discrete"), loads.copy())
        trace = PartitionedSimulator(
            DiffusionBalancer(topo, mode="discrete"), partitions="4:bfs",
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True,
        ).run(loads.copy())
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"


class TestProcessMode:
    """Persistent worker processes + transport-channel halo exchange."""

    @pytest.mark.parametrize("transport", ["mp-pipe", "tcp"])
    @pytest.mark.parametrize("label,factory,discrete", BALANCER_FACTORIES,
                             ids=[b[0] for b in BALANCER_FACTORIES])
    def test_process_matches_serial(self, label, factory, discrete, transport):
        topo = torus_2d(6, 6)
        loads = _loads(topo, discrete)
        expected = _serial_snapshots(factory(topo), loads.copy())
        psim = PartitionedSimulator(
            factory(topo), partitions=3, strategy="bfs",
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True, mode="process",
            transport=transport,
        )
        trace = psim.run(loads.copy())
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"
        assert psim.halo_stats["mode"] == "process"
        assert psim.halo_stats["transport"] == transport
        # Transport channels account payload bytes per directed link.
        assert psim.halo_stats["halo_bytes"] > 0
        assert all(v > 0 for v in psim.halo_stats["links"].values())

    @pytest.mark.parametrize("transport", ["mp-pipe", "tcp"])
    def test_dynamic_edge_failures_over_transport(self, transport):
        """Satellite: a dynamic topology's cut set changes per round;
        the pairwise halo protocol must not desync over TCP (or pipes) —
        snapshots stay bit-for-bit equal to the serial run."""
        base = torus_2d(6, 6)
        loads = _loads(base, discrete=True)
        make = lambda: DiffusionBalancer(
            EdgeSamplingDynamics(base, p=0.6, seed=9), mode="discrete"
        )
        expected = _serial_snapshots(make(), loads.copy())
        psim = PartitionedSimulator(
            make(), partitions=4, strategy="bfs",
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True, mode="process",
            transport=transport,
        )
        trace = psim.run(loads.copy())
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"
        assert psim.halo_stats["halo_values"] > 0
        assert psim.halo_stats["halo_bytes"] > 0

    @pytest.mark.parametrize("transport", ["mp-pipe", "tcp"])
    def test_spawned_block_workers_match_serial(self, transport, monkeypatch):
        """Without fork the executor spawns its block workers: every
        endpoint and the BlockJob pickle across the ``Process`` boundary,
        and the trajectory stays bit-for-bit the serial engine's."""
        import multiprocessing as mp

        real_get_context = mp.get_context
        contexts = []
        monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["spawn", "forkserver"])
        monkeypatch.setattr(
            mp, "get_context",
            lambda method=None: contexts.append(method) or real_get_context(method),
        )
        topo = torus_2d(6, 6)
        loads = _loads(topo, discrete=True)
        expected = _serial_snapshots(DiffusionBalancer(topo, mode="discrete"), loads.copy())
        psim = PartitionedSimulator(
            DiffusionBalancer(topo, mode="discrete"), partitions=2,
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True, mode="process",
            transport=transport,
        )
        trace = psim.run(loads.copy())
        assert contexts == ["spawn"]
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"
        assert psim.halo_stats["transport"] == transport

    def test_transports_move_identical_payload_bytes(self):
        """Same run, same pickled halo frames: the per-link byte totals
        are transport-independent (the counters count payloads, not wire
        overhead), so bench numbers compare across wires."""
        topo = torus_2d(6, 6)
        loads = _loads(topo, discrete=True)
        totals = {}
        for transport in ("mp-pipe", "tcp"):
            psim = PartitionedSimulator(
                DiffusionBalancer(topo, mode="discrete"), partitions=3,
                stopping=[MaxRounds(10)], mode="process", transport=transport,
            )
            psim.run(loads.copy())
            totals[transport] = (
                psim.halo_stats["halo_bytes"], dict(psim.halo_stats["links"])
            )
        assert totals["mp-pipe"] == totals["tcp"]

    def test_dead_block_worker_raises_instead_of_hanging(self):
        """SIGKILL a block worker mid-run: the coordinator must surface
        a diagnostic RuntimeError promptly.  EOF semantics depend on fd
        hygiene — every process drops the endpoint copies that are not
        its own — so a crashed worker's links actually close."""
        import multiprocessing as mp
        import os
        import signal
        import threading
        import time

        topo = torus_2d(8, 8)
        loads = _loads(topo, discrete=True)
        psim = PartitionedSimulator(
            DiffusionBalancer(topo, mode="discrete"), partitions=3, mode="process",
            # A threshold no discrete trajectory reaches: only the kill
            # ends the run (per-round chunks, so the coordinator is
            # mid-protocol when the worker dies).
            stopping=[PotentialFractionBelow(1e-300), MaxRounds(10_000_000)],
        )
        outcome = {}

        def run():
            try:
                psim.run(loads.copy())
                outcome["result"] = "completed"
            except RuntimeError as exc:
                outcome["result"] = f"error: {exc}"

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(1.0)
        victims = mp.active_children()
        assert victims, "no block workers running"
        os.kill(victims[0].pid, signal.SIGKILL)
        thread.join(timeout=30)
        assert not thread.is_alive(), "coordinator hung after worker death"
        assert outcome["result"].startswith("error:"), outcome

    def test_loopback_transport_rejected_for_process_mode(self):
        topo = torus_2d(4, 4)
        with pytest.raises(ValueError, match="transport"):
            PartitionedSimulator(
                DiffusionBalancer(topo), partitions=2, mode="process",
                transport="loopback",
            )

    def test_inprocess_mode_reports_no_transport(self):
        topo = torus_2d(4, 4)
        psim = PartitionedSimulator(
            DiffusionBalancer(topo), partitions=2, stopping=[MaxRounds(3)]
        )
        psim.run(_loads(topo, discrete=False))
        assert psim.halo_stats["transport"] is None
        assert psim.halo_stats["halo_bytes"] == 0

    def test_process_chunked_free_run_final_loads(self):
        """MaxRounds-only stopping free-runs workers without per-round
        coordinator sync; the final loads still match the serial run."""
        topo = torus_2d(6, 6)
        loads = _loads(topo, discrete=True)
        serial = Simulator(
            DiffusionBalancer(topo, mode="discrete"), stopping=[MaxRounds(40)]
        ).run(loads.copy(), 0)
        psim = PartitionedSimulator(
            DiffusionBalancer(topo, mode="discrete"), partitions=4,
            stopping=[MaxRounds(40)], mode="process",
        )
        trace = psim.run(loads.copy())
        assert trace.rounds == 40
        assert np.array_equal(
            np.asarray(serial._last_loads, dtype=np.int64), trace.final_loads[0]
        )
        assert psim.halo_stats["rounds"] == 40

    def test_process_with_replicas_and_dynamic(self):
        base = torus_2d(6, 6)
        B = 3
        rng = np.random.default_rng(2)
        batch = rng.integers(0, 5_000, (B, base.n)).astype(np.int64)
        make = lambda: DiffusionBalancer(
            EdgeSamplingDynamics(base, p=0.7, seed=21), mode="discrete"
        )
        ens = EnsembleSimulator(
            make(), stopping=[MaxRounds(15)], keep_snapshots=True, serial_singleton=False
        ).run(batch.copy(), seed=0)
        trace = PartitionedSimulator(
            make(), partitions=4, stopping=[MaxRounds(15)],
            keep_snapshots=True, mode="process",
        ).run(batch.copy())
        assert np.array_equal(ens.final_loads, trace.final_loads)
        for t in range(ens.recorded_states):
            assert np.array_equal(ens.snapshots[t], trace.snapshots[t]), f"round {t}"

    def test_process_conservation_and_stats_close(self):
        """Process-mode derived statistics combine block partials: equal to
        the ulp, with exact integer sums for discrete runs."""
        topo = torus_2d(6, 6)
        loads = _loads(topo, discrete=True)
        ens = EnsembleSimulator(
            DiffusionBalancer(topo, mode="discrete"), stopping=[MaxRounds(20)],
            serial_singleton=False,
        ).run(loads.copy(), seed=0, replicas=1)
        psim = PartitionedSimulator(
            DiffusionBalancer(topo, mode="discrete"), partitions=3,
            stopping=[MaxRounds(20)], mode="process",
        )
        trace = psim.run(loads.copy())
        assert np.array_equal(trace.load_sums_matrix, ens.load_sums_matrix)  # exact ints
        np.testing.assert_allclose(
            trace.potentials_matrix, ens.potentials_matrix, rtol=1e-12
        )


class TestBlockLocal:
    def test_extended_index_space(self):
        topo = torus_2d(4, 4)
        part = make_partition(topo, 2, "contiguous")
        loc = block_local(part, 0)
        assert loc.n_ext == loc.n_owned + loc.n_ghost
        assert np.array_equal(loc.ext_ids[: loc.n_owned], part.owned[0])
        assert np.array_equal(loc.ext_ids[loc.n_owned :], part.ghosts[0])
        # Block edges: at least one owned endpoint, endpoints inside ext.
        assert (loc.u_loc >= 0).all() and (loc.v_loc >= 0).all()
        assert (loc.u_loc < loc.n_ext).all() and (loc.v_loc < loc.n_ext).all()

    def test_block_local_cached(self):
        topo = torus_2d(4, 4)
        part = make_partition(topo, 2)
        assert block_local(part, 0) is block_local(part, 0)
        assert block_local(part, 0) is not block_local(part, 1)

    def test_round_rows_match_global_rows(self):
        topo = torus_2d(4, 4)
        part = make_partition(topo, 2, "bfs")
        loc = block_local(part, 1)
        M = loc.op.round_csr()
        rows = loc.round_rows()
        # Same data values in the same stored order, columns relabelled.
        start_g = M.indptr[part.owned[1][0]]
        assert rows.data[0] == M.data[start_g]
        assert rows.shape == (loc.n_owned, loc.n_ext)

    def test_out_of_range_block_rejected(self):
        part = make_partition(torus_2d(4, 4), 2)
        with pytest.raises(ValueError):
            block_local(part, 5)


def _literal_discrete_round(topo, loads):
    """``diffusion_flows(..., discrete=True)`` plus ``np.add.at`` on
    node-major ``(n, B)`` loads."""
    flows = diffusion_flows(loads.T, topo, discrete=True).T
    new = loads.copy()
    np.add.at(new, topo.edges[:, 0], -flows)
    np.add.at(new, topo.edges[:, 1], flows)
    return new


class TestBlockDiscreteRound:
    """Every row subset of the block round equals the literal int64 round,
    on both sides of the float pipeline's range and both row paths
    (contiguous rows fold in place, scattered rows through a gather)."""

    @pytest.mark.parametrize("top", [RECIP_DIV_LIMIT - 1, RECIP_DIV_LIMIT, 1 << 62],
                             ids=["fast", "exact", "far"])
    @pytest.mark.parametrize("B", [1, 3, 64])
    @pytest.mark.parametrize("backend", [
        "numpy",
        pytest.param("scipy", marks=pytest.mark.skipif(not HAVE_SCIPY, reason="SciPy unavailable")),
    ])
    def test_rows_match_literal_round(self, backend, B, top):
        topo = torus_2d(8, 8)
        part = make_partition(topo, 3, "bfs")
        rng = np.random.default_rng(B)
        shape = (topo.n, B)
        drop = np.where(rng.random(shape) < 0.5, rng.integers(0, 8, shape),
                        rng.integers(0, top, shape))
        loads = (top - drop).astype(np.int64)
        # Every block owns a node at ``top``, so each region's bound is top.
        loads[[int(owned[0]) for owned in part.owned]] = top
        want = _literal_discrete_round(topo, loads)
        scattered = set()
        for p in range(part.blocks):
            loc = BlockLocal(part, p, backend=backend)
            ext = np.ascontiguousarray(loads[loc.ext_ids])
            for rows in (None, "interior", "boundary"):
                pos = np.arange(loc.n_owned) if rows is None else loc._rows_positions(rows)
                scattered.add(loc._contiguous_range(pos) is None)
                rest = np.ones(loc.n_owned, dtype=bool)
                rest[pos] = False
                for order in ("C", "F"):
                    out = np.full((loc.n_owned, B), -1, dtype=np.int64, order=order)
                    assert loc.round_discrete(ext, out=out, rows=rows) is out
                    assert np.array_equal(out[pos], want[loc.owned[pos]]), (p, rows, order)
                    assert (out[rest] == -1).all()
        assert scattered == {True, False}


class TestPartitionedValidation:
    def test_unsupported_balancer_rejected(self):
        topo = torus_2d(4, 4)
        with pytest.raises(TypeError, match="partitioned"):
            PartitionedSimulator(OptimalPolynomialBalancer(topo), partitions=2)

    def test_fos_discrete_variant_rejected(self):
        topo = torus_2d(4, 4)
        with pytest.raises(TypeError, match="partitioned"):
            PartitionedSimulator(FirstOrderBalancer(topo, variant="floor"), partitions=2)

    def test_bad_mode_rejected(self):
        topo = torus_2d(4, 4)
        with pytest.raises(ValueError, match="mode"):
            PartitionedSimulator(DiffusionBalancer(topo), partitions=2, mode="threads")

    def test_bad_partition_spec_rejected(self):
        topo = torus_2d(4, 4)
        with pytest.raises(ValueError):
            PartitionedSimulator(DiffusionBalancer(topo), partitions="2:metis")

    def test_assignment_shape_checked(self):
        topo = torus_2d(4, 4)
        sim = PartitionedSimulator(
            DiffusionBalancer(topo), partitions=2,
            assignment=np.zeros(5, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="assignment"):
            sim.run(np.ones(topo.n))

    def test_explicit_assignment_used(self):
        topo = torus_2d(4, 4)
        assignment = np.zeros(topo.n, dtype=np.int64)
        assignment[topo.n // 2 :] = 1
        loads = _loads(topo, discrete=False)
        expected = _serial_snapshots(DiffusionBalancer(topo), loads.copy(), rounds=10)
        sim = PartitionedSimulator(
            DiffusionBalancer(topo), assignment=assignment,
            stopping=[MaxRounds(10)], keep_snapshots=True,
        )
        trace = sim.run(loads.copy())
        assert sim.halo_stats["blocks"] == 2
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0])

    def test_single_partition_degrades_to_global(self):
        topo = torus_2d(4, 4)
        loads = _loads(topo, discrete=False)
        psim = PartitionedSimulator(DiffusionBalancer(topo), partitions=1,
                                    stopping=[MaxRounds(10)])
        trace = psim.run(loads.copy())
        assert trace.rounds == 10
        assert psim.halo_stats["halo_values"] == 0


class TestSplitPhaseKernels:
    """Row-subset round kernels: interior + boundary == full, bit for bit."""

    @pytest.mark.parametrize("label,factory,discrete", BALANCER_FACTORIES,
                             ids=[b[0] for b in BALANCER_FACTORIES])
    @pytest.mark.parametrize("P", [2, 4])
    def test_subset_rounds_equal_full_round(self, label, factory, discrete, P):
        topo = torus_2d(6, 6)
        part = make_partition(topo, P, "bfs")
        bal = factory(topo)
        rng = np.random.default_rng(11)
        L = (rng.integers(0, 500, (topo.n, 3)).astype(np.int64) if discrete
             else rng.uniform(0.0, 500.0, (topo.n, 3)))
        for p in range(P):
            loc = block_local(part, p)
            ext = L[loc.ext_ids]
            full = bal.block_step(loc, ext)
            split = np.full_like(full, -1)
            bal.block_step(loc, ext, out=split, rows="interior")
            bal.block_step(loc, ext, out=split, rows="boundary")
            assert np.array_equal(full, split), f"block {p}"

    def test_interior_rows_ignore_ghost_values(self):
        """The overlap contract: interior rows have owned-only operator
        support, so garbage in the ghost slice cannot change them."""
        topo = torus_2d(8, 8)
        part = make_partition(topo, 2, "bfs")
        bal = DiffusionBalancer(topo, mode="discrete")
        loc = block_local(part, 0)
        rng = np.random.default_rng(12)
        L = rng.integers(0, 500, (topo.n, 2)).astype(np.int64)
        ext = L[loc.ext_ids]
        clean = np.zeros((loc.n_owned, 2), dtype=np.int64)
        bal.block_step(loc, ext, out=clean, rows="interior")
        trashed = ext.copy()
        trashed[loc.n_owned:] = 999_983  # stale/garbage ghosts
        dirty = np.zeros_like(clean)
        bal.block_step(loc, trashed, out=dirty, rows="interior")
        assert loc.interior.size > 0
        assert np.array_equal(clean[loc.interior], dirty[loc.interior])

    def test_ghosts_grouped_by_owner(self):
        """BlockLocal reorders its private ghost segment grouped by owning
        block (ascending global id within each group) so every link's
        receive region is one contiguous slice."""
        topo = torus_2d(6, 6)
        part = make_partition(topo, 4, "bfs")
        for p in range(4):
            loc = block_local(part, p)
            ghost_ids = loc.ext_ids[loc.n_owned:]
            assert set(ghost_ids.tolist()) == set(part.ghosts[p].tolist())
            owners = part.assignment[ghost_ids]
            # grouped: owner sequence is non-decreasing
            assert (np.diff(owners) >= 0).all()
            for link in loc.links:
                a, b = loc.recv_slices[link.peer]
                assert np.array_equal(link.recv_idx, np.arange(a, b))
                assert (owners[a:b] == link.peer).all()
                # ascending global id within the group
                assert (np.diff(ghost_ids[a:b]) > 0).all()


class TestOverlapAndDeltaFrames:
    """Split-phase overlap + delta halo frames: parity and byte wins."""

    @pytest.mark.parametrize("transport", ["mp-pipe", "tcp"])
    @pytest.mark.parametrize("label,factory,discrete", BALANCER_FACTORIES,
                             ids=[b[0] for b in BALANCER_FACTORIES])
    def test_overlap_matches_serial(self, label, factory, discrete, transport):
        topo = torus_2d(6, 6)
        loads = _loads(topo, discrete)
        expected = _serial_snapshots(factory(topo), loads.copy())
        psim = PartitionedSimulator(
            factory(topo), partitions=3, strategy="bfs",
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True, mode="process",
            transport=transport,
        )
        trace = psim.run(loads.copy())
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"

    @pytest.mark.parametrize("transport", ["mp-pipe", "tcp"])
    def test_delta_frames_match_serial_and_count_fewer_bytes(self, transport):
        """Near convergence most discrete rows stop changing: delta frames
        ship fewer bytes while trajectories stay identical."""
        topo = torus_2d(8, 8)
        loads = np.full(topo.n, 100, dtype=np.int64)
        loads[:4] += np.array([40, 30, 20, 10])
        expected = _serial_snapshots(
            DiffusionBalancer(topo, mode="discrete"), loads.copy(), rounds=30)
        totals = {}
        for delta in (False, True):
            psim = PartitionedSimulator(
                DiffusionBalancer(topo, mode="discrete"), partitions=3,
                strategy="bfs", stopping=[MaxRounds(30)], keep_snapshots=True,
                mode="process", transport=transport, delta_frames=delta,
            )
            trace = psim.run(loads.copy())
            for t, snap in enumerate(expected):
                assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"
            totals[delta] = psim.halo_stats["halo_bytes"]
            assert psim.halo_stats["delta_frames"] is delta
        assert totals[True] < totals[False]

    def test_delta_frames_are_an_explicit_kwarg(self, monkeypatch):
        """One halo schedule, no environment switches: the retired
        ``REPRO_OVERLAP`` / ``REPRO_DELTA`` variables change nothing, delta
        frames come only from the kwarg, and ``overlap=`` is no option."""
        topo = torus_2d(4, 4)
        bal = DiffusionBalancer(topo)
        monkeypatch.setenv("REPRO_OVERLAP", "1")
        monkeypatch.setenv("REPRO_DELTA", "true")
        sim = PartitionedSimulator(bal, partitions=2, mode="process")
        assert sim.delta_frames is False
        assert not hasattr(sim, "overlap")
        sim = PartitionedSimulator(bal, partitions=2, mode="process",
                                   delta_frames=True)
        assert sim.delta_frames is True
        with pytest.raises(TypeError):
            PartitionedSimulator(bal, partitions=2, mode="process", overlap=True)

    def test_delta_degenerates_to_dense_on_full_churn(self):
        """Continuous loads change every row every round, so the delta
        encoder always falls back to dense frames — byte totals equal the
        delta-off run exactly."""
        topo = torus_2d(6, 6)
        loads = _loads(topo, discrete=False)
        totals = {}
        for delta in (False, True):
            psim = PartitionedSimulator(
                DiffusionBalancer(topo), partitions=3, strategy="bfs",
                stopping=[MaxRounds(12)], mode="process", delta_frames=delta,
            )
            psim.run(loads.copy())
            totals[delta] = (
                psim.halo_stats["halo_bytes"], dict(psim.halo_stats["links"]))
        assert totals[True] == totals[False]

    @pytest.mark.parametrize("transport", ["mp-pipe", "tcp"])
    def test_overlap_delta_dynamic_topology(self, transport):
        """Dynamic cut sets rebuild the slabs and reset delta snapshots
        every round; trajectories stay bit-for-bit serial."""
        base = torus_2d(6, 6)
        loads = _loads(base, discrete=True)
        make = lambda: DiffusionBalancer(
            EdgeSamplingDynamics(base, p=0.6, seed=9), mode="discrete")
        expected = _serial_snapshots(make(), loads.copy())
        psim = PartitionedSimulator(
            make(), partitions=4, strategy="bfs",
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True, mode="process",
            transport=transport, delta_frames=True,
        )
        trace = psim.run(loads.copy())
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"

    def test_delta_frames_under_forced_chunking(self, monkeypatch):
        """Delta frames survive a tiny MAX_CHUNK_BYTES: many wire chunks
        per frame, identical trajectories and identical logical byte
        totals across transports."""
        import repro.distributed.transport as transport_mod
        monkeypatch.setattr(transport_mod, "MAX_CHUNK_BYTES", 512)
        topo = torus_2d(6, 6)
        loads = np.full(topo.n, 50, dtype=np.int64)
        loads[0] += 77
        expected = _serial_snapshots(
            DiffusionBalancer(topo, mode="discrete"), loads.copy(), rounds=15)
        totals = {}
        for transport in ("mp-pipe", "tcp"):
            psim = PartitionedSimulator(
                DiffusionBalancer(topo, mode="discrete"), partitions=3,
                strategy="bfs", stopping=[MaxRounds(15)], keep_snapshots=True,
                mode="process", transport=transport, delta_frames=True,
            )
            trace = psim.run(loads.copy())
            for t, snap in enumerate(expected):
                assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"
            totals[transport] = (
                psim.halo_stats["halo_bytes"], dict(psim.halo_stats["links"]))
        assert totals["mp-pipe"] == totals["tcp"]


def _staggered_batch(topo, B=4, seed=3):
    """Discrete replicas at different load scales: each stopping rule
    fires for them at a different round."""
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.integers(0, 10 ** (3 + b), topo.n) for b in range(B)]
    ).astype(np.int64)


def _lockstep(monkeypatch):
    """Force one-round chunks: the coordinator round-trip per round."""
    monkeypatch.setattr(PartitionedSimulator, "_chunk_rounds", lambda self, trace, active: 1)


def _log_chunks(monkeypatch):
    """Record every grant ``(granted, rows run)`` and every rewind."""
    from repro.simulation.partitioned import _LocalProcessExecutor

    log = []
    run_chunk, rewind = _LocalProcessExecutor.run_chunk, _LocalProcessExecutor.rewind

    def logged_run(self, rounds, frozen):
        replies = run_chunk(self, rounds, frozen)
        log.append(("run", rounds, len(replies[0][1])))
        return replies

    def logged_rewind(self, rounds, frozen):
        log.append(("rewind", rounds))
        rewind(self, rounds, frozen)

    monkeypatch.setattr(_LocalProcessExecutor, "run_chunk", logged_run)
    monkeypatch.setattr(_LocalProcessExecutor, "rewind", logged_rewind)
    return log


def _same_run(a, b):
    assert np.array_equal(a.rounds_vector, b.rounds_vector)
    assert a.stopped_by == b.stopped_by
    assert np.array_equal(a.final_loads, b.final_loads)
    assert np.array_equal(a.potentials_matrix, b.potentials_matrix)
    assert np.array_equal(a.load_sums_matrix, b.load_sums_matrix)


class TestSpeculativeChunks:
    """Process mode grants speculative chunks and rewinds mid-chunk stops;
    every committed row is the lockstep run's, bit for bit."""

    RULES = {
        "fraction": lambda: [PotentialFractionBelow(1e-3), MaxRounds(400)],
        "potential": lambda: [PotentialBelow(5e4), MaxRounds(400)],
        "stagnation": lambda: [Stagnation(5), MaxRounds(2_000)],
    }

    @pytest.fixture(scope="class")
    def topo(self):
        return torus_2d(8, 8)

    def _run(self, topo, rules, **kwargs):
        psim = PartitionedSimulator(
            DiffusionBalancer(topo, mode="discrete"), partitions=3, strategy="bfs",
            stopping=rules, **kwargs,
        )
        return psim.run(_staggered_batch(topo)), psim

    @pytest.mark.parametrize("transport", ["mp-pipe", "tcp"])
    @pytest.mark.parametrize("rules", sorted(RULES))
    def test_staggered_stops_match_inprocess(self, topo, rules, transport):
        expected, _ = self._run(topo, self.RULES[rules]())
        assert len(set(expected.rounds_vector.tolist())) > 1  # stops are staggered
        trace, psim = self._run(topo, self.RULES[rules](), mode="process", transport=transport)
        _same_run(expected, trace)
        hs = psim.halo_stats
        assert hs["rounds"] == trace.rounds
        assert hs["chunks"] < trace.rounds  # chunks ran several rounds each

    def test_stagnation_verdicts_match_lockstep(self, topo, monkeypatch):
        speculative, psim = self._run(topo, self.RULES["stagnation"](), mode="process")
        assert psim.halo_stats["replayed_rounds"] > 0  # stops landed mid-chunk
        _lockstep(monkeypatch)
        lockstep, _ = self._run(topo, self.RULES["stagnation"](), mode="process")
        assert all(reason == "stagnation(5)" for reason in lockstep.stopped_by)
        _same_run(lockstep, speculative)

    @pytest.mark.parametrize("rules", sorted(RULES))
    def test_each_stop_discards_and_replays_less_than_a_chunk(self, topo, rules, monkeypatch):
        log = _log_chunks(monkeypatch)
        _, psim = self._run(topo, self.RULES[rules](), mode="process")
        replayed = 0
        for prev, entry in zip(log, log[1:]):
            if entry[0] != "rewind":
                continue
            _, granted, ran = prev
            assert prev[0] == "run" and ran <= granted
            assert 1 <= entry[1] <= granted - 1  # replayed
            assert ran - entry[1] <= granted - 1  # discarded
            replayed += entry[1]
        assert replayed == psim.halo_stats["replayed_rounds"]
        assert psim.halo_stats["chunks"] == sum(1 for e in log if e[0] == "run")

    @pytest.mark.parametrize("chunk", [None, 7], ids=["hinted", "fixed-7"])
    def test_halo_stats_count_committed_rounds_only(self, topo, chunk, monkeypatch):
        """Delta frames on: a rewind restores each link's frame snapshots,
        so the committed rows' bytes are exactly the lockstep run's."""
        rules = self.RULES["potential"]
        if chunk is not None:
            monkeypatch.setattr(PartitionedSimulator, "_chunk_rounds",
                                lambda self, trace, active: chunk)
        speculative, spec = self._run(topo, rules(), mode="process", delta_frames=True)
        if chunk is not None:
            assert spec.halo_stats["replayed_rounds"] > 0
        _lockstep(monkeypatch)
        lockstep, lock = self._run(topo, rules(), mode="process", delta_frames=True)
        _same_run(lockstep, speculative)
        keys = ("rounds", "halo_values", "halo_bytes", "links")
        assert {k: spec.halo_stats[k] for k in keys} == {k: lock.halo_stats[k] for k in keys}
        assert lock.halo_stats["chunks"] == lockstep.rounds
        assert lock.halo_stats["replayed_rounds"] == 0

    def test_chunk_spans_tile_the_committed_rounds(self, topo):
        from repro.observability.recorder import Recorder, set_recorder

        set_recorder(Recorder(enabled=True, role="coordinator"))
        try:
            trace, psim = self._run(topo, self.RULES["stagnation"](), mode="process")
        finally:
            events = set_recorder(None).drain_events()
        chunks = [ev for ev in events if ev.get("name") == "chunk"]
        assert len(chunks) == psim.halo_stats["chunks"]
        committed = 0
        for ev in chunks:
            assert ev["start_round"] == committed
            assert 1 <= ev["committed"] <= ev["rounds"]
            assert ev["replayed"] == (ev["committed"] if ev["committed"] < ev["rounds"] else 0)
            committed += ev["committed"]
        assert committed == trace.rounds
        assert sum(ev["replayed"] for ev in chunks) == psim.halo_stats["replayed_rounds"] > 0
        assert sum(ev.get("name") == "round" for ev in events) == trace.rounds

    def test_rules_without_a_hint_replay_at_most_half(self, topo):
        trace, psim = self._run(topo, [DiscrepancyBelow(1), Stagnation(3), MaxRounds(3_000)],
                                mode="process")
        hs = psim.halo_stats
        assert hs["replayed_rounds"] <= 0.5 * trace.rounds
        assert hs["chunks"] < trace.rounds / 2

    def test_round_cap_is_one_free_running_chunk(self, topo):
        trace, psim = self._run(topo, [MaxRounds(60)], mode="process")
        assert trace.rounds == 60
        assert psim.halo_stats["chunks"] == 1
        assert psim.halo_stats["replayed_rounds"] == 0

    def test_snapshot_runs_grant_one_round(self, topo):
        _, psim = self._run(topo, [MaxRounds(6)], mode="process", keep_snapshots=True)
        assert psim.halo_stats["chunks"] == 6
