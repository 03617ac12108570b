"""Unit tests for the grid-sweep utility."""

import pytest

from repro.simulation.sweep import sweep


class TestSweep:
    def test_grid_shape(self):
        table, cells = sweep(["torus:4x4", "cycle:8"], ["diffusion", "fos"], eps=1e-2)
        assert len(cells) == 4
        assert len(table.rows) == 4

    def test_all_converge_on_easy_target(self):
        _, cells = sweep(["hypercube:4"], ["diffusion", "fos", "sos", "ops"], eps=1e-2)
        assert all(c.rounds is not None for c in cells)

    def test_discrete_scheme_gets_integer_loads(self):
        _, cells = sweep(["torus:4x4"], ["diffusion-discrete"], eps=1e-2)
        assert cells[0].rounds is not None

    def test_movement_positive_when_balancing(self):
        _, cells = sweep(["torus:4x4"], ["diffusion"], eps=1e-2)
        assert cells[0].total_movement > 0

    def test_same_seed_reproducible(self):
        _, a = sweep(["torus:4x4"], ["random-partner"], eps=1e-2, seed=3)
        _, b = sweep(["torus:4x4"], ["random-partner"], eps=1e-2, seed=3)
        assert a[0].rounds == b[0].rounds

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep([], ["diffusion"])
        with pytest.raises(ValueError):
            sweep(["torus:4x4"], [])

    def test_max_rounds_respected(self):
        # Impossible target within 3 rounds on a slow graph.
        _, cells = sweep(["cycle:16"], ["diffusion"], eps=1e-12, max_rounds=3)
        assert cells[0].rounds is None
        assert cells[0].stopped_by == "max-rounds(3)"


class TestSweepReplicas:
    def test_batched_cells_aggregate(self):
        table, cells = sweep(["torus:4x4"], ["diffusion", "random-partner"], eps=1e-2, replicas=4)
        assert all(c.replicas == 4 for c in cells)
        assert all(c.rounds is not None for c in cells)
        assert all(c.total_movement > 0 for c in cells)
        assert "4 replicas" in table.title

    def test_serial_fallback_for_unbatchable_scheme(self):
        # OPS has no batched kernel; the replica loop must still aggregate.
        _, cells = sweep(["hypercube:3"], ["ops"], eps=1e-2, replicas=3)
        assert cells[0].replicas == 3
        assert cells[0].rounds is not None

    def test_replicas_reproducible(self):
        _, a = sweep(["torus:4x4"], ["random-partner"], eps=1e-2, seed=5, replicas=3)
        _, b = sweep(["torus:4x4"], ["random-partner"], eps=1e-2, seed=5, replicas=3)
        assert a[0] == b[0]

    def test_bad_replicas_rejected(self):
        with pytest.raises(ValueError):
            sweep(["torus:4x4"], ["diffusion"], replicas=0)

    def test_partitioned_cells_match_standard_paths(self):
        """--partitions is an execution knob: partition-capable cells get
        identical trajectories (and fall back transparently otherwise)."""
        plain_1, cells_1 = sweep(["torus:4x4"], ["diffusion", "fos", "ops"], eps=1e-2)
        part_1, pcells_1 = sweep(
            ["torus:4x4"], ["diffusion", "fos", "ops"], eps=1e-2, partitions="2:bfs"
        )
        for a, b in zip(cells_1, pcells_1):
            assert a.rounds == b.rounds and a.stopped_by == b.stopped_by
        _, cells_r = sweep(["torus:4x4"], ["diffusion-discrete"], eps=1e-2, replicas=3)
        _, pcells_r = sweep(
            ["torus:4x4"], ["diffusion-discrete"], eps=1e-2, replicas=3, partitions=2
        )
        assert cells_r[0] == pcells_r[0]

    def test_bad_partitions_rejected(self):
        with pytest.raises(ValueError):
            sweep(["torus:4x4"], ["diffusion"], partitions="2:metis")

    def test_batched_and_serial_paths_agree(self, monkeypatch):
        """Forcing a batchable scheme down the serial replica loop must
        reproduce the batched cell exactly (same loads, same streams)."""
        from repro.core.random_partner import RandomPartnerBalancer

        _, batched = sweep(["torus:4x4"], ["random-partner"], eps=1e-2, seed=9, replicas=3)
        monkeypatch.setattr(RandomPartnerBalancer, "supports_batch", False)
        _, serial = sweep(["torus:4x4"], ["random-partner"], eps=1e-2, seed=9, replicas=3)
        assert batched[0].rounds == serial[0].rounds
        assert batched[0].stopped_by == serial[0].stopped_by
        assert batched[0].final_potential == pytest.approx(serial[0].final_potential, rel=1e-9)
        assert batched[0].total_movement == pytest.approx(serial[0].total_movement, rel=1e-9)


class TestTraceMovement:
    def test_net_movement_two_nodes(self):
        import numpy as np

        from repro.simulation.trace import Trace

        t = Trace()
        t.record(np.asarray([10.0, 0.0]))
        t.record(np.asarray([6.0, 4.0]))
        assert t.net_movements.tolist() == [4.0]
        assert t.total_net_movement() == 4.0

    def test_no_movement_entry_for_initial_state(self):
        import numpy as np

        from repro.simulation.trace import Trace

        t = Trace()
        t.record(np.asarray([1.0, 2.0]))
        assert t.net_movements.size == 0

    def test_movement_on_real_run_bounded_by_total_load(self):
        from repro.core.diffusion import DiffusionBalancer
        from repro.graphs.generators import torus_2d
        from repro.simulation.engine import run_balancer
        from repro.simulation.initial import point_load

        topo = torus_2d(4, 4)
        loads = point_load(topo.n, total=1600, discrete=True)
        trace = run_balancer(DiffusionBalancer(topo, mode="discrete"), loads, rounds=30,
                             record="full")
        per_round = trace.net_movements
        assert (per_round >= 0).all()
        # No round can move more than the total load.
        assert per_round.max() <= 1600
