"""Unit + equivalence tests for the sharded ensemble execution layer."""

import numpy as np
import pytest

from repro.baselines.dimension_exchange import DimensionExchangeBalancer
from repro.core.diffusion import DiffusionBalancer
from repro.core.random_partner import RandomPartnerBalancer
from repro.distributed.worker import ShardJob
from repro.simulation.ensemble import EnsembleSimulator, spawn_rngs
from repro.simulation.initial import point_load
from repro.simulation.montecarlo import monte_carlo
from repro.simulation.sharding import (
    merge_ensemble_traces,
    parse_workers,
    run_sharded_ensemble,
    split_shards,
)
from repro.simulation.stopping import MaxRounds, PotentialFractionBelow


class _BrokenTrial:
    """Module-level trial returning the wrong number of samples."""

    def run_batch(self, rngs, workers=1):
        return {"v": np.zeros(max(1, len(rngs) - 1))}


def _plain_trial(rng):
    return float(rng.random())


class TestParseWorkers:
    @pytest.mark.parametrize("spec,expected", [
        (1, (1, False)),
        (4, (4, False)),
        ("3", (3, False)),
        ("vectorized", (1, True)),
        ("4xvectorized", (4, True)),
        ("2x", (2, True)),
        ("8XVectorized", (8, True)),
    ])
    def test_accepted_forms(self, spec, expected):
        assert parse_workers(spec) == expected

    @pytest.mark.parametrize("spec", [
        0, -2, "fast", "x4", "4y", (4, "serial"), 1.5, True, (4, "vectorized"), (4, True),
    ])
    def test_rejected_forms(self, spec):
        with pytest.raises(ValueError):
            parse_workers(spec)

    @pytest.mark.parametrize("spec", [0, -2, "0", "-3", "+0"])
    def test_zero_and_negative_get_explicit_message(self, spec):
        """String CLI specs like '-3' must hit the same clear >= 1 error
        as plain ints, not the generic grammar message."""
        with pytest.raises(ValueError, match="workers must be >= 1"):
            parse_workers(spec)

    def test_oversubscription_warns(self, monkeypatch):
        from repro.simulation import sharding

        monkeypatch.setattr(sharding, "usable_cpus", lambda: 2)
        with pytest.warns(RuntimeWarning, match="exceeds the 2 usable"):
            assert parse_workers(8) == (8, False)
        with pytest.warns(RuntimeWarning, match="exceeds"):
            assert parse_workers("8xvectorized") == (8, True)

    def test_within_cpu_budget_does_not_warn(self, monkeypatch):
        import warnings

        from repro.simulation import sharding

        monkeypatch.setattr(sharding, "usable_cpus", lambda: 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_workers(4) == (4, False)
            assert parse_workers("vectorized") == (1, True)

    def test_usable_cpus_positive(self):
        from repro.simulation.sharding import usable_cpus

        assert usable_cpus() >= 1


class TestSplitShards:
    def test_even_split(self):
        assert split_shards(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_first(self):
        assert split_shards(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_more_shards_than_items(self):
        assert split_shards(2, 5) == [(0, 1), (1, 2)]

    def test_single_shard(self):
        assert split_shards(5, 1) == [(0, 5)]

    def test_zero_items(self):
        assert split_shards(0, 3) == []

    def test_covers_range_exactly(self):
        for total in (1, 5, 13, 64):
            for shards in (1, 2, 3, 7):
                blocks = split_shards(total, shards)
                flat = [i for a, b in blocks for i in range(a, b)]
                assert flat == list(range(total))

    def test_validation(self):
        with pytest.raises(ValueError):
            split_shards(-1, 2)
        with pytest.raises(ValueError):
            split_shards(4, 0)


class TestShardedEnsembleEquivalence:
    """Sharded == single-process vectorized == serial, per replica."""

    @pytest.fixture(scope="class")
    def topo(self):
        from repro.graphs import generators as g

        return g.torus_2d(6, 6)

    @pytest.mark.parametrize("make_bal,discrete", [
        (lambda topo: DiffusionBalancer(topo), False),
        (lambda topo: DiffusionBalancer(topo, mode="discrete"), True),
        (lambda topo: RandomPartnerBalancer(), False),
        (lambda topo: DimensionExchangeBalancer(topo, partner_rule="luby"), False),
    ])
    def test_loads_bit_for_bit_across_paths(self, topo, make_bal, discrete):
        B, seed = 7, 11
        loads = point_load(topo.n, total=100 * topo.n, discrete=discrete)
        rules = lambda: [PotentialFractionBelow(1e-3), MaxRounds(600)]
        single = EnsembleSimulator(
            make_bal(topo), stopping=rules(), keep_snapshots=True
        ).run(loads, seed=seed, replicas=B)
        sharded = run_sharded_ensemble(
            make_bal(topo), loads, seed=seed, replicas=B, workers=3,
            stopping=rules(), keep_snapshots=True,
        )
        assert sharded.replicas == B
        # Load trajectories: bit-for-bit across the whole run.
        assert np.array_equal(single.final_loads, sharded.final_loads)
        for t in range(single.recorded_states):
            assert np.array_equal(single.snapshots[t], sharded.snapshots[t]), f"round {t}"
        # Stopping behaviour: identical decisions.
        assert np.array_equal(single.rounds_vector, sharded.rounds_vector)
        assert single.stopped_by == sharded.stopped_by
        # Derived statistics: equal up to block-width summation order.
        assert np.allclose(single.potentials_matrix, sharded.potentials_matrix, rtol=1e-12)
        assert np.allclose(single.load_sums_matrix, sharded.load_sums_matrix, rtol=1e-12)

    def test_matches_serial_simulator_per_replica(self, topo):
        from repro.simulation.engine import Simulator

        B, seed = 5, 3
        loads = point_load(topo.n, total=100 * topo.n, discrete=False)
        sharded = run_sharded_ensemble(
            RandomPartnerBalancer(), loads, seed=seed, replicas=B, workers=2,
            stopping=[MaxRounds(30)], keep_snapshots=True,
        )
        rngs = spawn_rngs(seed, B)
        for b in range(B):
            serial = Simulator(
                RandomPartnerBalancer(), stopping=[MaxRounds(30)], keep_snapshots=True
            ).run(loads, rngs[b])
            assert np.array_equal(serial.snapshots[-1], sharded.final_loads[b])

    def test_per_replica_initial_states(self, topo):
        B = 6
        batch = np.random.default_rng(4).uniform(0, 1000, (B, topo.n))
        single = EnsembleSimulator(
            DiffusionBalancer(topo), stopping=[MaxRounds(20)]
        ).run(batch, seed=2)
        sharded = run_sharded_ensemble(
            DiffusionBalancer(topo), batch, seed=2, workers=4, stopping=[MaxRounds(20)]
        )
        assert np.array_equal(single.final_loads, sharded.final_loads)

    def test_movements_and_discrepancies_merge(self, topo):
        loads = point_load(topo.n, total=100 * topo.n, discrete=False)
        kwargs = dict(stopping=[PotentialFractionBelow(1e-2), MaxRounds(500)], record="full")
        single = EnsembleSimulator(RandomPartnerBalancer(), **kwargs).run(
            loads, seed=9, replicas=5
        )
        sharded = run_sharded_ensemble(
            RandomPartnerBalancer(), loads, seed=9, replicas=5, workers=2, **kwargs
        )
        assert np.allclose(single.movements_matrix, sharded.movements_matrix, rtol=1e-12)
        assert np.allclose(
            single.discrepancies_matrix, sharded.discrepancies_matrix, rtol=1e-12
        )
        assert np.allclose(
            single.total_net_movements(), sharded.total_net_movements(), rtol=1e-12
        )

    def test_workers_one_runs_in_process(self, topo):
        loads = point_load(topo.n, discrete=False)
        trace = run_sharded_ensemble(
            DiffusionBalancer(topo), loads, seed=0, replicas=3, workers=1,
            stopping=[MaxRounds(4)],
        )
        assert trace.replicas == 3
        assert trace.rounds == 4

    def test_explicit_generators(self, topo):
        loads = point_load(topo.n, discrete=False)
        rngs = spawn_rngs(21, 4)
        trace = run_sharded_ensemble(
            RandomPartnerBalancer(), loads, seed=rngs, workers=2, stopping=[MaxRounds(6)]
        )
        single = EnsembleSimulator(RandomPartnerBalancer(), stopping=[MaxRounds(6)]).run(
            loads, seed=spawn_rngs(21, 4)
        )
        assert np.array_equal(single.final_loads, trace.final_loads)

    def test_singleton_shards_use_batched_statistics(self, topo, monkeypatch):
        """A 1-replica shard must not dispatch to the serial engine: its
        statistics would switch to the centered potential formula and
        stopping decisions would depend on how the batch split across
        workers (regression)."""
        from repro.simulation import ensemble, sharding

        def boom(balancer, trace, loads, rng):  # pragma: no cover - failure path
            raise AssertionError("singleton shard dispatched to the serial engine")

        monkeypatch.setattr(ensemble, "serial_rounds", boom)
        job = ShardJob(
            balancer=DiffusionBalancer(topo),
            loads=point_load(topo.n, discrete=False),
            rngs=spawn_rngs(0, 1),
            stopping=[MaxRounds(3)],
            record="auto", keep_snapshots=False, check_conservation=True, cons_tol=1e-6,
            whole_batch=False,  # one slice of a split batch, not the whole batch
        )
        trace = sharding.run_shard_payload(job)  # in-process, same code the pool runs
        assert trace.replicas == 1 and trace.rounds == 3

    def test_singleton_shards_formula_consistent_under_cancellation(self, topo):
        """The reviewer's adversarial case: loads ~1e8 with ~1e-2 spread make
        the batched shifted potential clamp to ~0 while the serial centered
        formula resolves ~1e-3 — pre-fix, 1-replica shards (serial formula)
        ran tens of rounds while the unsharded run stopped immediately.
        Post-fix both decompositions use the batched formula and stop within
        an ulp-tie of each other (exact equality is unattainable here: block
        width changes summation order, and cancellation amplifies the ulp)."""
        from repro.simulation.stopping import PotentialBelow

        loads = 1e8 + np.random.default_rng(0).uniform(-1e-2, 1e-2, topo.n)
        for workers in (1, 3):  # workers=3 over B=3 -> three 1-replica shards
            trace = run_sharded_ensemble(
                DiffusionBalancer(topo), loads, seed=2, replicas=3,
                workers=workers, stopping=[PotentialBelow(1e-7), MaxRounds(500)],
            )
            assert all(r.startswith("potential<=") for r in trace.stopped_by), workers
            assert trace.rounds_vector.max() <= 2, (workers, trace.rounds_vector)

    def test_replica_loads_mismatch_rejected(self, topo):
        with pytest.raises(ValueError, match="replicas"):
            run_sharded_ensemble(
                DiffusionBalancer(topo), np.ones((3, topo.n)), seed=0, replicas=5, workers=2
            )


class TestShardTransports:
    """The shard pool runs over the transport seam; wires are equivalent."""

    @pytest.mark.parametrize("transport", ["mp-pipe", "tcp"])
    def test_tcp_and_pipe_shards_bit_identical(self, transport):
        from repro.graphs import generators as g

        topo = g.torus_2d(5, 5)
        loads = point_load(topo.n, total=100 * topo.n, discrete=True)
        single = EnsembleSimulator(
            DiffusionBalancer(topo, mode="discrete"),
            stopping=[MaxRounds(12)], keep_snapshots=True, serial_singleton=False,
        ).run(loads, seed=3, replicas=6)
        sharded = run_sharded_ensemble(
            DiffusionBalancer(topo, mode="discrete"), loads, seed=3, replicas=6,
            workers=3, stopping=[MaxRounds(12)], keep_snapshots=True,
            transport=transport,
        )
        assert np.array_equal(single.final_loads, sharded.final_loads)
        for t in range(single.recorded_states):
            assert np.array_equal(single.snapshots[t], sharded.snapshots[t]), f"round {t}"

    @pytest.mark.parametrize("transport", ["mp-pipe", "tcp"])
    def test_spawned_shard_workers_bit_identical(self, transport, monkeypatch):
        """Without fork the pool spawns its shard workers: both
        transports' endpoints pickle across the ``Process`` boundary,
        and the merged trace still equals the unsharded engine's."""
        import multiprocessing as mp

        from repro.graphs import generators as g

        real_get_context = mp.get_context
        contexts = []
        monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["spawn", "forkserver"])
        monkeypatch.setattr(
            mp, "get_context",
            lambda method=None: contexts.append(method) or real_get_context(method),
        )
        topo = g.torus_2d(4, 4)
        loads = point_load(topo.n, total=100 * topo.n, discrete=True)
        single = EnsembleSimulator(
            DiffusionBalancer(topo, mode="discrete"),
            stopping=[MaxRounds(8)], keep_snapshots=True, serial_singleton=False,
        ).run(loads, seed=3, replicas=4)
        sharded = run_sharded_ensemble(
            DiffusionBalancer(topo, mode="discrete"), loads, seed=3, replicas=4,
            workers=2, stopping=[MaxRounds(8)], keep_snapshots=True,
            transport=transport,
        )
        assert contexts == ["spawn"]
        assert np.array_equal(single.final_loads, sharded.final_loads)
        for t in range(single.recorded_states):
            assert np.array_equal(single.snapshots[t], sharded.snapshots[t]), f"round {t}"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_loopback_transport_rejected(self, workers):
        """Invalid transports fail on the call that introduces them —
        the single-shard early return must not skip validation."""
        from repro.graphs import generators as g

        topo = g.torus_2d(4, 4)
        with pytest.raises(ValueError, match="transport"):
            run_sharded_ensemble(
                DiffusionBalancer(topo), point_load(topo.n, discrete=False),
                replicas=4, workers=workers, stopping=[MaxRounds(2)],
                transport="loopback",
            )

    def test_shard_payloads_pure_function_of_inputs(self):
        """Payload derivation is independent of execution venue: the
        same request yields the same shard cuts and RNG states — the
        property that makes local and dispatched shards interchangeable."""
        from repro.graphs import generators as g
        from repro.simulation.sharding import shard_payloads

        topo = g.torus_2d(4, 4)
        loads = point_load(topo.n, discrete=False)
        a = shard_payloads(DiffusionBalancer(topo), loads, seed=7, replicas=10, workers=4)
        b = shard_payloads(DiffusionBalancer(topo), loads, seed=7, replicas=10, workers=4)
        assert len(a) == len(b) == 4
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.loads, pb.loads)
            assert len(pa.rngs) == len(pb.rngs)
            for ra, rb in zip(pa.rngs, pb.rngs):
                sa = ra.bit_generator.state
                sb = rb.bit_generator.state
                assert sa == sb


class TestShardPayloadHygiene:
    def test_topology_pickles_without_derived_caches(self):
        import pickle

        from repro.graphs import generators as g
        from repro.core.operators import edge_operator

        topo = g.torus_2d(8, 8)
        # Warm every heavy cache a shard payload must NOT carry.
        edge_operator(topo).incidence()
        _ = topo.degrees, topo.indptr, topo.edge_denominators
        blob = pickle.dumps(topo)
        bare = pickle.dumps(g.torus_2d(8, 8))
        assert len(blob) <= len(bare) * 1.05, "warmed caches leaked into the pickle"
        clone = pickle.loads(blob)
        assert clone == topo
        assert not clone.edges.flags.writeable
        assert np.array_equal(clone.degrees, topo.degrees)  # rebuilt on demand


class TestMergeEnsembleTraces:
    def test_single_trace_passthrough(self):
        from repro.graphs import generators as g

        topo = g.torus_2d(4, 4)
        trace = EnsembleSimulator(DiffusionBalancer(topo), stopping=[MaxRounds(3)]).run(
            point_load(topo.n, discrete=False), seed=0, replicas=2
        )
        assert merge_ensemble_traces([trace]) is trace

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_ensemble_traces([])

    def test_unequal_lengths_pad_frozen_rows(self):
        """Shards stopping at different rounds merge like one frozen batch."""
        from repro.graphs import generators as g

        topo = g.torus_2d(4, 4)
        loads = point_load(topo.n, total=100 * topo.n, discrete=False)
        rules = lambda: [PotentialFractionBelow(1e-4), MaxRounds(2_000)]
        rngs = spawn_rngs(5, 6)
        single = EnsembleSimulator(RandomPartnerBalancer(), stopping=rules()).run(
            loads, seed=spawn_rngs(5, 6)
        )
        parts = [
            EnsembleSimulator(RandomPartnerBalancer(), stopping=rules()).run(
                loads, seed=rngs[a:b]
            )
            for a, b in ((0, 2), (2, 4), (4, 6))
        ]
        merged = merge_ensemble_traces(parts)
        assert merged.replicas == 6
        assert np.array_equal(single.rounds_vector, merged.rounds_vector)
        assert single.stopped_by == merged.stopped_by
        assert merged.potentials_matrix.shape == single.potentials_matrix.shape
        assert np.allclose(single.potentials_matrix, merged.potentials_matrix, rtol=1e-12)
        assert np.array_equal(single.final_loads, merged.final_loads)


    @pytest.mark.parametrize("discrete", [False, True])
    def test_merged_totals_keep_the_loads_dtype(self, discrete):
        """The merged trace reports every replica's exact final total in
        the loads' dtype, as the unsharded ensemble does."""
        from repro.graphs import generators as g

        topo = g.torus_2d(4, 4)
        loads = point_load(topo.n, total=1600, discrete=discrete)
        mode = "discrete" if discrete else "continuous"
        kwargs = {"seed": 0, "replicas": 4, "stopping": [MaxRounds(5)]}
        sharded = run_sharded_ensemble(DiffusionBalancer(topo, mode=mode), loads,
                                       workers=2, **kwargs)
        single = EnsembleSimulator(DiffusionBalancer(topo, mode=mode),
                                   stopping=kwargs.pop("stopping")).run(loads, **kwargs)
        assert sharded.last_totals is not None
        assert sharded.last_totals.dtype == single.last_totals.dtype == loads.dtype
        assert np.array_equal(sharded.last_totals, single.last_totals)


class TestShardedMonteCarlo:
    def test_sharded_equals_vectorized(self):
        from repro.experiments.e08_random_continuous import trial_drop_and_rounds

        kw = {"n": 48, "c": 1.0, "max_rounds": 300}
        vec = monte_carlo(trial_drop_and_rounds, trials=9, root_seed=3,
                          workers="vectorized", trial_kwargs=kw)
        sha = monte_carlo(trial_drop_and_rounds, trials=9, root_seed=3,
                          workers="3xvectorized", trial_kwargs=kw)
        assert vec.trials == sha.trials == 9
        for key in vec.samples:
            assert np.allclose(
                vec.samples[key], sha.samples[key], rtol=1e-12, equal_nan=True
            ), key
        # Integer-valued metrics must agree exactly.
        for key in ("rounds_to_target", "success_at_bound"):
            assert np.array_equal(
                np.nan_to_num(vec.samples[key], nan=-1.0),
                np.nan_to_num(sha.samples[key], nan=-1.0),
            ), key

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            monte_carlo(_BrokenTrial(), trials=4, root_seed=0, workers=2)

    def test_trial_without_run_batch_degrades_to_pool(self):
        from repro.simulation.montecarlo import trial_rngs

        got = monte_carlo(_plain_trial, trials=5, root_seed=1, workers="2xvectorized")
        want = np.asarray([r.random() for r in trial_rngs(1, 5)])
        assert np.allclose(got.samples["value"], want)


class TestSweepWorkers:
    def test_sharded_sweep_matches_in_process(self):
        from repro.simulation.sweep import sweep

        _, a = sweep(["torus:4x4"], ["random-partner", "matching-de"],
                     eps=1e-2, seed=5, replicas=4, workers=1)
        _, b = sweep(["torus:4x4"], ["random-partner", "matching-de"],
                     eps=1e-2, seed=5, replicas=4, workers="2xvectorized")
        for cell_a, cell_b in zip(a, b):
            assert cell_a.rounds == cell_b.rounds
            assert cell_a.stopped_by == cell_b.stopped_by
            assert cell_a.final_potential == pytest.approx(cell_b.final_potential, rel=1e-9)
            assert cell_a.total_movement == pytest.approx(cell_b.total_movement, rel=1e-9)
