"""Unit tests for dynamic-network models."""

import numpy as np
import pytest

from repro.graphs import generators as g
from repro.graphs.dynamic import (
    AdversarialDynamics,
    AlternatingDynamics,
    EdgeSamplingDynamics,
    MarkovEdgeDynamics,
    StaticDynamics,
    average_normalized_gap,
)
from repro.graphs.spectral import lambda_2
from repro.graphs.topology import Topology


class TestStaticDynamics:
    def test_same_graph_every_round(self, torus):
        dyn = StaticDynamics(torus)
        assert dyn.topology_at(0) == torus
        assert dyn.topology_at(100) == torus

    def test_average_gap_matches_static_value(self, torus):
        dyn = StaticDynamics(torus)
        expected = lambda_2(torus) / torus.max_degree
        assert dyn.average_gap(5) == pytest.approx(expected)


class TestEdgeSampling:
    def test_deterministic_given_seed_and_round(self, torus):
        a = EdgeSamplingDynamics(torus, 0.5, seed=7)
        b = EdgeSamplingDynamics(torus, 0.5, seed=7)
        for k in (0, 3, 10):
            assert a.topology_at(k) == b.topology_at(k)

    def test_different_rounds_differ(self, torus):
        dyn = EdgeSamplingDynamics(torus, 0.5, seed=7)
        assert dyn.topology_at(0) != dyn.topology_at(1)

    def test_p_one_keeps_everything(self, torus):
        dyn = EdgeSamplingDynamics(torus, 1.0, seed=7)
        assert dyn.topology_at(4).m == torus.m

    def test_p_validated(self, torus):
        with pytest.raises(ValueError):
            EdgeSamplingDynamics(torus, 0.0)
        with pytest.raises(ValueError):
            EdgeSamplingDynamics(torus, 1.5)

    def test_subgraph_edge_count_plausible(self, torus):
        dyn = EdgeSamplingDynamics(torus, 0.5, seed=3)
        counts = [dyn.topology_at(k).m for k in range(50)]
        mean = np.mean(counts)
        assert 0.35 * torus.m < mean < 0.65 * torus.m

    def test_normalized_gaps_shape_and_range(self, torus):
        dyn = EdgeSamplingDynamics(torus, 0.8, seed=1)
        gaps = dyn.normalized_gaps(10)
        assert gaps.shape == (10,)
        assert (gaps >= 0).all()
        assert (gaps <= 1.0 + 1e-9).all()  # lambda2 <= 2*delta, /delta <= 2; torus: <= 1 comfortably


class TestAlternating:
    def test_cycles_through_phases(self):
        rows = g.by_name("grid:3x3")
        cols = rows.relabeled(list(range(9)))  # structurally equal stand-in
        dyn = AlternatingDynamics([rows, cols])
        assert dyn.topology_at(0) == rows
        assert dyn.topology_at(1) == cols
        assert dyn.topology_at(2) == rows

    def test_requires_common_node_set(self):
        with pytest.raises(ValueError):
            AlternatingDynamics([g.cycle(4), g.cycle(5)])

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            AlternatingDynamics([])


class TestAdversarial:
    def test_schedule_then_fallback(self, torus):
        empty = Topology(torus.n, [])
        dyn = AdversarialDynamics([empty, empty], torus)
        assert dyn.topology_at(0).m == 0
        assert dyn.topology_at(1).m == 0
        assert dyn.topology_at(2) == torus

    def test_disconnected_rounds_contribute_zero_gap(self, torus):
        empty = Topology(torus.n, [])
        dyn = AdversarialDynamics([empty], torus)
        gaps = dyn.normalized_gaps(3)
        assert gaps[0] == 0.0
        assert gaps[1] > 0.0

    def test_node_set_checked(self, torus):
        with pytest.raises(ValueError):
            AdversarialDynamics([Topology(torus.n + 1, [])], torus)


class TestMarkov:
    def test_round_zero_all_up(self, torus):
        dyn = MarkovEdgeDynamics(torus, 0.3, 0.3, seed=2)
        assert dyn.topology_at(0).m == torus.m

    def test_deterministic_replay(self, torus):
        a = MarkovEdgeDynamics(torus, 0.3, 0.4, seed=2)
        b = MarkovEdgeDynamics(torus, 0.3, 0.4, seed=2)
        # Access out of order on purpose: state is replayed from round 0.
        t5_a = a.topology_at(5)
        _ = b.topology_at(2)
        assert t5_a == b.topology_at(5)

    def test_stationary_probability(self):
        dyn = MarkovEdgeDynamics(g.cycle(4), p_fail=0.1, p_recover=0.3)
        assert dyn.stationary_up_probability == pytest.approx(0.75)

    def test_probability_validation(self, torus):
        with pytest.raises(ValueError):
            MarkovEdgeDynamics(torus, -0.1, 0.5)

    def test_long_run_availability_near_stationary(self, torus):
        dyn = MarkovEdgeDynamics(torus, p_fail=0.2, p_recover=0.6, seed=9)
        frac = np.mean([dyn.topology_at(k).m / torus.m for k in range(60, 160)])
        assert abs(frac - dyn.stationary_up_probability) < 0.08

    def test_unchanged_rounds_share_one_graph(self, torus):
        """Rounds without a flip reuse one instance, so its spectrum is
        computed once; a flip gives a fresh, equal-to-replay graph."""
        dyn = MarkovEdgeDynamics(torus, p_fail=0.002, p_recover=0.02, seed=4)
        graphs = dyn.sequence(200)
        shared = sum(a is b for a, b in zip(graphs, graphs[1:]))
        assert 0 < shared < 199
        fresh = MarkovEdgeDynamics(torus, p_fail=0.002, p_recover=0.02, seed=4)
        for k in (0, 57, 199):
            assert graphs[k] == fresh.topology_at(k)
        for a, b in zip(graphs, graphs[1:]):
            assert (a is b) == (a == b)


class TestAggregates:
    def test_average_normalized_gap_helper(self, torus):
        assert average_normalized_gap([torus, torus]) == pytest.approx(
            lambda_2(torus) / torus.max_degree
        )

    def test_average_gap_requires_rounds(self, torus):
        with pytest.raises(ValueError):
            StaticDynamics(torus).average_gap(0)

    def test_worst_threshold_term_skips_disconnected(self, torus):
        empty = Topology(torus.n, [])
        dyn = AdversarialDynamics([empty], torus)
        expected = torus.max_degree**3 / lambda_2(torus)
        assert dyn.worst_threshold_term(3) == pytest.approx(expected)

    def test_sequence_materialization(self, torus):
        dyn = EdgeSamplingDynamics(torus, 0.9, seed=0)
        seq = dyn.sequence(4)
        assert len(seq) == 4
        assert all(t.n == torus.n for t in seq)
