"""Unit tests for stopping rules.

Every rule has one verdict method, so each test runs on a one-replica
:class:`Trace` (a bool verdict) and on a three-replica
:class:`EnsembleTrace` that records the same states in every column (a
mask whose every entry must be that same verdict).
"""

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer
from repro.graphs.generators import torus_2d
from repro.observability.convergence import ConvergenceMonitor
from repro.simulation.ensemble import EnsembleSimulator
from repro.simulation.initial import point_load
from repro.simulation.stopping import (
    DiscrepancyBelow,
    MaxRounds,
    PotentialBelow,
    PotentialFractionBelow,
    Stagnation,
    StoppingRule,
    first_satisfied,
)
from repro.simulation.trace import ALWAYS_RECORDED, SERIES, EnsembleTrace, Trace

B = 3


@pytest.fixture(params=["trace", "ensemble-B3"])
def kind(request):
    return request.param


def new_trace(kind):
    if kind == "trace":
        return Trace()
    return EnsembleTrace("rules", B, record_discrepancies=True, record_movements=True)


def record_states(kind, states, t=None):
    """Record each ``(n,)`` state: as a vector, or repeated in ``B`` columns
    (appended to the trace ``t`` when given)."""
    t = new_trace(kind) if t is None else t
    for x in states:
        if kind == "trace":
            t.record(np.asarray(x))
        else:
            t.record(np.repeat(np.asarray(x, dtype=np.float64)[:, None], B, axis=1))
            if t.recorded_states > 1:
                t.advance(np.ones(B, dtype=bool))
    return t


def make_trace(kind, potentials, t=None):
    """A trace with prescribed potentials via crafted 2-node loads."""
    # two nodes at +-sqrt(phi/2) around mean: potential exactly phi
    return record_states(kind, [[10 + np.sqrt(phi / 2), 10 - np.sqrt(phi / 2)]
                                for phi in potentials], t)


def verdict(rule, trace) -> bool:
    """The rule's verdict: a bool on one replica, the same in every column else."""
    v = rule.should_stop(trace)
    if isinstance(trace, Trace):
        assert np.ndim(v) == 0
        return bool(v)
    assert np.shape(v) == (B,)
    assert len(set(np.asarray(v).tolist())) == 1, v
    return bool(v[0])


class TestMaxRounds:
    def test_fires_at_limit(self, kind):
        tr = make_trace(kind, [100, 50, 25])
        assert not verdict(MaxRounds(3), tr)
        assert verdict(MaxRounds(2), tr)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MaxRounds(-1)

    def test_reason_mentions_limit(self):
        assert "7" in MaxRounds(7).reason


class TestPotentialRules:
    def test_potential_below(self, kind):
        tr = make_trace(kind, [100, 10])
        assert verdict(PotentialBelow(10.5), tr)
        assert not verdict(PotentialBelow(9), tr)

    def test_fraction_below(self, kind):
        tr = make_trace(kind, [100, 0.5])
        assert verdict(PotentialFractionBelow(0.01), tr)
        assert not verdict(PotentialFractionBelow(0.001), tr)

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            PotentialFractionBelow(0.0)
        with pytest.raises(ValueError):
            PotentialFractionBelow(1.0)


class TestDiscrepancy:
    def test_fires(self, kind):
        tr = record_states(kind, [[0.0, 8.0]])
        assert verdict(DiscrepancyBelow(10), tr)
        assert not verdict(DiscrepancyBelow(7.9), tr)


class TestStagnation:
    def test_detects_flat_tail(self, kind):
        tr = make_trace(kind, [100] * 12)
        assert verdict(Stagnation(patience=10), tr)

    def test_not_triggered_by_progress(self, kind):
        tr = make_trace(kind, [100 / (2**i) for i in range(12)])
        assert not verdict(Stagnation(patience=10), tr)

    def test_needs_enough_history(self, kind):
        tr = make_trace(kind, [100, 100])
        assert not verdict(Stagnation(patience=10), tr)

    @pytest.mark.parametrize("states, fires", [(4, False), (5, False), (6, True), (9, True)])
    def test_history_below_at_and_above_patience(self, kind, states, fires):
        # patience=5 fires once 5 rounds (6 recorded states) made no progress.
        tr = make_trace(kind, [100] * states)
        assert verdict(Stagnation(patience=5), tr) is fires

    @pytest.mark.parametrize("min_rel_drop, fires", [(0.0, False), (0.4, False), (0.6, True)])
    def test_min_rel_drop(self, kind, min_rel_drop, fires):
        # Every round halves the potential: a relative drop of 0.5.
        tr = make_trace(kind, [64 / (2**i) for i in range(5)])
        assert verdict(Stagnation(patience=3, min_rel_drop=min_rel_drop), tr) is fires

    def test_one_improving_round_in_window_blocks(self, kind):
        tr = make_trace(kind, [100, 100, 100, 50, 50, 50])
        assert not verdict(Stagnation(patience=3), tr)
        assert verdict(Stagnation(patience=2), tr)

    def test_zero_potential_counts_as_stagnant(self, kind):
        tr = make_trace(kind, [0.0] * 12)
        assert verdict(Stagnation(patience=10), tr)

    def test_validation(self):
        with pytest.raises(ValueError):
            Stagnation(patience=0)
        with pytest.raises(ValueError):
            Stagnation(min_rel_drop=-0.1)


class TestFirstSatisfied:
    """``first_satisfied`` is the one-replica loop: it reads bool verdicts."""

    def test_order_respected(self):
        tr = make_trace("trace", [100, 1])
        rules = [PotentialBelow(5), MaxRounds(1)]
        assert first_satisfied(rules, tr) is rules[0]

    def test_none_when_unsatisfied(self):
        tr = make_trace("trace", [100, 50])
        assert first_satisfied([PotentialBelow(1), MaxRounds(10)], tr) is None


def all_active(trace):
    return np.ones(1 if isinstance(trace, Trace) else B, dtype=bool)


def rows_trace(rows):
    """A two-replica trace recording prescribed potential rows."""
    t = EnsembleTrace("rules", 2)
    for i, row in enumerate(rows):
        t.record_stats(np.asarray(row, dtype=np.float64), np.zeros(2))
        if i:
            t.advance(np.ones(2, dtype=bool))
    return t


class TestRoundsHint:
    """Chunk-size hints: exact for round caps, conservative for potentials."""

    def test_max_rounds_gives_the_remaining_budget(self, kind):
        tr = make_trace(kind, [100, 50, 25, 12])
        assert MaxRounds(10).rounds_hint(tr, all_active(tr)) == 7
        assert MaxRounds(3).rounds_hint(tr, all_active(tr)) == 0

    def test_potential_rules_give_half_the_predicted_rounds(self, kind):
        # Phi halves every round; the target 1.0 is log2(125) ~ 6.97 rounds away.
        tr = make_trace(kind, [1000, 500, 250, 125])
        assert PotentialBelow(1.0).rounds_hint(tr, all_active(tr)) == 3
        assert PotentialFractionBelow(1e-3).rounds_hint(tr, all_active(tr)) == 3

    @pytest.mark.parametrize("potentials,rule", [
        ([1000], PotentialBelow(1.0)),  # no round observed yet
        ([1000, 1000, 1000], PotentialBelow(1.0)),  # no decay over the window
        ([1000, 500, 250], PotentialBelow(0.0)),  # no geometric rate reaches 0
    ])
    def test_no_prediction(self, kind, potentials, rule):
        tr = make_trace(kind, potentials)
        assert rule.rounds_hint(tr, all_active(tr)) is None

    def test_rules_without_a_prediction(self, kind):
        tr = make_trace(kind, [1000, 500, 250])
        assert DiscrepancyBelow(1.0).rounds_hint(tr, all_active(tr)) is None
        assert Stagnation(3).rounds_hint(tr, all_active(tr)) is None

    def test_soonest_active_replica_decides(self):
        tr = rows_trace([[1000, 1000], [500, 100], [250, 10]])
        both = np.array([True, True])
        slow_only = np.array([True, False])
        rule = PotentialBelow(1.0)
        # Replica 1 falls 10x a round: 1 round left; replica 0 needs ~8.
        assert rule.rounds_hint(tr, both) == 1
        assert rule.rounds_hint(tr, slow_only) == 3

    @pytest.mark.parametrize("rule", [PotentialBelow(1.0), PotentialFractionBelow(1e-4)])
    def test_decelerating_potential_is_approached_from_below(self, kind, rule):
        """Chunks sized by the hint never pass the stop of a potential
        whose decay slows down (a point load spreading: Phi ~ 1/t)."""
        series = [1000.0 / (1 + t) for t in range(20_000)]
        stop = next(t for t, phi in enumerate(series)
                    if phi <= getattr(rule, "threshold", 1e-4 * series[0]))
        tr = make_trace(kind, series[:1])
        t = chunks = 0
        while t < stop:
            k = rule.rounds_hint(tr, all_active(tr)) or 1
            assert t + k <= stop, (t, k, stop)
            make_trace(kind, series[t + 1 : t + k + 1], tr)
            t += k
            chunks += 1
        assert chunks < 60


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


#: one instance of every built-in rule, none of which fires within 6 rounds
BUILT_IN_RULES = [MaxRounds(50), PotentialBelow(1e-9), PotentialFractionBelow(1e-9),
                  DiscrepancyBelow(1e-9), Stagnation(patience=20)]


class TestDeclaredSeries:
    """``record="auto"`` records the union of what the readers declare."""

    def test_every_rule_declares_its_series(self):
        built_in = [c for c in _subclasses(StoppingRule) if c.__module__.startswith("repro.")]
        assert {type(r) for r in BUILT_IN_RULES} == set(built_in)
        for cls in built_in:
            assert "reads" in vars(cls), f"{cls.__name__} does not declare the series it reads"
            assert cls.reads <= SERIES

    def test_always_recorded_covers_the_other_readers(self):
        """The monitor and the summaries read only what every run records."""
        assert ConvergenceMonitor.reads <= ALWAYS_RECORDED
        assert EnsembleTrace.summary_reads <= ALWAYS_RECORDED

    @pytest.mark.parametrize("replicas", [1, 3])
    @pytest.mark.parametrize("rule", BUILT_IN_RULES, ids=lambda r: type(r).__name__)
    def test_auto_records_exactly_the_declared_series(self, rule, replicas):
        topo = torus_2d(4, 4)
        ens = EnsembleSimulator(DiffusionBalancer(topo), [rule, MaxRounds(6)], record="auto")
        trace = ens.run(point_load(topo.n, discrete=False), seed=0, replicas=replicas)
        assert trace.rounds == 6
        recorded = {"potentials", "load_sums"}
        if trace.record_discrepancies:
            recorded.add("discrepancies")
            assert trace.discrepancies_matrix.shape == (7, replicas)
        else:
            with pytest.raises(ValueError, match='record="full"'):
                trace.discrepancies_matrix
        if trace.record_movements:
            recorded.add("movements")
        else:
            with pytest.raises(ValueError, match='record="full"'):
                trace.movements_matrix
        assert recorded == ALWAYS_RECORDED | type(rule).reads
        assert trace.potentials_matrix.shape == trace.load_sums_matrix.shape == (7, replicas)

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_custom_rule_declaration_joins_the_union(self, replicas):
        class _MovedLittle(StoppingRule):
            reads = frozenset({"movements"})

            def should_stop(self, trace):
                if trace.rounds == 0:
                    return np.zeros(trace.replicas, dtype=bool)
                return trace.movements_matrix[-1] <= 0.0

        topo = torus_2d(4, 4)
        ens = EnsembleSimulator(DiffusionBalancer(topo), [_MovedLittle(), MaxRounds(4)])
        trace = ens.run(point_load(topo.n, discrete=False), seed=0, replicas=replicas)
        assert trace.record_movements and not trace.record_discrepancies
        assert trace.movements_matrix.shape == (4, replicas)
        assert trace.stopped_by == ["max-rounds(4)"] * replicas
