"""Experiment-suite tests: each table regenerates and its claim columns hold.

These use reduced configurations (small graphs, few trials) so the whole
file runs in seconds; the benchmarks run the full defaults.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.common import small_suite
from repro.graphs import generators as g


class TestRegistry:
    def test_all_experiments_registered(self):
        # 13 paper experiments + extensions (E14, E15) + analysis (E16)
        # + systems view (E17).
        assert sorted(EXPERIMENTS) == [f"e{i:02d}" for i in range(1, 18)]


def _record_section(eid: str) -> str:
    """One experiment's section of the committed EXPERIMENTS.md."""
    record = (Path(__file__).resolve().parents[1] / "EXPERIMENTS.md").read_text()
    _, found, rest = record.partition(f"\n## {eid.upper()}\n")
    assert found, f"EXPERIMENTS.md has no {eid.upper()} section"
    return rest.split("\n---\n", 1)[0]


class TestCommittedRecord:
    """The committed paper-vs-measured record matches what the code measures."""

    def test_e01_matches_regenerated_table(self):
        table = EXPERIMENTS["e01"]()
        assert all(v is True for v in table.column("within_bound"))
        # Title, header, every row and the claim note, as committed.
        assert table.to_markdown() in _record_section("e01")

    @pytest.mark.parametrize("eid, claim", [
        ("e06", "holds"),
        ("e08", "lemma11_holds"),
        ("e09", "lemma13_holds"),
    ])
    def test_algorithm2_tables_match_regenerated(self, eid, claim):
        """Algorithm 2's Lemma 9 / Theorem 12 / Theorem 14 tables, as committed."""
        table = EXPERIMENTS[eid]()
        assert all(v is True for v in table.column(claim))
        if "success_frac" in table.columns:
            for got, want in zip(table.column("success_frac"), table.column("guar_prob")):
                assert got >= want
        assert table.to_markdown() in _record_section(eid)


class TestE01Theorem4:
    def test_bound_holds_on_small_suite(self):
        table = EXPERIMENTS["e01"](eps=1e-4, topologies=small_suite())
        assert all(v is True for v in table.column("within_bound"))

    def test_measured_rate_below_guaranteed(self):
        table = EXPERIMENTS["e01"](eps=1e-4, topologies=small_suite())
        for meas, guar in zip(table.column("rate_meas"), table.column("rate_bound")):
            assert meas <= guar + 1e-9


class TestE02Theorem6:
    def test_bound_and_lemma5_hold(self):
        table = EXPERIMENTS["e02"](ratio=100, topologies=small_suite())
        assert all(v is True for v in table.column("lemma5_holds"))
        for meas, bound in zip(table.column("T_meas"), table.column("T_bound")):
            assert meas is not None and meas <= bound


class TestE03Sequentialization:
    def test_no_lemma1_violations_and_gap(self):
        table = EXPERIMENTS["e03"](trials=5, topologies=small_suite())
        assert all(v == 0 for v in table.column("lemma1_viol"))
        assert all(v is True for v in table.column("gap>=0.5"))
        assert all(v >= 1.0 for v in table.column("drop/lemma2_lb_min"))

    def test_discrete_variant(self):
        table = EXPERIMENTS["e03"](trials=3, topologies=[g.torus_2d(4, 4)], discrete=True)
        assert table.column("lemma1_viol") == [0]


class TestE04E05Dynamic:
    def scenarios(self):
        from repro.graphs.dynamic import EdgeSamplingDynamics

        base = g.torus_2d(4, 4)
        return [("t44 p=0.8", EdgeSamplingDynamics(base, 0.8, seed=1))]

    def test_e04_within_bound(self):
        table = EXPERIMENTS["e04"](eps=1e-3, scenarios=self.scenarios())
        assert all(v is True for v in table.column("within_bound"))

    def test_e05_within_bound(self):
        table = EXPERIMENTS["e05"](ratio=100, scenarios=self.scenarios())
        assert all(v is True for v in table.column("within_bound"))


class TestE06Lemma9:
    def test_probability_above_half(self):
        table = EXPERIMENTS["e06"](sizes=(64, 256), rounds=30)
        assert all(v is True for v in table.column("holds"))
        assert all(p > 0.5 for p in table.column("Pr[max(d)<=5 | link]"))


class TestE07Lemma10:
    def test_identity_noise_level(self):
        table = EXPERIMENTS["e07"](sizes=(8, 64), trials=5)
        assert all(v is True for v in table.column("identity_holds"))


class TestE08RandomContinuous:
    def test_lemma11_and_theorem12(self):
        table = EXPERIMENTS["e08"](sizes=(64,), trials=5)
        assert all(v is True for v in table.column("lemma11_holds"))
        for frac, guar in zip(table.column("success_frac"), table.column("guar_prob")):
            assert frac >= guar - 1e-9


class TestE09RandomDiscrete:
    def test_lemma13_and_theorem14(self):
        table = EXPERIMENTS["e09"](sizes=(64,), ratio=100, trials=5)
        assert all(v is True for v in table.column("lemma13_holds"))
        for frac, guar in zip(table.column("success_frac"), table.column("guar_prob")):
            assert frac >= guar - 1e-9


class TestE10DimensionExchange:
    def test_diffusion_beats_gm94(self):
        table = EXPERIMENTS["e10"](eps=1e-3, topologies=small_suite())
        assert all(v is True for v in table.column("diffusion_wins"))
        assert all(s is None or s > 1 for s in table.column("speedup_gm94"))


class TestE11ThresholdScaling:
    def test_stall_below_linear_threshold(self):
        table = EXPERIMENTS["e11"](sizes=(32, 64), max_rounds=5_000)
        assert all(v is True for v in table.column("below_linear"))

    def test_quadratic_ratio_decays(self):
        table = EXPERIMENTS["e11"](sizes=(32, 64, 128), max_rounds=5_000)
        ratios = table.column("stall/quadratic")
        assert ratios[-1] < ratios[0]


class TestE12Baselines:
    def test_ordering_ops_sos_fos(self):
        table = EXPERIMENTS["e12"](eps=1e-5, topologies=[g.cycle(16), g.hypercube(4)])
        assert all(v is True for v in table.column("ordering_holds"))

    def test_ops_meets_prediction(self):
        table = EXPERIMENTS["e12"](eps=1e-5, topologies=[g.hypercube(4)])
        t_ops = table.column("T_ops")[0]
        pred = table.column("ops_pred(m-1)")[0]
        assert t_ops <= pred


class TestE14Heterogeneous:
    def test_converges_and_matches_alg1(self):
        table = EXPERIMENTS["e14"](topologies=[g.torus_2d(4, 4)], eps=1e-4)
        assert all(v is True for v in table.column("converged"))
        matches = [v for v in table.column("matches_alg1") if v is not None]
        assert all(v is True for v in matches)


class TestE15AsyncVsSync:
    def test_constant_factor(self):
        table = EXPERIMENTS["e15"](eps=1e-4, topologies=[g.torus_2d(4, 4), g.hypercube(4)])
        assert all(v is True for v in table.column("constant_factor"))


class TestE17TokenMigration:
    def test_policy_independence_of_totals(self):
        table = EXPERIMENTS["e17"](topologies=[g.torus_2d(4, 4)], tokens_per_node=100)
        totals = table.column("total_migrations")
        assert len(set(totals)) == 1
        maxes = dict(zip(table.column("policy"), table.column("max_per_token")))
        assert maxes["lifo"] >= maxes["fifo"]


class TestE16BoundTightness:
    def test_slack_is_lemma1_factor_two(self):
        table = EXPERIMENTS["e16"](eps=1e-6, topologies=[g.torus_2d(4, 4), g.hypercube(4)])
        assert all(v is True for v in table.column("slack~2"))
        assert all(v is True for v in table.column("respects_diam"))


class TestE13LocalDivergence:
    def test_deviation_below_psi(self):
        table = EXPERIMENTS["e13"](topologies=[g.torus_2d(4, 4), g.hypercube(4)])
        assert all(v is True for v in table.column("dev<=Psi"))

    def test_psi_ratio_bounded(self):
        table = EXPERIMENTS["e13"](topologies=[g.cycle(16), g.hypercube(4), g.complete(8)])
        assert all(r < 50 for r in table.column("Psi/bound"))
