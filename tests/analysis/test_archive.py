"""Unit tests for result archival (JSON round-trips)."""

import numpy as np
import pytest

from repro.analysis.archive import load_table, load_trace, save_table, save_trace
from repro.analysis.reporting import Table
from repro.simulation.trace import Trace


class TestTableRoundTrip:
    def make(self):
        t = Table("demo", ["graph", "value", "ok"])
        t.add_row("torus:8x8", 3.14159, True)
        t.add_row("cycle:32", None, False)
        t.add_note("a note")
        return t

    def test_roundtrip_preserves_everything(self, tmp_path):
        original = self.make()
        path = save_table(original, tmp_path / "t.table.json")
        loaded = load_table(path)
        assert loaded.title == original.title
        assert list(loaded.columns) == list(original.columns)
        assert loaded.rows == original.rows
        assert loaded.notes == original.notes

    def test_numpy_scalars_coerced(self, tmp_path):
        t = Table("np", ["a", "b", "c"])
        t.add_row(np.int64(3), np.float64(2.5), np.bool_(True))
        loaded = load_table(save_table(t, tmp_path / "np.table.json"))
        assert loaded.rows == [[3, 2.5, True]]

    def test_wrong_schema_rejected(self, tmp_path):
        p = tmp_path / "bogus.json"
        p.write_text('{"schema": "other/1"}')
        with pytest.raises(ValueError, match="not a repro table"):
            load_table(p)

    def test_creates_parent_dirs(self, tmp_path):
        path = save_table(self.make(), tmp_path / "deep" / "nested" / "t.json")
        assert path.exists()


class TestTraceRoundTrip:
    def make(self, snapshots=False):
        tr = Trace(balancer_name="demo-balancer", keep_snapshots=snapshots)
        tr.record(np.asarray([10.0, 0.0]))
        tr.record(np.asarray([7.5, 2.5]))
        tr.record(np.asarray([6.0, 4.0]))
        tr.stopped_by = "max-rounds(2)"
        return tr

    def test_scalar_series_roundtrip(self, tmp_path):
        original = self.make()
        loaded = load_trace(save_trace(original, tmp_path / "x.trace.json"))
        assert loaded.balancer_name == "demo-balancer"
        assert loaded.stopped_by == "max-rounds(2)"
        assert loaded.potentials == original.potentials
        assert loaded.discrepancies == original.discrepancies
        assert np.array_equal(loaded.load_sums, original.load_sums)
        assert np.array_equal(loaded.net_movements, original.net_movements)

    def test_derived_quantities_survive(self, tmp_path):
        original = self.make()
        loaded = load_trace(save_trace(original, tmp_path / "x.trace.json"))
        assert loaded.rounds == original.rounds
        assert loaded.rounds_to_potential(20.0) == original.rounds_to_potential(20.0)
        assert loaded.conservation_error() == original.conservation_error()

    def test_snapshots_optional(self, tmp_path):
        no_snap = load_trace(save_trace(self.make(False), tmp_path / "a.json"))
        with pytest.raises(ValueError):
            _ = no_snap.snapshots
        with_snap = load_trace(save_trace(self.make(True), tmp_path / "b.json"))
        assert len(with_snap.snapshots) == 3
        assert np.array_equal(with_snap.snapshots[0], [10.0, 0.0])

    def test_real_run_roundtrip(self, tmp_path, torus):
        from repro.core.diffusion import DiffusionBalancer
        from repro.simulation.engine import run_balancer
        from repro.simulation.initial import point_load

        trace = run_balancer(
            DiffusionBalancer(torus, mode="discrete"),
            point_load(torus.n, total=1600),
            rounds=30,
        )
        loaded = load_trace(save_trace(trace, tmp_path / "run.trace.json"))
        assert loaded.potentials == trace.potentials

    @pytest.mark.parametrize("record", ["auto", "full"])
    def test_engine_trace_roundtrip_keeps_what_was_recorded(self, tmp_path, torus, record):
        """A file holds only the recorded series, and the loaded trace
        records (and refuses) exactly what the run did."""
        import json

        from repro.core.diffusion import DiffusionBalancer
        from repro.simulation.engine import run_balancer
        from repro.simulation.initial import point_load

        trace = run_balancer(DiffusionBalancer(torus, mode="discrete"),
                             point_load(torus.n, total=1600), rounds=30, record=record)
        path = save_trace(trace, tmp_path / "run.trace.json")
        full = record == "full"
        assert ("discrepancies" in json.loads(path.read_text())) == full
        loaded = load_trace(path)
        assert (loaded.record_discrepancies, loaded.record_movements) == (full, full)
        assert loaded.potentials == trace.potentials
        assert np.array_equal(loaded.load_sums, trace.load_sums)
        if full:
            assert loaded.discrepancies == trace.discrepancies
            assert np.array_equal(loaded.net_movements, trace.net_movements)
        else:
            for series in ("discrepancies", "net_movements"):
                with pytest.raises(ValueError, match='record="full"'):
                    getattr(loaded, series)
