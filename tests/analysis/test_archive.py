"""Unit tests for result archival (JSON round-trips)."""

import numpy as np
import pytest

from repro.analysis.archive import load_table, save_table
from repro.analysis.reporting import Table


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

