"""Result archival: persist experiment tables as JSON.

Reproduction artifacts need to outlive the process: the benches print
tables, but comparing runs across machines or commits requires files.
This module serializes :class:`Table` to a stable, human-diffable JSON
layout, and loads it back.  (JSON, not pickle: artifacts must be
inspectable, portable, and safe to load.)

Layout example::

    results/
      e01.table.json
      e02.table.json

Round-trips are exact for all recorded floats (``repr``-based JSON
encoding preserves float64).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.analysis.reporting import Table

__all__ = ["save_table", "load_table"]

_SCHEMA_TABLE = "repro.table/1"


def _jsonable(value: Any) -> Any:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def save_table(table: Table, path: str | Path) -> Path:
    """Write a table to ``path`` (creating parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": _SCHEMA_TABLE,
        "title": table.title,
        "columns": list(table.columns),
        "rows": [[_jsonable(v) for v in row] for row in table.rows],
        "notes": list(table.notes),
    }
    path.write_text(json.dumps(doc, indent=2, allow_nan=True))
    return path


def load_table(path: str | Path) -> Table:
    """Read a table written by :func:`save_table`."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != _SCHEMA_TABLE:
        raise ValueError(f"{path} is not a repro table artifact")
    table = Table(doc["title"], doc["columns"])
    for row in doc["rows"]:
        table.add_row(*row)
    for note in doc["notes"]:
        table.add_note(note)
    return table

