"""Result archival: persist traces and experiment tables as JSON.

Reproduction artifacts need to outlive the process: the benches print
tables, but comparing runs across machines or commits requires files.
This module serializes the two result types — :class:`Trace` and
:class:`Table` — to a stable, human-diffable JSON layout, and loads them
back.  (JSON, not pickle: artifacts must be inspectable, portable, and
safe to load.)

Layout example::

    results/
      e01.table.json
      torus8x8-diffusion.trace.json

Round-trips are exact for all recorded floats (``repr``-based JSON
encoding preserves float64).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.analysis.reporting import Table
from repro.simulation.trace import Trace

__all__ = ["save_table", "load_table", "save_trace", "load_trace"]

_SCHEMA_TABLE = "repro.table/1"
_SCHEMA_TRACE = "repro.trace/1"


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


def save_trace(trace: Trace, path: str | Path) -> Path:
    """Write a trace to ``path``.

    Only the series the trace recorded are written: the potentials and
    load sums always, the discrepancies and net movements when the run
    recorded them (``record="full"``, or a rule that reads them), and
    snapshots when it kept them (they dominate the file size).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc: dict[str, Any] = {
        "schema": _SCHEMA_TRACE,
        "balancer": trace.balancer_name,
        "stopped_by": trace.stopped_by,
        "potentials": trace.potentials,
        "load_sums": trace.load_sums.tolist(),
    }
    if trace.record_discrepancies:
        doc["discrepancies"] = trace.discrepancies
    if trace.record_movements:
        doc["net_movements"] = trace.net_movements.tolist()
    if trace.keep_snapshots:
        doc["snapshots"] = [s.tolist() for s in trace.snapshots]
    path.write_text(json.dumps(doc, allow_nan=True))
    return path


def load_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Reconstructs the recorded series directly (it does not re-run
    anything), with the record flags of the run that wrote them: a
    series the file lacks raises the trace's "not recorded" error.
    Snapshot-backed traces restore their snapshots.
    """
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != _SCHEMA_TRACE:
        raise ValueError(f"{path} is not a repro trace artifact")
    trace = Trace(balancer_name=doc["balancer"], keep_snapshots="snapshots" in doc,
                  stopped_by=doc["stopped_by"],
                  record_discrepancies="discrepancies" in doc,
                  record_movements="net_movements" in doc)
    trace._potentials = [float(x) for x in doc["potentials"]]
    trace._sums = [float(x) for x in doc["load_sums"]]
    trace._discrepancies = [float(x) for x in doc.get("discrepancies", ())]
    trace._movements = [float(x) for x in doc.get("net_movements", ())]
    if "snapshots" in doc:
        trace._snapshots = [np.asarray(s) for s in doc["snapshots"]]
    return trace
