"""Process-local telemetry: monotonic spans, counters, JSONL traces.

The :class:`Recorder` is the single telemetry primitive the whole stack
shares.  Engines and transports time *phases* (interior compute,
boundary compute, halo send/recv wait, checkpoint, requeue) around the
code they already run — observation only, never altering arithmetic,
buffers or protocol ordering, which is what keeps traced trajectories
bit-for-bit identical to untraced ones.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  The module-level default
   recorder is disabled; hot loops hoist ``rec = get_recorder()`` and a
   local ``traced = rec.enabled`` bool before the loop, so the per-round
   cost of tracing-off is one branch on a local — no allocation, no
   attribute chase, no clock read.
2. **Near-zero overhead when enabled.**  Every recording call appends
   one tuple to a single ordered buffer: it builds no dict, takes no
   lock and folds no metric.  :meth:`Recorder.drain_events`,
   :meth:`Recorder.flush` and :meth:`Recorder.metrics_snapshot` build
   the event dicts, write the JSON lines and fold the metrics from that
   buffer, in recording order; the schema and every line's contents are
   exactly what building each dict at record time gave.  A drain or a
   concurrent ``/metrics`` scrape removes or folds only the prefix it
   counted, so a recording thread never waits and no event is lost.
   Metric samples and counter increments leave the buffer when folded;
   ``observe``/``add`` fold every ``_FOLD_EVERY`` records, so a
   recorder nobody drains or scrapes holds a bounded number of them.
3. **Zero dependencies.**  Stdlib only (``json``, ``time``,
   ``threading``); events are plain dicts, metrics are scalar folds plus
   a bounded reservoir for percentiles.
4. **Shippable events.**  A worker process records into a private
   buffering recorder and drains the event list into its chunk reply;
   the dispatcher :meth:`Recorder.ingest`\\ s them under a ``worker``
   label, merging per-block phase timings into one cluster-wide trace.

Event schema (one JSON object per line; see ``docs/TRACE_SCHEMA.md``):

``{"ev": "meta", "schema": 1, "role": ..., "pid": ..., "host": ...,
"t0_unix": ...}``
    First line of every trace file: who recorded it and when.
``{"ev": "span", "name": ..., "t": ..., "dur": ..., **labels}``
    A timed phase.  ``t`` is seconds since the *emitting* process's
    trace epoch (monotonic clock), ``dur`` the phase duration.
``{"ev": "count", "name": ..., "value": ..., **labels}``
    A discrete quantity attributed to a point in the run (halo bytes on
    a link in a round, values exchanged, ...).
``{"ev": "event", "name": ..., "t": ..., **labels}``
    A point event (checkpoint taken, blocks re-queued, job accepted).

Common labels: ``round`` (absolute round index), ``block`` (partition
block id), ``peer``/``link`` (halo link), ``worker`` (host:port label,
added by the dispatcher at ingest time), ``engine``.
"""

from __future__ import annotations

import json
import math
import os
import socket as _socket
import threading
import time
from functools import lru_cache
from time import perf_counter

__all__ = [
    "SCHEMA_VERSION",
    "PHASES",
    "Recorder",
    "NULL_RECORDER",
    "get_recorder",
    "set_recorder",
    "configure",
    "shutdown",
    "metrics_to_prom",
    "prom_sample",
]

#: Trace schema version, stamped into every meta line.
SCHEMA_VERSION = 1

#: The per-round phase names the partitioned runtime records.
PHASES = ("interior", "boundary", "halo_send", "halo_wait", "checkpoint", "requeue")


class _NullSpan:
    """Shared no-op context manager: the disabled ``span()`` result.

    A singleton, so the disabled path allocates nothing.
    """

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Context manager recording one span on exit (enabled path only)."""

    __slots__ = ("_rec", "_name", "_fields", "_t0")

    def __init__(self, rec: "Recorder", name: str, fields: dict):
        self._rec = rec
        self._name = name
        self._fields = fields

    def __enter__(self):
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self._rec.record_span(self._name, self._t0, perf_counter(), **self._fields)
        return False


class _Metric:
    """count/sum/min/max plus a bounded reservoir for p50/p99.

    The reservoir is a deterministic ring (overwrite oldest once full):
    percentiles reflect the most recent ``RESERVOIR`` observations, and
    identical runs produce identical snapshots — no sampling randomness.
    """

    __slots__ = ("count", "total", "vmin", "vmax", "_ring")

    RESERVOIR = 2048

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self._ring: list[float] = []

    def observe(self, value: float) -> None:
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        self.total += value
        ring = self._ring
        if len(ring) < self.RESERVOIR:
            ring.append(value)
        else:
            ring[self.count % self.RESERVOIR] = value
        self.count += 1

    @staticmethod
    def _quantile(ordered: list[float], q: float) -> float:
        if not ordered:
            return 0.0
        k = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[k]

    def snapshot(self) -> dict:
        ordered = sorted(self._ring)
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
            "p50": self._quantile(ordered, 0.50),
            "p99": self._quantile(ordered, 0.99),
        }


#: Buffered record kinds.  A record of this process is ``(kind, name, a,
#: b, fields)``: ``a``/``b`` are a span's start and end stamps, ``a`` an
#: event's stamp or a count's, sample's or counter increment's value.  A
#: foreign event is ``(_INGESTED, event dict, extra labels)``.  Samples
#: (``_OBSERVE``) and counter increments (``_ADD``) are folded, never
#: written, and leave the buffer when they are folded.
_SPAN, _EVENT, _COUNT, _INGESTED = "span", "event", "count", "ingested"
_OBSERVE, _ADD = "observe", "add"
_FOLD_ONLY = (_OBSERVE, _ADD)

#: ``add``/``observe`` fold the buffer once this many records await a
#: fold, so a recorder nobody drains or scrapes (a metrics-only daemon
#: counting transport frames) holds a bounded number of samples.
_FOLD_EVERY = 4096

#: The keys each kind writes before its labels.
_CORE_KEYS = {
    _SPAN: frozenset(("ev", "name", "t", "dur")),
    _EVENT: frozenset(("ev", "name", "t")),
    _COUNT: frozenset(("ev", "name", "value")),
}

_encode = json.JSONEncoder(separators=(",", ":")).encode
_FLOAT_REPR = float.__repr__
_INT_REPR = int.__repr__


#: The start of each kind's JSON line, up to its ``name`` value.
_HEAD = {kind: '{"ev":"%s","name":' % kind for kind in (_SPAN, _EVENT, _COUNT)}


@lru_cache(maxsize=4096)
def _json_str(s: str) -> str:
    return json.dumps(s)


@lru_cache(maxsize=4096)
def _json_key(key: str) -> str:
    """A label's ``,"key":`` separator and key."""
    return "," + json.dumps(key) + ":"


def _json_scalar(value) -> str | None:
    """What ``json.dumps`` writes for a str, int, finite float, bool or
    None; None for any other value (the caller falls back to json)."""
    kind = type(value)
    if kind is float:  # NaN and infinities (value - value is NaN) fall back
        return _FLOAT_REPR(value) if value - value == 0.0 else None
    if kind is int:
        return _INT_REPR(value)
    if kind is str:
        return _json_str(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    return None


def _merged(ev: dict, extra: dict) -> dict:
    """A foreign event with the ingesting recorder's labels applied."""
    return {**ev, **extra} if extra else ev


class Recorder:
    """Spans, counters and aggregated metrics for one process (or role).

    ``enabled=False`` (the default for the module-level recorder) makes
    every recording method a cheap no-op; hot loops additionally guard
    with ``if rec.enabled:`` so the disabled path never even calls in.

    ``path`` streams events to a JSONL file on :meth:`flush` /
    :meth:`close`; without it events buffer in memory until
    :meth:`drain_events` ships them (worker → dispatcher).  ``base``
    labels (e.g. ``block=3``) are merged into every event this recorder
    emits.

    Every recording method appends one tuple per record to an ordered
    buffer: no dict, no lock, no metric fold on the recording thread.
    :meth:`drain_events`, :meth:`flush` and :meth:`metrics_snapshot`
    turn the buffer into the event dicts, JSON lines and metric folds,
    in recording order.
    """

    def __init__(self, enabled: bool = False, path: str | None = None,
                 role: str = "main", base: dict | None = None) -> None:
        self.enabled = bool(enabled)
        self.path = path
        self.role = role
        self.base = dict(base) if base else {}
        self._lock = threading.Lock()
        #: records not yet drained or flushed, oldest first
        self._buf: list[tuple] = []
        #: how many leading ``_buf`` records the metrics already hold
        self._folded = 0
        #: events drained or flushed so far
        self._taken = 0
        self._metrics: dict[str, _Metric] = {}
        self._counters: dict[str, float] = {}
        self._t0 = perf_counter()
        self._t0_unix = time.time()
        self._wrote_meta = False

    @property
    def n_events(self) -> int:
        """Events recorded so far, drained and flushed ones included."""
        with self._lock:
            return self._taken + sum(rec[0] not in _FOLD_ONLY for rec in self._buf)

    # -- clocks --------------------------------------------------------
    def rel(self, t_abs: float) -> float:
        """A ``perf_counter()`` reading as seconds since the trace epoch."""
        return t_abs - self._t0

    # -- recording -----------------------------------------------------
    def span(self, name: str, **fields):
        """Context manager timing a phase; no-op singleton when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, fields)

    def record_span(self, name: str, t0: float, t1: float | None = None,
                    **fields) -> None:
        """Record one finished span from explicit ``perf_counter`` stamps.

        The explicit form hot loops use: the caller reads the clock only
        on the traced path, so the untraced loop stays allocation-free.
        """
        if not self.enabled:
            return
        if t1 is None:
            t1 = perf_counter()
        self._buf.append((_SPAN, name, t0, t1, fields))

    def event(self, name: str, **fields) -> None:
        """Record a point event (checkpoint, requeue, job accepted...)."""
        if not self.enabled:
            return
        self._buf.append((_EVENT, name, perf_counter(), None, fields))

    def count(self, name: str, value: float, **fields) -> None:
        """Record a counted quantity as an event *and* fold it into the
        counter registry (halo bytes per link per round, ...)."""
        if not self.enabled:
            return
        self._buf.append((_COUNT, name, value, None, fields))

    def add(self, name: str, value: float = 1) -> None:
        """Fold into a monotonic counter without emitting an event
        (per-message transport byte counters would bloat the trace)."""
        if not self.enabled:
            return
        buf = self._buf
        buf.append((_ADD, name, value, None, None))
        if len(buf) - self._folded >= _FOLD_EVERY:
            self._fold()

    def observe(self, name: str, value: float) -> None:
        """Fold a sample into an aggregated metric without an event
        (per-call kernel and per-frame transport latencies)."""
        if not self.enabled:
            return
        buf = self._buf
        buf.append((_OBSERVE, name, value, None, None))
        if len(buf) - self._folded >= _FOLD_EVERY:
            self._fold()

    # -- shipping / merging -------------------------------------------
    def drain_events(self) -> list[dict]:
        """Take (and clear) the buffered events — the worker → dispatcher
        shipping hook.  Aggregated metrics/counters stay put."""
        with self._lock:
            records = self._take()
        return [self._event_dict(rec) for rec in records]

    def ingest(self, events: list[dict], **extra) -> None:
        """Merge foreign events (a worker's drained buffer) into this
        recorder, tagging each with ``extra`` labels (``worker=...``)
        and folding span durations into the metric registry so
        ``--metrics`` covers the whole cluster.  The dicts are kept, not
        copied, until drained or flushed: the caller must not change them."""
        if not self.enabled or not events:
            return
        self._buf.extend([(_INGESTED, ev, extra) for ev in events])

    # -- buffer --------------------------------------------------------
    def _metric(self, name: str) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = _Metric()
        return metric

    def _fold(self) -> None:
        with self._lock:
            self._fold_buffered()

    def _fold_buffered(self) -> None:
        """Fold the buffered records the metrics do not hold yet, in
        order, and drop the fold-only ones (caller holds the lock).

        The folded slice is replaced in place: a recording thread may
        append to the same list meanwhile."""
        buf, start = self._buf, self._folded
        end = len(buf)
        if start == end:
            return
        counters = self._counters
        kept = []
        for rec in buf[start:end]:
            kind, name = rec[0], rec[1]
            if kind is _OBSERVE:
                self._metric(name).observe(rec[2])
                continue
            if kind is _ADD:
                counters[name] = counters.get(name, 0) + rec[2]
                continue
            kept.append(rec)
            if kind is _SPAN:
                self._metric(name).observe(rec[3] - rec[2])
            elif kind is _COUNT:
                counters[name] = counters.get(name, 0) + rec[2]
            elif kind is _INGESTED:
                ev = _merged(name, rec[2])
                if ev.get("ev") == "span":
                    self._metric(ev.get("name")).observe(float(ev.get("dur", 0.0)))
                elif ev.get("ev") == "count":
                    name = ev.get("name")
                    counters[name] = counters.get(name, 0) + ev.get("value", 0)
        buf[start:end] = kept
        self._folded = start + len(kept)

    def _take(self) -> list[tuple]:
        """Fold the buffered records, remove them and return them (caller
        holds the lock).  Only the counted prefix is removed, in place: a
        recording thread may append to the same list meanwhile."""
        self._fold_buffered()
        end = self._folded
        records = self._buf[:end]
        del self._buf[:end]
        self._folded = 0
        self._taken += end
        return records

    def _event_dict(self, rec: tuple) -> dict:
        """The event dict of one buffered record."""
        kind = rec[0]
        if kind is _INGESTED:
            return _merged(rec[1], rec[2])
        _, name, a, b, fields = rec
        if kind is _SPAN:
            ev = {"ev": kind, "name": name, "t": round(a - self._t0, 9), "dur": round(b - a, 9)}
        elif kind is _EVENT:
            ev = {"ev": kind, "name": name, "t": round(a - self._t0, 9)}
        else:
            ev = {"ev": kind, "name": name, "value": a}
        if self.base:
            ev.update(self.base)
        if fields:
            ev.update(fields)
        return ev

    def _json_lines(self, records: list[tuple]) -> list[str]:
        """The buffered records as the JSON lines ``json.dumps`` writes for
        their event dicts, built from the records' scalars where it can.

        ``json.dumps`` writes a finite float as its ``repr``, an int as
        its ``repr`` and a str as ``json.dumps(str)``; any other value, a
        label that shadows a core key, ``base`` labels and foreign events
        take the dict and ``json`` itself.
        """
        lines = []
        t0 = self._t0
        for rec in records:
            kind = rec[0]
            fields = rec[4] if kind is not _INGESTED else None
            if (kind is not _INGESTED and not self.base
                    and (not fields or fields.keys().isdisjoint(_CORE_KEYS[kind]))):
                _, name, a, b, _ = rec
                if kind is _COUNT:
                    parts = [_HEAD[kind], _json_scalar(name), ',"value":', _json_scalar(a)]
                else:
                    parts = [_HEAD[kind], _json_scalar(name),
                             ',"t":', _json_scalar(round(a - t0, 9))]
                    if kind is _SPAN:
                        parts += (',"dur":', _json_scalar(round(b - a, 9)))
                for key, value in (fields or {}).items():
                    parts += (_json_key(key), _json_scalar(value))
                parts.append("}\n")
                try:
                    lines.append("".join(parts))
                    continue
                except TypeError:  # a None part: a value only json can write
                    pass
            lines.append(_encode(self._event_dict(rec)) + "\n")
        return lines

    # -- output --------------------------------------------------------
    def _meta_event(self) -> dict:
        return {
            "ev": "meta",
            "schema": SCHEMA_VERSION,
            "role": self.role,
            "pid": os.getpid(),
            "host": _socket.gethostname(),
            "t0_unix": self._t0_unix,
            **({"base": self.base} if self.base else {}),
        }

    def flush(self) -> int:
        """Append buffered events to ``path`` (meta line first, once);
        returns the number of events written.  No-op without a path."""
        if self.path is None:
            return 0
        with self._lock:
            records = self._take()
            write_meta = not self._wrote_meta
            self._wrote_meta = True
        mode = "w" if write_meta else "a"
        with open(self.path, mode, encoding="utf-8") as fh:
            if write_meta:
                fh.write(_encode(self._meta_event()) + "\n")
            fh.writelines(self._json_lines(records))
        return len(records) + (1 if write_meta else 0)

    def close(self) -> None:
        self.flush()

    def metrics_snapshot(self) -> dict:
        """``{"counters": {name: total}, "metrics": {name: {count, sum,
        min, max, p50, p99}}}`` — the aggregation the bench rows and the
        Prometheus export render."""
        with self._lock:
            self._fold_buffered()
            return {
                "counters": dict(self._counters),
                "metrics": {k: m.snapshot() for k, m in sorted(self._metrics.items())},
            }


#: The immutable disabled recorder: what ``get_recorder()`` returns until
#: :func:`configure` installs a live one.  Never enable this instance.
NULL_RECORDER = Recorder(enabled=False, role="null")

_current: Recorder = NULL_RECORDER


def get_recorder() -> Recorder:
    """The process's current recorder (disabled by default)."""
    return _current


def set_recorder(rec: Recorder | None) -> Recorder:
    """Install ``rec`` as the process recorder (``None`` restores the
    disabled default); returns the previous recorder."""
    global _current
    previous = _current
    _current = rec if rec is not None else NULL_RECORDER
    return previous


def configure(trace: str | None = None, metrics: bool = False,
              role: str = "main", base: dict | None = None) -> Recorder:
    """Install and return a live recorder when telemetry was requested.

    ``trace`` names the JSONL output file; ``metrics`` enables
    aggregation without a trace file.  With neither, the disabled
    default stays installed (and is returned) — CLI wiring calls this
    unconditionally with its flag values.
    """
    if not trace and not metrics:
        return _current
    rec = Recorder(enabled=True, path=trace, role=role, base=base)
    set_recorder(rec)
    return rec


def shutdown() -> Recorder:
    """Flush and uninstall the current recorder; returns it (so callers
    can still read its metrics after the run)."""
    rec = _current
    rec.close()
    set_recorder(None)
    return rec


_PROM_NAME_OK = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _prom_name(name: str, prefix: str) -> str:
    """Sanitize a metric name to the prom charset ``[a-zA-Z0-9_]``.

    Dotted registry names (``transport.tcp.send_s``) become underscored
    prom families; *every* other character — including non-ASCII
    alphanumerics that ``str.isalnum()`` would wave through — is mapped
    to ``_`` so the exposition always parses.
    """
    safe = "".join(c if c in _PROM_NAME_OK else "_" for c in name)
    return f"{prefix}_{safe}"


def _prom_value(value) -> str:
    """Render a sample value in prom text syntax (``+Inf``/``-Inf``/``NaN``)."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        return "NaN"
    if v != v:
        return "NaN"
    if v == float("inf"):
        return "+Inf"
    if v == float("-inf"):
        return "-Inf"
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return repr(v)


def _prom_label_value(value) -> str:
    """Escape a label value per the exposition format: ``\\``, ``"``, newline."""
    s = str(value)
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def prom_sample(name: str, labels: dict | None, value, prefix: str = "repro") -> str:
    """One exposition sample line with sanitized name and escaped labels."""
    pname = _prom_name(name, prefix)
    if labels:
        body = ",".join(
            f'{_prom_name(k, "").lstrip("_") or "label"}="{_prom_label_value(v)}"'
            for k, v in labels.items()
        )
        return f"{pname}{{{body}}} {_prom_value(value)}"
    return f"{pname} {_prom_value(value)}"


def metrics_to_prom(snapshot: dict | None = None, prefix: str = "repro") -> str:
    """Render a metrics snapshot as Prometheus text exposition format.

    Counters become ``counter`` samples; aggregated metrics become
    ``summary`` families with ``quantile`` labels (0.5, 0.99) plus
    ``_sum``/``_count``, the standard pull-scrape shape.  With no
    ``snapshot`` the current recorder's snapshot is rendered.
    """
    if snapshot is None:
        snapshot = get_recorder().metrics_snapshot()
    lines: list[str] = []
    for name, total in sorted(snapshot.get("counters", {}).items()):
        pname = _prom_name(name, prefix) + "_total"
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {_prom_value(total)}")
    for name, agg in sorted(snapshot.get("metrics", {}).items()):
        pname = _prom_name(name, prefix) + "_seconds"
        lines.append(f"# TYPE {pname} summary")
        lines.append(f'{pname}{{quantile="0.5"}} {_prom_value(agg["p50"])}')
        lines.append(f'{pname}{{quantile="0.99"}} {_prom_value(agg["p99"])}')
        lines.append(f"{pname}_sum {_prom_value(agg['sum'])}")
        lines.append(f"{pname}_count {_prom_value(agg['count'])}")
    return "\n".join(lines) + ("\n" if lines else "")
