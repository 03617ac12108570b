"""Live observability endpoints: a zero-dependency stdlib HTTP server.

``repro-lb worker --serve-metrics HOST:PORT`` and
``repro-lb dispatch --serve-metrics HOST:PORT`` embed a
:class:`MetricsServer` thread that exposes, while the run is in flight:

- ``GET /metrics``  — the recorder registry in Prometheus text
  exposition format (via :func:`~repro.observability.metrics_to_prom`),
  plus per-worker heartbeat-age gauges when a roster is being tracked;
- ``GET /healthz``  — liveness JSON: process uptime plus per-worker
  last-seen ages (``ok`` when every tracked worker is fresh,
  ``degraded`` when any has gone stale);
- ``GET /status``   — the full :class:`StatusBoard` snapshot as JSON:
  current job, per-worker round progress (fed by the ``stats`` control
  frames), per-link halo bytes, requeue/retry counters.

The data source is the process-global :class:`StatusBoard`: runtime
components (``worker.serve``, ``dispatch_sharded``,
``dispatch_partitioned``, the convergence monitor) register snapshot
*providers* — zero-arg callables evaluated per request — so the server
never holds references into a finished run's state longer than the
component keeps them registered.

Stale-worker aging: a SIGKILLed worker stops heartbeating but its
handle may linger until the dispatcher's event loop declares it dead.
:func:`age_out_workers` therefore post-processes every ``workers_live``
roster at render time — entries are flagged ``stale`` past
``stale_after`` seconds of silence and dropped entirely past
``evict_after``, so the roster ages out rather than wedging.
"""

from __future__ import annotations

import json
import threading
import time
from typing import TYPE_CHECKING

from .recorder import get_recorder, metrics_to_prom, prom_sample

if TYPE_CHECKING:  # http.server loads when a server starts, not with the status board
    from http.server import ThreadingHTTPServer

__all__ = [
    "StatusBoard",
    "get_status_board",
    "age_out_workers",
    "MetricsServer",
    "start_metrics_server",
    "parse_address",
]

#: Seconds of heartbeat silence after which a worker is flagged stale.
STALE_AFTER_S = 10.0
#: Seconds of silence after which a stale entry is dropped from rosters.
EVICT_AFTER_S = 60.0


def parse_address(address: str | tuple[str, int]) -> tuple[str, int]:
    """``"HOST:PORT"`` (or an already-split tuple) -> ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be HOST:PORT, got {address!r}")
    return host, int(port)


class StatusBoard:
    """Thread-safe registry of live status fields and snapshot providers.

    ``update()`` merges static fields (role, bind address, pid);
    ``register()`` attaches a named zero-arg callable whose return value
    is embedded in every :meth:`snapshot` under that name.  Provider
    exceptions are captured per-section — one misbehaving source never
    takes down the endpoint.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._fields: dict = {}
        self._providers: dict[str, object] = {}
        self._t0 = time.monotonic()

    def update(self, **fields) -> None:
        with self._lock:
            self._fields.update(fields)

    def register(self, name: str, provider) -> None:
        """Attach ``provider`` (zero-arg callable) under ``name``."""
        with self._lock:
            self._providers[name] = provider

    def unregister(self, name: str) -> None:
        with self._lock:
            self._providers.pop(name, None)

    def clear(self) -> None:
        with self._lock:
            self._fields.clear()
            self._providers.clear()
            self._t0 = time.monotonic()

    def snapshot(self) -> dict:
        with self._lock:
            out = dict(self._fields)
            providers = list(self._providers.items())
            t0 = self._t0
        out["uptime_s"] = round(time.monotonic() - t0, 3)
        for name, provider in providers:
            try:
                out[name] = provider()
            except Exception as exc:  # noqa: BLE001 — endpoint must survive
                out[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return out


_BOARD = StatusBoard()


def get_status_board() -> StatusBoard:
    """The process-global status board the HTTP endpoints render."""
    return _BOARD


def age_out_workers(
    workers_live: dict,
    stale_after: float = STALE_AFTER_S,
    evict_after: float = EVICT_AFTER_S,
) -> dict:
    """Annotate / evict roster entries by heartbeat silence.

    Entries whose ``last_seen_age_s`` exceeds ``stale_after`` gain
    ``"stale": True``; entries beyond ``evict_after`` are dropped so a
    dead worker's entry ages out instead of wedging the roster forever.
    Entries without a numeric age pass through unchanged.
    """
    out: dict = {}
    for label, info in workers_live.items():
        if not isinstance(info, dict):
            out[label] = info
            continue
        age = info.get("last_seen_age_s")
        if not isinstance(age, (int, float)):
            out[label] = info
            continue
        if age > evict_after:
            continue
        if age > stale_after:
            info = dict(info)
            info["stale"] = True
        out[label] = info
    return out


def _collect_rosters(snapshot: dict) -> dict:
    """Merge every ``workers_live`` roster found in a board snapshot."""
    merged: dict = {}
    for section in snapshot.values():
        if isinstance(section, dict):
            live = section.get("workers_live")
            if isinstance(live, dict):
                merged.update(live)
    return merged


def _jsonable(value):
    """Best-effort JSON coercion (numpy scalars, tuples, sets, objects)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except Exception:  # noqa: BLE001
            pass
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        try:
            return tolist()
        except Exception:  # noqa: BLE001
            pass
    return str(value)


class MetricsServer:
    """Daemon-thread HTTP server for ``/metrics``, ``/healthz``, ``/status``.

    ``port`` 0 binds an ephemeral port; :attr:`address` reports the
    actual one after :meth:`start`.  ``recorder``/``board`` default to
    the process globals, resolved *per request* so a recorder installed
    after the server starts is still picked up.
    """

    def __init__(
        self,
        address: str | tuple[str, int],
        *,
        board: StatusBoard | None = None,
        recorder=None,
        stale_after: float = STALE_AFTER_S,
        evict_after: float = EVICT_AFTER_S,
    ) -> None:
        self._host, self._port = parse_address(address)
        self._board = board
        self._recorder = recorder
        self.stale_after = float(stale_after)
        self.evict_after = float(evict_after)
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- data sources --------------------------------------------------
    def _get_board(self) -> StatusBoard:
        return self._board if self._board is not None else get_status_board()

    def _get_recorder(self):
        return self._recorder if self._recorder is not None else get_recorder()

    def render_metrics(self) -> str:
        """Prom exposition: recorder registry + worker heartbeat gauges."""
        text = metrics_to_prom(self._get_recorder().metrics_snapshot())
        roster = age_out_workers(
            _collect_rosters(self._get_board().snapshot()),
            self.stale_after, self.evict_after,
        )
        if roster:
            lines = ["# TYPE repro_worker_last_seen_age_seconds gauge"]
            for label in sorted(roster):
                age = roster[label].get("last_seen_age_s")
                if isinstance(age, (int, float)):
                    lines.append(prom_sample(
                        "worker_last_seen_age_seconds", {"worker": label}, age))
            if len(lines) > 1:
                text += "\n".join(lines) + "\n"
        return text

    def render_healthz(self) -> dict:
        snapshot = self._get_board().snapshot()
        roster = age_out_workers(
            _collect_rosters(snapshot), self.stale_after, self.evict_after)
        workers = {
            label: {
                "last_seen_age_s": info.get("last_seen_age_s"),
                "hb_count": info.get("hb_count", 0),
                "stale": bool(info.get("stale", False)),
            }
            for label, info in sorted(roster.items())
            if isinstance(info, dict)
        }
        degraded = any(w["stale"] for w in workers.values())
        return {
            "status": "degraded" if degraded else "ok",
            "role": snapshot.get("role", "?"),
            "pid": snapshot.get("pid"),
            "uptime_s": snapshot.get("uptime_s"),
            "workers": workers,
        }

    def render_status(self) -> dict:
        snapshot = self._get_board().snapshot()
        for key, section in list(snapshot.items()):
            if isinstance(section, dict) and isinstance(section.get("workers_live"), dict):
                aged = age_out_workers(
                    section["workers_live"], self.stale_after, self.evict_after)
                snapshot[key] = {**section, "workers_live": aged}
        return _jsonable(snapshot)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> tuple[str, int]:
        if self._httpd is not None:
            return self.address
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        server = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):  # noqa: A003 — silence stderr
                pass

            def _send(self, code: int, body: bytes, ctype: str) -> None:
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802 — BaseHTTPRequestHandler API
                path = self.path.split("?", 1)[0].rstrip("/") or "/"
                try:
                    if path == "/metrics":
                        body = server.render_metrics().encode("utf-8")
                        self._send(200, body,
                                   "text/plain; version=0.0.4; charset=utf-8")
                    elif path == "/healthz":
                        payload = server.render_healthz()
                        self._send(200, json.dumps(payload).encode("utf-8"),
                                   "application/json")
                    elif path == "/status":
                        payload = server.render_status()
                        self._send(200, json.dumps(payload).encode("utf-8"),
                                   "application/json")
                    else:
                        self._send(404, b'{"error": "not found"}',
                                   "application/json")
                except BrokenPipeError:
                    pass
                except Exception as exc:  # noqa: BLE001 — keep serving
                    msg = json.dumps(
                        {"error": f"{type(exc).__name__}: {exc}"}).encode("utf-8")
                    try:
                        self._send(500, msg, "application/json")
                    except Exception:  # noqa: BLE001
                        pass

        httpd = ThreadingHTTPServer((self._host, self._port), _Handler)
        httpd.daemon_threads = True
        self._httpd = httpd
        self._port = httpd.server_address[1]
        self._thread = threading.Thread(
            target=httpd.serve_forever, name="repro-metrics-server", daemon=True)
        self._thread.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        return self._host, self._port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self._port}"

    def stop(self) -> None:
        httpd, thread = self._httpd, self._thread
        self._httpd = self._thread = None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_metrics_server(address: str | tuple[str, int], **kwargs) -> MetricsServer:
    """Create and start a :class:`MetricsServer`; returns it running."""
    srv = MetricsServer(address, **kwargs)
    srv.start()
    return srv
