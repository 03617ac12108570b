"""Worker loops: blocks and shards driven over transport channels.

Three layers share this module:

- :func:`run_block_loop` — the persistent partition-block worker (PR 4's
  pipe worker, refactored onto the :mod:`~repro.distributed.transport`
  seam).  It owns one ``(n_block, B)`` slab, exchanges halos peer-to-peer
  through whatever :class:`~repro.distributed.transport.Channel` objects
  it is handed (pipes on one host, TCP across hosts, loopback between
  two blocks in one process), and streams per-round statistic partials
  back to its coordinator.
- :func:`shard_process_main` — the replica-shard worker behind
  :func:`~repro.simulation.sharding.run_sharded_ensemble`: receive one
  pickled shard payload, run it through a process-local ensemble, send
  the trace back.
- :func:`serve` — the ``repro-lb worker`` server: a rendezvous endpoint
  that accepts dispatcher connections, answers the hello handshake, and
  executes partition or shard jobs.  A worker can host *several* blocks
  of one partitioned job: each block runs on its own thread (channel
  reads release the GIL, so co-hosted blocks overlap exactly like
  co-hosted processes) with loopback channels between same-worker blocks
  and TCP channels to blocks on other workers.

The block computation itself is untouched — :func:`run_block_loop` calls
the same :meth:`Balancer.block_step` over the same
:class:`~repro.simulation.partitioned.BlockLocal` row slices as every
other execution mode, which is why trajectories stay bit-for-bit
identical to the serial engines no matter which transport carries the
halos.
"""

from __future__ import annotations

import gc
import os
import socket as _socket
import sys
import threading
import time
from time import perf_counter

import numpy as np

from repro.core.backends import resolve_backend
from repro.observability.logs import ensure_handler
from repro.observability.recorder import Recorder, get_recorder
from repro.distributed.transport import (
    PROTOCOL_VERSION,
    AuthenticationError,
    Channel,
    ChannelClosed,
    TcpListener,
    TransportError,
    TransportTimeout,
    answer_challenge,
    deliver_challenge,
    loopback_pair,
    parse_address,
    resolve_authkey,
    sign_link,
    tcp_connect,
    verify_link,
)

__all__ = [
    "exchange_halos",
    "run_block_loop",
    "shard_process_main",
    "serve",
    "launch_worker_process",
    "WorkerProgress",
]


# ----------------------------------------------------------------------
# Halo exchange + block loop (any Channel implementation)
# ----------------------------------------------------------------------
def exchange_halos(local, owned: np.ndarray, peers: dict[int, Channel],
                   timeout: float | None = None) -> tuple[np.ndarray, int]:
    """Peer-to-peer halo exchange; returns the extended matrix + values sent.

    Deadlock-free pairwise protocol: links are walked in ascending peer
    order and the lower-id side of each pair sends before it receives.
    The lowest-id block can always complete its first exchange, and by
    induction every pair drains (at most one in-flight direction per
    pair at any time).  The protocol only needs ordered, message-framed
    channels — the transport seam's contract — so it is identical over
    pipes, TCP and loopback queues.

    This is the standalone, allocation-per-call form of the exchange;
    :class:`_SlabRunner` is the persistent-slab round driver the block
    loop actually runs on.
    """
    ghost = np.empty((local.n_ghost,) + owned.shape[1:], dtype=owned.dtype)
    sent = 0
    width = int(np.prod(owned.shape[1:], dtype=np.int64)) if owned.ndim > 1 else 1
    for link in local.links:
        ch = peers[link.peer]
        # Fancy indexing already yields a fresh C-contiguous array, so the
        # send side needs no extra copy.
        if local.p < link.peer:
            ch.send(owned[link.send_idx])
            ghost[link.recv_idx] = ch.recv(timeout)
        else:
            chunk = ch.recv(timeout)
            ch.send(owned[link.send_idx])
            ghost[link.recv_idx] = chunk
        sent += int(link.send_idx.size) * width
    return np.concatenate([owned, ghost], axis=0), sent


class _SlabRunner:
    """Persistent extended-slab round driver for one block worker.

    Owns two ``(n_owned + n_ghost, B)`` slabs per block (``cur`` holds
    this round's loads, ``nxt`` receives the next round's) so the hot
    loop never concatenates: owned rows are computed in place and halo
    frames land directly in ``cur``'s per-peer ghost slices via
    :meth:`Channel.recv_into`.  The slabs ping-pong each round.

    Two round protocols, bit-for-bit identical results:

    - *sync* (default): the classic pairwise ordered exchange (lower
      block id sends first), then one full ``block_step``.
    - *overlap*: post every link's send with :meth:`Channel.send_nowait`,
      compute the interior rows (owned-only operator support — ghost
      staleness cannot reach them), drain the receives into the ghost
      slices, then compute the boundary rows.  Row updates are
      independent given the extended vector, so the split phases equal
      the full round exactly.

    Delta frames (opt-in): each link remembers the rows it sent in the
    last *two* rounds — the receiver's double-buffered ghost slice holds
    the round ``r - 2`` values — and ships only the changed rows as a
    ``("delta", vals, idx)`` frame when that is smaller than the dense
    payload.  Snapshots reset whenever the block's :class:`BlockLocal`
    changes (dynamic topologies), falling back to dense frames.
    """

    def __init__(self, peers: dict[int, Channel], *, overlap: bool = False,
                 delta: bool = False, timeout: float | None = None):
        self.peers = peers
        self.overlap = bool(overlap)
        self.delta = bool(delta)
        self.timeout = timeout
        #: logical halo values shipped (sum of send rows x batch width)
        self.halo_values = 0
        #: set (with an enabled Recorder) before using :meth:`round_traced`
        self.recorder: Recorder | None = None
        self._local = None
        self._cur: np.ndarray | None = None
        self._nxt: np.ndarray | None = None
        #: per-peer last-two-rounds sent rows, keyed ``round % 2``
        self._snap: dict[int, list] = {}

    @property
    def owned(self) -> np.ndarray:
        """This round's owned loads (a live view into the current slab)."""
        return self._cur[: self._local.n_owned]

    def bind(self, local, init: np.ndarray | None = None) -> None:
        """(Re)build the slabs when the round's :class:`BlockLocal` changes.

        ``init`` seeds the owned rows; without it they carry over from
        the previous slab (same owned ids for every topology of a job —
        the partition assignment is fixed).
        """
        if (
            local is self._local
            and init is None
            and self._cur is not None
        ):
            return
        if init is None:
            init = self.owned
        if init.ndim != 2:
            raise ValueError(f"block loads must be (n_block, B), got {init.shape}")
        cur = np.empty((local.n_ext,) + init.shape[1:], dtype=init.dtype)
        cur[: local.n_owned] = init
        self._cur = cur
        self._nxt = np.empty_like(cur)
        self._local = local
        self._snap = {link.peer: [None, None] for link in local.links}

    def _post_send(self, link, owned: np.ndarray, r: int, blocking: bool) -> None:
        ch = self.peers[link.peer]
        rows = owned[link.send_idx]  # fresh contiguous copy
        self.halo_values += int(link.send_idx.size) * int(
            np.prod(rows.shape[1:], dtype=np.int64)
        )
        payload: tuple = ("dense", rows)
        if self.delta:
            snap = self._snap[link.peer][r % 2]
            if snap is not None and snap.shape == rows.shape:
                changed = np.flatnonzero((rows != snap).any(axis=1))
                vals = rows[changed]
                # vals first: a dense frame's single out-of-band buffer is
                # what recv_into may land in place; a true delta's vals
                # buffer is strictly smaller than the ghost slice, so it
                # can never be mistaken for one.
                if vals.nbytes + changed.nbytes < rows.nbytes:
                    payload = ("delta", vals, changed)
            self._snap[link.peer][r % 2] = rows
        if blocking:
            ch.send(payload)
        else:
            ch.send_nowait(payload)

    def _drain_recv(self, link) -> None:
        a, b = self._local.recv_slices[link.peer]
        region = self._cur[self._local.n_owned + a : self._local.n_owned + b]
        msg = self.peers[link.peer].recv_into(region, self.timeout)
        if msg[0] == "dense":
            arr = msg[1]
            if not np.shares_memory(arr, region):
                region[...] = arr.reshape(region.shape)
        elif msg[0] == "delta":
            _, vals, idx = msg
            region[idx] = vals.reshape((idx.size,) + region.shape[1:])
        else:  # pragma: no cover - defensive
            raise TransportError(f"unexpected halo frame tag {msg[0]!r}")

    def round(self, local, balancer, frozen, r: int,
              want_disc: bool, want_mov: bool):
        """Advance one round; returns the round's statistics partial."""
        self.bind(local)
        cur, nxt = self._cur, self._nxt
        owned = cur[: local.n_owned]
        out = nxt[: local.n_owned]
        if self.overlap:
            for link in local.links:
                self._post_send(link, owned, r, blocking=False)
            if local.interior.size:
                balancer.block_step(local, cur, out=out, rows="interior")
            for link in local.links:
                self._drain_recv(link)
            if local.boundary.size:
                balancer.block_step(local, cur, out=out, rows="boundary")
        else:
            for link in local.links:
                if local.p < link.peer:
                    self._post_send(link, owned, r, blocking=True)
                    self._drain_recv(link)
                else:
                    self._drain_recv(link)
                    self._post_send(link, owned, r, blocking=True)
            balancer.block_step(local, cur, out=out)
        if frozen is not None and frozen.any():
            out[:, frozen] = owned[:, frozen]
        from repro.simulation.partitioned import _partial_stats

        stats = _partial_stats(out, owned, want_disc, want_mov)
        self._cur, self._nxt = nxt, cur
        return stats

    def round_traced(self, local, balancer, frozen, r: int,
                     want_disc: bool, want_mov: bool):
        """:meth:`round` with per-phase spans on :attr:`recorder`.

        A separate sibling (selected once per job, not per round) so the
        untraced hot path stays byte-identical to before telemetry
        existed.  Records ``halo_send``/``halo_wait`` per link (with the
        link's frame-byte delta), plus ``interior``/``boundary`` compute
        spans — sync mode's single full ``block_step`` is recorded as
        ``interior``, since no boundary split exists there.  Arithmetic,
        buffers and message ordering are identical to :meth:`round`, so
        results stay bit-for-bit equal with tracing on or off.
        """
        rec = self.recorder
        self.bind(local)
        cur, nxt = self._cur, self._nxt
        owned = cur[: local.n_owned]
        out = nxt[: local.n_owned]
        p = local.p
        if self.overlap:
            for link in local.links:
                ch = self.peers[link.peer]
                b0 = ch.bytes_sent
                t0 = perf_counter()
                self._post_send(link, owned, r, blocking=False)
                rec.record_span("halo_send", t0, round=r,
                                link=f"{p}->{link.peer}", bytes=ch.bytes_sent - b0)
            t0 = perf_counter()
            if local.interior.size:
                balancer.block_step(local, cur, out=out, rows="interior")
            rec.record_span("interior", t0, round=r, rows=int(local.interior.size))
            for link in local.links:
                ch = self.peers[link.peer]
                b0 = ch.bytes_received
                t0 = perf_counter()
                self._drain_recv(link)
                rec.record_span("halo_wait", t0, round=r,
                                link=f"{link.peer}->{p}",
                                bytes=ch.bytes_received - b0)
            t0 = perf_counter()
            if local.boundary.size:
                balancer.block_step(local, cur, out=out, rows="boundary")
            rec.record_span("boundary", t0, round=r, rows=int(local.boundary.size))
        else:
            for link in local.links:
                ch = self.peers[link.peer]
                if local.p < link.peer:
                    b0 = ch.bytes_sent
                    t0 = perf_counter()
                    self._post_send(link, owned, r, blocking=True)
                    rec.record_span("halo_send", t0, round=r,
                                    link=f"{p}->{link.peer}",
                                    bytes=ch.bytes_sent - b0)
                    b0 = ch.bytes_received
                    t0 = perf_counter()
                    self._drain_recv(link)
                    rec.record_span("halo_wait", t0, round=r,
                                    link=f"{link.peer}->{p}",
                                    bytes=ch.bytes_received - b0)
                else:
                    b0 = ch.bytes_received
                    t0 = perf_counter()
                    self._drain_recv(link)
                    rec.record_span("halo_wait", t0, round=r,
                                    link=f"{link.peer}->{p}",
                                    bytes=ch.bytes_received - b0)
                    b0 = ch.bytes_sent
                    t0 = perf_counter()
                    self._post_send(link, owned, r, blocking=True)
                    rec.record_span("halo_send", t0, round=r,
                                    link=f"{p}->{link.peer}",
                                    bytes=ch.bytes_sent - b0)
            t0 = perf_counter()
            balancer.block_step(local, cur, out=out)
            rec.record_span("interior", t0, round=r, rows=int(local.n_owned))
        if frozen is not None and frozen.any():
            out[:, frozen] = owned[:, frozen]
        from repro.simulation.partitioned import _partial_stats

        stats = _partial_stats(out, owned, want_disc, want_mov)
        self._cur, self._nxt = nxt, cur
        return stats

    def flush(self) -> None:
        """Drain every peer backlog (end of chunk, before the quiet wait)."""
        for ch in self.peers.values():
            ch.flush(self.timeout)


def run_block_loop(ctrl: Channel, peers: dict[int, Channel], payload: tuple,
                   peer_timeout: float | None = None,
                   inherited: list[Channel] | None = None,
                   progress: "WorkerProgress | None" = None) -> None:
    """Persistent block worker: owns one ``(n_block, B)`` slab.

    Commands (from the coordinator): ``("run", rounds, frozen_mask)``
    advances ``rounds`` rounds — halo exchange peer-to-peer, one
    statistics partial buffered per round — then replies
    ``("stats", rows, halo_values_sent, bytes_by_peer)`` where
    ``bytes_by_peer`` maps peer block id to payload bytes sent over that
    link during the chunk; ``("gather",)`` replies with the owned slab;
    ``("stop",)`` exits.  Any exception is reported as ``("error", msg)``
    so the coordinator can fail loudly instead of hanging.

    The payload tuple may carry trailing flags beyond the classic eight
    fields: ``overlap`` (split-phase rounds with nonblocking sends),
    ``delta`` (changed-rows halo frames), ``start_round`` (checkpoint
    replay) and ``telemetry`` — when set, the block records per-phase
    spans through a private buffering :class:`Recorder` and appends the
    drained event list as a 5th element of the chunk reply (coordinators
    that predate telemetry index only the first four, so the extra
    element is backward-compatible).  ``progress``, when given, is this
    worker's live :class:`WorkerProgress` aggregate for the periodic
    stats frames.
    """
    from repro.simulation.partitioned import _PartitionMemo, block_local

    # Under the fork start method this process inherited a copy of every
    # endpoint the coordinator had created — including other blocks'.
    # Dropping the copies that are not ours restores EOF semantics: when
    # a block process dies, the last reference to its endpoints goes
    # with it and every peer blocked on a recv wakes with ChannelClosed
    # instead of waiting forever.
    for channel in inherited or ():
        channel.detach()
    (balancer, assignment, strategy, block_id, owned, backend,
     want_disc, want_mov, *rest) = payload
    overlap = bool(rest[0]) if len(rest) > 0 else False
    delta = bool(rest[1]) if len(rest) > 1 else False
    # Checkpoint replay resumes mid-run: the round counter must continue
    # from the snapshot's round so dynamic topologies replay identically.
    start_round = int(rest[2]) if len(rest) > 2 else 0
    telemetry = bool(rest[3]) if len(rest) > 3 else False
    try:
        balancer.reset()
        if backend is not None:
            balancer.backend = backend
        resolved = resolve_backend(backend)
        parts = _PartitionMemo(assignment, strategy)
        runner = _SlabRunner(peers, overlap=overlap, delta=delta, timeout=peer_timeout)
        rec: Recorder | None = None
        if telemetry:
            rec = Recorder(enabled=True, role=f"block:{block_id}",
                           base={"block": block_id})
            runner.recorder = rec
        # Selected once per job, never per round: the untraced loop body
        # is byte-identical to the pre-telemetry one.
        do_round = runner.round_traced if telemetry else runner.round
        L = np.ascontiguousarray(owned)
        bound = False
        r = start_round
        while True:
            msg = ctrl.recv()
            if msg[0] == "run":
                _, nrounds, frozen = msg
                rows = []
                values_before = runner.halo_values
                sent_before = {q: ch.bytes_sent for q, ch in peers.items()}
                chunk_t0 = time.monotonic() if progress is not None else 0.0
                for _ in range(nrounds):
                    topo = balancer.partition_topology(r)
                    local = block_local(parts.get(topo), block_id, resolved)
                    if not bound:
                        runner.bind(local, L)
                        bound = True
                    rows.append(do_round(local, balancer, frozen, r,
                                         want_disc, want_mov))
                    r += 1
                # Mandatory before going quiet: a peer may still be
                # blocked on our last frame's unpumped backlog bytes.
                runner.flush()
                bytes_by_peer = {
                    q: ch.bytes_sent - sent_before[q] for q, ch in peers.items()
                }
                if telemetry:
                    # One count per chunk (not per send — the per-link
                    # breakdown is already on the halo_send spans): ships
                    # with the events, so every ingesting recorder up the
                    # chain scrapes it as repro_halo_bytes_total.
                    chunk_bytes = sum(bytes_by_peer.values())
                    if chunk_bytes:
                        rec.count("halo_bytes", chunk_bytes)
                    events = rec.drain_events()
                    grec = get_recorder()
                    if grec.enabled and grec is not rec:
                        # Worker-local --trace: keep a copy in this
                        # process's own trace too.
                        grec.ingest(list(events))
                    if progress is not None:
                        progress.add_phase_totals(events)
                    ctrl.send(("stats", rows, runner.halo_values - values_before,
                               bytes_by_peer, events))
                else:
                    ctrl.send(("stats", rows, runner.halo_values - values_before,
                               bytes_by_peer))
                if progress is not None:
                    progress.add_rounds(nrounds, time.monotonic() - chunk_t0)
            elif msg[0] == "gather":
                # Copy: the slab view is mutated by any later run command.
                ctrl.send(("loads", np.array(runner.owned if bound else L)))
            elif msg[0] == "stop":
                return
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown command {msg[0]!r}")
    except Exception as exc:  # pragma: no cover - exercised via error tests
        try:
            ctrl.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        ctrl.close()
        for ch in peers.values():
            ch.close()


# ----------------------------------------------------------------------
# Shard worker (local pool + remote jobs)
# ----------------------------------------------------------------------
def shard_process_main(channel: Channel) -> None:
    """Pool-process entry point: one shard payload in, one trace out."""
    from repro.simulation.sharding import run_shard_payload

    try:
        payload = channel.recv()
        channel.send(("trace", run_shard_payload(payload)))
    except Exception as exc:
        try:
            channel.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        channel.close()


# ----------------------------------------------------------------------
# The ``repro-lb worker`` server
# ----------------------------------------------------------------------
def _default_log(msg: str) -> None:
    """Route server diagnostics through the ``repro.distributed`` logger.

    Structured (timestamp + level) but still line-oriented on stdout, so
    :func:`launch_worker_process`'s ``listening on H:P`` search keeps
    matching and drained worker logs stay greppable.
    """
    ensure_handler().info(msg)


class WorkerProgress:
    """Thread-safe live aggregate a worker reports in its stats frames.

    One instance per server; the connection handler, job runners and
    block loops all feed it, and :func:`_stats_loop` snapshots it into
    the periodic ``("stats", seq, payload)`` frames a dispatcher opted
    into.  Everything here is an *aggregate* — no per-round event ever
    crosses this object, so updating it costs a lock and a few adds.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._t0 = time.monotonic()
        self.jobs_accepted = 0
        self.jobs_done = 0
        self.shards_done = 0
        self.rounds_done = 0
        self.busy_s = 0.0
        self.inflight = 0
        self.phase_s: dict[str, float] = {}

    def job_started(self) -> None:
        with self._lock:
            self.jobs_accepted += 1
            self.inflight += 1

    def job_done(self) -> None:
        with self._lock:
            self.jobs_done += 1
            self.inflight = max(self.inflight - 1, 0)

    def shard_done(self) -> None:
        with self._lock:
            self.shards_done += 1

    def add_rounds(self, n: int, busy_s: float = 0.0) -> None:
        with self._lock:
            self.rounds_done += int(n)
            self.busy_s += float(busy_s)

    def add_phase_totals(self, events: list[dict]) -> None:
        """Fold a drained event list's span durations into phase totals."""
        with self._lock:
            for ev in events:
                if ev.get("ev") == "span":
                    name = ev.get("name", "")
                    self.phase_s[name] = (
                        self.phase_s.get(name, 0.0) + float(ev.get("dur", 0.0))
                    )

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "uptime_s": time.monotonic() - self._t0,
                "jobs_accepted": self.jobs_accepted,
                "jobs_done": self.jobs_done,
                "inflight": self.inflight,
                "shards_done": self.shards_done,
                "rounds_done": self.rounds_done,
                "busy_s": self.busy_s,
                "phase_s": dict(self.phase_s),
            }


def launch_worker_process(bind: str = "127.0.0.1:0", *, extra_args: tuple = ()):
    """Spawn ``repro-lb worker`` as a subprocess; returns ``(proc, address)``.

    The one blessed way to programmatically start a worker (tests and
    benches included): it owns the startup-line format :func:`serve`
    prints, parses the bound control address back out of it, and wires
    ``PYTHONPATH`` so the subprocess finds this very package.  The
    caller terminates ``proc`` when done.
    """
    import re
    import subprocess
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--bind", bind, *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    line = proc.stdout.readline()
    match = re.search(r"listening on (\S+?:\d+)", line)
    if not match:
        proc.terminate()
        raise RuntimeError(f"worker failed to start: {line!r}")
    # Keep draining the worker's log output: the server prints a couple
    # of lines per job, and an undrained pipe would fill and block it
    # mid-job after enough dispatches.
    def _drain() -> None:
        for _ in proc.stdout:
            pass

    threading.Thread(target=_drain, name="worker-log-drain", daemon=True).start()
    return proc, match.group(1)


class _JobError(RuntimeError):
    """A job failed; the worker reported it and keeps serving."""


def serve(bind: str = "127.0.0.1:0", *, max_jobs: int = 0,
          timeout: float | None = 600.0, advertise: str | None = None,
          authkey: str | bytes | None = None, log=_default_log) -> int:
    """Serve distributed jobs until killed (or after ``max_jobs`` jobs).

    Opens two listeners on the bind host: the *control* port (``bind``;
    port 0 picks an ephemeral one) that dispatchers connect to, and an
    ephemeral *peer* port advertised in the rendezvous hello that other
    workers' blocks connect their halo links to.  Prints a parseable
    ``worker listening on HOST:PORT (peer HOST:PORT)`` line once ready.

    ``advertise`` names the host other *workers* should dial this
    worker's peer port at.  Without it the dispatcher substitutes the
    host it reached the control port through — right whenever one
    address works cluster-wide, wrong when the dispatcher and the peer
    workers route to this host differently (dispatcher colocated on
    ``127.0.0.1``, peers on another machine): set ``--advertise`` to
    the externally routable host then.

    ``authkey`` (or the ``REPRO_AUTHKEY`` environment variable) turns on
    HMAC-SHA256 challenge–response authentication: every dispatcher must
    prove it holds the same key before its hello is answered, and halo
    peer links must carry a signed header.  A wrong or missing key is
    rejected with an error frame and the worker keeps serving — a
    confused (or hostile) client cannot take it down.

    .. warning::
       Job payloads are pickle: without an ``authkey``, only bind beyond
       loopback (``0.0.0.0`` or an external address) on a trusted
       network — anyone who can reach the port can run code as this
       process (the same trust model as an unkeyed
       ``multiprocessing.connection`` listener).  With a key, reaching
       the port is not enough, but the key authenticates rather than
       encrypts — payloads still travel in the clear.

    A dispatcher connection is handshaken once and may then submit any
    number of jobs back to back (the ``connect_workers`` →
    several ``dispatch_*`` calls pattern); the worker returns to
    accepting fresh connections when the dispatcher closes its channel
    or a job fails.  ``timeout`` bounds every in-job channel wait so a
    dead dispatcher or peer worker aborts the job instead of wedging the
    server; the idle waits — accepting a connection, awaiting the next
    job on a held one — are unbounded (an idle worker is healthy, and a
    vanished dispatcher surfaces as EOF, not silence).  Failed jobs are
    logged and the worker keeps serving.
    """
    host, port = parse_address(bind)
    key = resolve_authkey(authkey)
    listener = TcpListener(host, port)
    peer_listener = TcpListener(host, 0)
    ctrl_addr, peer_addr = listener.address, peer_listener.address
    log(
        f"worker listening on {ctrl_addr[0]}:{ctrl_addr[1]} "
        f"(peer {peer_addr[0]}:{peer_addr[1]}, pid {os.getpid()}"
        f"{', auth on' if key is not None else ''})"
    )
    served = 0
    progress = WorkerProgress()
    # Feed the live /status endpoint (--serve-metrics): static identity
    # plus a per-request snapshot of this worker's progress aggregate.
    from repro.observability.server import get_status_board

    board = get_status_board()
    board.update(
        role="worker", pid=os.getpid(),
        control=f"{ctrl_addr[0]}:{ctrl_addr[1]}",
        peer=f"{peer_addr[0]}:{peer_addr[1]}",
    )
    board.register("worker", progress.snapshot)
    try:
        while max_jobs <= 0 or served < max_jobs:
            ctrl = listener.accept(timeout=None)
            remaining = None if max_jobs <= 0 else max_jobs - served
            # Mutable job counter: jobs accepted on the connection count
            # against --max-jobs even when a later one fails mid-stream,
            # and handshake rejections (health checks, junk clients)
            # count as zero.
            jobs_started = [0]
            try:
                _serve_connection(
                    ctrl, peer_listener, timeout, log, remaining, advertise,
                    jobs_started, authkey=key, progress=progress,
                )
            except _JobError as exc:
                log(f"worker: job failed: {exc}")
            except TransportError as exc:
                log(f"worker: dispatcher connection lost: {exc}")
            except Exception as exc:  # noqa: BLE001 - server must outlive bad clients
                # A port scanner, health checker or buggy client must
                # not take the server down: drop the connection, keep
                # serving.
                log(f"worker: rejecting malformed client: {type(exc).__name__}: {exc}")
            finally:
                served += jobs_started[0]
                ctrl.close()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        log("worker: interrupted, shutting down")
    finally:
        board.unregister("worker")
        listener.close()
        peer_listener.close()
    return 0


def _heartbeat_loop(ctrl: Channel, interval: float, stop: threading.Event) -> None:
    """Send ``("hb", seq)`` liveness frames until stopped or the link dies.

    Runs on its own thread so heartbeats keep flowing while the job
    thread is deep in a compute chunk — exactly the silence the
    dispatcher must distinguish from a SIGSTOPped worker.  Sends are
    nonblocking (``send_nowait``): a wedged dispatcher must not wedge
    this thread, and the channel's send lock keeps the frames atomic
    against concurrent job-thread sends.
    """
    seq = 0
    while not stop.wait(interval):
        seq += 1
        try:
            ctrl.send_nowait(("hb", seq))
        except TransportError:
            return


def _stats_loop(ctrl: Channel, interval: float, stop: threading.Event,
                progress: WorkerProgress) -> None:
    """Stream ``("stats", seq, snapshot)`` progress frames until stopped.

    The piggyback channel next to heartbeats: only started when the
    dispatcher's hello opted in with ``{"stats": seconds}``, so peers
    that never asked (protocol-4 dispatchers included) never see one.
    Same nonblocking-send discipline as :func:`_heartbeat_loop`.
    """
    seq = 0
    while not stop.wait(interval):
        seq += 1
        try:
            ctrl.send_nowait(("stats", seq, progress.snapshot()))
        except TransportError:
            return


def _serve_connection(ctrl: Channel, peer_listener: TcpListener,
                      timeout: float | None, log,
                      max_jobs: int | None = None,
                      advertise: str | None = None,
                      jobs_started: list[int] | None = None,
                      authkey: bytes | None = None,
                      progress: WorkerProgress | None = None) -> None:
    """Handshake + a job stream on one dispatcher connection.

    ``jobs_started`` (a one-element counter) is bumped as each job is
    *accepted*, so the caller's ``--max-jobs`` accounting survives a
    job that fails mid-stream.  The connection stays usable for further
    jobs until the dispatcher closes it (EOF ends the stream cleanly)
    or a job fails (:class:`_JobError` propagates and the caller drops
    the connection — its protocol state is suspect).

    The hello may carry an options dict (protocol 4): ``{"heartbeat":
    seconds}`` asks this worker to stream ``("hb", seq)`` frames at that
    interval for liveness detection, ``{"stats": seconds}`` additionally
    asks for periodic ``("stats", seq, snapshot)`` progress frames (a
    free-form opts key, so no version bump — peers that do not send it
    never receive one), and ``{"auth": True}`` announces that the
    dispatcher holds an authkey and will challenge us after answering
    ours.  A keyed worker always challenges; a keyed dispatcher talking
    to a keyless worker is refused.
    """
    if jobs_started is None:
        jobs_started = [0]
    if progress is None:
        progress = WorkerProgress()
    msg = ctrl.recv(timeout)
    if not (isinstance(msg, tuple) and len(msg) >= 2 and msg[0] == "hello"):
        ctrl.send(("error", f"expected hello, got {msg!r}"))
        raise _JobError(f"bad handshake: {msg!r}")
    if msg[1] != PROTOCOL_VERSION:
        ctrl.send(
            ("error", f"protocol version mismatch: worker speaks {PROTOCOL_VERSION}, "
             f"dispatcher sent {msg[1]}")
        )
        raise _JobError(f"protocol version mismatch ({msg[1]})")
    opts = msg[2] if len(msg) > 2 and isinstance(msg[2], dict) else {}
    if authkey is not None:
        try:
            deliver_challenge(ctrl, authkey, timeout)
            if opts.get("auth"):
                answer_challenge(ctrl, authkey, timeout)
        except AuthenticationError as exc:
            raise _JobError(f"authentication failed: {exc}") from exc
    elif opts.get("auth"):
        ctrl.send(("error",
                   "dispatcher requires authentication but this worker has no "
                   "authkey (start it with --authkey / REPRO_AUTHKEY)"))
        raise _JobError("dispatcher requires authentication, no authkey configured")
    heartbeat = opts.get("heartbeat")
    heartbeat = float(heartbeat) if heartbeat else None
    stats_every = opts.get("stats")
    stats_every = float(stats_every) if stats_every else None
    ctrl.send(
        (
            "ready",
            {
                "version": PROTOCOL_VERSION,
                "peer_address": peer_listener.address,
                "advertise_host": advertise,
                "pid": os.getpid(),
                "host": _socket.gethostname(),
                "python": sys.version.split()[0],
                "cpus": os.cpu_count() or 1,
                "auth": authkey is not None,
                "heartbeat": heartbeat,
                "stats": stats_every,
            },
        )
    )
    hb_stop = threading.Event()
    hb_thread = None
    if heartbeat is not None and heartbeat > 0:
        hb_thread = threading.Thread(
            target=_heartbeat_loop, args=(ctrl, heartbeat, hb_stop),
            name="worker-heartbeat", daemon=True,
        )
        hb_thread.start()
    stats_thread = None
    if stats_every is not None and stats_every > 0:
        stats_thread = threading.Thread(
            target=_stats_loop, args=(ctrl, stats_every, hb_stop, progress),
            name="worker-stats", daemon=True,
        )
        stats_thread.start()
    try:
        while max_jobs is None or jobs_started[0] < max_jobs:
            try:
                # Idle between jobs: wait without a deadline — a healthy
                # dispatcher may hold the connection open indefinitely, and
                # a dead one delivers EOF.
                msg = ctrl.recv(None)
            except ChannelClosed:
                break
            if not (isinstance(msg, tuple) and len(msg) >= 2 and msg[0] == "job"
                    and isinstance(msg[1], dict)):
                ctrl.send(("error", f"expected job, got {msg!r}"))
                raise _JobError(f"bad job message: {msg!r}")
            spec = msg[1]
            kind = spec.get("kind")
            jobs_started[0] += 1
            progress.job_started()
            log(f"worker: job accepted (kind={kind})")
            try:
                if kind == "shard":
                    _run_shard_job(ctrl, spec, timeout, progress=progress)
                elif kind == "partition":
                    _run_partition_job(ctrl, peer_listener, spec, timeout,
                                       authkey=authkey, progress=progress)
                else:
                    ctrl.send(("error", f"unknown job kind {kind!r}"))
                    raise _JobError(f"unknown job kind {kind!r}")
            finally:
                progress.job_done()
                # A job's topology and its cached operators form reference
                # cycles; collect them now so a long-lived worker holds
                # one job's structures at a time, not every job since the
                # last full collection.
                gc.collect()
            log(f"worker: job done (kind={kind})")
    finally:
        hb_stop.set()
        if hb_thread is not None:
            hb_thread.join(timeout=5.0)
        if stats_thread is not None:
            stats_thread.join(timeout=5.0)


def _run_shard_job(ctrl: Channel, spec: dict, timeout: float | None,
                   progress: WorkerProgress | None = None) -> None:
    """Run this worker's replica shards; stream each trace back."""
    from repro.simulation.sharding import run_shard_payload

    try:
        for idx, payload in spec["payloads"]:
            ctrl.send(("trace", idx, run_shard_payload(payload)))
            if progress is not None:
                progress.shard_done()
        ctrl.send(("done",))
    except TransportError:
        raise
    except Exception as exc:
        ctrl.send(("error", f"{type(exc).__name__}: {exc}"))
        raise _JobError(f"shard job failed: {exc}") from exc


def _build_mesh(blocks: list[int], spec: dict, peer_listener: TcpListener,
                timeout: float | None,
                authkey: bytes | None = None) -> dict[int, dict[int, Channel]]:
    """Establish this worker's halo channels for a partition job.

    Same-worker block pairs get loopback queue channels.  Cross-worker
    pairs follow the dispatcher's directives: the worker hosting the
    lower block id *accepts*, the other *connects* (to the peer address
    from the rendezvous hello) and identifies the link with a
    ``("link", my_block, your_block)`` header frame.  All connects are
    issued before any accept — TCP completes a connect as soon as the
    listener's backlog queues it, so the two phases cannot deadlock.

    With an ``authkey``, the (authenticated) job spec carries a per-job
    ``link_nonce`` and every link header becomes ``("link", p, q,
    sign_link(...))`` — a one-way signature rather than a challenge
    round-trip, because an accept-side challenge would serialize the
    connect-before-accept mesh phase into a deadlock.  Headers that fail
    verification close the connection and abort the job.
    """
    peers: dict[int, dict[int, Channel]] = {p: {} for p in blocks}
    for a, b in spec.get("local_pairs", []):
        ca, cb = loopback_pair()
        peers[a][b] = ca
        peers[b][a] = cb
    tcp_options = spec.get("tcp", {})
    nonce = spec.get("link_nonce")
    signed = authkey is not None and nonce is not None
    expected_accepts = 0
    for p in blocks:
        for q, directive in spec.get("links", {}).get(p, {}).items():
            if directive[0] == "connect":
                ch = tcp_connect(tuple(directive[1]), timeout=timeout, **tcp_options)
                if signed:
                    ch.send(("link", p, q, sign_link(authkey, nonce, p, q)))
                else:
                    ch.send(("link", p, q))
                peers[p][q] = ch
            elif directive[0] == "accept":
                expected_accepts += 1
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown link directive {directive!r}")
    for _ in range(expected_accepts):
        ch = peer_listener.accept(timeout)
        header = ch.recv(timeout)
        if not (isinstance(header, tuple) and len(header) >= 3 and header[0] == "link"):
            ch.close()
            raise ValueError(f"unexpected link header {header!r}")
        tag, their_block, my_block = header[:3]
        if my_block not in peers:  # pragma: no cover - defensive
            ch.close()
            raise ValueError(f"unexpected link header ({tag!r}, {their_block}, {my_block})")
        if signed:
            digest = header[3] if len(header) > 3 else None
            if not verify_link(authkey, nonce, their_block, my_block, digest):
                ch.close()
                raise AuthenticationError(
                    f"unauthenticated peer link for blocks "
                    f"({their_block}, {my_block}) rejected"
                )
        peers[my_block][their_block] = ch
    return peers


def _run_partition_job(ctrl: Channel, peer_listener: TcpListener, spec: dict,
                       timeout: float | None,
                       authkey: bytes | None = None,
                       progress: WorkerProgress | None = None) -> None:
    """Host this worker's partition blocks: mesh setup + command fan-out.

    Each block runs :func:`run_block_loop` on its own thread behind a
    loopback control channel; the main thread multiplexes the dispatcher
    connection, forwarding ``run``/``gather``/``stop`` to every block
    and merging the per-block replies into one keyed response.
    """
    blocks = list(spec["blocks"])
    job_timeout = spec.get("timeout", timeout)
    try:
        peers = _build_mesh(blocks, spec, peer_listener, job_timeout, authkey)
    except (TransportError, ValueError, OSError) as exc:
        ctrl.send(("error", f"mesh setup failed: {exc}"))
        raise _JobError(f"mesh setup failed: {exc}") from exc

    block_ctrl: dict[int, Channel] = {}
    threads: dict[int, threading.Thread] = {}
    for p in blocks:
        main_end, block_end = loopback_pair()
        block_ctrl[p] = main_end
        threads[p] = threading.Thread(
            target=run_block_loop,
            args=(block_end, peers[p], spec["payloads"][p]),
            kwargs={"peer_timeout": job_timeout, "progress": progress},
            name=f"block-{p}",
            daemon=True,
        )

    def abort() -> None:
        for c in block_ctrl.values():
            c.close()
        for block_peers in peers.values():
            for ch in block_peers.values():
                ch.close()
        for t in threads.values():
            t.join(timeout=5.0)

    ctrl.send(("mesh-ok", {"blocks": blocks}))
    for t in threads.values():
        t.start()
    try:
        while True:
            msg = ctrl.recv(job_timeout)
            if msg[0] in ("run", "gather"):
                for p in blocks:
                    block_ctrl[p].send(msg)
                replies: dict[int, tuple] = {}
                failure: str | None = None
                for p in blocks:
                    try:
                        rep = block_ctrl[p].recv(job_timeout)
                    except TransportError as exc:
                        rep = ("error", f"{type(exc).__name__}: {exc}")
                    if rep[0] == "error" and failure is None:
                        failure = f"block {p}: {rep[1]}"
                    replies[p] = rep
                if failure is not None:
                    ctrl.send(("error", failure))
                    raise _JobError(failure)
                if msg[0] == "run":
                    ctrl.send(("stats", {p: rep[1:] for p, rep in replies.items()}))
                else:
                    ctrl.send(("loads", {p: rep[1] for p, rep in replies.items()}))
            elif msg[0] == "stop":
                for p in blocks:
                    try:
                        block_ctrl[p].send(("stop",))
                    except TransportError:  # pragma: no cover - racing abort
                        pass
                for t in threads.values():
                    t.join(timeout=10.0)
                ctrl.send(("stopped",))
                return
            else:
                ctrl.send(("error", f"unknown command {msg[0]!r}"))
                raise _JobError(f"unknown command {msg[0]!r}")
    except _JobError:
        abort()
        raise
    except TransportError:
        # Dispatcher vanished mid-job (its sockets closed): tear the job
        # down quietly — the server stays up for the next dispatch.
        abort()
        raise
    finally:
        for c in block_ctrl.values():
            c.close()
