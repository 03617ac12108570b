"""Worker loops: blocks and shards driven over transport channels.

Three layers share this module:

- :func:`run_block_loop` — the persistent partition-block worker.  It
  starts from one typed :class:`BlockJob`, owns one ``(n_block, B)``
  slab, exchanges halos peer-to-peer through whatever
  :class:`~repro.distributed.transport.Channel` objects it is handed
  (socketpairs on one host, TCP across hosts, loopback between two
  blocks in one process, MPI between ranks), and streams per-round
  statistic partials back to its coordinator.  One round body
  (:meth:`_SlabRunner.round`) serves traced and untraced runs alike:
  tracing only swaps an enabled recorder in for the disabled one.
- :func:`shard_process_main` — the replica-shard worker behind
  :func:`~repro.simulation.sharding.run_sharded_ensemble`: receive one
  typed :class:`ShardJob`, run it through a process-local ensemble, send
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

import collections
import os
import socket as _socket
import sys
import threading
import time
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.backends import resolve_backend
from repro.core.protocols import Balancer
from repro.observability.logs import ensure_handler
from repro.observability.recorder import NULL_RECORDER, Recorder, get_recorder
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
    encode_frame,
    format_address,
    loopback_pair,
    parse_address,
    resolve_authkey,
    sign_link,
    tcp_connect,
    verify_link,
)

__all__ = [
    "BlockJob",
    "ShardJob",
    "run_block_loop",
    "shard_process_main",
    "serve",
    "launch_worker_process",
    "WorkerProgress",
]


# ----------------------------------------------------------------------
# Block job + round driver (any Channel implementation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BlockJob:
    """Everything one partition block's worker needs to start.

    Built by :meth:`~repro.simulation.partitioned.PartitionedSimulator.block_job`
    for the local, remote and MPI executors alike, and read by name in
    :func:`run_block_loop`.
    """

    balancer: Balancer
    #: node -> block vector of the whole run
    assignment: np.ndarray
    strategy: str
    block_id: int
    #: this block's initial ``(n_block, B)`` loads
    owned: np.ndarray
    backend: str | None
    want_disc: bool
    want_mov: bool
    #: changed-rows halo frames
    delta: bool
    #: round counter to resume from (checkpoint replay)
    start_round: int
    #: record per-phase spans and ship them back with each chunk reply
    telemetry: bool


@dataclass(frozen=True)
class ShardJob:
    """One replica shard of an ensemble: everything its worker needs.

    Built by :func:`~repro.simulation.sharding.shard_payloads` for the
    local shard pool and remote dispatch alike, and run by
    :func:`~repro.simulation.sharding.run_shard_payload`.
    """

    balancer: Balancer
    #: the shared ``(n,)`` initial loads, or this shard's ``(B_shard, n)`` rows
    loads: np.ndarray
    #: the shard's per-replica generators, derived by global replica index
    rngs: list
    stopping: list | None
    record: str
    keep_snapshots: bool
    check_conservation: bool
    cons_tol: float
    #: the shard is the whole batch, so it keeps the engine's default
    #: one-replica dispatch
    whole_batch: bool
    #: global index of the shard's first replica, so errors name global replicas
    first_replica: int = 0


class _SlabRunner:
    """Persistent extended-slab round driver for one block worker.

    Owns two ``(n_owned + n_ghost, B)`` slabs per block (``cur`` holds
    this round's loads, ``nxt`` receives the next round's) so the hot
    loop never concatenates: owned rows are computed in place and halo
    frames land directly in ``cur``'s per-peer ghost slices via
    :meth:`Channel.recv_into`.  The slabs ping-pong each round.

    One round schedule, split-phase: post every link's send with
    :meth:`Channel.send_nowait`, compute the interior rows (owned-only
    operator support — ghost staleness cannot reach them), drain the
    receives into the ghost slices, then compute the boundary rows.  Row
    updates are independent given the extended vector, so the two phases
    equal one full round exactly.  The schedule is deadlock-free on every
    transport: no send blocks (whatever the OS does not take at once
    waits in the channel's backlog), and every ``recv`` on an endpoint
    pumps that endpoint's backlog while it waits, so two peers that both
    posted large frames first still drain each other.

    ``recorder`` gets one span per step: ``halo_send``/``halo_wait``
    per link (with the link's frame-byte delta) and
    ``interior``/``boundary`` compute spans.  The default, the disabled
    ``NULL_RECORDER``, drops them; the message order and arithmetic do
    not depend on it.

    Delta frames (opt-in): each link remembers the rows it sent in the
    last *two* rounds — the receiver's double-buffered ghost slice holds
    the round ``r - 2`` values — and ships only the changed rows as a
    ``("delta", vals, idx)`` frame when that whole encoded frame is
    smaller than the dense one.  Snapshots reset whenever the block's
    :class:`BlockLocal` changes (dynamic topologies), falling back to
    dense frames.

    :meth:`save` / :meth:`restore` copy out and reinstate everything a
    round reads — both slabs, the bound :class:`BlockLocal` and the
    delta snapshots — so a block can rewind to a chunk's start and
    replay it; every peer rewinds to the same round, so the halo frames
    of the replay are those of the first pass.
    """

    def __init__(self, peers: dict[int, Channel], *, delta: bool = False,
                 timeout: float | None = None, recorder: Recorder = NULL_RECORDER):
        self.peers = peers
        self.delta = bool(delta)
        self.timeout = timeout
        self.recorder = recorder
        #: logical halo values shipped (sum of send rows x batch width)
        self.halo_values = 0
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

    def save(self) -> tuple:
        """The state a rewind to this round restores."""
        snap = {peer: list(pair) for peer, pair in self._snap.items()}
        return self._local, self._cur.copy(), self._nxt.copy(), snap

    def restore(self, state: tuple) -> None:
        """Reinstate a :meth:`save` (which it consumes)."""
        self._local, self._cur, self._nxt, self._snap = state

    def _post_send(self, link, owned: np.ndarray, r: int) -> None:
        t0 = perf_counter()
        ch = self.peers[link.peer]
        b0 = ch.bytes_sent
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
                # can never be mistaken for one.  The delta also carries a
                # second array's header, so only a smaller whole frame
                # replaces the dense one (narrow rows stay dense).
                if vals.nbytes + changed.nbytes < rows.nbytes:
                    sparse = ("delta", vals, changed)
                    if encode_frame(sparse).nbytes < encode_frame(payload).nbytes:
                        payload = sparse
            self._snap[link.peer][r % 2] = rows
        ch.send_nowait(payload)
        if self.recorder.enabled:
            self.recorder.record_span("halo_send", t0, round=r,
                                      link=f"{self._local.p}->{link.peer}",
                                      bytes=ch.bytes_sent - b0)

    def _drain_recv(self, link, r: int) -> None:
        t0 = perf_counter()
        ch = self.peers[link.peer]
        b0 = ch.bytes_received
        a, b = self._local.recv_slices[link.peer]
        region = self._cur[self._local.n_owned + a : self._local.n_owned + b]
        msg = ch.recv_into(region, self.timeout)
        if msg[0] == "dense":
            arr = msg[1]
            if not np.shares_memory(arr, region):
                region[...] = arr.reshape(region.shape)
        elif msg[0] == "delta":
            _, vals, idx = msg
            region[idx] = vals.reshape((idx.size,) + region.shape[1:])
        else:  # pragma: no cover - defensive
            raise TransportError(f"unexpected halo frame tag {msg[0]!r}")
        if self.recorder.enabled:
            self.recorder.record_span("halo_wait", t0, round=r,
                                      link=f"{link.peer}->{self._local.p}",
                                      bytes=ch.bytes_received - b0)

    def round(self, local, balancer, frozen, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Advance one round; returns the owned ``(new, previous)`` loads."""
        self.bind(local)
        rec = self.recorder
        cur, nxt = self._cur, self._nxt
        owned = cur[: local.n_owned]
        out = nxt[: local.n_owned]
        for link in local.links:
            self._post_send(link, owned, r)
        t0 = perf_counter()
        if local.interior.size:
            balancer.block_step(local, cur, out=out, rows="interior")
        if rec.enabled:
            rec.record_span("interior", t0, round=r, rows=int(local.interior.size))
        for link in local.links:
            self._drain_recv(link, r)
        t0 = perf_counter()
        if local.boundary.size:
            balancer.block_step(local, cur, out=out, rows="boundary")
        if rec.enabled:
            rec.record_span("boundary", t0, round=r, rows=int(local.boundary.size))
        if frozen is not None and frozen.any():
            out[:, frozen] = owned[:, frozen]
        self._cur, self._nxt = nxt, cur
        return out, owned

    def flush(self) -> None:
        """Drain every peer backlog (end of chunk, before the quiet wait)."""
        for ch in self.peers.values():
            ch.flush(self.timeout)


def run_block_loop(ctrl: Channel, peers: dict[int, Channel], job: BlockJob,
                   peer_timeout: float | None = None,
                   inherited: list[Channel] | None = None,
                   progress: "WorkerProgress | None" = None) -> None:
    """Persistent block worker: owns one ``(n_block, B)`` slab.

    Commands (from the coordinator): ``("run", rounds, frozen_mask)``
    saves the chunk-start state, advances ``rounds`` rounds — halo
    exchange peer-to-peer, one statistics partial per round — then
    replies ``("stats", partials, halo_values, bytes_by_peer)``: the
    partials stacked row per round (:func:`_stack_partials`), the halo
    values this block sent in each round, and per peer block id the
    payload bytes sent over that link in each round.
    ``("rewind", rounds, frozen_mask)`` restores the chunk-start state
    and replays ``rounds`` of the chunk's rounds without statistics or
    spans, then replies ``("rewound",)``: the coordinator's stopping
    rules fired inside the chunk, and the block returns to the round
    they committed.  ``("gather",)`` replies with the owned slab;
    ``("stop",)`` exits.  Any exception is reported as ``("error", msg)``
    so the coordinator can fail loudly instead of hanging.

    ``job`` is the block's :class:`BlockJob`.  With ``job.telemetry``
    set, the block records per-phase spans through a private buffering
    :class:`Recorder` and appends the drained event list as a 5th element
    of the chunk reply.  ``progress``, when given, is this worker's live
    :class:`WorkerProgress` aggregate for the periodic stats frames.
    """
    from repro.simulation.partitioned import (
        _PartitionMemo,
        _partial_stats,
        _stack_partials,
        block_local,
    )

    # Under the fork start method this process inherited a copy of every
    # endpoint the coordinator had created — including other blocks'.
    # Dropping the copies that are not ours restores EOF semantics: when
    # a block process dies, the last reference to its endpoints goes
    # with it and every peer blocked on a recv wakes with ChannelClosed
    # instead of waiting forever.
    for channel in inherited or ():
        channel.detach()
    try:
        balancer = job.balancer
        balancer.reset()
        if job.backend is not None:
            balancer.backend = job.backend
        resolved = resolve_backend(job.backend)
        parts = _PartitionMemo(job.assignment, job.strategy)
        rec = NULL_RECORDER
        if job.telemetry:
            rec = Recorder(enabled=True, role=f"block:{job.block_id}",
                           base={"block": job.block_id})
        runner = _SlabRunner(peers, delta=job.delta, timeout=peer_timeout,
                             recorder=rec)
        r = job.start_round

        def local_at(r: int):
            return block_local(parts.get(balancer.partition_topology(r)),
                               job.block_id, resolved)

        def advance(frozen):
            nonlocal r
            new, prev = runner.round(local_at(r), balancer, frozen, r)
            r += 1
            return _partial_stats(new, prev, job.want_disc, job.want_mov)

        runner.bind(local_at(r), np.ascontiguousarray(job.owned))
        saved = None
        while True:
            msg = ctrl.recv()
            if msg[0] == "run":
                _, nrounds, frozen = msg
                # A one-round chunk is always committed whole: nothing
                # to rewind to.
                saved = (r, runner.save()) if nrounds > 1 else None
                rows = []
                values = np.zeros(nrounds, dtype=np.int64)
                sent = {q: np.zeros(nrounds, dtype=np.int64) for q in peers}
                chunk_t0 = time.monotonic() if progress is not None else 0.0
                for i in range(nrounds):
                    values_before = runner.halo_values
                    sent_before = {q: ch.bytes_sent for q, ch in peers.items()}
                    rows.append(advance(frozen))
                    values[i] = runner.halo_values - values_before
                    for q, ch in peers.items():
                        sent[q][i] = ch.bytes_sent - sent_before[q]
                # Mandatory before going quiet: a peer may still be
                # blocked on our last frame's unpumped backlog bytes.
                runner.flush()
                reply = ("stats", _stack_partials(rows), values, sent)
                if job.telemetry:
                    # One count per chunk (not per send — the per-link
                    # breakdown is already on the halo_send spans): ships
                    # with the events, so every ingesting recorder up the
                    # chain scrapes it as repro_halo_bytes_total.
                    chunk_bytes = int(sum(b.sum() for b in sent.values()))
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
                    reply += (events,)
                ctrl.send(reply)
                if progress is not None:
                    progress.add_rounds(nrounds, time.monotonic() - chunk_t0)
            elif msg[0] == "rewind":
                _, nrounds, frozen = msg
                if saved is None:
                    raise ValueError("rewind without a multi-round chunk to rewind")
                r, state = saved
                saved = None
                runner.restore(state)
                runner.recorder = NULL_RECORDER
                try:
                    for _ in range(nrounds):
                        advance(frozen)
                    runner.flush()
                finally:
                    runner.recorder = rec
                ctrl.send(("rewound",))
            elif msg[0] == "gather":
                # Copy: the slab view is mutated by any later run command.
                ctrl.send(("loads", np.array(runner.owned)))
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
    """Pool-process entry point: one :class:`ShardJob` in, one trace out."""
    from repro.simulation.sharding import run_shard_payload

    try:
        job = channel.recv()
        channel.send(("trace", run_shard_payload(job)))
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
    the ``listening on H:P`` start-up line and drained worker logs stay
    greppable.
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


#: Output lines of a launched worker kept on ``proc.log_tail``.
LOG_TAIL_LINES = 20


def launch_worker_process(bind: str = "127.0.0.1:0", *, extra_args: tuple = ()):
    """Spawn ``repro-lb worker`` as a subprocess; returns ``(proc, address)``.

    The one blessed way to programmatically start a worker (tests and
    benches included).  It returns as soon as the process exists, so K
    launches in a row start K workers side by side: the launcher binds
    the control listener on ``bind`` itself, hands the listening socket
    to the child as ``--bind fd:N``, closes its own copy and returns the
    bound ``HOST:PORT``.  A dispatcher that connects while the worker is
    still importing waits in the kernel's accept backlog, and the worker
    loads its job runtime before its first ``accept``, so the start-up
    wait lands in :func:`~repro.distributed.dispatcher.connect_workers`,
    never in a job.  A worker that dies during start-up takes the only
    copy of the listener with it: ``connect_workers`` then raises its
    usual ``DispatcherError`` naming the address — a reset connection if
    it connected first, else a refused connect retried until its
    ``timeout``.  The cause (a traceback, a bad flag) is not in that
    error; the last lines the worker printed are kept in
    ``proc.log_tail``.

    ``PYTHONPATH`` is wired so the subprocess finds this very package.
    The caller terminates ``proc`` when done.
    """
    import subprocess
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    listener = TcpListener(*parse_address(bind))
    try:
        address = format_address(listener.address)
        fd = listener.fileno()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--bind", f"fd:{fd}", *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
            pass_fds=(fd,),
        )
    finally:
        listener.close()
    # Keep draining the worker's log output: the server prints a couple
    # of lines per job, and an undrained pipe would fill and block it
    # mid-job after enough dispatches.
    proc.log_tail = collections.deque(maxlen=LOG_TAIL_LINES)

    def _drain() -> None:
        for line in proc.stdout:
            proc.log_tail.append(line.rstrip("\n"))

    threading.Thread(target=_drain, name="worker-log-drain", daemon=True).start()
    return proc, address


def _load_job_runtime() -> None:
    """Import everything a job runs before the worker reports ready.

    The block loop, the row-sliced kernels, the shard runner and every
    balancer class a payload can name are otherwise imported by the first
    job, and that import time would land inside the dispatcher's timed
    run instead of in start-up.
    """
    import repro.simulation.partitioned  # noqa: F401 - block loop and kernels
    import repro.simulation.sharding  # noqa: F401 - shard runner
    from repro.core.protocols import registered_balancers

    registered_balancers()


def _control_listener(bind: str) -> TcpListener:
    """Bind ``HOST:PORT``, or adopt the listening socket ``fd:N`` names."""
    if not bind.startswith("fd:"):
        return TcpListener(*parse_address(bind))
    try:
        fd = int(bind[3:])
    except ValueError:
        raise ValueError(f"bind must be 'host:port' or 'fd:N', got {bind!r}") from None
    return TcpListener.from_fd(fd)


class _JobError(RuntimeError):
    """A job failed; the worker reported it and keeps serving."""


class _HandshakeRejected(RuntimeError):
    """A connection's hello was refused before any job; the worker keeps
    serving."""


def serve(bind: str = "127.0.0.1:0", *, max_jobs: int = 0,
          timeout: float | None = 600.0, advertise: str | None = None,
          authkey: str | bytes | None = None, log=_default_log) -> int:
    """Serve distributed jobs until killed (or after ``max_jobs`` jobs).

    Listens on two ports of the bind host: the *control* port that
    dispatchers connect to, and an ephemeral *peer* port advertised in
    the rendezvous hello that other workers' blocks connect their halo
    links to.  ``bind`` is ``HOST:PORT`` (port 0 picks an ephemeral
    one) or ``fd:N``: an inherited socket that is already bound and
    listening, as :func:`launch_worker_process` hands over.  The job
    runtime is imported before the first ``accept``, then a
    ``worker listening on HOST:PORT (peer HOST:PORT)`` line is printed.

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
    key = resolve_authkey(authkey)
    listener = _control_listener(bind)
    _load_job_runtime()
    peer_listener = TcpListener(listener.address[0], 0)
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
            # Read now: a refused stranger may be gone by the time it is logged.
            peer = ctrl.peer_address
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
            except _HandshakeRejected as exc:
                who = format_address(peer) if peer else "an unknown peer"
                log(f"worker: rejected handshake from {who}: {exc}")
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
    try:
        msg = ctrl.recv_handshake(timeout)
    except TransportError as exc:
        raise _HandshakeRejected(str(exc)) from exc
    if not (isinstance(msg, tuple) and len(msg) >= 2 and msg[0] == "hello"):
        ctrl.send(("error", f"expected hello, got {msg!r}"))
        raise _HandshakeRejected(f"expected hello, got {msg!r}")
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
        for idx, job in spec["payloads"]:
            ctrl.send(("trace", idx, run_shard_payload(job)))
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
        header = ch.recv_handshake(timeout)
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
    connection, forwarding ``run``/``rewind``/``gather``/``stop`` to
    every block and merging the per-block replies into one keyed
    response.
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
            if msg[0] in ("run", "rewind", "gather"):
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
                elif msg[0] == "rewind":
                    ctrl.send(("rewound",))
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
