"""Cluster dispatcher: partitioned blocks and replica shards over workers.

The dispatcher is the coordinator half of the multi-host runtime.  Given
the addresses of running ``repro-lb worker`` processes it

1. performs the **rendezvous handshake** (``hello``/``ready`` with a
   protocol-version check; each worker's reply advertises the peer port
   its halo links listen on).  With an authkey (``authkey=`` /
   ``REPRO_AUTHKEY``) the hello is followed by an HMAC
   challenge–response in both directions, so neither side will feed
   pickles to an unauthenticated peer,
2. **assigns work** — partition blocks round-robin over the workers (a
   worker hosting several blocks runs them on threads with loopback
   channels in between), or contiguous replica shards the same way the
   local sharded pool splits them,
3. ships each worker its **pickled state** (balancer + topology,
   assignment, initial slab or per-replica RNG streams),
4. drives the run, receiving **per-round statistic partials** (for the
   exact block combine of
   :mod:`repro.simulation.partitioned`) or whole shard traces (for
   :func:`~repro.simulation.sharding.merge_ensemble_traces`), and
5. on worker failure **degrades or recovers**: sharded dispatch
   re-queues the dead worker's unfinished shards onto survivors (shard
   payloads are placement-independent, so the merged trace is still
   bit-for-bit identical); partitioned dispatch replays from the last
   round-boundary snapshot when ``checkpoint_every`` is set, and
   otherwise aborts cleanly — every surviving channel is closed (which
   unwedges peers blocked in halo exchanges) and a
   :class:`DispatcherError` naming the failed worker is raised, never a
   hang (all waits are bounded by ``timeout``).

**Liveness** is push-based: when ``heartbeat`` is set at rendezvous,
each worker streams ``("hb", seq)`` frames on the control channel from
a dedicated thread, and every dispatcher-side wait slices its blocking
receives so a worker that goes silent past ``heartbeat * miss_budget``
seconds (SIGSTOP, network partition) is detected in bounded time
instead of via the generic send timeout.

Because block execution reuses :func:`repro.distributed.worker.run_block_loop`
and shard execution reuses the exact local shard payloads, trajectories
are **bit-for-bit identical** to the serial engines — the dispatcher
only moves bytes and combines statistics in the same ascending block /
shard order as the single-host paths.
"""

from __future__ import annotations

import os
import random
import time
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.core.protocols import Balancer
from repro.observability.logs import get_logger
from repro.observability.recorder import get_recorder
from repro.observability.server import get_status_board
from repro.distributed.transport import (
    PROTOCOL_VERSION,
    AuthenticationError,
    Channel,
    TransportError,
    TransportTimeout,
    answer_challenge,
    deliver_challenge,
    format_address,
    parse_address,
    resolve_authkey,
    tcp_connect,
)
from repro.simulation.ensemble import EnsembleTrace
from repro.simulation.stopping import StoppingRule

__all__ = [
    "DEFAULT_TIMEOUT",
    "DEFAULT_HEARTBEAT_MISS_BUDGET",
    "DEFAULT_RETRY_BUDGET",
    "DispatcherError",
    "HeartbeatLost",
    "WorkerHandle",
    "connect_workers",
    "close_workers",
    "dispatch_partitioned",
    "dispatch_sharded",
]

#: Bound on every dispatcher-side channel wait.  Generous — free-running
#: round chunks keep workers legitimately silent for a while — but finite,
#: so a wedged cluster surfaces as a diagnostic instead of a hang.
DEFAULT_TIMEOUT = 600.0

#: A worker is declared dead after ``heartbeat * miss_budget`` seconds of
#: silence.  2.0 tolerates one lost/late beat while keeping detection of
#: a SIGSTOPped worker under 3x the heartbeat interval (the check runs
#: every quarter interval).
DEFAULT_HEARTBEAT_MISS_BUDGET = 2.0

#: Recovery attempts per run (partitioned) / re-queues per shard
#: (sharded) before giving up on fault tolerance and aborting.
DEFAULT_RETRY_BUDGET = 3

#: Poll slice while multiplexing worker control channels in the sharded
#: event loop — short enough to keep per-pass latency low with a handful
#: of workers, long enough not to spin.
_MUX_SLICE = 0.02

#: Reconnect probe for a worker that just failed: a crashed process
#: refuses within the deadline, a worker that merely dropped a bad job
#: is back in accept within a retry or two.
_RECONNECT_OPTIONS = {"retries": 4, "retry_delay": 0.2, "deadline": 3.0}
_RECONNECT_TIMEOUT = 5.0


_logger = get_logger("dispatcher")


class DispatcherError(RuntimeError):
    """A distributed run failed (unreachable/failed worker, bad reply)."""


class HeartbeatLost(TransportError):
    """A worker went silent past its heartbeat miss budget."""


class _WorkerDied(RuntimeError):
    """Internal: one worker failed mid-run; ``detail`` is the public
    diagnostic.  Converted to :class:`DispatcherError` (abort) or
    consumed by checkpoint recovery, depending on configuration."""

    def __init__(self, handle: "WorkerHandle", detail: str):
        super().__init__(detail)
        self.handle = handle
        self.detail = detail


@dataclass(eq=False)
class WorkerHandle:
    """One connected worker: control channel, rendezvous info, liveness.

    ``heartbeat``/``miss_budget`` configure the push-based liveness
    check: :meth:`recv` and :meth:`try_recv` silently consume ``("hb",
    seq)`` frames, refresh ``last_seen`` on *any* inbound frame, and
    raise :class:`HeartbeatLost` once the silence exceeds the budget.
    """

    address: tuple[str, int]
    channel: Channel
    info: dict = field(default_factory=dict)
    heartbeat: float | None = None
    miss_budget: float = DEFAULT_HEARTBEAT_MISS_BUDGET
    authkey: bytes | None = field(default=None, repr=False)
    last_seen: float = field(default_factory=time.monotonic)
    #: interval the worker was asked to stream progress frames at (None
    #: = not requested; the worker then never sends one)
    stats_interval: float | None = None
    #: latest ``("stats", seq, payload)`` progress snapshot, if any
    stats: dict | None = field(default=None, repr=False)
    stats_seq: int = 0
    #: observed heartbeat arrivals: count + inter-arrival extremes/total,
    #: the measured counterpart of the configured ``heartbeat`` interval
    hb_count: int = 0
    hb_interval_min: float = field(default=float("inf"), repr=False)
    hb_interval_max: float = field(default=0.0, repr=False)
    hb_interval_sum: float = field(default=0.0, repr=False)
    _hb_prev: float | None = field(default=None, repr=False)

    @property
    def label(self) -> str:
        return format_address(self.address)

    @property
    def peer_address(self) -> tuple[str, int]:
        """Where other workers reach this worker's halo-link listener.

        The *port* comes from the rendezvous hello.  The *host* is the
        worker's explicit ``--advertise`` host when it set one —
        authoritative, because only the operator knows the route *peer
        workers* should use — and otherwise the host this dispatcher
        reached the control port through (a worker bound to a wildcard
        address reports the literal bind host in its hello, unroutable
        from other machines, but its peer listener accepts on every
        interface, so the control host works whenever one address is
        valid cluster-wide).
        """
        host = self.info.get("advertise_host") or self.address[0]
        return host, int(self.info["peer_address"][1])

    def touch(self) -> None:
        self.last_seen = time.monotonic()

    def _note_heartbeat(self) -> None:
        now = time.monotonic()
        if self._hb_prev is not None:
            gap = now - self._hb_prev
            self.hb_interval_min = min(self.hb_interval_min, gap)
            self.hb_interval_max = max(self.hb_interval_max, gap)
            self.hb_interval_sum += gap
        self._hb_prev = now
        self.hb_count += 1

    def _consume_aside(self, msg) -> bool:
        """True when ``msg`` is a liveness/progress side frame (consumed).

        Heartbeats are 2-tuples ``("hb", seq)``; unsolicited progress
        frames are 3-tuples ``("stats", seq, payload_dict)`` — shape-
        disjoint from the job replies that share the ``"stats"`` tag
        (the merged partition reply is ``("stats", {block: ...})``, a
        2-tuple), so no reply is ever swallowed here.
        """
        if not (isinstance(msg, tuple) and msg):
            return False
        if msg[0] == "hb":
            self._note_heartbeat()
            return True
        if (msg[0] == "stats" and len(msg) == 3
                and isinstance(msg[1], int) and isinstance(msg[2], dict)):
            if msg[1] >= self.stats_seq:
                self.stats_seq = msg[1]
                self.stats = msg[2]
            return True
        return False

    def liveness(self) -> dict:
        """Observed liveness for diagnostics (``dispatch --json``).

        ``last_seen_age_s`` measures silence *now*; the ``hb_*`` fields
        summarize heartbeat inter-arrival gaps over the run (the
        measured round-trip behaviour next to the configured interval);
        ``stats`` is the worker's latest progress snapshot, when the
        rendezvous asked for one.
        """
        out: dict = {
            "last_seen_age_s": time.monotonic() - self.last_seen,
            "hb_count": self.hb_count,
        }
        if self.hb_count > 1:
            gaps = self.hb_count - 1
            out["hb_interval_mean_s"] = self.hb_interval_sum / gaps
            out["hb_interval_min_s"] = self.hb_interval_min
            out["hb_interval_max_s"] = self.hb_interval_max
        if self.stats is not None:
            out["stats_seq"] = self.stats_seq
            out["stats"] = self.stats
        return out

    def _liveness_check(self) -> None:
        if not self.heartbeat:
            return
        silent = time.monotonic() - self.last_seen
        limit = self.heartbeat * self.miss_budget
        if silent > limit:
            raise HeartbeatLost(
                f"worker {self.label} silent for {silent:.2f}s "
                f"(heartbeat {self.heartbeat}s x miss budget {self.miss_budget})"
            )

    def recv(self, timeout: float | None = None):
        """Receive the next non-heartbeat frame, enforcing liveness.

        Without a heartbeat this is a plain bounded ``channel.recv``.
        With one, the wait is sliced into quarter-interval polls so a
        silent worker raises :class:`HeartbeatLost` in bounded time; the
        poll/recv split keeps frames atomic (a poll consumes no bytes,
        and once a frame has started arriving the full budget applies).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            budget = None if deadline is None else deadline - time.monotonic()
            if budget is not None and budget <= 0:
                raise TransportTimeout(
                    f"no reply from worker {self.label} within {timeout}s"
                )
            if self.heartbeat:
                wait = self.heartbeat / 4.0
                if budget is not None:
                    wait = min(wait, budget)
                if not self.channel.poll(max(wait, 0.0)):
                    # Liveness is judged only when the wire is quiet: a
                    # backlog of unread beats (dispatcher busy elsewhere)
                    # must drain and refresh last_seen, not count as
                    # silence.
                    self._liveness_check()
                    continue
                msg = self.channel.recv(budget)
            else:
                msg = self.channel.recv(budget)
            self.touch()
            if self._consume_aside(msg):
                continue
            return msg

    def try_recv(self, wait: float, frame_timeout: float | None = None):
        """Poll for up to ``wait`` seconds; return a frame or ``None``.

        Heartbeat frames refresh liveness and report as ``None`` (no
        payload progress).  Used by the sharded event loop to multiplex
        several workers without dedicating a thread per channel.
        """
        if not self.channel.poll(wait):
            # Judge liveness only on a quiet wire (see recv): queued
            # beats must refresh last_seen before silence is measured.
            self._liveness_check()
            return None
        msg = self.channel.recv(frame_timeout)
        self.touch()
        if self._consume_aside(msg):
            return None
        return msg


def _handshake(channel: Channel, timeout: float, authkey: bytes | None,
               heartbeat: float | None, label: str,
               stats_interval: float | None = None) -> dict:
    """Hello + optional mutual HMAC auth; returns the worker's info dict.

    A keyed worker challenges first (we cannot know it will until its
    first reply arrives, hence the pre-received ``challenge=``
    pass-through); a keyed dispatcher then counter-challenges so both
    sides prove possession before any job bytes flow.  ``stats_interval``
    opts into the worker's periodic progress frames — a free-form opts
    key, so a worker that predates it simply ignores the request.
    """
    opts: dict = {}
    if heartbeat:
        opts["heartbeat"] = float(heartbeat)
    if stats_interval:
        opts["stats"] = float(stats_interval)
    if authkey is not None:
        opts["auth"] = True
    channel.send(("hello", PROTOCOL_VERSION, opts) if opts else ("hello", PROTOCOL_VERSION))
    reply = channel.recv_handshake(timeout)
    if isinstance(reply, tuple) and reply and reply[0] == "auth-challenge":
        if authkey is None:
            raise DispatcherError(
                f"worker {label} requires an authkey "
                "(pass authkey= / --authkey or set REPRO_AUTHKEY)"
            )
        try:
            answer_challenge(channel, authkey, timeout, challenge=reply)
            deliver_challenge(channel, authkey, timeout)
        except AuthenticationError as exc:
            raise DispatcherError(f"worker {label} authentication failed: {exc}") from exc
        reply = channel.recv_handshake(timeout)
    if not (isinstance(reply, tuple) and reply and reply[0] == "ready"):
        detail = reply[1] if isinstance(reply, tuple) and len(reply) > 1 else reply
        raise DispatcherError(f"worker {label} refused the handshake: {detail}")
    return reply[1]


def _open_control(address: tuple[str, int], timeout: float,
                  tcp_options: dict | None) -> Channel:
    """Open one worker's control connection (no handshake yet)."""
    # The connect timeout doubles as the total retry deadline: a worker
    # that is still coming up gets the whole window, a dead one fails
    # the rendezvous in bounded time (explicit tcp_options still win).
    options = {"deadline": timeout, **(tcp_options or {})}
    try:
        return tcp_connect(address, timeout=timeout, **options)
    except TransportError as exc:
        raise DispatcherError(f"cannot reach worker {format_address(address)}: {exc}") from exc


def _greet_worker(address: tuple[str, int], channel: Channel, *, timeout: float,
                  authkey: bytes | None = None,
                  heartbeat: float | None = None,
                  miss_budget: float = DEFAULT_HEARTBEAT_MISS_BUDGET,
                  stats_interval: float | None = None) -> WorkerHandle:
    """Handshake over an open control channel; closes it on failure."""
    label = format_address(address)
    try:
        info = _handshake(channel, timeout, authkey, heartbeat, label,
                          stats_interval)
    except TransportError as exc:
        channel.close()
        raise DispatcherError(f"cannot reach worker {label}: {exc}") from exc
    except BaseException:
        channel.close()
        raise
    return WorkerHandle(
        address=address, channel=channel, info=info,
        heartbeat=float(heartbeat) if heartbeat else None,
        miss_budget=miss_budget, authkey=authkey,
        stats_interval=float(stats_interval) if stats_interval else None,
    )


def _connect_worker(address: tuple[str, int], *, timeout: float,
                    tcp_options: dict | None = None, **greet) -> WorkerHandle:
    """Connect + handshake one worker (``authkey`` already resolved)."""
    channel = _open_control(address, timeout, tcp_options)
    return _greet_worker(address, channel, timeout=timeout, **greet)


def connect_workers(addresses: Sequence[str | tuple[str, int]], *,
                    timeout: float = 30.0, tcp_options: dict | None = None,
                    authkey: str | bytes | None = None,
                    heartbeat: float | None = None,
                    miss_budget: float = DEFAULT_HEARTBEAT_MISS_BUDGET,
                    stats_interval: float | None = None) -> list[WorkerHandle]:
    """Connect + handshake with every worker address, in order.

    ``authkey`` (or the ``REPRO_AUTHKEY`` environment variable) enables
    mutual HMAC authentication; ``heartbeat`` asks each worker to stream
    liveness frames at that interval; ``stats_interval`` additionally
    asks for periodic progress snapshots (surfaced via
    :meth:`WorkerHandle.liveness`).  Raises :class:`DispatcherError`
    naming the first unreachable or version-mismatched worker;
    already-opened channels are closed before the raise so a failed
    rendezvous leaves nothing dangling.

    Every control connection is opened before the first handshake.  A
    worker still starting up (see
    :func:`~repro.distributed.worker.launch_worker_process`) holds its
    connection in the accept backlog until it is ready; one that dies
    meanwhile resets it, which fails the rendezvous at once instead of
    leaving a later connect to be refused and retried until ``timeout``.
    """
    normalized = [
        parse_address(spec) if isinstance(spec, str) else (spec[0], int(spec[1]))
        for spec in addresses
    ]
    duplicates = {addr for addr in normalized if normalized.count(addr) > 1}
    if duplicates:
        # A worker serves one dispatcher connection at a time, so the
        # second connect to the same address would sit in the accept
        # backlog until timeout — reject the (likely copy-paste) input
        # with a diagnostic instead.
        raise DispatcherError(
            "duplicate worker address(es): "
            + ", ".join(sorted(format_address(a) for a in duplicates))
        )
    key = resolve_authkey(authkey)
    channels: list[Channel] = []
    handles: list[WorkerHandle] = []
    try:
        for address in normalized:
            channels.append(_open_control(address, timeout, tcp_options))
        for address, channel in zip(normalized, channels):
            handles.append(
                _greet_worker(
                    address, channel, timeout=timeout, authkey=key,
                    heartbeat=heartbeat, miss_budget=miss_budget,
                    stats_interval=stats_interval,
                )
            )
    except BaseException:
        for channel in channels:
            channel.close()
        raise
    return handles


def close_workers(handles: Sequence[WorkerHandle]) -> None:
    for handle in handles:
        handle.channel.close()


def _abort(handles: Sequence[WorkerHandle]) -> None:
    """Tear a failed run down: closing every control channel makes each
    worker abort its job (and closing its job closes its peer channels,
    which unblocks any block still waiting in a halo exchange)."""
    close_workers(handles)


def _resolve_handles(workers, timeout, tcp_options, *, authkey=None,
                     heartbeat=None,
                     miss_budget=DEFAULT_HEARTBEAT_MISS_BUDGET,
                     stats_interval=None):
    """Accept addresses or pre-connected handles; returns (handles, own)."""
    if not workers:
        raise DispatcherError("need at least one worker address")
    if all(isinstance(w, WorkerHandle) for w in workers):
        return list(workers), False
    handles = connect_workers(
        workers, timeout=timeout, tcp_options=tcp_options,
        authkey=authkey, heartbeat=heartbeat, miss_budget=miss_budget,
        stats_interval=stats_interval,
    )
    return handles, True


# ----------------------------------------------------------------------
# Partitioned dispatch
# ----------------------------------------------------------------------
class _RemoteBlockExecutor:
    """Block executor over remote workers (the dispatcher side of the
    :class:`~repro.simulation.partitioned.PartitionedSimulator` seam:
    ``run_chunk`` / ``rewind`` / ``gather`` / ``close``).  Each worker
    forwards ``run``, ``rewind`` and ``gather`` to the blocks it hosts
    and merges their replies.

    Blocks are assigned round-robin (block ``p`` → worker ``p % W``), so
    two workers can host a P=4 job.  Every job spec is shipped first and
    *then* the ``mesh-ok`` barrier is collected — workers accept and
    connect concurrently, so waiting per-worker in ship order would
    deadlock the mesh setup.

    With ``checkpoint_every=N`` the executor snapshots the full load
    matrix at round boundaries (a ``gather`` every N committed rounds)
    and keeps a replay log of the ``(rounds, frozen)`` chunks committed
    since: a chunk ends at the next boundary, the snapshot waits until
    the coordinator grants the chunk after it (by then every round
    before the boundary is committed), and a rewound chunk is logged as
    the ``(rounds, frozen)`` it committed.  When a worker dies mid-chunk
    it reconnects to the survivors, re-places all blocks over them,
    re-ships block state from the snapshot (payloads carry
    ``start_round`` so dynamic topologies replay identically), silently
    replays the logged chunks to rebuild worker-side state, and re-runs
    the failed chunk — bit-for-bit with the serial engines, because
    block rounds are deterministic.  A worker that dies during a rewind
    needs no re-run: the replay already ends at the committed round.
    Without checkpointing any failure aborts the run cleanly, as before.
    """

    def __init__(self, sim, L: np.ndarray, B: int, assignment: np.ndarray,
                 handles: list[WorkerHandle], timeout: float,
                 tcp_options: dict | None = None, *,
                 checkpoint_every: int | None = None,
                 retry_budget: int = DEFAULT_RETRY_BUDGET):
        self.sim = sim
        self.timeout = timeout
        self.tcp_options = tcp_options
        self.B = B
        self.n = L.shape[0]
        self.assignment = assignment
        self.P = int(assignment.max()) + 1
        self.owned = [np.flatnonzero(assignment == p) for p in range(self.P)]
        self.block_order = list(range(self.P))
        self.addresses = [h.address for h in handles]
        self._authkey = handles[0].authkey if handles else None
        self._heartbeat = handles[0].heartbeat if handles else None
        self._miss_budget = (
            handles[0].miss_budget if handles else DEFAULT_HEARTBEAT_MISS_BUDGET
        )
        self._stats_interval = handles[0].stats_interval if handles else None
        # Captured once: whether chunk replies should carry per-phase
        # trace events back for this process's recorder to merge.
        self._telemetry = get_recorder().enabled
        self.checkpoint_every = int(checkpoint_every) if checkpoint_every else None
        self.retry_budget = retry_budget
        self.retries = 0
        self.requeued_blocks = 0
        self._round = 0
        #: rounds the last chunk ran (what a rewind shortens)
        self._chunk = 0
        self._ckpt_round = 0
        # Node-major snapshot the run can be rebuilt from — the initial
        # batch doubles as the round-0 checkpoint.
        self._ckpt_L = np.array(L, copy=True)
        self._replay: list[tuple[int, object]] = []
        self.handles = list(handles)
        self._block_host: dict[int, str] = {}
        try:
            self._ship(self.handles, self._ckpt_L, 0)
        except _WorkerDied as exc:
            self._fail(exc)

    def _ship(self, handles: list[WorkerHandle], L: np.ndarray,
              start_round: int) -> None:
        """(Re-)place all blocks over ``handles`` and ship job specs."""
        sim = self.sim
        P, W = self.P, len(handles)
        self.worker_of = {p: p % W for p in range(P)}
        self.blocks_of = {
            w: [p for p in range(P) if self.worker_of[p] == w] for w in range(W)
        }
        # Fresh per-job nonce: peer-link headers are signed against it,
        # so a stale (replayed) link header from an earlier mesh cannot
        # attach to this job's halo exchange.
        link_nonce = os.urandom(16) if self._authkey is not None else None

        local_pairs: dict[int, list[tuple[int, int]]] = {w: [] for w in range(W)}
        links: dict[int, dict[int, dict[int, tuple]]] = {
            w: {p: {} for p in self.blocks_of[w]} for w in range(W)
        }
        for a in range(P):
            for b in range(a + 1, P):
                wa, wb = self.worker_of[a], self.worker_of[b]
                if wa == wb:
                    local_pairs[wa].append((a, b))
                else:
                    # Lower block id accepts; the other side connects to
                    # the accepting worker's advertised peer port.
                    links[wa][a][b] = ("accept",)
                    links[wb][b][a] = ("connect", handles[wa].peer_address)
        specs = []
        for w in range(W):
            payloads = {
                p: sim.block_job(self.assignment, p, L[self.owned[p]],
                                 start_round=start_round, telemetry=self._telemetry)
                for p in self.blocks_of[w]
            }
            spec = {
                "kind": "partition",
                "blocks": self.blocks_of[w],
                "payloads": payloads,
                "local_pairs": local_pairs[w],
                "links": links[w],
                "timeout": self.timeout,
                "tcp": self.tcp_options or {},
            }
            if link_nonce is not None:
                spec["link_nonce"] = link_nonce
            specs.append(spec)
        # Ship all jobs, then barrier on every mesh-ok.
        for handle, spec in zip(handles, specs):
            self._send(handle, ("job", spec))
        for handle in handles:
            reply = self._recv(handle)
            if reply[0] != "mesh-ok":  # pragma: no cover - defensive
                raise _WorkerDied(
                    handle,
                    f"worker {handle.label}: expected mesh-ok, got {reply[0]!r}",
                )
        self._block_host = {
            p: handles[self.worker_of[p]].label for p in range(P)
        }

    # -- channel plumbing -----------------------------------------------
    def _send(self, handle: WorkerHandle, msg) -> None:
        try:
            handle.channel.send(msg)
        except TransportError as exc:
            raise _WorkerDied(handle, f"worker {handle.label} died: {exc}") from exc

    def _recv(self, handle: WorkerHandle):
        try:
            reply = handle.recv(self.timeout)
        except TransportError as exc:
            raise _WorkerDied(handle, f"worker {handle.label} died: {exc}") from exc
        if isinstance(reply, tuple) and reply and reply[0] == "error":
            raise _WorkerDied(handle, f"worker {handle.label} failed: {reply[1]}")
        return reply

    def _ask_all(self, msg) -> list:
        for handle in self.handles:
            self._send(handle, msg)
        return [self._recv(handle) for handle in self.handles]

    def _fail(self, exc: _WorkerDied) -> None:
        """Abort: close every channel and surface the diagnostic."""
        _abort(self.handles)
        raise DispatcherError(exc.detail) from exc

    def _guarded(self, fn):
        """Run ``fn``; on worker death recover from the snapshot and retry."""
        while True:
            try:
                return fn()
            except _WorkerDied as exc:
                self._recover(exc)

    def _recover(self, exc: _WorkerDied) -> None:
        """Rebuild the mesh on the surviving workers from the snapshot.

        Closing every control channel makes each surviving worker abort
        its job and return to ``accept``, so the reconnect probe below
        finds them listening again; the dead one refuses.  All blocks
        are then re-placed over the survivors, state is re-shipped from
        the last checkpoint, and the logged chunks since it are replayed
        with their statistics discarded (the coordinator already
        consumed them) — only the worker-side slab state matters.
        """
        detail = exc.detail
        _logger.warning("partitioned recovery: %s", detail)
        rec = get_recorder()
        while True:
            self.retries += 1
            if self.retries > self.retry_budget:
                _abort(self.handles)
                raise DispatcherError(
                    f"recovery budget ({self.retry_budget}) exhausted: {detail}"
                ) from exc
            _abort(self.handles)
            delay = min(0.2 * (2 ** (self.retries - 1)), 2.0)
            time.sleep(delay * (1.0 + random.uniform(-0.25, 0.25)))
            survivors: list[WorkerHandle] = []
            for address in self.addresses:
                try:
                    survivors.append(
                        _connect_worker(
                            address, timeout=_RECONNECT_TIMEOUT,
                            tcp_options={**(self.tcp_options or {}), **_RECONNECT_OPTIONS},
                            authkey=self._authkey, heartbeat=self._heartbeat,
                            miss_budget=self._miss_budget,
                            stats_interval=self._stats_interval,
                        )
                    )
                except DispatcherError:
                    continue
            if not survivors:
                detail = f"no reachable workers during recovery ({detail})"
                continue
            prev_host = dict(self._block_host)
            self.handles = survivors
            try:
                self._ship(survivors, self._ckpt_L, self._ckpt_round)
                for sub, frozen in self._replay:
                    self._run_subchunk(sub, frozen)
            except _WorkerDied as exc2:
                detail = exc2.detail
                continue
            moved = sum(
                1 for p, host in self._block_host.items()
                if prev_host.get(p) != host
            )
            self.requeued_blocks += moved
            _logger.warning(
                "partitioned recovery succeeded: %d block(s) re-placed over "
                "%d surviving worker(s), replaying from round %d",
                moved, len(survivors), self._ckpt_round,
            )
            if rec.enabled:
                rec.event("requeue", blocks=moved, round=self._ckpt_round,
                          retries=self.retries)
            return

    def _checkpoint(self) -> None:
        rec = get_recorder()
        t0 = perf_counter() if rec.enabled else 0.0
        full = self._guarded(self._gather_once)  # replica-major (B, n)
        self._ckpt_L = np.ascontiguousarray(full.T)
        self._ckpt_round = self._round
        self._replay.clear()
        if rec.enabled:
            rec.record_span("checkpoint", t0, round=self._round)

    # -- executor interface (see simulation.partitioned) ---------------
    def run_chunk(self, rounds: int, frozen) -> list[tuple]:
        if not self.checkpoint_every:
            try:
                replies = self._run_subchunk(rounds, frozen)
            except _WorkerDied as exc:
                self._fail(exc)
        else:
            # The coordinator commits a chunk only when it grants the
            # next one, so this is the first moment the snapshot round is
            # known to be committed.  Chunks end at snapshot boundaries:
            # a rewind never reaches behind the snapshot it rebuilds from.
            if self._round - self._ckpt_round >= self.checkpoint_every:
                self._checkpoint()
            rounds = min(rounds, self.checkpoint_every - (self._round - self._ckpt_round))
            replies = self._guarded(lambda: self._run_subchunk(rounds, frozen))
            self._replay.append((rounds, frozen))
        self._round += rounds
        self._chunk = rounds
        return replies

    def rewind(self, rounds: int, frozen) -> None:
        self._round -= self._chunk - rounds
        if self.checkpoint_every:
            # Log the chunk as committed, so a recovery replays it so far.
            self._replay.pop()
            if rounds:
                self._replay.append((rounds, frozen))
        try:
            self._ask_all(("rewind", rounds, frozen))
        except _WorkerDied as exc:
            if not self.checkpoint_every:
                self._fail(exc)
            # The rebuilt mesh already stands at the committed round.
            self._recover(exc)

    def _run_subchunk(self, rounds: int, frozen) -> list[tuple]:
        replies = self._ask_all(("run", rounds, frozen))
        by_block: dict[int, tuple] = {}
        for reply in replies:
            by_block.update(reply[1])
        if self._telemetry:
            # Merge each block's shipped phase events into this process's
            # trace, labelled with the worker that hosted the block —
            # this is what makes the dispatcher-side trace cluster-wide.
            rec = get_recorder()
            for p in self.block_order:
                rep = by_block[p]
                if len(rep) > 3 and rep[3]:
                    rec.ingest(rep[3], worker=self._block_host.get(p, "?"))
        return [by_block[p][:3] for p in self.block_order]

    def gather(self) -> np.ndarray:
        if not self.checkpoint_every:
            try:
                return self._gather_once()
            except _WorkerDied as exc:
                self._fail(exc)
        return self._guarded(self._gather_once)

    def _gather_once(self) -> np.ndarray:
        replies = self._ask_all(("gather",))
        by_block: dict[int, np.ndarray] = {}
        for reply in replies:
            by_block.update(reply[1])
        full = np.empty((self.B, self.n), dtype=by_block[self.block_order[0]].dtype)
        for p in self.block_order:
            full[:, self.owned[p]] = by_block[p].T
        return full

    def close(self) -> None:
        # Best effort: a clean run stops the block threads and leaves the
        # worker serving; an aborted run already closed the channels.
        try:
            for handle in self.handles:
                handle.channel.send(("stop",))
            for handle in self.handles:
                handle.channel.recv(self.timeout)
        except TransportError:
            pass

    def control_traffic(self) -> dict[str, dict[str, int]]:
        """Per-worker dispatcher-link byte counters."""
        return {h.label: h.channel.traffic() for h in self.handles}


def dispatch_partitioned(
    balancer: Balancer,
    loads: np.ndarray,
    workers: Sequence[str | WorkerHandle],
    *,
    partitions: int | str = 2,
    strategy: str = "contiguous",
    assignment: np.ndarray | None = None,
    stopping: Sequence[StoppingRule] | None = None,
    record: str = "auto",
    keep_snapshots: bool = False,
    check_conservation: bool = True,
    cons_tol: float = 1e-6,
    backend: str | None = None,
    replicas: int | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    tcp_options: dict | None = None,
    authkey: str | bytes | None = None,
    heartbeat: float | None = None,
    miss_budget: float = DEFAULT_HEARTBEAT_MISS_BUDGET,
    checkpoint_every: int | None = None,
    retry_budget: int = DEFAULT_RETRY_BUDGET,
    stats_interval: float | None = None,
) -> tuple[EnsembleTrace, dict]:
    """Run a partition-capable balancer as halo-exchanging blocks on
    remote workers; returns ``(trace, distributed_stats)``.

    Accepts the same engine knobs as
    :class:`~repro.simulation.partitioned.PartitionedSimulator` plus the
    worker addresses (or pre-connected :class:`WorkerHandle` objects),
    and the fault-tolerance knobs: ``authkey`` (HMAC rendezvous + signed
    peer links), ``heartbeat``/``miss_budget`` (bounded-time liveness),
    and ``checkpoint_every`` (opt-in round-boundary snapshots enabling
    replay on the survivors instead of an abort, bounded by
    ``retry_budget`` recoveries).  The trace is bit-for-bit identical to
    the serial/partitioned engines; ``distributed_stats`` extends
    ``halo_stats`` with the worker roster, per-link/control traffic
    counters, and recovery counters (``retries``, ``requeued_blocks``).
    """
    from repro.simulation.partitioned import PartitionedSimulator

    handles, own = _resolve_handles(
        workers, timeout, tcp_options,
        authkey=authkey, heartbeat=heartbeat, miss_budget=miss_budget,
        stats_interval=stats_interval,
    )
    sim = PartitionedSimulator(
        balancer,
        partitions=partitions,
        strategy=strategy,
        assignment=assignment,
        stopping=stopping,
        record=record,
        keep_snapshots=keep_snapshots,
        check_conservation=check_conservation,
        cons_tol=cons_tol,
        mode="process",
        backend=backend,
        transport="tcp",
    )
    executor_box: list[_RemoteBlockExecutor] = []

    def factory(psim, L, B, resolved_assignment):
        executor = _RemoteBlockExecutor(
            psim, L, B, resolved_assignment, handles, timeout, tcp_options,
            checkpoint_every=checkpoint_every, retry_budget=retry_budget,
        )
        executor_box.append(executor)
        return executor

    # Live /status provider (--serve-metrics): reads the executor's
    # round counter and recovery counters, and the simulator's halo
    # stats (mutated in place each chunk by the executor stepper).
    def _live_status() -> dict:
        out: dict = {
            "mode": "partitioned-dispatch",
            "balancer": getattr(balancer, "name", "?"),
            "workers": [h.label for h in handles],
        }
        hs = sim.halo_stats
        if isinstance(hs, dict):
            out["rounds"] = hs.get("rounds")
            out["halo_bytes"] = hs.get("halo_bytes")
            links = hs.get("links")
            if isinstance(links, dict):
                out["links"] = dict(links)
        if executor_box:
            executor = executor_box[0]
            out["round"] = executor._round
            out["retries"] = executor.retries
            out["requeued_blocks"] = executor.requeued_blocks
            out["workers_live"] = {
                h.label: h.liveness() for h in executor.handles
            }
        else:
            out["workers_live"] = {h.label: h.liveness() for h in handles}
        return out

    board = get_status_board()
    board.register("job", _live_status)
    try:
        trace = sim.run_with_executor(loads, replicas, factory)
    finally:
        board.unregister("job")
        if own:
            close_workers(handles)
        if executor_box:
            # Recovery may have replaced the original connections; close
            # any replacement handles the executor created itself.
            original = set(map(id, handles))
            close_workers(
                [h for h in executor_box[0].handles if id(h) not in original]
            )
    stats = dict(sim.halo_stats)
    stats["workers"] = [h.label for h in handles]
    if executor_box:
        executor = executor_box[0]
        stats["blocks_by_worker"] = {
            executor.handles[w].label: blocks
            for w, blocks in executor.blocks_of.items()
        }
        stats["control_traffic"] = executor.control_traffic()
        stats["retries"] = executor.retries
        stats["requeued_blocks"] = executor.requeued_blocks
        stats["workers_live"] = {
            h.label: h.liveness() for h in executor.handles
        }
    else:  # pragma: no cover - factory never ran (early stop)
        stats["blocks_by_worker"] = {}
        stats["retries"] = 0
        stats["requeued_blocks"] = 0
        stats["workers_live"] = {h.label: h.liveness() for h in handles}
    stats["auth"] = handles[0].authkey is not None
    stats["heartbeat"] = handles[0].heartbeat
    stats["stats_interval"] = stats_interval
    stats["checkpoint_every"] = checkpoint_every
    return trace, stats


# ----------------------------------------------------------------------
# Sharded dispatch
# ----------------------------------------------------------------------
def dispatch_sharded(
    balancer: Balancer,
    loads: np.ndarray,
    workers: Sequence[str | WorkerHandle],
    *,
    shards: int | None = None,
    seed=0,
    replicas: int | None = None,
    stopping: Sequence[StoppingRule] | None = None,
    record: str = "auto",
    keep_snapshots: bool = False,
    check_conservation: bool = True,
    cons_tol: float = 1e-6,
    backend: str | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    tcp_options: dict | None = None,
    authkey: str | bytes | None = None,
    heartbeat: float | None = None,
    miss_budget: float = DEFAULT_HEARTBEAT_MISS_BUDGET,
    retry_budget: int = DEFAULT_RETRY_BUDGET,
    stats_interval: float | None = None,
) -> tuple[EnsembleTrace, dict]:
    """Run a replica ensemble as shards on remote workers; returns
    ``(trace, distributed_stats)``.

    The batch splits into the *same* contiguous shards (on the same
    per-replica RNG streams) as
    :func:`~repro.simulation.sharding.run_sharded_ensemble` with
    ``workers=shards`` — shard contents are independent of where they
    execute — so the merged trace is bit-for-bit identical to the local
    sharded and single-process ensemble paths.  ``shards`` defaults to
    the worker count; shards are dealt round-robin, so any
    ``shards >= len(workers)`` works (each worker runs its shards
    sequentially and streams each trace back as it finishes).

    Because shard payloads are placement-independent, this dispatch is a
    **job queue**: when a worker dies (transport failure, heartbeat
    loss, or silence past ``timeout``) its unfinished shards are
    re-queued onto the survivors — each shard at most ``retry_budget``
    times — and one bounded reconnect probe (exponential backoff +
    jitter inside :func:`~repro.distributed.transport.tcp_connect`)
    tries to bring the worker back into the pool.  The run fails only
    when work remains and no worker is reachable.
    """
    from repro.simulation.sharding import merge_ensemble_traces, shard_payloads

    handles, own = _resolve_handles(
        workers, timeout, tcp_options,
        authkey=authkey, heartbeat=heartbeat, miss_budget=miss_budget,
        stats_interval=stats_interval,
    )
    key = handles[0].authkey
    hb = handles[0].heartbeat
    budget = handles[0].miss_budget
    if shards is None:
        shards = len(handles)
    if shards < 1:
        if own:
            close_workers(handles)
        raise ValueError(f"shards must be >= 1, got {shards}")
    payloads = shard_payloads(
        balancer,
        loads,
        seed=seed,
        replicas=replicas,
        workers=shards,
        stopping=stopping,
        record=record,
        keep_snapshots=keep_snapshots,
        check_conservation=check_conservation,
        cons_tol=cons_tol,
        backend=backend,
    )
    S = len(payloads)
    W = len(handles)
    traces: dict[int, EnsembleTrace] = {}
    completed_by: dict[int, str] = {}
    pending: deque[int] = deque()
    requeues: dict[int, int] = {}
    #: live workers: handle -> {"inflight": [shard ids], "idle": bool}
    states: dict[WorkerHandle, dict] = {}
    replacements: list[WorkerHandle] = []
    retries = 0
    requeued_shards = 0

    # Live /status provider (--serve-metrics): snapshots the event
    # loop's own state per request.  Dead workers are popped from
    # `states` on detection, so their roster entries age out here.
    def _live_status() -> dict:
        return {
            "mode": "sharded-dispatch",
            "balancer": getattr(balancer, "name", "?"),
            "shards": S,
            "shards_done": len(traces),
            "shards_pending": len(pending),
            "retries": retries,
            "requeued_shards": requeued_shards,
            "workers_live": {h.label: h.liveness() for h in list(states)},
        }

    board = get_status_board()
    board.register("job", _live_status)

    def _assign(handle: WorkerHandle, st: dict, idxs: list[int]) -> None:
        handle.channel.send(
            ("job", {"kind": "shard", "payloads": [(i, payloads[i]) for i in idxs]})
        )
        st["inflight"] = list(idxs)
        st["idle"] = False

    def _on_death(handle: WorkerHandle, st: dict, why) -> None:
        nonlocal retries, requeued_shards
        _logger.warning("worker %s lost: %s", handle.label, why)
        handle.channel.close()
        states.pop(handle, None)
        lost = list(st["inflight"])
        for idx in lost:
            count = requeues.get(idx, 0) + 1
            requeues[idx] = count
            if count > retry_budget:
                raise DispatcherError(
                    f"shard {idx} exceeded its retry budget ({retry_budget}) "
                    f"after worker {handle.label} was lost: {why}"
                )
        if lost:
            requeued_shards += len(lost)
            pending.extend(lost)
        # One bounded reconnect probe: a crashed worker refuses fast, a
        # live worker that dropped the job is accepting again shortly.
        retries += 1
        if lost:
            rec = get_recorder()
            if rec.enabled:
                rec.event("requeue", shards=len(lost), worker=handle.label)
        try:
            replacement = _connect_worker(
                handle.address, timeout=_RECONNECT_TIMEOUT,
                tcp_options={**(tcp_options or {}), **_RECONNECT_OPTIONS},
                authkey=key, heartbeat=hb, miss_budget=budget,
                stats_interval=stats_interval,
            )
        except DispatcherError:
            return
        replacements.append(replacement)
        states[replacement] = {"inflight": [], "idle": True}

    try:
        for w, handle in enumerate(handles):
            st = {"inflight": [], "idle": True}
            states[handle] = st
            idxs = list(range(w, S, W))
            if not idxs:
                continue
            try:
                _assign(handle, st, idxs)
            except TransportError as exc:
                _on_death(handle, st, exc)
        while len(traces) < S:
            if not states:
                raise DispatcherError(
                    f"all workers lost with {S - len(traces)} shard(s) unfinished"
                )
            for handle in list(states):
                st = states.get(handle)
                if st is None:
                    continue
                try:
                    msg = handle.try_recv(_MUX_SLICE, timeout)
                except TransportError as exc:
                    _on_death(handle, st, exc)
                    continue
                if msg is None:
                    if st["inflight"] and time.monotonic() - handle.last_seen > timeout:
                        _on_death(handle, st, f"no reply within {timeout}s")
                    continue
                kind = msg[0] if isinstance(msg, tuple) and msg else None
                if kind == "trace":
                    idx = msg[1]
                    traces[idx] = msg[2]
                    completed_by[idx] = handle.label
                    if idx in st["inflight"]:
                        st["inflight"].remove(idx)
                elif kind == "done":
                    if st["inflight"]:  # pragma: no cover - defensive
                        _on_death(
                            handle, st,
                            f"finished with {len(st['inflight'])} shard(s) missing",
                        )
                        continue
                    st["idle"] = True
                elif kind == "error":
                    # A job-level error is deterministic — the same
                    # payload fails everywhere — so re-queueing it would
                    # loop.  Abort with the worker's diagnostic.
                    raise DispatcherError(f"worker {handle.label} failed: {msg[1]}")
                else:  # pragma: no cover - defensive
                    raise DispatcherError(
                        f"worker {handle.label}: unexpected reply {kind!r}"
                    )
            if pending:
                for handle, st in list(states.items()):
                    if not pending:
                        break
                    if st["idle"]:
                        idxs = list(pending)
                        pending.clear()
                        try:
                            _assign(handle, st, idxs)
                        except TransportError as exc:
                            _on_death(handle, st, exc)
        # Drain outstanding completion markers: a worker's final "done"
        # may still be in flight when its last trace completed the run,
        # and a pre-connected handle must be left clean for the next job.
        for handle, st in list(states.items()):
            while not st["idle"]:
                try:
                    msg = handle.recv(timeout)
                except TransportError:
                    handle.channel.close()
                    states.pop(handle, None)
                    break
                kind = msg[0] if isinstance(msg, tuple) and msg else None
                if kind == "done":
                    st["idle"] = True
                elif kind != "trace":  # pragma: no cover - defensive
                    handle.channel.close()
                    states.pop(handle, None)
                    break
    except BaseException:
        _abort(list(states))
        _abort(handles)
        _abort(replacements)
        raise
    finally:
        board.unregister("job")
        if own:
            close_workers(handles)
        close_workers(replacements)
    merged = merge_ensemble_traces([traces[i] for i in range(S)])
    shards_by_worker: dict[str, list[int]] = {}
    for idx in sorted(completed_by):
        shards_by_worker.setdefault(completed_by[idx], []).append(idx)
    stats = {
        "mode": "sharded-dispatch",
        "transport": "tcp",
        "shards": S,
        "replicas": merged.replicas,
        "workers": [h.label for h in handles],
        "shards_by_worker": shards_by_worker,
        "retries": retries,
        "requeued_shards": requeued_shards,
        "auth": key is not None,
        "heartbeat": hb,
        "stats_interval": stats_interval,
        "control_traffic": {h.label: h.channel.traffic() for h in states},
        "workers_live": {h.label: h.liveness() for h in states},
    }
    return merged, stats
