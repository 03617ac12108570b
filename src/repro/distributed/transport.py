"""Transport seam: per-link message channels behind one framing contract.

Every parallel axis in the runtime reduces to point-to-point message
passing — a partitioned block exchanges halo slabs with each neighbour
block, a replica shard ships its payload out and its trace back, and the
dispatcher drives remote workers over a control link.  This module gives
all of them one :class:`Channel` contract:

``send(obj)`` / ``recv(timeout)``
    One message per call, reliable and ordered, with FIFO semantics per
    direction.  Messages are self-delimiting, so a reader can never
    split or merge frames — the property the deadlock-free pairwise halo
    protocol (lower block id sends first, links walked in ascending peer
    order) relies on.
``send_nowait(obj)`` / ``poll(timeout)`` / ``flush(timeout)``
    The split-phase primitives.  ``send_nowait`` books and enqueues a
    frame, writes as much as the OS accepts *without blocking*, and
    returns — residue sits in a per-channel FIFO backlog.  Every
    ``recv`` on the same endpoint pumps the backlog while it waits, so
    two peers that both posted large sends first still drain each other
    (no head-to-head write deadlock); ``flush`` blocks until the backlog
    is fully written and MUST be called before abandoning the channel to
    a quiet period (e.g. before a worker stops receiving to report
    stats), and ``poll`` answers "is a frame ready?" without consuming
    it.  Queue- and MPI-backed channels never block on send, so for them
    ``send_nowait`` is plain ``send`` and ``flush`` is a no-op.
``recv_into(out, timeout)``
    ``recv`` with a caller-supplied landing zone: when the inbound frame
    carries exactly one out-of-band buffer whose size matches ``out``'s
    memory, the bytes are received straight into ``out`` (the decoded
    array aliases it — zero copies on the receive path).  Otherwise it
    degrades to a plain ``recv``; callers detect which happened with
    ``np.shares_memory``.
``bytes_sent`` / ``bytes_received`` / ``messages_sent`` / ``messages_received``
    Logical frame-byte accounting on every channel, maintained by the
    base class so every backend reports identically — the per-link
    bytes/round counters the bench's distributed section shows next to
    the halo value counters.

Frame format (wire protocol 2)
------------------------------
A frame is encoded once, transport-independently, by
:func:`encode_frame` as pickle protocol-5 with *out-of-band buffers*:

1. a fixed header (``>IQQ``: buffer count, metadata length, chunk size)
   plus a ``>Q`` buffer-length table — :data:`HEAD_FIXED` below;
2. the pickled metadata, with every contiguous buffer of at least
   :data:`INLINE_BUFFER_LIMIT` bytes (numpy slabs, bytearrays) elided
   out-of-band;
3. the raw buffer bytes themselves, untouched.

Because the slab bytes never pass through the pickler, a halo or trace
slab is not copied on the sending side: the stream channels (``mp-pipe``
and ``tcp``) write a 4-byte header length, the header, the metadata and
the buffer views with vectored ``socket.sendmsg`` batches, ``loopback``
passes the buffer views by reference (the receiver aliases the sender's
memory — senders must not mutate a slab after sending it, which the halo
and trace paths honour by always sending freshly materialized arrays),
and ``mpi`` posts each view as a nonblocking point-to-point send.
Receivers rebuild each buffer with ``recv_into``-style reads into a
preallocated ``bytearray``, so arrays reconstruct writable and without a
second assembly copy.

No segment is ever written (or received) in pieces larger than the
module-level :data:`MAX_CHUNK_BYTES` — monkey-patchable, recorded in
each frame's header so both peers always agree on the chunk geometry —
which bounds the largest contiguous write a single frame can demand and
keeps the message-oriented ``mpi`` backend within its per-message limits
for arbitrarily large payloads.  :data:`MAX_FRAME_BYTES` caps what one
frame may declare (metadata plus buffers): a header that claims more is
refused with a :class:`TransportError` before anything it sizes is
allocated, and ``encode_frame`` refuses to build such a frame.  The
rendezvous reads use :meth:`Channel.recv_handshake`, which applies the
far smaller :data:`MAX_HANDSHAKE_BYTES` the same way.

Byte accounting counts the *logical frame*: length prefix + header +
metadata + buffer bytes.  The encoding is transport-independent, so the
counters are bit-for-bit comparable across every backend (asserted by
``TestTransportParity``); transport-private envelopes (MPI's per-message
envelope) are not counted.

Backends
--------
``mp-pipe``
    A :class:`StreamChannel` over an AF_UNIX :func:`socket.socketpair`
    — the socket ``multiprocessing.Pipe()`` uses on Linux.  Spans
    processes on one host; an endpoint pickles as a ``Process`` argument
    under any start method.  This is the default for
    :class:`~repro.simulation.partitioned.PartitionedSimulator`'s
    process mode and the sharded ensemble pool.
``tcp``
    The same :class:`StreamChannel` over a persistent TCP connection,
    with configurable ``TCP_NODELAY`` (default on — halo messages are
    latency-bound) and socket buffer sizes.  Spans hosts; also the wire
    behind ``repro-lb worker`` / ``repro-lb dispatch``.
``loopback``
    An in-memory queue pair.  Same-process (or same-process-different-
    thread) endpoints with zero OS dependencies — the deterministic
    harness for protocol tests, and the intra-worker channel between two
    blocks hosted by the same dispatch worker.
``mpi``
    ``mpi4py`` point-to-point messages (import-gated exactly like the
    numba backend: present only when :func:`have_mpi` is true).  One
    channel wraps a communicator, a peer rank and a tag; see
    :mod:`repro.distributed.mpi` for the rank-per-block partitioned
    runner that drives the same block loop over ``mpiexec``.

All backends serialize with the same frame codec, so byte counters are
comparable across backends and a payload that works on one works on all.

.. warning::
   Frames are **pickle** — both the metadata segment and (unchanged by
   the protocol-2 frame format) anything a peer puts in it execute code
   when deserialized, exactly like :mod:`multiprocessing.connection`
   payloads.  The fixed frame header itself is plain ``struct`` and is
   validated before any allocation, but the metadata that follows is
   still an arbitrary pickle.  The transport itself performs no
   authentication; the rendezvous layer on top of it does, when given an
   authkey — :func:`deliver_challenge`/:func:`answer_challenge` run an
   HMAC-SHA256 challenge–response à la :mod:`multiprocessing.connection`
   before any job payload is accepted, and :func:`sign_link` lets halo
   meshes reject unauthenticated peer links.  The key authenticates but
   does not encrypt: payloads still travel in the clear, so a ``tcp``
   endpoint should only be exposed on trusted networks (loopback, a
   private cluster fabric, an SSH tunnel) even with a key set.
"""

from __future__ import annotations

import abc
import hmac
import importlib.util
import os
import pickle
import queue
import random
import select
import socket
import struct
import threading
import time
from collections import deque
from time import perf_counter
from typing import NamedTuple

from ..observability.recorder import get_recorder

__all__ = [
    "PROTOCOL_VERSION",
    "TRANSPORTS",
    "OPTIONAL_TRANSPORTS",
    "MAX_CHUNK_BYTES",
    "MAX_FRAME_BYTES",
    "MAX_HANDSHAKE_BYTES",
    "INLINE_BUFFER_LIMIT",
    "available_transports",
    "have_mpi",
    "TransportError",
    "TransportTimeout",
    "ChannelClosed",
    "AuthenticationError",
    "resolve_authkey",
    "deliver_challenge",
    "answer_challenge",
    "sign_link",
    "verify_link",
    "Channel",
    "Frame",
    "encode_frame",
    "LoopbackChannel",
    "StreamChannel",
    "TcpListener",
    "MpiChannel",
    "loopback_pair",
    "tcp_pair",
    "mpi_pair",
    "make_pair",
    "tcp_connect",
    "parse_address",
    "format_address",
]

#: Rendezvous protocol version spoken by ``repro-lb worker``/``dispatch``.
#: Bumped on any wire-visible change; mismatched peers refuse the job at
#: handshake time instead of failing mid-run.  Version 2 introduced the
#: out-of-band frame format described in the module docstring; version 3
#: extended the partition block payload with the split-phase overlap and
#: delta-frame flags; version 4 added the hello options dict (heartbeat
#: interval, auth announcement), the HMAC challenge–response, signed
#: peer-link headers, and the ``start_round`` block-payload field that
#: checkpoint replay resumes from; version 5 replaced the positional
#: block-payload tuple with the typed ``BlockJob`` record; version 6 did
#: the same for shard payloads with ``ShardJob``.
PROTOCOL_VERSION = 6

#: Channel backends that are always available (the core ``transport=``
#: choices).  ``mpi`` joins via :func:`available_transports` when
#: ``mpi4py`` is importable.
TRANSPORTS = ("mp-pipe", "tcp", "loopback")

#: Backends that exist only when their optional dependency does.
OPTIONAL_TRANSPORTS = ("mpi",)

#: One pickle protocol for every backend, so byte accounting and payload
#: compatibility do not depend on the transport choice.  Protocol 5 is
#: required: the frame format ships ndarray slabs as out-of-band buffers.
_PICKLE_PROTOCOL = 5

#: Ceiling on one contiguous wire write/read per frame segment.
#: Module-level and monkey-patchable (tests force it tiny to exercise
#: reassembly); the value used by the *sender* is recorded in the frame
#: header, so peers never need to agree on it out of band.
MAX_CHUNK_BYTES = 64 * 1024 * 1024

#: Ceiling on the payload one frame may declare: its metadata segment,
#: each out-of-band buffer and their sum.  A receiver checks the header
#: against it before allocating anything the header sizes, so a desynced
#: or hostile peer cannot make it allocate without bound.
MAX_FRAME_BYTES = 1 << 32

#: Ceiling on a rendezvous frame (hello, challenge–response, ``ready``,
#: peer-link header): these arrive before the peer is authenticated, and
#: none is more than a few hundred bytes.
MAX_HANDSHAKE_BYTES = 64 * 1024

#: Buffers smaller than this stay in-band inside the metadata pickle —
#: below a few KiB the extra wire segment costs more than the copy saves.
INLINE_BUFFER_LIMIT = 4096

#: Fixed frame header: out-of-band buffer count, metadata byte length,
#: sender's chunk size.  Followed by one ``>Q`` length per buffer.
HEAD_FIXED = struct.Struct(">IQQ")
_LEN = struct.Struct(">Q")

#: Stream-channel length prefix for the header blob (a byte stream needs
#: one explicit delimiter; message-oriented backends self-delimit).  Counted
#: in the logical frame bytes on every backend so counters stay equal.
_HEAD_PREFIX = struct.Struct(">I")

#: Sanity cap on the buffer table — rejects desynced/hostile headers
#: before any table-sized allocation happens.
_MAX_BUFFERS = 1 << 16

#: Join the header and metadata into one wire message when their total
#: stays under this (and under the chunk size): control frames then cost
#: a single write instead of two.
_JOIN_LIMIT = 1 << 16

_MAX_HEAD_BYTES = HEAD_FIXED.size + _MAX_BUFFERS * _LEN.size + _JOIN_LIMIT


class TransportError(RuntimeError):
    """Base class for channel failures (framing, I/O, protocol)."""


class TransportTimeout(TransportError):
    """``recv`` exceeded its timeout with no complete frame available."""


class ChannelClosed(TransportError):
    """The peer endpoint is gone (EOF, reset, or explicit close)."""


class AuthenticationError(TransportError):
    """The HMAC challenge–response failed (wrong or missing authkey)."""


#: Challenge nonce size for the rendezvous HMAC handshake.
_AUTH_NONCE_BYTES = 32

#: Frame tags of the challenge sub-protocol (run *inside* the hello
#: handshake, before any job payload is trusted).
_AUTH_CHALLENGE = "auth-challenge"
_AUTH_RESPONSE = "auth-response"
_AUTH_WELCOME = "auth-welcome"


def resolve_authkey(value) -> bytes | None:
    """Normalize an authkey argument (str/bytes/None) to bytes.

    ``None`` falls back to the ``REPRO_AUTHKEY`` environment variable, so
    every worker/dispatcher in a shell session can share one exported
    key; an empty value means "no authentication".
    """
    if value is None:
        value = os.environ.get("REPRO_AUTHKEY") or None
    if value is None:
        return None
    if isinstance(value, str):
        value = value.encode("utf-8")
    if not isinstance(value, (bytes, bytearray)):
        raise TypeError(f"authkey must be str or bytes, got {type(value).__name__}")
    return bytes(value) or None


def _hmac_digest(authkey: bytes, nonce: bytes) -> bytes:
    return hmac.new(authkey, nonce, "sha256").digest()


def deliver_challenge(channel: Channel, authkey: bytes,
                      timeout: float | None = None) -> None:
    """Challenge the peer to prove it holds ``authkey``.

    The verifying half of the :mod:`multiprocessing.connection`-style
    handshake: send a random nonce, require the keyed HMAC-SHA256 of it
    back, answer with a welcome.  On a bad or missing digest the peer is
    told (``("error", ...)``) and :class:`AuthenticationError` is raised
    — the caller drops the connection but survives.
    """
    nonce = os.urandom(_AUTH_NONCE_BYTES)
    channel.send((_AUTH_CHALLENGE, nonce))
    reply = channel.recv_handshake(timeout)
    if not (isinstance(reply, tuple) and len(reply) == 2
            and reply[0] == _AUTH_RESPONSE and isinstance(reply[1], bytes)):
        channel.send(("error", "authentication failed: expected a digest response"))
        raise AuthenticationError(f"peer did not answer the challenge (got {reply!r})")
    if not hmac.compare_digest(_hmac_digest(authkey, nonce), reply[1]):
        channel.send(("error", "authentication failed: digest mismatch (wrong authkey?)"))
        raise AuthenticationError("digest mismatch (wrong authkey?)")
    channel.send((_AUTH_WELCOME,))


def answer_challenge(channel: Channel, authkey: bytes,
                     timeout: float | None = None, challenge=None) -> None:
    """Prove to the peer that we hold ``authkey`` (the answering half).

    ``challenge`` short-circuits the initial receive when the caller
    already consumed the challenge frame (the dispatcher cannot know
    whether a keyed worker's first reply is a challenge or ``ready``
    until it reads it).
    """
    msg = channel.recv_handshake(timeout) if challenge is None else challenge
    if not (isinstance(msg, tuple) and len(msg) == 2 and msg[0] == _AUTH_CHALLENGE):
        detail = msg[1] if isinstance(msg, tuple) and len(msg) > 1 else msg
        raise AuthenticationError(f"expected an auth challenge, got {detail!r}")
    channel.send((_AUTH_RESPONSE, _hmac_digest(authkey, msg[1])))
    reply = channel.recv_handshake(timeout)
    if not (isinstance(reply, tuple) and reply and reply[0] == _AUTH_WELCOME):
        detail = reply[1] if isinstance(reply, tuple) and len(reply) > 1 else reply
        raise AuthenticationError(f"authentication rejected by peer: {detail!r}")


def sign_link(authkey: bytes, nonce: bytes, p: int, q: int) -> bytes:
    """Digest authenticating one halo-link header for one job.

    Peer links cannot run a challenge–response without deadlocking the
    all-connect-then-all-accept mesh phase, so they carry a one-way
    signature instead: the HMAC of the dispatcher-issued per-job nonce
    plus the directed block pair.  An attacker without the key cannot
    forge it; replaying a capture is useless because every job draws a
    fresh nonce.
    """
    return hmac.new(authkey, nonce + b":%d:%d" % (int(p), int(q)), "sha256").digest()


def verify_link(authkey: bytes, nonce: bytes, p: int, q: int, digest) -> bool:
    """Constant-time check of a :func:`sign_link` digest."""
    return isinstance(digest, bytes) and hmac.compare_digest(
        sign_link(authkey, nonce, p, q), digest
    )


def have_mpi() -> bool:
    """True when ``mpi4py`` is importable (checked without initializing MPI)."""
    try:
        return importlib.util.find_spec("mpi4py") is not None
    except (ImportError, ValueError):  # pragma: no cover - broken metadata
        return False


def available_transports() -> tuple[str, ...]:
    """:data:`TRANSPORTS` plus every optional backend whose dependency exists."""
    extra = tuple(t for t in OPTIONAL_TRANSPORTS if t != "mpi" or have_mpi())
    return TRANSPORTS + extra


# ----------------------------------------------------------------------
# frame codec (transport-independent)
# ----------------------------------------------------------------------
class Frame(NamedTuple):
    """One encoded message: header blob, metadata pickle, raw buffers.

    ``chunk`` is the sender-side :data:`MAX_CHUNK_BYTES` captured at
    encode time (and recorded inside ``head``); ``nbytes`` is the
    logical frame size every backend books into ``bytes_sent``.
    """

    head: bytes
    meta: bytes
    buffers: list
    chunk: int
    nbytes: int


def encode_frame(obj) -> Frame:
    """Encode ``obj`` once, transport-independently.

    Contiguous buffers of at least :data:`INLINE_BUFFER_LIMIT` bytes are
    exported out-of-band as zero-copy ``memoryview``s; everything else
    stays inside the metadata pickle.
    """
    buffers: list[memoryview] = []

    def grab(pb: pickle.PickleBuffer) -> bool:
        # pickle semantics: a truthy return keeps the buffer in-band,
        # a falsy one takes it out-of-band.
        try:
            view = pb.raw()
        except BufferError:
            # Non-contiguous exporter: let pickle serialize it in-band.
            return True
        if view.nbytes < INLINE_BUFFER_LIMIT:
            return True
        buffers.append(view)
        return False

    meta = pickle.dumps(obj, protocol=_PICKLE_PROTOCOL, buffer_callback=grab)
    payload = len(meta) + sum(v.nbytes for v in buffers)
    if payload > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame payload of {payload} B exceeds MAX_FRAME_BYTES={MAX_FRAME_BYTES}"
        )
    chunk = max(int(MAX_CHUNK_BYTES), 1)
    head = HEAD_FIXED.pack(len(buffers), len(meta), chunk) + b"".join(
        _LEN.pack(v.nbytes) for v in buffers
    )
    nbytes = _HEAD_PREFIX.size + len(head) + payload
    return Frame(head, meta, buffers, chunk, nbytes)


class _HeadInfo(NamedTuple):
    head_len: int
    meta_len: int
    buf_lens: list[int]
    chunk: int
    meta_prefix: memoryview  # metadata bytes that rode in the head message


def _frame_limit(limit: int | None) -> tuple[int, str]:
    """The payload ceiling a receive applies, and its name for errors."""
    if limit is None:
        return MAX_FRAME_BYTES, "MAX_FRAME_BYTES"
    return limit, "MAX_HANDSHAKE_BYTES"


def _split_head(msg0, limit: int | None = None) -> _HeadInfo:
    """Parse (and validate) a header message; tolerate joined metadata.

    Senders may append the start of the metadata segment to the header
    message (the small-frame fast path); whatever follows the buffer
    table is returned as ``meta_prefix``.  ``limit`` as in ``_recv_frame``.
    """
    view = memoryview(msg0).cast("B") if not isinstance(msg0, memoryview) else msg0
    if view.nbytes < HEAD_FIXED.size:
        raise TransportError(f"undecodable frame header ({view.nbytes} B)")
    nbufs, meta_len, chunk = HEAD_FIXED.unpack_from(view, 0)
    head_len = HEAD_FIXED.size + nbufs * _LEN.size
    if nbufs > _MAX_BUFFERS or chunk < 1 or view.nbytes < head_len:
        raise TransportError(
            f"undecodable frame header (buffers={nbufs}, chunk={chunk})"
        )
    buf_lens = [
        int(_LEN.unpack_from(view, HEAD_FIXED.size + i * _LEN.size)[0])
        for i in range(nbufs)
    ]
    # Every length is unsigned, so bounding the sum bounds each of them.
    declared = meta_len + sum(buf_lens)
    cap, cap_name = _frame_limit(limit)
    if declared > cap:
        raise TransportError(
            f"frame declares {declared} B (metadata {meta_len} B, largest buffer "
            f"{max(buf_lens, default=0)} B), above {cap_name}={cap}"
        )
    meta_prefix = view[head_len:]
    if meta_prefix.nbytes > meta_len:
        raise TransportError(
            f"frame desync: {meta_prefix.nbytes} trailing header bytes for a "
            f"{meta_len} B metadata segment"
        )
    return _HeadInfo(head_len, int(meta_len), buf_lens, int(chunk), meta_prefix)


def _chunks(segment, chunk: int):
    """Yield ``segment`` as flat byte views of at most ``chunk`` bytes."""
    mv = segment if isinstance(segment, memoryview) else memoryview(segment)
    if mv.nbytes <= chunk:
        if mv.nbytes:
            yield mv
        return
    for off in range(0, mv.nbytes, chunk):
        yield mv[off : off + chunk]


def _frame_messages(frame: Frame):
    """Message-oriented wire plan: the first message, then chunked segments.

    Small frames join header + metadata into the first message (one
    write instead of two); the receiver detects the join from the header
    lengths, so the two shapes interoperate.
    """
    if not frame.buffers and len(frame.head) + len(frame.meta) <= min(
        frame.chunk, _JOIN_LIMIT
    ):
        return frame.head + frame.meta, iter(())

    def rest():
        yield from _chunks(frame.meta, frame.chunk)
        for buf in frame.buffers:
            yield from _chunks(buf, frame.chunk)

    return frame.head, rest()


def _frame_total(head_len: int, meta_len: int, buf_lens) -> int:
    return _HEAD_PREFIX.size + head_len + meta_len + sum(buf_lens)


class Channel(abc.ABC):
    """One endpoint of a reliable, ordered, message-oriented link.

    Subclasses implement ``_send_frame``/``_recv_frame`` on encoded
    :class:`Frame` parts; serialization and traffic accounting live here
    so every backend behaves — and counts — identically.
    """

    #: transport name as registered in :data:`TRANSPORTS`
    transport: str = "abstract"

    def __init__(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0

    # -- abstract frame plumbing --------------------------------------
    @abc.abstractmethod
    def _send_frame(self, frame: Frame) -> None: ...

    @abc.abstractmethod
    def _recv_frame(self, timeout: float | None, alloc=None,
                    limit: int | None = None) -> tuple[int, object, list]:
        """Return ``(head_len, meta, buffers)`` for one inbound frame.

        ``alloc(index, nbytes)``, when given, may return a writable flat
        byte ``memoryview`` to receive out-of-band buffer ``index``
        directly into (or ``None`` to fall back to a fresh allocation) —
        the hook behind :meth:`recv_into`.  ``limit`` is
        :meth:`recv_handshake`'s cap (None: :data:`MAX_FRAME_BYTES`).
        """

    def _send_frame_nowait(self, frame: Frame) -> None:
        """Hand ``frame`` to the OS without blocking; backends whose
        writes can block override this to enqueue + pump a backlog."""
        self._send_frame(frame)

    @abc.abstractmethod
    def close(self) -> None: ...

    def detach(self) -> None:
        """Drop this process's reference without force-closing the link.

        After handing an endpoint to a child process, the parent calls
        ``detach()`` on its copy so the link dies — and the survivor
        sees EOF — exactly when the child exits.  Differs from
        :meth:`close` for transports whose close actively shuts the
        connection down for every holder (TCP ``shutdown``).
        """
        self.close()

    # -- public message API -------------------------------------------
    def send(self, obj) -> int:
        """Encode ``obj`` into one frame and send it; returns frame bytes.

        Large contiguous buffers inside ``obj`` (ndarray slabs) leave
        zero-copy; callers must not mutate them until the peer has
        received the frame (the halo/trace paths always send freshly
        materialized slabs, so this never constrains them).
        """
        frame = encode_frame(obj)
        rec = get_recorder()
        if rec.enabled:
            _t0 = perf_counter()
            self._send_frame(frame)
            rec.observe(f"transport.{self.transport}.send_s", perf_counter() - _t0)
            rec.add(f"transport.{self.transport}.bytes_sent", frame.nbytes)
        else:
            self._send_frame(frame)
        self.bytes_sent += frame.nbytes
        self.messages_sent += 1
        return frame.nbytes

    def send_nowait(self, obj) -> int:
        """Like :meth:`send`, but never blocks on a full socket.

        The frame is booked and enqueued; whatever the OS will not take
        immediately stays in this channel's backlog, which every
        subsequent ``recv``/``poll``/``send*`` on this endpoint pumps
        opportunistically.  Call :meth:`flush` before the channel goes
        quiet (no further calls for a while), or the residue never
        drains.  Same zero-copy caveat as :meth:`send` — plus the
        backlog holds *views* of the payload, so the don't-mutate window
        lasts until the backlog empties.
        """
        frame = encode_frame(obj)
        self._send_frame_nowait(frame)
        rec = get_recorder()
        if rec.enabled:
            rec.add(f"transport.{self.transport}.bytes_sent", frame.nbytes)
        self.bytes_sent += frame.nbytes
        self.messages_sent += 1
        return frame.nbytes

    def flush(self, timeout: float | None = None) -> None:
        """Block until every ``send_nowait`` backlog byte is written.

        No-op on backends whose sends never block (loopback queues, MPI
        nonblocking posts).
        """

    def poll(self, timeout: float = 0.0) -> bool:
        """True when an inbound frame (or its first bytes) is ready.

        ``timeout`` seconds of waiting at most; ``0`` is a pure check.
        Pumps any outbound backlog while it waits.
        """
        raise NotImplementedError(f"{type(self).__name__} does not implement poll")

    def recv(self, timeout: float | None = None):
        """Receive one frame and decode it.

        ``timeout`` (seconds) raises :class:`TransportTimeout` when no
        complete frame arrives in time; ``None`` blocks indefinitely.
        A vanished peer raises :class:`ChannelClosed`; an undecodable
        frame (a non-repro client, a desynced stream) raises
        :class:`TransportError` so servers can drop the connection
        instead of crashing on a stray ``UnpicklingError``.
        """
        return self._recv(timeout, None)

    def recv_handshake(self, timeout: float | None = None):
        """:meth:`recv` for rendezvous frames, capped at :data:`MAX_HANDSHAKE_BYTES`."""
        return self._recv(timeout, None, MAX_HANDSHAKE_BYTES)

    def recv_into(self, out, timeout: float | None = None):
        """Receive one frame, landing its payload directly in ``out``.

        When the frame carries exactly one out-of-band buffer whose byte
        count equals ``out``'s (``out`` must expose a writable
        C-contiguous buffer — an ndarray slab slice), the wire bytes are
        received straight into ``out``'s memory and the decoded array
        aliases it.  Any other frame shape decodes normally; callers
        check ``np.shares_memory(decoded, out)`` and copy on the slow
        path.  Loopback passes buffers by reference, so it always takes
        the slow path.
        """
        try:
            view = memoryview(out)
            view = view.cast("B") if view.contiguous and not view.readonly else None
        except (BufferError, TypeError):
            view = None

        def alloc(index: int, nbytes: int):
            if index == 0 and view is not None and nbytes == view.nbytes:
                return view
            return None

        return self._recv(timeout, alloc)

    def _recv(self, timeout: float | None, alloc, limit: int | None = None):
        rec = get_recorder()
        if rec.enabled:
            _t0 = perf_counter()
            head_len, meta, buffers = self._recv_frame(timeout, alloc, limit)
            rec.observe(f"transport.{self.transport}.recv_s", perf_counter() - _t0)
        else:
            head_len, meta, buffers = self._recv_frame(timeout, alloc, limit)
        nbytes = _frame_total(
            head_len,
            memoryview(meta).nbytes,
            (memoryview(b).nbytes for b in buffers),
        )
        if rec.enabled:
            rec.add(f"transport.{self.transport}.bytes_received", nbytes)
        self.bytes_received += nbytes
        self.messages_received += 1
        try:
            return pickle.loads(meta, buffers=buffers)
        except Exception as exc:
            raise TransportError(f"undecodable frame ({nbytes} B): {exc}") from exc

    def traffic(self) -> dict[str, int]:
        """Cumulative logical frame-byte/message counters for this endpoint."""
        return {
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
        }

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# ----------------------------------------------------------------------
# loopback: in-memory queue pair
# ----------------------------------------------------------------------
_CLOSED = object()


class LoopbackChannel(Channel):
    """In-memory endpoint: frames travel through a thread-safe queue.

    Deterministic and OS-free — the unit-test harness for the pairwise
    protocol — and the intra-worker link between two partition blocks
    hosted by the same dispatch worker (block threads block on
    ``Queue.get`` with the GIL released, exactly like a socket read).
    Sends never block (the queue is unbounded), which is what makes the
    single-threaded test usage of the lower-id-sends-first protocol
    well-defined.

    Out-of-band buffers pass **by reference**: the decoded arrays alias
    the sender's memory, which is the whole point of a zero-copy local
    hop.  Counters still book the same logical frame bytes as every
    other backend.
    """

    transport = "loopback"

    def __init__(self, inbox: queue.SimpleQueue, outbox: queue.SimpleQueue):
        super().__init__()
        self._inbox = inbox
        self._outbox = outbox
        self._closed = False

    def _send_frame(self, frame: Frame) -> None:
        if self._closed:
            raise ChannelClosed("loopback channel is closed")
        self._outbox.put((frame.head, frame.meta, frame.buffers))

    # Queue puts never block, so send_nowait is plain send and flush is
    # the base-class no-op.

    def poll(self, timeout: float = 0.0) -> bool:
        if self._closed:
            raise ChannelClosed("loopback channel is closed")
        deadline = time.monotonic() + timeout if timeout > 0 else None
        while True:
            if not self._inbox.empty():
                return True
            if deadline is None or time.monotonic() >= deadline:
                return not self._inbox.empty()
            time.sleep(0.0005)

    def _recv_frame(self, timeout: float | None, alloc=None, limit=None):
        # alloc and limit are ignored: buffers pass by reference, there
        # is nothing to receive "into" (recv_into degrades to a
        # caller-side copy) and nothing a header could make us allocate.
        if self._closed:
            raise ChannelClosed("loopback channel is closed")
        try:
            item = self._inbox.get(timeout=timeout) if timeout is not None else self._inbox.get()
        except queue.Empty:
            raise TransportTimeout(f"no frame within {timeout}s on loopback channel") from None
        if item is _CLOSED:
            # Propagate for any further reader, then report EOF.
            self._inbox.put(_CLOSED)
            raise ChannelClosed("loopback peer closed the channel")
        head, meta, buffers = item
        return len(head), meta, buffers

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(_CLOSED)


def loopback_pair() -> tuple[LoopbackChannel, LoopbackChannel]:
    """Two connected in-memory endpoints."""
    a, b = queue.SimpleQueue(), queue.SimpleQueue()
    return LoopbackChannel(a, b), LoopbackChannel(b, a)


# ----------------------------------------------------------------------
# mp-pipe + tcp: vectored frames over a connected stream socket
# ----------------------------------------------------------------------
#: Default ceiling on one stream send.  Generous — a send only stalls
#: this long when the peer stops draining entirely — but finite, so a
#: SIGSTOPped/wedged peer surfaces as a TransportTimeout instead of
#: hanging the dispatcher or worker forever.
DEFAULT_SEND_TIMEOUT = 600.0

#: iovec batch per ``sendmsg`` call — far below any platform IOV_MAX,
#: and forced-chunking tests can produce thousands of views.
_IOV_BATCH = 64

#: Poll slice while a channel pumps its outbound backlog inside a recv —
#: short enough that a peer blocked mid-frame on us drains promptly.
_PUMP_SLICE_S = 0.05

_INET_FAMILIES = (socket.AF_INET, socket.AF_INET6)


class StreamChannel(Channel):
    """One endpoint of a connected stream socket: ``mp-pipe`` or ``tcp``.

    ``mp-pipe`` runs over an AF_UNIX :func:`socket.socketpair` (what
    ``multiprocessing.Pipe()`` is on Linux), ``tcp`` over a TCP
    connection; :attr:`transport` names which, per instance.  Wire
    format: a 4-byte big-endian header length, the frame header, then
    metadata and raw buffer bytes — all written as one vectored
    ``socket.sendmsg`` batch, so slabs go from array memory to the
    kernel without an intermediate join.  ``nodelay`` (default on)
    disables Nagle on TCP sockets — halo frames are small and
    latency-bound, and the pairwise protocol serializes round trips.
    ``buffer_size`` sets ``SO_SNDBUF``/``SO_RCVBUF`` when given (large
    ``(n_block, B)`` slabs benefit from roomy kernel buffers);
    ``send_timeout`` bounds each send (see :data:`DEFAULT_SEND_TIMEOUT`).

    Picklable as a ``Process`` argument under any start method: the
    socket travels through :mod:`multiprocessing`'s fd-passing
    reduction and the endpoint is rebuilt around it with fresh
    counters (counters are per endpoint, per process).
    """

    def __init__(self, sock: socket.socket, *, transport: str = "tcp",
                 nodelay: bool = True, buffer_size: int | None = None,
                 send_timeout: float | None = DEFAULT_SEND_TIMEOUT):
        super().__init__()
        self.transport = transport
        self._sock = sock
        self._closed = False
        self._nodelay = nodelay
        self._send_timeout = send_timeout
        #: pending outbound wire views (flat bytes, FIFO)
        self._backlog: deque = deque()
        #: serializes enqueue + pump so two sender threads (job + heartbeat)
        #: never interleave frame fragments; never held across a blocking wait
        self._send_lock = threading.RLock()
        if sock.family in _INET_FAMILIES:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1 if nodelay else 0)
        if buffer_size is not None:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, int(buffer_size))
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, int(buffer_size))
        # Permanently nonblocking: every wait goes through select, never
        # the socket-object timeout.  With no shared timeout state, a
        # sender thread (e.g. a worker's heartbeat loop) is safe
        # alongside a receiver blocked on the same socket.
        sock.setblocking(False)

    def __reduce__(self):
        # The socket pickles via multiprocessing's fd-passing reducer;
        # socket options live on the shared socket, not on this object.
        return (_rebuild_stream, (self._sock, self.transport, self._nodelay,
                                  self._send_timeout))

    # -- outbound: backlog + nonblocking vectored pump -----------------
    def _enqueue(self, frame: Frame) -> None:
        self._backlog.append(memoryview(_HEAD_PREFIX.pack(len(frame.head)) + frame.head))
        self._backlog.extend(_chunks(frame.meta, frame.chunk))
        for buf in frame.buffers:
            self._backlog.extend(_chunks(buf, frame.chunk))

    def _pump(self) -> bool:
        """Vectored-write backlog until the socket would block; True = empty.

        The socket is permanently nonblocking, so a full send buffer
        surfaces as ``BlockingIOError`` immediately — a pump can run
        concurrently with a ``recv`` waiting in select on the same
        socket (heartbeat thread vs. job thread).
        """
        with self._send_lock:
            while self._backlog:
                batch = [self._backlog[i] for i in range(min(_IOV_BATCH, len(self._backlog)))]
                try:
                    if hasattr(self._sock, "sendmsg"):
                        sent = self._sock.sendmsg(batch)
                    else:  # pragma: no cover - exotic platform
                        sent = self._sock.send(batch[0])
                except (BlockingIOError, InterruptedError):
                    return False
                except (BrokenPipeError, ConnectionError, OSError) as exc:
                    raise ChannelClosed(f"{self.transport} peer is gone: {exc}") from exc
                while sent > 0:
                    v = self._backlog[0]
                    if sent >= v.nbytes:
                        sent -= v.nbytes
                        self._backlog.popleft()
                    else:
                        self._backlog[0] = v[sent:]
                        sent = 0
            return True

    def _send_frame_nowait(self, frame: Frame) -> None:
        with self._send_lock:
            self._enqueue(frame)
            self._pump()

    def _send_frame(self, frame: Frame) -> None:
        with self._send_lock:
            self._enqueue(frame)
        # Bound the drain by the send timeout — a send only stalls this
        # long when the peer stops draining entirely.
        self.flush(self._send_timeout)

    def flush(self, timeout: float | None = None) -> None:
        if timeout is None:
            timeout = self._send_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._pump():
            budget = None
            if deadline is not None:
                budget = deadline - time.monotonic()
                if budget <= 0:
                    raise TransportTimeout(
                        f"{self.transport} send backlog made no progress within {timeout}s "
                        f"(peer wedged?)"
                    )
            piece = 0.25 if budget is None else min(0.25, budget)
            try:
                select.select([], [self._sock], [], piece)
            except OSError as exc:
                raise ChannelClosed(f"{self.transport} peer is gone: {exc}") from exc

    def poll(self, timeout: float = 0.0) -> bool:
        if self._backlog:
            self._pump()
        try:
            ready, _, _ = select.select([self._sock], [], [], timeout)
        except OSError as exc:
            raise ChannelClosed(f"{self.transport} peer is gone: {exc}") from exc
        return bool(ready)

    # -- inbound -------------------------------------------------------
    def _recv_exact_into(self, mv: memoryview, deadline: float | None) -> None:
        pos = 0
        total = mv.nbytes
        while pos < total:
            budget = None
            if deadline is not None:
                budget = deadline - time.monotonic()
                if budget <= 0:
                    raise TransportTimeout(
                        f"no complete frame before deadline on {self.transport} channel"
                    )
            if self._backlog:
                # Outbound residue pending: read in short slices, pumping
                # between them, so a peer blocked mid-frame on us drains.
                self._pump()
                slice_ = _PUMP_SLICE_S if budget is None else min(_PUMP_SLICE_S, budget)
            else:
                slice_ = budget
            try:
                if slice_ is None:
                    select.select([self._sock], [], [])
                else:
                    ready, _, _ = select.select([self._sock], [], [], slice_)
                    if not ready:
                        if budget is None or slice_ < budget:
                            continue  # partial slice expired, budget has not
                        raise TransportTimeout(f"{self.transport} recv timed out mid-frame")
                got = self._sock.recv_into(mv[pos:])
            except (BlockingIOError, InterruptedError):
                continue  # readable raced away (concurrent drain/EINTR)
            except (ConnectionError, OSError) as exc:
                raise ChannelClosed(f"{self.transport} peer is gone: {exc}") from exc
            if not got:
                raise ChannelClosed(f"{self.transport} peer closed the connection")
            pos += got

    def _recv_frame(self, timeout: float | None, alloc=None, limit=None):
        deadline = None if timeout is None else time.monotonic() + timeout
        prefix = bytearray(_HEAD_PREFIX.size)
        self._recv_exact_into(memoryview(prefix), deadline)
        (head_len,) = _HEAD_PREFIX.unpack(prefix)
        if not HEAD_FIXED.size <= head_len <= min(_MAX_HEAD_BYTES, _frame_limit(limit)[0]):
            raise TransportError(f"undecodable frame header ({head_len} B)")
        msg0 = bytearray(head_len)
        self._recv_exact_into(memoryview(msg0), deadline)
        info = _split_head(memoryview(msg0), limit)
        meta = bytearray(info.meta_len)
        mv = memoryview(meta)
        if info.meta_prefix.nbytes:
            mv[: info.meta_prefix.nbytes] = info.meta_prefix
        self._recv_exact_into(mv[info.meta_prefix.nbytes :], deadline)
        buffers = []
        for i, n in enumerate(info.buf_lens):
            target = alloc(i, n) if alloc is not None else None
            buf = bytearray(n) if target is None else target
            self._recv_exact_into(memoryview(buf) if target is None else target, deadline)
            buffers.append(buf)
        return info.head_len, meta, buffers

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    def detach(self) -> None:
        # Plain fd close: a forked child's inherited copy keeps the
        # connection alive (shutdown() would kill it for the child too).
        if not self._closed:
            self._closed = True
            self._sock.close()

    @property
    def peer_address(self) -> tuple[str, int] | None:
        """``(host, port)`` of a TCP peer; ``None`` on a socketpair."""
        if self._sock.family not in _INET_FAMILIES:
            return None
        try:
            host, port = self._sock.getpeername()[:2]
            return str(host), int(port)
        except OSError:  # pragma: no cover - already closed
            return None


def _rebuild_stream(sock, transport, nodelay, send_timeout) -> StreamChannel:
    return StreamChannel(sock, transport=transport, nodelay=nodelay,
                         send_timeout=send_timeout)


class TcpListener:
    """A listening socket that accepts ``tcp`` :class:`StreamChannel` connections.

    ``port=0`` binds an ephemeral port; :attr:`address` reports the one
    actually bound (what a worker advertises in its rendezvous hello).
    The backlog is generous so a full block mesh can connect before the
    acceptor drains — TCP completes a connect as soon as the kernel
    queues it, which is what keeps the all-connect-then-all-accept mesh
    setup deadlock-free.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *, backlog: int = 128,
                 nodelay: bool = True, buffer_size: int | None = None,
                 send_timeout: float | None = DEFAULT_SEND_TIMEOUT):
        self._opts = {
            "nodelay": nodelay, "buffer_size": buffer_size, "send_timeout": send_timeout,
        }
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((host, port))
        except OSError as exc:
            self._sock.close()
            raise TransportError(f"cannot bind {host}:{port}: {exc}") from exc
        self._sock.listen(backlog)

    @classmethod
    def from_fd(cls, fd: int, *, nodelay: bool = True, buffer_size: int | None = None,
                send_timeout: float | None = DEFAULT_SEND_TIMEOUT) -> "TcpListener":
        """Adopt an inherited TCP socket that is already bound and listening.

        A launcher binds a worker's control port, hands the socket over as
        ``fd`` and closes its own copy; the adopted socket is made
        non-inheritable again, so processes this one starts hold no copy
        either.
        """
        self = cls.__new__(cls)
        self._opts = {
            "nodelay": nodelay, "buffer_size": buffer_size, "send_timeout": send_timeout,
        }
        try:
            self._sock = socket.socket(fileno=fd)
        except OSError as exc:
            raise TransportError(f"cannot adopt socket fd {fd}: {exc}") from exc
        if (self._sock.family not in (socket.AF_INET, socket.AF_INET6)
                or self._sock.type != socket.SOCK_STREAM
                or not self._sock.getsockopt(socket.SOL_SOCKET, socket.SO_ACCEPTCONN)):
            self._sock.close()
            raise TransportError(f"fd {fd} is not a listening TCP socket")
        self._sock.set_inheritable(False)
        return self

    def fileno(self) -> int:
        return self._sock.fileno()

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._sock.getsockname()[:2]
        return str(host), int(port)

    def accept(self, timeout: float | None = None) -> StreamChannel:
        self._sock.settimeout(timeout)
        try:
            conn, _ = self._sock.accept()
        except socket.timeout:
            raise TransportTimeout(f"no inbound connection within {timeout}s") from None
        except OSError as exc:
            raise TransportError(f"accept failed: {exc}") from exc
        return StreamChannel(conn, **self._opts)

    def close(self) -> None:
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


#: Cap on one backoff sleep inside :func:`tcp_connect` — the schedule is
#: exponential with jitter but never waits longer than this per attempt.
_CONNECT_MAX_DELAY = 2.0


def tcp_connect(address: tuple[str, int], *, timeout: float | None = 30.0,
                retries: int = 40, retry_delay: float = 0.25,
                deadline: float | None = None,
                nodelay: bool = True, buffer_size: int | None = None,
                send_timeout: float | None = DEFAULT_SEND_TIMEOUT) -> StreamChannel:
    """Connect to a listening peer, retrying while it comes up.

    Workers and dispatchers start asynchronously (two terminals, two CI
    background jobs), so a refused connect is retried up to ``retries``
    times with exponential backoff — ``retry_delay`` doubling per attempt
    up to a couple of seconds, each sleep jittered ±25% so a fleet of
    reconnecting dispatchers does not stampede the listener in lockstep.
    ``deadline`` (seconds, wall-clock for the *whole* call) bounds the
    retry loop regardless of the attempt budget.  Giving up raises
    :class:`TransportError` naming the attempt count and elapsed time.
    """
    host, port = address
    last: Exception | None = None
    start = time.monotonic()
    give_up_at = None if deadline is None else start + deadline
    attempts = 0
    for attempt in range(max(int(retries), 0) + 1):
        attempts += 1
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect((host, int(port)))
            sock.settimeout(None)
            return StreamChannel(sock, nodelay=nodelay, buffer_size=buffer_size,
                                 send_timeout=send_timeout)
        except (ConnectionError, socket.timeout, OSError) as exc:
            sock.close()
            last = exc
            if attempt < retries and isinstance(exc, (ConnectionRefusedError, ConnectionResetError)):
                delay = min(retry_delay * (2.0 ** attempt), _CONNECT_MAX_DELAY)
                delay *= 1.0 + random.uniform(-0.25, 0.25)
                if give_up_at is not None:
                    budget = give_up_at - time.monotonic()
                    if budget <= 0:
                        break
                    delay = min(delay, budget)
                time.sleep(max(delay, 0.0))
                continue
            break
    elapsed = time.monotonic() - start
    raise TransportError(
        f"cannot connect to {host}:{port} after {attempts} attempt(s) "
        f"in {elapsed:.1f}s: {last}"
    )


def tcp_pair(**options) -> tuple[StreamChannel, StreamChannel]:
    """Two connected TCP endpoints over localhost (for same-host meshes)."""
    with TcpListener("127.0.0.1", 0, **options) as listener:
        client = tcp_connect(listener.address, retries=0, **options)
        server = listener.accept(timeout=10.0)
    return client, server


# ----------------------------------------------------------------------
# mpi: mpi4py point-to-point (import-gated, like the numba backend)
# ----------------------------------------------------------------------
#: Poll interval while waiting on a timed MPI probe.
_MPI_POLL_S = 0.0005


def _require_mpi():
    try:
        from mpi4py import MPI  # noqa: PLC0415
    except ImportError as exc:  # pragma: no cover - exercised without mpi4py
        raise TransportError(
            "mpi transport requires mpi4py (install it, or pick one of "
            f"{TRANSPORTS})"
        ) from exc
    return MPI


class _CommOwner:
    """Refcounted ownership of a duped communicator shared by a pair."""

    def __init__(self, comm, refs: int = 2):
        self._comm = comm
        self._refs = refs

    def release(self) -> None:
        self._refs -= 1
        if self._refs == 0:
            try:
                self._comm.Free()
            except Exception:  # pragma: no cover - finalized MPI
                pass


class MpiChannel(Channel):
    """One endpoint of an ``mpi4py`` point-to-point link.

    Frame parts are posted with nonblocking ``Isend`` (completed
    requests are reaped opportunistically, so self-pairs and the
    lower-id-sends-first halo protocol never deadlock on rendezvous)
    and received with a probe/``Recv``-into sequence that lands each
    chunk directly in its slice of the preallocated segment.  An
    explicit zero-length message signals close, standing in for the EOF
    a socket peer would see.  One endpoint belongs to one thread —
    probe-then-recv is not atomic across threads sharing a (comm, peer,
    tag) triple, matching how every other backend is used.
    """

    transport = "mpi"

    def __init__(self, comm, peer: int, *, send_tag: int = 10, recv_tag: int | None = None,
                 comm_owner: _CommOwner | None = None):
        super().__init__()
        self._MPI = _require_mpi()
        self._comm = comm
        self._peer = int(peer)
        self._send_tag = int(send_tag)
        self._recv_tag = self._send_tag if recv_tag is None else int(recv_tag)
        self._pending: list = []  # (request, buffer) keep-alives
        self._owner = comm_owner
        self._closed = False
        self._peer_closed = False

    def _reap(self) -> None:
        self._pending = [(req, buf) for req, buf in self._pending if not req.Test()]

    def _post(self, part) -> None:
        req = self._comm.Isend([part, self._MPI.BYTE], dest=self._peer, tag=self._send_tag)
        self._pending.append((req, part))

    def _send_frame(self, frame: Frame) -> None:
        if self._closed:
            raise ChannelClosed("mpi channel is closed")
        first, rest = _frame_messages(frame)
        try:
            self._reap()
            self._post(first)
            for part in rest:
                self._post(part)
        except ChannelClosed:
            raise
        except Exception as exc:
            raise ChannelClosed(f"mpi send failed: {exc}") from exc

    def flush(self, timeout: float | None = None) -> None:
        # Isend already hands bytes to MPI's progress engine; a flush is
        # just an opportunistic reap of completed requests.
        self._reap()

    def poll(self, timeout: float = 0.0) -> bool:
        if self._closed:
            raise ChannelClosed("mpi channel is closed")
        self._reap()
        deadline = time.monotonic() + timeout
        while True:
            if self._comm.Iprobe(source=self._peer, tag=self._recv_tag):
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(_MPI_POLL_S)

    def _next_message_size(self, deadline: float | None) -> int:
        """Probe for the next inbound message; returns its byte count."""
        MPI = self._MPI
        status = MPI.Status()
        if deadline is None:
            self._comm.Probe(source=self._peer, tag=self._recv_tag, status=status)
        else:
            while not self._comm.Iprobe(source=self._peer, tag=self._recv_tag, status=status):
                if time.monotonic() >= deadline:
                    raise TransportTimeout(
                        f"no complete frame before deadline on mpi channel "
                        f"(peer rank {self._peer}, tag {self._recv_tag})"
                    )
                time.sleep(_MPI_POLL_S)
        return status.Get_count(MPI.BYTE)

    def _recv_into(self, mv, deadline: float | None) -> None:
        """Receive exactly one message into ``mv`` (sizes must match)."""
        size = self._next_message_size(deadline)
        if size == 0:
            self._peer_closed = True
            # Drain the close marker so repeated recv calls keep reporting EOF.
            self._comm.Recv([bytearray(0), self._MPI.BYTE],
                            source=self._peer, tag=self._recv_tag)
            raise ChannelClosed("mpi peer closed the channel")
        if size != mv.nbytes:
            raise TransportError(
                f"mpi frame desync: expected a {mv.nbytes} B chunk, got {size} B"
            )
        self._comm.Recv([mv, self._MPI.BYTE], source=self._peer, tag=self._recv_tag)

    def _recv_frame(self, timeout: float | None, alloc=None, limit=None):
        if self._closed:
            raise ChannelClosed("mpi channel is closed")
        if self._peer_closed:
            raise ChannelClosed("mpi peer closed the channel")
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            size = self._next_message_size(deadline)
            if size == 0:
                self._peer_closed = True
                self._comm.Recv([bytearray(0), self._MPI.BYTE],
                                source=self._peer, tag=self._recv_tag)
                raise ChannelClosed("mpi peer closed the channel")
            msg0 = bytearray(size)
            self._comm.Recv([msg0, self._MPI.BYTE], source=self._peer, tag=self._recv_tag)
        except TransportError:
            raise
        except Exception as exc:
            raise ChannelClosed(f"mpi recv failed: {exc}") from exc
        info = _split_head(memoryview(msg0), limit)
        meta = self._recv_segment(info.meta_len, info.chunk, deadline, info.meta_prefix)
        empty = memoryview(b"")
        buffers = [
            self._recv_segment(
                n, info.chunk, deadline, empty,
                target=alloc(i, n) if alloc is not None else None,
            )
            for i, n in enumerate(info.buf_lens)
        ]
        return info.head_len, meta, buffers

    def _recv_segment(self, nbytes: int, chunk: int, deadline: float | None,
                      prefix, target: memoryview | None = None):
        out = bytearray(nbytes) if target is None else target
        mv = memoryview(out) if target is None else target
        pos = prefix.nbytes
        if pos:
            mv[:pos] = prefix
        while pos < nbytes:
            want = min(chunk, nbytes - pos)
            try:
                self._recv_into(mv[pos : pos + want], deadline)
            except TransportError:
                raise
            except Exception as exc:
                raise ChannelClosed(f"mpi recv failed: {exc}") from exc
            pos += want
        return out

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            # Zero-length message = EOF marker for the peer's reader.
            self._post(b"")
        except Exception:  # pragma: no cover - peer/world already gone
            pass
        self._reap()
        if self._owner is not None:
            self._owner.release()


def mpi_pair(comm=None) -> tuple[MpiChannel, MpiChannel]:
    """Two connected MPI endpoints inside one process (testing/benching).

    Dups ``comm`` (default ``COMM_SELF``) so concurrent pairs never
    share a tag space, and mirrors the tag pair so each endpoint reads
    only the other's messages.  Cross-rank channels are built directly
    via :class:`MpiChannel` (see :mod:`repro.distributed.mpi`).
    """
    MPI = _require_mpi()
    dup = (comm if comm is not None else MPI.COMM_SELF).Dup()
    owner = _CommOwner(dup)
    rank = dup.Get_rank()
    a = MpiChannel(dup, rank, send_tag=11, recv_tag=12, comm_owner=owner)
    b = MpiChannel(dup, rank, send_tag=12, recv_tag=11, comm_owner=owner)
    return a, b


# ----------------------------------------------------------------------
# registry + addresses
# ----------------------------------------------------------------------
def make_pair(transport: str = "mp-pipe", **options) -> tuple[Channel, Channel]:
    """Two connected endpoints of the named transport.

    ``mp-pipe`` (an AF_UNIX socketpair) and ``loopback`` take no
    options; ``tcp`` accepts the socket options of
    :class:`StreamChannel`; ``mpi`` (available when ``mpi4py`` is importable)
    accepts ``comm``.  This is the seam the local runtimes build their
    worker links through — swapping the string swaps the wire.
    """
    if transport == "mp-pipe":
        if options:
            raise ValueError(f"mp-pipe transport takes no options, got {sorted(options)}")
        left, right = socket.socketpair()
        return (StreamChannel(left, transport="mp-pipe"),
                StreamChannel(right, transport="mp-pipe"))
    if transport == "tcp":
        return tcp_pair(**options)
    if transport == "loopback":
        if options:
            raise ValueError(f"loopback transport takes no options, got {sorted(options)}")
        return loopback_pair()
    if transport == "mpi":
        unknown = sorted(set(options) - {"comm"})
        if unknown:
            raise ValueError(f"mpi transport takes only 'comm', got {unknown}")
        return mpi_pair(**options)
    raise ValueError(
        f"unknown transport {transport!r}; choose from {TRANSPORTS + OPTIONAL_TRANSPORTS}"
    )


def parse_address(spec: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (host defaults to localhost).

    Accepts ``":7001"`` / ``"7001"`` shorthand for a local port.
    """
    text = str(spec).strip()
    host, sep, port = text.rpartition(":")
    if not sep:
        host, port = "", text
    host = host or "127.0.0.1"
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(f"address must be 'host:port', got {spec!r}") from None
    if not 0 <= port_num <= 65535:
        raise ValueError(f"port must be in [0, 65535], got {port_num} (from {spec!r})")
    return host, port_num


def format_address(address: tuple[str, int]) -> str:
    return f"{address[0]}:{address[1]}"
