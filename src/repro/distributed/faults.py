"""Deterministic fault injection for transport channels.

The chaos half of the fault-tolerance story: :class:`FaultyChannel`
wraps any :class:`~repro.distributed.transport.Channel` and misbehaves
on a :class:`FaultSchedule` — a seeded, reproducible plan consumed one
action per sent message.  Because the wrapper sits on the transport
seam, the same schedule drives every backend (loopback, mp-pipe, tcp,
mpi), and because the plan is a pure function of ``(seed, message
index)``, a failing chaos run replays exactly.

Supported faults (all one-shot, triggered by message ordinal):

``delay``
    Sleep a seeded pseudo-random duration before delivering — reorders
    nothing (channels are FIFO) but perturbs timing windows.
``drop`` (drop-then-close)
    Silently discard one frame, then close the channel.  The peer sees
    EOF (:class:`ChannelClosed`), never a gap — matching what a crashed
    sender looks like on a real socket.
``truncate``
    Ship a frame whose header promises more metadata than follows, then
    close.  Stream transports surface this as :class:`ChannelClosed`
    mid-frame; message transports as a :class:`TransportError` desync or
    undecodable frame — either way a clean error, never a hang.
``kill``
    Stop delivering entirely after *k* messages: the channel closes and
    the failing send raises, like a process SIGKILLed between frames.

The wrapper delegates traffic counters to the inner channel, so parity
assertions on byte accounting still hold for the delay-only schedules.
"""

from __future__ import annotations

import random
import time

from repro.distributed.transport import (
    Channel,
    ChannelClosed,
    Frame,
    encode_frame,
    make_pair,
)

__all__ = [
    "FaultSchedule",
    "FaultyChannel",
    "faulty_pair",
]


class FaultSchedule:
    """A seeded per-message fault plan, consumed in send order.

    ``drop_after``/``truncate_after``/``kill_after`` name the 0-based
    ordinal of the first affected send (``kill_after=k`` delivers
    exactly ``k`` messages).  ``delay_prob`` injects a seeded sleep of
    up to ``max_delay`` seconds per message.  At most one of the three
    terminal faults fires (checked in drop → truncate → kill order);
    the schedule is deterministic given the seed and the call sequence.
    """

    def __init__(self, seed: int = 0, *, delay_prob: float = 0.0,
                 max_delay: float = 0.002, drop_after: int | None = None,
                 truncate_after: int | None = None,
                 kill_after: int | None = None):
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self.delay_prob = float(delay_prob)
        self.max_delay = float(max_delay)
        self.drop_after = drop_after
        self.truncate_after = truncate_after
        self.kill_after = kill_after
        #: messages whose fate this schedule has already decided
        self.sent = 0

    def next_send(self) -> tuple[str, float]:
        """Fate of the next sent message: ``(action, delay_seconds)``."""
        k = self.sent
        self.sent += 1
        if self.drop_after is not None and k >= self.drop_after:
            return "drop", 0.0
        if self.truncate_after is not None and k >= self.truncate_after:
            return "truncate", 0.0
        if self.kill_after is not None and k >= self.kill_after:
            return "kill", 0.0
        if self.delay_prob > 0.0 and self._rng.random() < self.delay_prob:
            return "delay", self._rng.uniform(0.0, self.max_delay)
        return "ok", 0.0

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"FaultSchedule(seed={self.seed}, delay_prob={self.delay_prob}, "
            f"drop_after={self.drop_after}, truncate_after={self.truncate_after}, "
            f"kill_after={self.kill_after})"
        )


class FaultyChannel(Channel):
    """A delegating channel wrapper that injects scheduled faults on send.

    Receives pass straight through (a faulty *peer* is modelled by
    wrapping the peer's endpoint).  Traffic counters are the inner
    channel's, so byte accounting stays comparable with clean runs.
    """

    transport = "faulty"

    def __init__(self, inner: Channel, schedule: FaultSchedule):
        # No super().__init__(): counters delegate to the inner channel.
        self.inner = inner
        self.schedule = schedule
        self._dead = False

    # -- counter delegation -------------------------------------------
    @property
    def bytes_sent(self) -> int:
        return self.inner.bytes_sent

    @property
    def bytes_received(self) -> int:
        return self.inner.bytes_received

    @property
    def messages_sent(self) -> int:
        return self.inner.messages_sent

    @property
    def messages_received(self) -> int:
        return self.inner.messages_received

    def traffic(self) -> dict[str, int]:
        return self.inner.traffic()

    # -- fault machinery ----------------------------------------------
    def _check(self) -> None:
        if self._dead:
            raise ChannelClosed("fault injected: channel was killed")

    def _die(self) -> None:
        self._dead = True
        self.inner.close()

    def _truncated(self, obj) -> Frame:
        """A frame whose header promises more metadata than is shipped."""
        frame = encode_frame(obj)
        cut = max(1, len(frame.meta) // 2)
        return Frame(frame.head, frame.meta[:cut], [], frame.chunk, frame.nbytes)

    def _faulted_send(self, obj, sender) -> int:
        self._check()
        action, delay = self.schedule.next_send()
        if action == "kill":
            self._die()
            raise ChannelClosed("fault injected: channel was killed")
        if action == "drop":
            # Silent discard, then EOF for the peer — the message counts
            # as "sent" from the caller's perspective (a real crash loses
            # in-flight frames the same way).
            nbytes = encode_frame(obj).nbytes
            self._die()
            return nbytes
        if action == "truncate":
            frame = self._truncated(obj)
            try:
                self.inner._send_frame(frame)
            finally:
                self._die()
            return frame.nbytes
        if action == "delay":
            time.sleep(delay)
        return sender(obj)

    # -- Channel interface --------------------------------------------
    def send(self, obj) -> int:
        return self._faulted_send(obj, self.inner.send)

    def send_nowait(self, obj) -> int:
        return self._faulted_send(obj, self.inner.send_nowait)

    def flush(self, timeout: float | None = None) -> None:
        self._check()
        self.inner.flush(timeout)

    def poll(self, timeout: float = 0.0) -> bool:
        self._check()
        return self.inner.poll(timeout)

    def recv(self, timeout: float | None = None):
        self._check()
        return self.inner.recv(timeout)

    def recv_handshake(self, timeout: float | None = None):
        self._check()
        return self.inner.recv_handshake(timeout)

    def recv_into(self, out, timeout: float | None = None):
        self._check()
        return self.inner.recv_into(out, timeout)

    def _send_frame(self, frame: Frame) -> None:  # pragma: no cover - unused
        self.inner._send_frame(frame)

    def _recv_frame(self, timeout: float | None, alloc=None,
                    limit=None):  # pragma: no cover - unused
        return self.inner._recv_frame(timeout, alloc, limit)

    def close(self) -> None:
        self._dead = True
        self.inner.close()

    def detach(self) -> None:
        self._dead = True
        self.inner.detach()


def faulty_pair(transport: str = "loopback", *,
                schedule_a: FaultSchedule | None = None,
                schedule_b: FaultSchedule | None = None,
                **options) -> tuple[Channel, Channel]:
    """A connected pair with fault schedules wrapped around either end.

    ``None`` leaves that endpoint clean (unwrapped), so a test can make
    exactly one side misbehave while the other runs production code.
    """
    a, b = make_pair(transport, **options)
    if schedule_a is not None:
        a = FaultyChannel(a, schedule_a)
    if schedule_b is not None:
        b = FaultyChannel(b, schedule_b)
    return a, b
