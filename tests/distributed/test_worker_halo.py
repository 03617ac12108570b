"""Degenerate halo payloads through the block worker's round driver.

Real partitions of undirected graphs never produce an empty ``send_idx``
(a cut edge puts boundary nodes on both sides), so the zero-row frame
path is exercised here with stub locals: one direction of a link ships a
``(0, B)`` slab while the other ships real rows.  Each block runs one
:meth:`_SlabRunner.round` on its own thread, with dense frames and with
delta frames (three rounds, so the last one is encoded against the
round-0 snapshot and ships a delta wherever that frame is smaller).
The round must stay deadlock-free, deliver exact values, and account
bytes identically over loopback, mp-pipe and TCP.
"""

import threading

import numpy as np
import pytest

from repro.distributed.transport import make_pair
from repro.distributed.worker import _SlabRunner
from repro.graphs.partition import HaloLink
from repro.observability.recorder import Recorder

TRANSPORTS = ["loopback", "mp-pipe", "tcp"]
#: halo frame encoding -> (``_SlabRunner(delta=)``, rounds to run)
FRAMES = {"dense": (False, 1), "delta": (True, 3)}


class _StubLocal:
    """The parts of a ``BlockLocal`` the round driver reads.

    A block with ghosts has only boundary rows (its one compute step
    runs after the halo lands); a block without ghosts has only interior
    rows.
    """

    def __init__(self, p, links, n_owned, n_ghost):
        self.p = p
        self.links = links
        self.n_owned = n_owned
        self.n_ghost = n_ghost
        self.n_ext = n_owned + n_ghost
        self.recv_slices = {
            link.peer: (int(link.recv_idx[0]), int(link.recv_idx[-1]) + 1)
            if link.recv_idx.size else (0, 0)
            for link in links
        }
        rows = np.arange(n_owned, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        self.interior, self.boundary = (empty, rows) if n_ghost else (rows, empty)


class _CopyStep:
    """Identity round that keeps a copy of the extended slab it read.

    With ``scribble`` (an Event) it then overwrites its own owned rows
    and sets the event: a sender that reuses its slab memory while the
    peer has not yet read the halo frame.
    """

    def __init__(self, scribble=None):
        self.seen = None
        self.scribble = scribble

    def block_step(self, local, ext, out, rows=None):
        self.seen = ext.copy()
        out[...] = ext[: local.n_owned]
        if self.scribble is not None:
            ext[: local.n_owned] = -1.0
            self.scribble.set()
        return out


class _HeldReceiver:
    """A channel whose receives wait until ``gate`` is set."""

    def __init__(self, channel, gate):
        self._channel = channel
        self._gate = gate

    def __getattr__(self, name):
        return getattr(self._channel, name)

    def recv_into(self, out, timeout=None):
        assert self._gate.wait(timeout), "peer never overwrote its slab"
        return self._channel.recv_into(out, timeout)


def _asymmetric_pair(send_rows=(1, 3)):
    """Block 0 sends zero rows to block 1; block 1 sends two rows back."""
    local0 = _StubLocal(
        0,
        [HaloLink(peer=1, send_idx=np.empty(0, dtype=np.int64),
                  recv_idx=np.arange(2, dtype=np.int64))],
        n_owned=3, n_ghost=2,
    )
    local1 = _StubLocal(
        1,
        [HaloLink(peer=0, send_idx=np.array(send_rows, dtype=np.int64),
                  recv_idx=np.empty(0, dtype=np.int64))],
        n_owned=4, n_ghost=0,
    )
    return local0, local1


def _run_round(chans, owned, steps, timeout=10.0, send_rows=(1, 3),
               recorders=None, delta=False, rounds=1):
    """``rounds`` rounds of both blocks, each on its own thread; returns
    the runners."""
    locals_ = _asymmetric_pair(send_rows)
    runners = []
    errors = []
    for p in (0, 1):
        extra = {} if recorders is None else {"recorder": recorders[p]}
        runner = _SlabRunner({1 - p: chans[p]}, delta=delta, timeout=timeout,
                             **extra)
        runner.bind(locals_[p], owned[p])
        runners.append(runner)

    def side(p):
        try:
            for r in range(rounds):
                runners[p].round(locals_[p], steps[p], None, r)
            runners[p].flush()
        except Exception as exc:  # surfaced below, not swallowed by the thread
            errors.append(exc)

    threads = [threading.Thread(target=side, args=(p,)) for p in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
    assert not any(t.is_alive() for t in threads), "round wedged"
    assert not errors, errors
    return runners


@pytest.mark.parametrize("frames", FRAMES)
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_empty_send_idx_exchanges_cleanly(transport, frames):
    delta, rounds = FRAMES[frames]
    ch0, ch1 = make_pair(transport)
    owned0 = np.arange(6, dtype=np.float64).reshape(3, 2)
    owned1 = np.arange(100, 108, dtype=np.float64).reshape(4, 2)
    steps = (_CopyStep(), _CopyStep())
    runners = _run_round((ch0, ch1), (owned0, owned1), steps, delta=delta,
                         rounds=rounds)
    assert runners[0].halo_values == 0
    assert runners[1].halo_values == 4 * rounds  # 2 rows x batch width 2
    assert np.array_equal(steps[0].seen[:3], owned0)
    assert np.array_equal(steps[0].seen[3:], owned1[[1, 3]])
    assert np.array_equal(steps[1].seen, owned1)  # no ghosts on block 1
    ch0.close(), ch1.close()


def test_byte_totals_identical_across_transports_for_zero_row_frames():
    """The frames are encoded transport-independently, so every transport
    must book the same logical bytes on both directions, dense or delta."""
    for frames, (delta, rounds) in FRAMES.items():
        totals = {}
        for transport in TRANSPORTS:
            ch0, ch1 = make_pair(transport)
            _run_round((ch0, ch1), (np.zeros((3, 2)), np.ones((4, 2))),
                       (_CopyStep(), _CopyStep()), delta=delta, rounds=rounds)
            totals[transport] = (ch0.bytes_sent, ch1.bytes_sent)
            ch0.close(), ch1.close()
        assert len(set(totals.values())) == 1, (frames, totals)


@pytest.mark.parametrize("frames", FRAMES)
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_round_sends_fresh_row_copies(transport, frames):
    """The send rows are a snapshot: block 1 overwrites its owned rows
    before block 0 reads the halo frame, and block 0 still receives the
    pre-overwrite values — even over loopback, which delivers buffers by
    reference.  The rows are contiguous and wide enough (8 KiB each) to
    leave the pickle stream out-of-band, so a sent view of the slab
    would alias it.  The delta encoder keeps the same rows as its
    snapshot, so the frame must not alias the slab there either."""
    ch0, ch1 = make_pair(transport)
    scribbled = threading.Event()
    width = 1024
    owned0 = np.zeros((3, width))
    owned1 = np.arange(4 * width, dtype=np.float64).reshape(4, width)
    expected = owned1[[1, 2]].copy()
    steps = (_CopyStep(), _CopyStep(scribble=scribbled))
    _run_round((_HeldReceiver(ch0, scribbled), ch1), (owned0, owned1), steps,
               send_rows=(1, 2), delta=FRAMES[frames][0])
    assert np.array_equal(steps[0].seen[3:], expected)
    ch0.close(), ch1.close()


#: per-block span sequence of one round: (name, attributes) in order
EXPECTED_SPANS = (
    [("halo_send", "0->1"), ("interior", 0), ("halo_wait", "1->0"),
     ("boundary", 3)],
    [("halo_send", "1->0"), ("interior", 4), ("halo_wait", "0->1"),
     ("boundary", 0)],
)


@pytest.mark.parametrize("frames", FRAMES)
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_traced_round_records_phase_spans_and_matches_untraced(transport, frames):
    """One round body serves both: with an enabled recorder it emits one
    span per halo send/wait (carrying that link's frame-byte delta) and
    per compute step, and the slab it computes from is the untraced one.
    No delta-encoded frame is ever larger than the first (dense) frame
    of its link."""
    delta, rounds = FRAMES[frames]
    owned = (np.arange(6, dtype=np.float64).reshape(3, 2),
             np.arange(100, 108, dtype=np.float64).reshape(4, 2))
    plain = (_CopyStep(), _CopyStep())
    ch0, ch1 = make_pair(transport)
    _run_round((ch0, ch1), owned, plain, delta=delta, rounds=rounds)
    ch0.close(), ch1.close()

    recs = [Recorder(enabled=True, role=f"block:{p}") for p in (0, 1)]
    traced = (_CopyStep(), _CopyStep())
    chans = make_pair(transport)
    _run_round(chans, owned, traced, recorders=recs, delta=delta, rounds=rounds)
    sent = {}
    for p in (0, 1):
        assert np.array_equal(traced[p].seen, plain[p].seen)
        spans = [ev for ev in recs[p].drain_events() if ev["ev"] == "span"]
        got = [(ev["name"], ev.get("link", ev.get("rows"))) for ev in spans]
        assert got == EXPECTED_SPANS[p] * rounds
        per_round = len(EXPECTED_SPANS[p])
        assert all(ev["round"] == i // per_round and ev["dur"] >= 0
                   for i, ev in enumerate(spans))
        sent[p] = [ev["bytes"] for ev in spans if ev["name"] == "halo_send"]
        assert sum(sent[p]) == chans[p].bytes_sent
        assert sum(ev["bytes"] for ev in spans
                   if ev["name"] == "halo_wait") == chans[p].bytes_received
        assert all(b <= sent[p][0] for b in sent[p])
    for ch in chans:
        ch.close()


@pytest.mark.parametrize("width", [2, 64])
def test_delta_frame_never_larger_than_dense(width):
    """Block 1's rows never change, so from round 2 on its encoder may
    ship an empty delta against the round-0 snapshot.  It does so only
    when that whole frame is smaller than the dense one: for two 2-column
    rows (32 bytes) the delta's second array header outweighs the saving
    and the dense frame goes out; for 64-column rows the delta wins."""
    owned = (np.zeros((3, width)),
             np.arange(100, 100 + 4 * width, dtype=np.float64).reshape(4, width))
    sent = {}
    for delta in (False, True):
        recs = [Recorder(enabled=True, role=f"block:{p}") for p in (0, 1)]
        steps = (_CopyStep(), _CopyStep())
        chans = make_pair("loopback")
        _run_round(chans, owned, steps, recorders=recs, delta=delta, rounds=3)
        sent[delta] = [ev["bytes"] for ev in recs[1].drain_events()
                       if ev["ev"] == "span" and ev["name"] == "halo_send"]
        assert np.array_equal(steps[0].seen[3:], owned[1][[1, 3]])
        for ch in chans:
            ch.close()
    dense = sent[False]
    assert len(set(dense)) == 1
    assert all(b <= d for b, d in zip(sent[True], dense))
    assert sent[True][:2] == dense[:2]
    assert (sent[True][2] < dense[2]) == (width > 2)
