"""Algorithm 2's round in replica blocks.

``_round`` runs a batch's ``(B, n)`` rows in blocks of
:data:`~repro.core.random_partner.BLOCK_SLOTS` slots.  A link never
crosses replicas, so the blocked round must be bit-for-bit ``B`` serial
``step`` runs, whatever the block split; and its block-sized work arrays
must be reused, not reallocated, round after round.
"""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.operators import RECIP_DIV_LIMIT
from repro.core.random_partner import BLOCK_SLOTS, RandomPartnerBalancer


class _MutualPicks:
    """A generator whose every draw plants ``pairs`` mutual picks.

    It answers ``integers(low, high, size=n)`` as the round asks it: the
    draws of its own generator over ``{0, ..., n - 2}``, with ``pairs``
    disjoint node pairs rewritten so that each picks the other under
    the shift trick, moved by ``low``.
    """

    def __init__(self, seed: int, pairs: int):
        self.rng = np.random.default_rng(seed)
        self.pairs = pairs

    def integers(self, low, high, size):
        n = size
        draws = self.rng.integers(0, n - 1, size=n)
        k = min(self.pairs, n // 2)
        nodes = self.rng.permutation(n)[: 2 * k].reshape(k, 2)
        for i, j in nodes:
            draws[i] = j - (j > i)
            draws[j] = i - (i > j)
        return draws + low


def _generators(kind: str, B: int, seed: int):
    if kind == "mutual":
        return [_MutualPicks(seed + b, pairs=3) for b in range(B)]
    return [np.random.default_rng([seed, b]) for b in range(B)]


def _same(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# Small n (one block holds every replica), n whose blocks hold a few
# replicas (B need not be a multiple of them), and n past the slot
# budget (one replica a block).
nodes_st = st.one_of(
    st.integers(2, 40),
    st.integers(BLOCK_SLOTS // 9, BLOCK_SLOTS // 3),
    st.integers(BLOCK_SLOTS - 2, BLOCK_SLOTS + 70),
)


@given(
    mode=st.sampled_from(["continuous", "discrete"]),
    n=nodes_st,
    B=st.integers(1, 11),
    picks=st.sampled_from(["uniform", "mutual"]),
    seed=st.integers(0, 2**31 - 1),
    wide=st.lists(st.booleans(), min_size=11, max_size=11),
)
@example(mode="discrete", n=4096, B=11, picks="mutual", seed=1, wide=[False, True] * 5 + [True])
@example(mode="continuous", n=4096, B=11, picks="mutual", seed=2, wide=[False] * 11)
@example(mode="discrete", n=BLOCK_SLOTS + 1, B=3, picks="uniform", seed=3, wide=[True] * 11)
@settings(max_examples=40, deadline=None)
def test_blocked_round_is_serial_steps(mode, n, B, picks, seed, wide):
    rng = np.random.default_rng(seed)
    if mode == "discrete":
        # Per replica, a spread below RECIP_DIV_LIMIT (reciprocal
        # branch) or at it (exact int64 branch), so blocks mix branches.
        tops = [RECIP_DIV_LIMIT if w else 1000 for w in wide[:B]]
        loads = np.stack([rng.integers(0, top, n, endpoint=True) for top in tops])
        loads[:, 0] = tops
        loads[:, -1] = 0
    else:
        loads = rng.uniform(0, 1000, (B, n))
    batched = RandomPartnerBalancer(mode)
    serial = [RandomPartnerBalancer(mode) for _ in range(B)]
    rngs, ref_rngs = _generators(picks, B, seed), _generators(picks, B, seed)
    rows = loads
    for _ in range(2):
        got = batched.step_batch(np.ascontiguousarray(rows.T), rngs)
        want = np.stack([bal.step(rows[b], ref_rngs[b]) for b, bal in enumerate(serial)])
        assert _same(got.T, want)
        for b, bal in enumerate(serial):
            assert _same(batched.last_links[b], bal.last_links), b
            assert _same(batched.last_degrees[b], bal.last_degrees), b
        rows = want
    inner = [getattr(r, "rng", r) for r in rngs]
    ref_inner = [getattr(r, "rng", r) for r in ref_rngs]
    assert all(r.integers(0, 2**62) == q.integers(0, 2**62) for r, q in zip(inner, ref_inner))


@given(mode=st.sampled_from(["continuous", "discrete"]), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_forced_mutual_picks_collapse_to_one_link(mode, seed):
    """Every planted mutual pair is one link, across a multi-block round."""
    n, B = 4096, 13
    bal = RandomPartnerBalancer(mode)
    loads = np.ones((n, B), dtype=bal.dtype)
    bal.step_batch(loads, _generators("mutual", B, seed))
    for links, deg in zip(bal.last_links, bal.last_degrees):
        assert links.shape[0] <= n - 3  # three planted pairs at least
        assert _same(np.bincount(links.ravel(), minlength=n), deg)


class TestSteadyState:
    """At ``B = 13`` and ``n = 4096`` a block holds 8 replicas, so the
    last block is partial; it must reuse the first block's arrays."""

    B, n = 13, 4096

    def _run(self, mode: str):
        bal = RandomPartnerBalancer(mode)
        rows = np.random.default_rng(2).integers(0, 1000, (self.B, self.n)).astype(bal.dtype)
        spare = np.empty_like(rows)
        L, out = rows.T, spare.T  # replica-major: no row buffers
        rngs = [np.random.default_rng([7, b]) for b in range(self.B)]
        L, out = bal.step_batch(L, rngs, out=out), L  # warm-up round
        held = {name: id(arr) for name, arr in bal._work.items()}
        tracemalloc.start()
        try:
            for _ in range(10):
                L, out = bal.step_batch(L, rngs, out=out), L
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return bal, held, peak

    def test_work_arrays_kept(self):
        for mode in ("continuous", "discrete"):
            bal, held, _ = self._run(mode)
            assert {name: id(arr) for name, arr in bal._work.items()} == held, mode

    def test_peak_below_one_batch(self):
        for mode in ("continuous", "discrete"):
            _, _, peak = self._run(mode)
            assert peak < self.B * self.n * 8, (mode, peak)
