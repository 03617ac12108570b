"""Algorithm 2 of the paper: randomly chosen balancing partners.

Each round every node picks one partner uniformly at random from the
*other* ``n - 1`` nodes; the picks define a link set ``E`` (a random graph
that changes every round).  Load then moves concurrently along every link
with the same damped rate as Algorithm 1,

    (l_i - l_j) / (4 max(d_i, d_j)),

where ``d_i`` is the number of links incident to ``i`` *this round* (own
pick plus picks by others).  A popular node can be chosen by many peers —
the classic balls-into-bins bound says some node has
``Theta(log n / log log n)`` partners w.h.p. — which is exactly the
concurrency the sequentialization technique tames.  Lemma 9 shows a fixed
link rarely has a high-degree endpoint, giving the per-round expected
drop of Lemma 11 / Theorem 12 (and Lemma 13 / Theorem 14 discretely).

The link set follows the paper's ``E <- E u (i, j)`` *set* semantics:
mutual picks (i chooses j and j chooses i) collapse into a single link.

One round, any batch: every replica draws its picks with its own
generator into one replica-major ``(B, n)`` matrix (``B = 1`` for the
serial ``step``), held as flat *slots* ``b * n + p`` so that all
replicas share one index space.  Node ``i``'s pick already is its link,
so the round builds no link list: one gather ``ps[ps]`` finds the mutual
picks, degrees are ``1 + bincount(ps) - mutual``, and each kept pick
carries one flow from its node to its partner.

- Discrete rounds truncate that flow with the biased reciprocal of
  ``4k`` from a small per-``n`` table (exact below
  :data:`~repro.core.operators.RECIP_DIV_LIMIT`; larger loads take int64
  floor division, as Algorithm 1 does) and apply it as ``l - f`` plus
  one ``np.add.at`` over the partner slots.  Integer addition does not
  depend on order, so nothing is sorted.
- Continuous rounds keep the float summation order of the canonical
  link list: the kept picks are packed into keys ``lo_slot * n + (hi -
  lo)``, sorted once across all replicas, and scattered with
  ``subtract.at`` then ``add.at``.

Each replica's stream is consumed exactly as a serial run consumes it,
so batched runs are bit-for-bit identical to ``B`` serial runs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.operators import RECIP_DIV_LIMIT, biased_reciprocal
from repro.core.protocols import CONTINUOUS, DISCRETE, Balancer, register_balancer

__all__ = [
    "sample_partners",
    "sample_partner_links",
    "link_degrees",
    "partner_flows",
    "partner_round_continuous",
    "partner_round_discrete",
    "RandomPartnerBalancer",
]


def sample_partners(n: int, rng: np.random.Generator) -> np.ndarray:
    """Each node's uniformly random partner, guaranteed ``partner[i] != i``.

    Uses the shift trick: draw from ``{0, ..., n-2}`` and bump values
    ``>= i`` so the distribution over the other ``n - 1`` nodes is exactly
    uniform.
    """
    if n < 2:
        raise ValueError("need at least two nodes to pick partners")
    draw = rng.integers(0, n - 1, size=n)
    ids = np.arange(n)
    return np.where(draw >= ids, draw + 1, draw).astype(np.int64)


_INT64_MAX = np.iinfo(np.int64).max


def _check_key_range(n: int, replicas: int = 1) -> None:
    """Refuse sizes whose packed link keys (below ``B n**2``) overflow int64."""
    if replicas * n * n > 1 << 63:
        raise ValueError(
            f"n={n} nodes x {replicas} replicas overflow the int64 link keys "
            "(need B n^2 <= 2^63)"
        )


# The work arrays of a round live in a ``work`` dict, one per name (and
# each name one dtype), and are reused by the next round that passes the
# same dict: a fresh ``(B n,)`` array per step costs more in page faults
# than most steps.
def _work_buffer(work: dict, name: str, shape, dtype=np.int64) -> np.ndarray:
    buf = work.get(name)
    if buf is None or buf.shape != shape:
        buf = work[name] = np.empty(shape, dtype)
    return buf


def _gather(values: np.ndarray, ps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``values[ps]`` into ``out``; ``mode="clip"`` lets ``take`` write
    ``out`` unbuffered, and every slot is in range."""
    return values.take(ps, out=out, mode="clip")


def _slot_ids(work: dict, size: int) -> np.ndarray:
    """``np.arange(size)``, kept in ``work``."""
    ids = work.get("ids")
    if ids is None or ids.size != size:
        ids = work["ids"] = np.arange(size)
    return ids


def _pick_graph(ps: np.ndarray, work: dict) -> tuple[np.ndarray, np.ndarray, int]:
    """Degrees and dropped picks of flat partner slots ``ps``.

    Slot ``s = b * n + i`` is replica ``b``'s node ``i`` and picks slot
    ``ps[s]``; every pick is a link, except that a mutual pair (``s``
    picks ``t`` and ``t`` picks ``s``) is one link, kept as the lower
    slot's pick.  Returns each slot's degree (its own pick plus every
    pick of it, a mutual pair counted once), the ``dropped`` mask of
    upper mutual picks, and the number of links.
    """
    size = ps.size
    ids = _slot_ids(work, size)
    back = _gather(ps, ps, _work_buffer(work, "gather", (size,)))
    mutual = np.equal(back, ids, out=_work_buffer(work, "mutual", (size,), bool))
    deg = _work_buffer(work, "degrees", (size,))
    deg.fill(1)
    np.add.at(deg, ps, 1)
    deg -= mutual
    dropped = np.greater(ids, ps, out=_work_buffer(work, "dropped", (size,), bool))
    dropped &= mutual
    return deg, dropped, size - int(np.count_nonzero(dropped))


def _sorted_links(ps: np.ndarray, dropped: np.ndarray, links: int, n: int, work: dict):
    """The links of flat picks as slot arrays ``(lo, hi)``, ``lo < hi``.

    Both slots of a link share a replica, so the packed keys ``lo * n +
    (hi - lo)`` (below ``B n**2``) order links by replica and then
    lexicographically by ``(lo, hi)`` — the order the continuous scatter
    accumulates flows in.  Dropped picks get the largest key and are cut
    off after the one sort.
    """
    ids = _slot_ids(work, ps.size)
    keys = np.minimum(ids, ps, out=_work_buffer(work, "keys", ps.shape))
    keys *= n
    gap = np.subtract(ps, ids, out=_work_buffer(work, "gap", ps.shape))
    keys += np.abs(gap, out=gap)
    np.copyto(keys, _INT64_MAX, where=dropped)
    keys.sort()
    lo = _work_buffer(work, "lo", ps.shape)[:links]
    hi = gap[:links]
    np.divmod(keys[:links], n, out=(lo, hi))
    hi += lo
    return lo, hi


def _canonical_links(ps: np.ndarray, n: int) -> list[np.ndarray]:
    """Each replica's canonical ``(m_b, 2)`` node-id links of flat picks ``ps``.

    Rows are ``(lo, hi)`` with ``lo < hi`` in strictly increasing
    lexicographic order; the arrays are C-contiguous int64.
    """
    replicas = ps.size // n
    _check_key_range(n, replicas)
    work: dict = {}
    _, dropped, m = _pick_graph(ps, work)
    lo, hi = _sorted_links(ps, dropped, m, n, work)
    offset = lo // n * n
    links = np.stack([lo - offset, hi - offset], axis=1)
    return np.split(links, np.searchsorted(offset, np.arange(n, ps.size, n)))


def sample_partner_links(n: int, rng: np.random.Generator) -> np.ndarray:
    """One round's link set: canonical, deduplicated ``(m, 2)`` array.

    The ``n`` picks collapse to ``m in [ceil(n/2), n]`` distinct links.
    Node ``i``'s link always contains ``i``, so two picks can only name
    the same pair when they are mutual (``p[p[i]] == i``); of such a pair
    only the lower node's copy is kept.  Rows are ``(lo, hi)`` with
    ``lo < hi``, in strictly increasing lexicographic order — the order
    the continuous scatter accumulates flows in — as a C-contiguous
    int64 array.
    """
    _check_key_range(n)
    return _canonical_links(sample_partners(n, rng), n)[0]


def link_degrees(n: int, links: np.ndarray) -> np.ndarray:
    """Number of links incident to each node this round, shape ``(n,)``.

    Every node has degree >= 1 (its own pick always produces a link).
    """
    return np.bincount(links.ravel(), minlength=n).astype(np.int64)


def partner_flows(loads: np.ndarray, links: np.ndarray, degrees: np.ndarray, discrete: bool = False) -> np.ndarray:
    """Signed per-link flow along canonical direction u -> v."""
    u, v = links[:, 0], links[:, 1]
    denom = 4 * np.maximum(degrees[u], degrees[v])
    if discrete:
        l = np.asarray(loads, dtype=np.int64)
        diff = l[u] - l[v]
        return np.sign(diff) * (np.abs(diff) // denom)
    l = np.asarray(loads, dtype=np.float64)
    return (l[u] - l[v]) / denom.astype(np.float64)


@lru_cache(maxsize=16)
def _quarter_reciprocals(n: int) -> np.ndarray:
    """``table[k]`` is the biased reciprocal of the denominator ``4 k``.

    A link's larger degree ``k`` lies in ``1..n``; ``table[0] = 0`` gives
    the dropped copy of a mutual pick a zero flow.
    """
    table = np.zeros(n + 1)
    table[1:] = biased_reciprocal(4 * np.arange(1, n + 1))
    table.setflags(write=False)
    return table


def _draw_slots(n: int, rngs: list, ps: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Every replica's picks, drawn from its own generator, as flat slots.

    Row ``b`` of the ``(B, n)`` int64 buffer ``ps`` is drawn exactly as
    :func:`sample_partners` draws it, so each stream is consumed as a
    serial round consumes it; the shift trick and the replica offsets
    ``b * n`` then apply to the whole matrix at once (``ids`` is
    ``arange(B n)``).
    """
    for row, rng in zip(ps, rngs):
        row[:] = rng.integers(0, n - 1, size=n)
    ps += ps >= ids[:n]
    ps += ids[: ps.size : n, None]
    return ps.reshape(-1)


def _round(
    loads: np.ndarray, rngs, discrete: bool, work: dict, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """One partner round of replica-major ``(B, n)`` loads, one generator each.

    Writes the new loads into ``out`` (a fresh array when ``None``) and
    returns them with the flat partner slots drawn (see the module
    docstring for the two scatters).
    """
    B, n = loads.shape
    rngs = list(rngs)
    if len(rngs) != B:
        raise ValueError(f"{B} replicas need {B} generators, got {len(rngs)}")
    if n < 2:
        raise ValueError("need at least two nodes to pick partners")
    if not discrete:
        _check_key_range(n, B)
    size = B * n
    ps = _draw_slots(n, rngs, _work_buffer(work, "picks", (B, n)), _slot_ids(work, size))
    deg, dropped, links = _pick_graph(ps, work)
    lf = loads.reshape(-1)
    new = np.empty_like(lf) if out is None else out.reshape(-1)
    if discrete:
        # One flow per kept pick, from the node to its partner.
        dmax = _gather(deg, ps, _work_buffer(work, "dmax", (size,)))
        np.maximum(dmax, deg, out=dmax)
        diff = _gather(lf, ps, _work_buffer(work, "diff", (size,)))
        np.subtract(lf, diff, out=diff)
        # max - min bounds every |diff|, as in Algorithm 1's round.
        if int(lf.max()) - int(lf.min()) < RECIP_DIV_LIMIT:
            np.copyto(dmax, 0, where=dropped)  # table[0] = 0: no flow
            q = _gather(_quarter_reciprocals(n), dmax, _work_buffer(work, "q", (size,), np.float64))
            np.multiply(q, diff, out=q)
            flows = dmax
            np.copyto(flows, q, casting="unsafe")  # trunc toward zero
        else:
            np.copyto(diff, 0, where=dropped)
            flows = np.sign(diff) * (np.abs(diff) // (4 * dmax))
        np.subtract(lf, flows, out=new)
        np.add.at(new, ps, flows)
    else:
        lo, hi = _sorted_links(ps, dropped, links, n, work)
        denom = _gather(deg, lo, _work_buffer(work, "dmax", (size,))[:links])
        hi_deg = _gather(deg, hi, _work_buffer(work, "gather", (size,))[:links])
        np.maximum(denom, hi_deg, out=denom)
        denom *= 4
        flows = _gather(lf, lo, _work_buffer(work, "flows", (size,), np.float64)[:links])
        flows -= _gather(lf, hi, _work_buffer(work, "q", (size,), np.float64)[:links])
        flows /= denom
        np.copyto(new, lf)
        np.subtract.at(new, lo, flows)
        np.add.at(new, hi, flows)
    return new.reshape(B, n), ps


def _round_any(loads: np.ndarray, rng, discrete: bool) -> np.ndarray:
    """Serial ``(n,)`` loads with one generator, or replica-major ``(B, n)``."""
    if loads.ndim == 1:
        return _round(loads[None], [rng], discrete, {})[0][0]
    return _round(loads, rng, discrete, {})[0]


def partner_round_continuous(loads: np.ndarray, rng) -> np.ndarray:
    """One concurrent continuous round of Algorithm 2.

    ``loads`` may be ``(n,)`` with a single generator or replica-major
    ``(B, n)`` with a sequence of ``B`` generators (one per replica).
    """
    return _round_any(np.asarray(loads, dtype=np.float64), rng, discrete=False)


def partner_round_discrete(loads: np.ndarray, rng) -> np.ndarray:
    """One concurrent discrete round of Algorithm 2 (integer tokens)."""
    return _round_any(np.asarray(loads, dtype=np.int64), rng, discrete=True)


class RandomPartnerBalancer(Balancer):
    """Algorithm 2 adapted to the :class:`Balancer` interface.

    Needs no topology: the communication graph is resampled every round
    from the uniform partner distribution.  The last round's picks are
    kept on the instance, and the realized link set and degrees
    (``last_links``, ``last_degrees``) are computed from them on first
    read, so experiments can inspect the concurrency without the round
    paying for it.  After a batched round they are *per-replica lists*
    of link arrays / degree vectors instead of a single pair.
    """

    supports_batch = True

    def __init__(self, mode: str = CONTINUOUS):
        super().__init__()
        if mode not in (CONTINUOUS, DISCRETE):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.name = f"random-partner[{mode}]"
        self._work: dict = {}
        self._picks: tuple[np.ndarray, int, bool] | None = None
        self._links: np.ndarray | list[np.ndarray] | None = None
        self._degrees: np.ndarray | list[np.ndarray] | None = None

    def __getstate__(self) -> dict:
        """Pickle without the round's work arrays (rebuilt on first use)."""
        state = self.__dict__.copy()
        state["_work"] = {}
        return state

    def _hold(self, ps: np.ndarray, n: int, batched: bool) -> None:
        self._picks = (ps, n, batched)
        self._links = self._degrees = None

    @property
    def last_links(self) -> np.ndarray | list[np.ndarray] | None:
        if self._links is None and self._picks is not None:
            ps, n, batched = self._picks
            links = _canonical_links(ps, n)
            self._links = links if batched else links[0]
        return self._links

    @property
    def last_degrees(self) -> np.ndarray | list[np.ndarray] | None:
        if self._degrees is None and self._picks is not None:
            ps, n, batched = self._picks
            deg = _pick_graph(ps, {})[0]
            degrees = np.split(deg, ps.size // n)
            self._degrees = degrees if batched else degrees[0]
        return self._degrees

    def step(self, loads: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        loads = self.validate_loads(loads)
        self.advance_round()
        new, ps = _round(loads[None], [rng], self.mode == DISCRETE, self._work)
        self._hold(ps, loads.size, batched=False)
        return new[0]

    def step_batch(self, loads: np.ndarray, rngs, out: np.ndarray | None = None) -> np.ndarray:
        """One lockstep round for a node-major ``(n, B)`` replica batch.

        ``last_links``/``last_degrees`` become per-replica lists (see the
        class docstring).  The new loads are written into ``out`` when
        it is given.
        """
        self.advance_round()
        n, B = loads.shape
        replica_major = _work_buffer(self._work, "loads", (B, n), self.dtype)
        np.copyto(replica_major, loads.T)
        new = _work_buffer(self._work, "new", (B, n), self.dtype)
        _, ps = _round(replica_major, rngs, self.mode == DISCRETE, self._work, new)
        self._hold(ps, n, batched=True)
        if out is None:
            out = np.empty_like(loads)
        np.copyto(out, new.T)
        return out


@register_balancer("random-partner")
def _make_partner(topology=None, **kwargs) -> RandomPartnerBalancer:
    return RandomPartnerBalancer(mode=CONTINUOUS, **kwargs)


@register_balancer("random-partner-discrete")
def _make_partner_discrete(topology=None, **kwargs) -> RandomPartnerBalancer:
    return RandomPartnerBalancer(mode=DISCRETE, **kwargs)
