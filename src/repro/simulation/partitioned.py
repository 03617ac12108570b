"""Node-axis partitioned execution: P block subproblems + halo exchange.

The replica axis shards embarrassingly (:mod:`repro.simulation.sharding`);
one *giant graph* does not — its state vector couples along every edge.
This module splits a topology into ``P`` node blocks
(:class:`~repro.graphs.partition.Partition`) and advances each block as a
local subproblem over its **extended** load matrix: the block's owned
rows first, then ghost rows holding the halo-refreshed values of
out-of-block neighbours.  Per round, only boundary loads cross block
borders — the communication pattern of a real per-rank deployment — yet
the produced trajectories are **bit-for-bit identical** to the global
engines.

Why exactness is structural, not approximate
--------------------------------------------
Every supported round (continuous Algorithm 1, FOS/Richardson, discrete
Algorithm 1) is *row-local*: global node ``i``'s next value depends only
on ``i``'s row of a cached sparse operator and the current values of
``i`` and its neighbours.  A :class:`BlockLocal` therefore **row-slices**
the per-topology cached operators of
:class:`~repro.core.operators.EdgeOperator` — same ``data`` values, same
stored-entry order, columns merely renumbered into the block's extended
index space — and runs them through the *same*
:class:`~repro.core.backends.KernelBackend` kernels (numpy / scipy /
numba per block).  A CSR row's entries accumulate in stored order on
every backend, so the block's fold for node ``i`` is the global fold
bit for bit; the discrete round is pure integer arithmetic on per-edge
quantities computed from the same endpoint values.  The property tests
assert this for P ∈ {2, 4, 7}, both partition strategies, and
dynamic-edge-failure topologies whose cut set changes between rounds.

Execution modes
---------------
``mode="inprocess"``
    One process, a vectorized loop over blocks.  Ghost values are
    gathered straight from the previous round's global matrix (the halo
    refresh), and statistics are recorded from the assembled matrix, so
    the trace is *indistinguishable* from an
    :class:`~repro.simulation.ensemble.EnsembleSimulator` run — derived
    statistics included.  The semantics/debugging reference.
``mode="process"``
    ``P`` persistent worker processes, one block each, exchanging halos
    **peer-to-peer** through :mod:`repro.distributed.transport` channels
    (``transport="mp-pipe"`` socketpairs by default, or ``"tcp"`` sockets
    — the same wire the multi-host dispatcher uses; deadlock-free pairwise
    protocol: the lower-id block of each pair sends first).  Workers
    hold an ``(n_block, B)`` slab — the node axis composes with the
    replica axis — and return per-round statistic *partials* (sums,
    squared sums, extrema, movement) that the coordinator combines, so
    the full matrix never exists in one process between gathers.  The
    coordinator grants *speculative chunks*: the workers free-run ``k``
    rounds with peer-only communication and return ``k`` statistics
    rows, which the coordinator checks against the stopping rules row
    by row.  ``k`` comes from the rules' own hints — a round cap grants
    its whole remaining budget, a potential threshold half the rounds
    the observed geometric decay of Φ predicts — and a stop inside a
    chunk rewinds the workers to the chunk start and replays the
    committed rounds (:class:`_SpeculativeChunks`).  Load trajectories
    are bit-for-bit equal to the global engines; *derived* statistics
    may differ in the last float ulp (block-partial summation order),
    the same caveat the replica-sharded path documents.

Both modes are steppers of the one round driver every engine shares
(:class:`~repro.simulation.ensemble.RoundEngine`): the in-process block
loop, with its halo accounting, or a *block executor*'s chunks of
combined statistics rows.  The executor seam is small (``run_chunk`` /
``rewind`` / ``gather`` / ``close``): :class:`_LocalProcessExecutor`
drives per-block processes on this host, and
:mod:`repro.distributed.dispatcher` and :mod:`repro.distributed.mpi`
plug remote executors into the **same**
:meth:`PartitionedSimulator.run_with_executor` — one chunk schedule,
one statistics combine, one stopping policy, any transport.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from itertools import count
from time import perf_counter
from typing import Iterator, Sequence

import numpy as np

from repro.core.backends import PlainCSR, resolve_backend
from repro.observability.recorder import get_recorder
from repro.core.operators import EdgeOperator, _scratch_buffer, edge_operator
from repro.core.protocols import Balancer
from repro.distributed.transport import TransportError, make_pair
from repro.distributed.worker import BlockJob, run_block_loop
from repro.graphs.partition import HaloLink, Partition, make_partition, parse_partitions
from repro.simulation.ensemble import (
    EnsembleTrace,
    RoundEngine,
    batch_rounds,
    guard_row,
    initial_batch,
)
from repro.simulation.stopping import StoppingRule

__all__ = ["BlockLocal", "PartitionedSimulator", "block_local"]

_LOCALS_ATTR = "_block_locals"

#: transports a local process-mode run can put under its halo links
#: (loopback queues cannot cross a process boundary).
PROCESS_TRANSPORTS = ("mp-pipe", "tcp")

_TRUTHY = ("1", "true", "yes", "on")


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in _TRUTHY


def _slice_csr_rows(
    csr: PlainCSR, rows: np.ndarray, col_map: np.ndarray, ncols: int, idx_dtype
) -> PlainCSR:
    """The row slice ``csr[rows]`` with columns renumbered by ``col_map``.

    Stored entries keep their order and their exact ``data`` values —
    the bitwise-parity guarantee rests on this being a pure relabeling.
    """
    starts = csr.indptr[rows].astype(np.int64)
    counts = csr.indptr[rows + 1].astype(np.int64) - starts
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    pos = np.repeat(starts - indptr[:-1], counts) + np.arange(total, dtype=np.int64)
    indices = col_map[csr.indices[pos]]
    if indices.size and indices.min() < 0:
        raise AssertionError("row slice references a column outside the block's map")
    out = PlainCSR(
        indptr.astype(idx_dtype),
        indices.astype(idx_dtype),
        np.ascontiguousarray(csr.data[pos]),
        (rows.size, ncols),
    )
    out.indptr.setflags(write=False)
    out.indices.setflags(write=False)
    return out


class BlockLocal:
    """One block's local subproblem: operator row slices + halo metadata.

    The extended index space is ``[owned nodes | ghost nodes]``: owned
    nodes sorted by global id, then ghost nodes **grouped by owning
    peer** (ascending peer id, ascending global id within each group).
    The grouping makes every halo link's receive region a contiguous
    slice of the ghost segment — :attr:`recv_slices` — so the runtime
    can land incoming halo frames directly into a persistent extended
    slab with no scatter.  Round kernels map an ``(n_ext, B)`` extended
    load matrix to the block's next ``(n_owned, B)`` owned loads through
    this block's rows of the global cached operators, executed by the
    configured kernel backend.

    Split-phase support: :attr:`interior` / :attr:`boundary` hold the
    owned-row positions whose operator support is owned-only vs
    ghost-touching, and every round kernel takes ``rows`` to compute
    just one subset (same per-row folds, so subset results are
    bit-for-bit the full round's rows).
    """

    def __init__(self, part: Partition, block_id: int, backend: str | None = None):
        if not 0 <= block_id < part.blocks:
            raise ValueError(f"block {block_id} out of range for {part.blocks} blocks")
        self.p = int(block_id)
        self.op: EdgeOperator = edge_operator(part.topo, backend)
        op = self.op
        self.owned = part.owned[self.p]
        self.n_owned = int(self.owned.size)
        ghosts_sorted = part.ghosts[self.p]
        # Group ghosts by owning peer (stable, so ascending global id
        # within each group — the peer's send order).  Each link's recv
        # region becomes one contiguous slice of the ghost segment.
        owners = part.assignment[ghosts_sorted]
        gorder = np.argsort(owners, kind="stable")
        self.ghosts = ghosts_sorted[gorder]
        self.n_ghost = int(self.ghosts.size)
        self.n_ext = self.n_owned + self.n_ghost
        #: per-peer contiguous recv regions of the ghost segment:
        #: ``{peer: (start, stop)}`` as positions into the ghost array.
        self.recv_slices: dict[int, tuple[int, int]] = {}
        bounds = np.searchsorted(owners[gorder], np.arange(part.blocks + 1))
        links: list[HaloLink] = []
        for link in part.halo_links[self.p]:
            a, b = int(bounds[link.peer]), int(bounds[link.peer + 1])
            self.recv_slices[link.peer] = (a, b)
            links.append(
                HaloLink(
                    peer=link.peer,
                    send_idx=link.send_idx,
                    recv_idx=np.arange(a, b, dtype=np.int64),
                )
            )
        self.links = links
        #: owned-row positions computable before any halo arrives / not
        self.interior = part.interior_owned[self.p]
        self.boundary = part.boundary_owned[self.p]
        #: global ids of the extended index space (owned then ghosts)
        self.ext_ids = np.concatenate([self.owned, self.ghosts])
        colmap = np.full(part.n, -1, dtype=np.int64)
        colmap[self.ext_ids] = np.arange(self.n_ext, dtype=np.int64)
        self._colmap = colmap
        # Edges with at least one owned endpoint, ascending global edge
        # id — the sub-list ordering that keeps every per-node fold in
        # the global stored order.  Cut-edge flows are computed on both
        # sides (each side needs them for its own endpoint): redundant
        # arithmetic instead of a second communication phase.
        a = part.assignment
        emask = (a[op.u] == self.p) | (a[op.v] == self.p)
        self.edge_ids = np.flatnonzero(emask)
        self.u_loc = colmap[op.u[self.edge_ids]]
        self.v_loc = colmap[op.v[self.edge_ids]]
        self._round_rows: PlainCSR | None = None
        self._fos_rows: dict[float, PlainCSR] = {}
        self._scratch: dict[tuple, np.ndarray] = {}
        # Split-phase caches: per row-subset operator slices (lazy).
        self._sub_matvec: dict[tuple, PlainCSR] = {}
        self._sub_discrete: dict[str | None, tuple] = {}
        self._sub_difference: dict[tuple, PlainCSR] = {}

    def _get_scratch(self, key: str, shape: tuple, dtype) -> np.ndarray:
        """One work buffer per ``(key, dtype)``, reallocated on a new shape."""
        return _scratch_buffer(self._scratch, key, shape, dtype)

    # ------------------------------------------------------------------
    # Row-sliced operators (lazy; cached for the block's lifetime)
    # ------------------------------------------------------------------
    def round_rows(self) -> PlainCSR:
        """This block's rows of Algorithm 1's continuous round matrix."""
        if self._round_rows is None:
            self._round_rows = _slice_csr_rows(
                self.op.round_csr(), self.owned, self._colmap, self.n_ext, self.op.idx_dtype
            )
        return self._round_rows

    def fos_rows(self, alpha: float) -> PlainCSR:
        """This block's rows of ``I - alpha L`` (cached per ``alpha``)."""
        key = float(alpha)
        M = self._fos_rows.get(key)
        if M is None:
            M = self._fos_rows[key] = _slice_csr_rows(
                self.op.fos_csr(key), self.owned, self._colmap, self.n_ext, self.op.idx_dtype
            )
        return M

    # ------------------------------------------------------------------
    # Row-subset plumbing (split-phase interior/boundary execution)
    # ------------------------------------------------------------------
    def _rows_positions(self, rows: str | None) -> np.ndarray | None:
        if rows is None:
            return None
        if rows == "interior":
            return self.interior
        if rows == "boundary":
            return self.boundary
        raise ValueError(f"rows must be None, 'interior' or 'boundary', got {rows!r}")

    @staticmethod
    def _contiguous_range(pos: np.ndarray) -> tuple[int, int] | None:
        """``(a, b)`` when ``pos`` is exactly ``a..b-1``, else ``None``."""
        if pos.size == 0:
            return (0, 0)
        a, b = int(pos[0]), int(pos[-1]) + 1
        return (a, b) if b - a == pos.size else None

    def _subset_matvec_csr(self, kind: str, rows: str, alpha: float | None = None) -> PlainCSR:
        """Row slice of a round matrix restricted to one owned-row subset.

        Sliced from the *global* cached operator with the same column
        map, so stored order and data are those of the full block slice
        — subset folds are bitwise the full round's rows.
        """
        key = (kind, rows, alpha)
        M = self._sub_matvec.get(key)
        if M is None:
            src = self.op.round_csr() if kind == "round" else self.op.fos_csr(float(alpha))
            pos = self._rows_positions(rows)
            M = self._sub_matvec[key] = _slice_csr_rows(
                src, self.owned[pos], self._colmap, self.n_ext, self.op.idx_dtype
            )
        return M

    def _matvec_subset(self, M: PlainCSR, ext: np.ndarray, out: np.ndarray, rows: str) -> np.ndarray:
        """``out[subset] = M @ ext`` with a zero-copy contiguous fast path."""
        pos = self._rows_positions(rows)
        rng = self._contiguous_range(pos)
        if rng is not None:
            a, b = rng
            self.op.kernels.matvec(M, ext, out[a:b])
        else:
            buf = self._get_scratch("mv_" + rows, (pos.size,) + ext.shape[1:], out.dtype)
            self.op.kernels.matvec(M, ext, buf)
            out[pos] = buf
        return out

    def _discrete_subset(self, rows: str | None) -> tuple:
        """Edge/incidence structure restricted to one owned-row subset.

        The subset's incident edges as ascending global edge ids (the
        full fold order), their biased reciprocals and int64
        denominators, the matching incidence row slice with columns
        renumbered to subset-edge positions, and the owned-row
        positions.  ``rows=None`` is the whole block.  ``owned_only`` records whether every endpoint is
        an owned node — true for the interior subset by construction,
        which is what lets the interior phase run on stale ghost values.
        """
        cached = self._sub_discrete.get(rows)
        if cached is None:
            pos = self._rows_positions(rows)
            if pos is None:
                pos = np.arange(self.n_owned, dtype=np.int64)
            member = np.zeros(self.n_ext, dtype=bool)
            member[pos] = True
            epos = np.flatnonzero(member[self.u_loc] | member[self.v_loc])
            eids = self.edge_ids[epos]
            owned_only = bool(
                (self.u_loc[epos] < self.n_owned).all()
                and (self.v_loc[epos] < self.n_owned).all()
            )
            ecolmap = np.full(self.op.m, -1, dtype=np.int64)
            ecolmap[eids] = np.arange(epos.size, dtype=np.int64)
            inc = _slice_csr_rows(
                self.op.incidence_csr(np.int64),
                self.owned[pos],
                ecolmap,
                epos.size,
                self.op.idx_dtype,
            )
            cached = self._sub_discrete[rows] = (
                eids,
                np.ascontiguousarray(self.op.denominators_recip[eids]),
                np.ascontiguousarray(self.op.denominators_int[eids]),
                inc,
                pos,
                owned_only,
            )
        return cached

    def _difference_rows(self, rows: str | None, dtype) -> PlainCSR:
        """The subset's edge rows of the global difference operator.

        Columns are renumbered into the extended space; an owned-only
        subset gets only the owned columns, so its product reads nothing
        past the owned region.
        """
        key = (rows, np.dtype(dtype).char)
        D = self._sub_difference.get(key)
        if D is None:
            eids, *_, owned_only = self._discrete_subset(rows)
            D = self._sub_difference[key] = _slice_csr_rows(
                self.op.difference_csr(dtype),
                eids,
                self._colmap,
                self.n_owned if owned_only else self.n_ext,
                self.op.idx_dtype,
            )
        return D

    # ------------------------------------------------------------------
    # Round kernels (extended loads in, owned loads out)
    # ------------------------------------------------------------------
    def _out(self, ext: np.ndarray, out: np.ndarray | None, dtype=None) -> np.ndarray:
        if out is None:
            out = np.empty((self.n_owned,) + ext.shape[1:], dtype=dtype or ext.dtype)
        return out

    def round_continuous(
        self, ext: np.ndarray, out: np.ndarray | None = None, rows: str | None = None
    ) -> np.ndarray:
        """One continuous Algorithm-1 round on this block (or one subset)."""
        out = self._out(ext, out)
        if rows is None:
            return self.op.kernels.matvec(self.round_rows(), ext, out)
        return self._matvec_subset(self._subset_matvec_csr("round", rows), ext, out, rows)

    def fos_round(
        self,
        alpha: float,
        ext: np.ndarray,
        out: np.ndarray | None = None,
        rows: str | None = None,
    ) -> np.ndarray:
        """One FOS/Richardson round ``(I - alpha L) @ loads`` on this block."""
        out = self._out(ext, out)
        if rows is None:
            return self.op.kernels.matvec(self.fos_rows(alpha), ext, out)
        return self._matvec_subset(
            self._subset_matvec_csr("fos", rows, float(alpha)), ext, out, rows
        )

    def round_discrete(
        self, ext: np.ndarray, out: np.ndarray | None = None, rows: str | None = None
    ) -> np.ndarray:
        """One discrete Algorithm-1 round on this block (int64, exact).

        The block's rows of the global difference operator give the
        per-edge differences over its incident edges, the operator's own
        :meth:`~repro.core.operators.EdgeOperator.discrete_flows` step
        turns them into flows, and the incidence row slice folds those
        onto owned nodes.  Integer-exact end to end, so the owned results
        equal the global round's rows.  With ``rows``, only the subset's
        incident edges and incidence rows participate; the interior
        subset's edges have owned-only endpoints, so its difference
        slice, float copy and magnitude bound (which merely *selects*
        between two exact division paths) cover the owned region alone
        and never read a ghost value.
        """
        _, recip, den_int, inc, pos, owned_only = self._discrete_subset(rows)
        region = ext[: self.n_owned] if owned_only else ext
        bound = int(region.max(initial=0)) - min(int(region.min(initial=0)), 0)
        flows = self.op.discrete_flows(
            region,
            bound,
            difference=lambda dtype: self._difference_rows(rows, dtype),
            recip=recip,
            denom_int=den_int,
            scratch=self._get_scratch,
            tag=f"disc-{rows}",
        )
        out = self._out(ext, out, dtype=np.int64)
        rng = self._contiguous_range(pos)
        if rng is not None:
            a, b = rng
            self.op.kernels.add_matvec(inc, ext[a:b], flows, out[a:b])
        else:
            base = self._get_scratch("base_" + rows, (pos.size,) + ext.shape[1:], np.int64)
            np.take(ext, pos, axis=0, out=base)
            buf = self._get_scratch("dsc_" + rows, (pos.size,) + ext.shape[1:], np.int64)
            self.op.kernels.add_matvec(inc, base, flows, buf)
            out[pos] = buf
        return out


def block_local(part: Partition, block_id: int, backend: str | None = None) -> BlockLocal:
    """The cached :class:`BlockLocal` for one block of ``part``.

    Cached on the partition instance (which is itself cached on the
    immutable topology), one per kernel backend — dynamic networks that
    cycle through a fixed set of graphs build each block's slices once
    per distinct graph.  A block keeps no reference to its partition, so
    the cache forms no cycle.
    """
    cache = part.__dict__.get(_LOCALS_ATTR)
    if cache is None:
        cache = part.__dict__[_LOCALS_ATTR] = {}
    key = (int(block_id), resolve_backend(backend))
    loc = cache.get(key)
    if loc is None:
        loc = cache[key] = BlockLocal(part, block_id, backend)
    return loc


class _PartitionMemo:
    """Per-run partition lookups without re-hashing the assignment bytes.

    ``Partition.for_topology`` keys its per-topology cache by the
    assignment's raw bytes — correct, but an O(n) hash per lookup, paid
    every round by the hot loop.  This memo shortcuts repeat lookups for
    the same topology *instance* (the static and phase-cycling cases) by
    identity; each entry pins its topology so the ``id`` stays valid.
    Bounded: dynamic models that mint a fresh topology per round would
    otherwise grow it — and keep every round's graph alive — forever.
    """

    MAX_ENTRIES = 64

    def __init__(self, assignment: np.ndarray, strategy: str):
        self.assignment = assignment
        self.strategy = strategy
        self._memo: dict[int, tuple] = {}

    def get(self, topo) -> Partition:
        hit = self._memo.get(id(topo))
        if hit is not None and hit[0] is topo:
            return hit[1]
        part = Partition.for_topology(topo, self.assignment, strategy=self.strategy)
        if len(self._memo) >= self.MAX_ENTRIES:
            self._memo.clear()
        self._memo[id(topo)] = (topo, part)
        return part


# ----------------------------------------------------------------------
# Worker-side statistics partials
# ----------------------------------------------------------------------
def _partial_stats(
    new: np.ndarray, prev: np.ndarray, want_disc: bool, want_mov: bool
) -> tuple:
    """One block's per-replica contributions to the round's statistics:
    sums, squared sums, minima (for the coordinator's sign guard, and the
    discrepancies), maxima when ``want_disc``, movements when ``want_mov``."""
    if np.issubdtype(new.dtype, np.integer):
        sums = new.sum(axis=0)
    else:
        sums = np.ones(new.shape[0]) @ new
    ss = np.einsum("ij,ij->j", new, new, dtype=np.float64)
    hi = new.max(axis=0) if want_disc else None
    mov = 0.5 * np.abs(new - prev).sum(axis=0).astype(np.float64) if want_mov else None
    return sums, ss, new.min(axis=0), hi, mov


def _stack_partials(rows: list[tuple]) -> tuple:
    """One chunk's per-round partials as arrays with a leading round axis,
    so a chunk ships a handful of arrays instead of a tuple per round."""
    return tuple(None if col[0] is None else np.stack(col) for col in zip(*rows))


def _combine_stats(partials: list[tuple], n: int) -> tuple:
    """Combine per-block partials into global statistics rows.

    Works row-wise on stacked ``(rounds, B)`` partials; sums keep the
    loads' dtype, so integer totals stay exact.  Returns ``Phi``, sums,
    minima, discrepancies (None unless recorded) and movements (None
    unless recorded) rows.
    """
    sums = np.sum([p[0] for p in partials], axis=0)
    ss = np.sum([p[1] for p in partials], axis=0)
    phis = np.maximum(ss - sums * (sums / n), 0.0)
    lows = np.min([p[2] for p in partials], axis=0)
    disc = None
    if partials[0][3] is not None:
        disc = (np.max([p[3] for p in partials], axis=0) - lows).astype(np.float64)
    mov = None
    if partials[0][4] is not None:
        mov = np.sum([p[4] for p in partials], axis=0)
    return phis, sums, lows, disc, mov


# ----------------------------------------------------------------------
# Block executors over one control channel per block
# ----------------------------------------------------------------------
class _BlockChannels:
    """The executor seam over one control channel per block.

    ``run_chunk(rounds, frozen)`` → one ``(partials, halo_values,
    bytes_by_peer)`` reply per block in ascending block order, each
    holding one row per round run (:func:`~repro.distributed.worker.run_block_loop`
    documents the rows); ``rewind(rounds, frozen)`` returns every block
    to the start of the last chunk and replays ``rounds`` of it;
    ``gather()`` → replica-major ``(B, n)`` loads; ``close()``.  Shared
    by the local process executor and :mod:`repro.distributed.mpi`;
    subclasses open ``self.conns`` and name a block in errors.
    """

    conns: list

    def __init__(self, L: np.ndarray, B: int, assignment: np.ndarray):
        self.B = B
        self.n = L.shape[0]
        self.P = int(assignment.max()) + 1
        self.owned = [np.flatnonzero(assignment == p) for p in range(self.P)]
        self._telemetry = False

    def _block_label(self, p: int) -> str:
        raise NotImplementedError

    def _ask_all(self, msg) -> list:
        for c in self.conns:
            c.send(msg)
        replies = []
        for p, c in enumerate(self.conns):
            try:
                rep = c.recv()
            except TransportError as exc:
                raise RuntimeError(f"{self._block_label(p)} died: {exc}") from exc
            if rep[0] == "error":
                raise RuntimeError(f"{self._block_label(p)} failed: {rep[1]}")
            replies.append(rep)
        return replies

    def run_chunk(self, rounds: int, frozen) -> list[tuple]:
        replies = self._ask_all(("run", rounds, frozen))
        if self._telemetry:
            rec = get_recorder()
            for p, rep in enumerate(replies):
                if len(rep) > 4 and rep[4]:
                    rec.ingest(rep[4], worker=f"local:{p}")
        return [rep[1:4] for rep in replies]

    def rewind(self, rounds: int, frozen) -> None:
        self._ask_all(("rewind", rounds, frozen))

    def gather(self) -> np.ndarray:
        """Assemble the replica-major ``(B, n)`` matrix from worker slabs."""
        replies = self._ask_all(("gather",))
        full = np.empty((self.B, self.n), dtype=replies[0][1].dtype)
        for ids, rep in zip(self.owned, replies):
            full[:, ids] = rep[1].T
        return full


class _LocalProcessExecutor(_BlockChannels):
    """``P`` per-block processes linked by transport channels.

    The local implementation of the block-executor seam (``run_chunk`` /
    ``rewind`` / ``gather`` / ``close``, see :class:`_BlockChannels`)
    that :meth:`PartitionedSimulator.run_with_executor` drives — the
    remote implementation lives in :mod:`repro.distributed.dispatcher`.
    Each worker process runs
    :func:`repro.distributed.worker.run_block_loop` with a control
    channel back to the coordinator and a full mesh of peer channels for
    the halo exchange, all built by
    :func:`repro.distributed.transport.make_pair` for the configured
    transport (``mp-pipe`` socketpairs, or ``tcp`` sockets over
    localhost — the same wire a multi-host run uses).  Workers fork
    where the platform can (they then inherit the warmed operator
    caches) and spawn elsewhere; both transports' endpoints pickle as
    ``Process`` arguments, so either works under either start method.
    """

    def __init__(self, sim: "PartitionedSimulator", L: np.ndarray, B: int,
                 assignment: np.ndarray):
        super().__init__(L, B, assignment)
        P = self.P
        self._telemetry = get_recorder().enabled

        # Pre-build the partition and every block's operator slices in
        # the parent: under the fork start method the workers inherit the
        # warmed caches copy-on-write instead of each rebuilding them
        # (at n=65536 the build costs more than hundreds of rounds).
        resolved = resolve_backend(sim.backend)
        topo0 = sim.balancer.partition_topology(0)  # held: part0 refers to it weakly
        part0 = Partition.for_topology(topo0, assignment, strategy=sim.strategy)
        for p in range(P):
            block_local(part0, p, resolved)
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")

        ctrl = [make_pair(sim.transport) for _ in range(P)]
        mesh: dict[tuple[int, int], tuple] = {}
        for p in range(P):
            for q in range(p + 1, P):
                mesh[(p, q)] = make_pair(sim.transport)
        forked = ctx.get_start_method() == "fork"
        all_ends = [end for pair in ctrl for end in pair]
        all_ends += [end for pair in mesh.values() for end in pair]
        self.procs = []
        worker_ends: list[list] = []
        for p in range(P):
            peers = {}
            for q in range(P):
                if q == p:
                    continue
                a, b = min(p, q), max(p, q)
                peers[q] = mesh[(a, b)][0 if p == a else 1]
            job = sim.block_job(assignment, p, L[self.owned[p]],
                                telemetry=self._telemetry)
            mine = [ctrl[p][1], *peers.values()]
            worker_ends.append(mine)
            # Forked workers inherit every endpoint; handing each the
            # complement of its own lets it drop the copies at startup,
            # so a crashed worker surfaces as EOF on its links instead
            # of a silent coordinator/peer hang.  Spawned workers only
            # receive what is pickled to them — nothing to drop.
            inherited = (
                [end for end in all_ends if not any(end is m for m in mine)]
                if forked
                else None
            )
            self.procs.append(
                ctx.Process(
                    target=run_block_loop,
                    args=(ctrl[p][1], peers, job),
                    kwargs={"inherited": inherited},
                    daemon=True,
                )
            )
        for proc in self.procs:
            proc.start()
        # The coordinator's own copies of the worker-side endpoints.
        for mine in worker_ends:
            for end in mine:
                end.detach()
        self.conns = [c for c, _ in ctrl]
        self._mesh = mesh

    def _block_label(self, p: int) -> str:
        return f"partition worker {p}"

    def close(self) -> None:
        for c in self.conns:
            try:
                c.send(("stop",))
            except TransportError:
                pass
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
        for c in self.conns:
            c.close()
        for a, b in self._mesh.values():
            a.close()
            b.close()


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class PartitionedSimulator(RoundEngine):
    """Run a partition-capable balancer as ``P`` halo-exchanging blocks.

    Parameters
    ----------
    balancer:
        Any :class:`Balancer` with ``supports_partition`` (diffusion in
        both modes — dynamic networks included — and continuous FOS).
    partitions:
        Block count, or a ``"P[:strategy]"`` spec
        (:func:`~repro.graphs.partition.parse_partitions`).
    strategy:
        Partition strategy when ``partitions`` is a bare count
        (``"contiguous"`` or ``"bfs"``).
    assignment:
        Explicit node→block vector overriding the strategy (the node set
        must match the balancer's topology).
    mode:
        ``"inprocess"`` (vectorized loop over blocks, exact statistics)
        or ``"process"`` (persistent workers + transport halo exchange;
        see the module docstring).  ``"process"`` with one block
        degrades to the in-process path.
    transport:
        Channel backend under process mode's halo links and control
        plane: ``"mp-pipe"`` (default; AF_UNIX socketpairs) or ``"tcp"``
        (localhost sockets — the exact wire a multi-host dispatch uses,
        so TCP parity on one host certifies the distributed protocol).
        Both run the same stream-channel code and work under any
        multiprocessing start method.  For HPC clusters the
        same block loop runs rank-per-block over MPI channels — see
        :mod:`repro.distributed.mpi`.  Trajectories are bit-for-bit
        identical across transports.
    stopping / record / keep_snapshots / check_conservation / cons_tol /
    backend:
        As :class:`~repro.simulation.ensemble.EnsembleSimulator`.  With no
        explicit ``backend``, the block kernels run the one pinned on the
        balancer (e.g. by the CLI's ``--backend``).

    After :meth:`run`, :attr:`halo_stats` reports the communication the
    run actually paid: rounds executed, halo values exchanged (ghost
    values received per round, summed), bytes per directed link
    (``"p->q"``; process mode only — in-process ghost gathers move no
    bytes), and the partition's quality metrics.  Link bytes are
    *logical frame* bytes — length prefix + header + metadata + raw
    buffer payload of the transport-independent encoding — so totals
    are identical on every channel backend and comparable across wires.
    Process mode counts committed rounds only, so these equal a lockstep
    run's, and adds ``chunks`` (speculative grants) and
    ``replayed_rounds`` (rounds replayed by rewinds).
    """

    def __init__(
        self,
        balancer: Balancer,
        partitions: int | str = 2,
        strategy: str = "contiguous",
        assignment: np.ndarray | None = None,
        stopping: Sequence[StoppingRule] | None = None,
        record: str = "auto",
        keep_snapshots: bool = False,
        check_conservation: bool = True,
        cons_tol: float = 1e-6,
        mode: str = "inprocess",
        backend: str | None = None,
        transport: str = "mp-pipe",
        overlap: bool | None = None,
        delta_frames: bool | None = None,
    ) -> None:
        if not getattr(balancer, "supports_partition", False):
            raise TypeError(
                f"{balancer.name} has no partitioned kernel; partitioned execution "
                "supports diffusion (continuous/discrete, dynamic included) and "
                "continuous FOS"
            )
        if mode not in ("inprocess", "process"):
            raise ValueError(f"mode must be 'inprocess' or 'process', got {mode!r}")
        if transport not in PROCESS_TRANSPORTS:
            raise ValueError(
                f"transport must be one of {PROCESS_TRANSPORTS}, got {transport!r} "
                "(loopback channels cannot cross a process boundary)"
            )
        super().__init__(
            balancer, stopping, record=record, keep_snapshots=keep_snapshots,
            check_conservation=check_conservation, cons_tol=cons_tol, backend=backend,
        )
        blocks, spec_strategy = parse_partitions(partitions)
        if isinstance(partitions, str) and ":" in partitions:
            strategy = spec_strategy
        self.partitions = blocks
        self.strategy = strategy
        self._assignment = None if assignment is None else np.asarray(assignment, dtype=np.int64)
        self.mode = mode
        self.transport = transport
        #: split-phase rounds: post sends -> compute interior -> drain
        #: recvs -> compute boundary (process mode only; bit-for-bit
        #: identical to the synchronous exchange).  ``None`` reads the
        #: ``REPRO_OVERLAP`` env toggle.
        self.overlap = _env_flag("REPRO_OVERLAP") if overlap is None else bool(overlap)
        #: delta-compressed halo frames: send only changed ghost rows
        #: (dense fallback when not smaller).  ``None`` reads
        #: ``REPRO_DELTA``.
        self.delta_frames = (
            _env_flag("REPRO_DELTA") if delta_frames is None else bool(delta_frames)
        )
        #: communication accounting of the most recent run
        self.halo_stats: dict = {}

    # ------------------------------------------------------------------
    def block_job(self, assignment: np.ndarray, block_id: int, owned: np.ndarray, *,
                  start_round: int = 0, telemetry: bool = False) -> BlockJob:
        """The :class:`~repro.distributed.worker.BlockJob` for one block.

        ``owned`` is the block's initial ``(n_block, B)`` loads.  Every
        executor (local processes, remote workers, MPI ranks) ships this
        to its block workers; ``start_round`` lets checkpoint replay
        continue the round counter, ``telemetry`` asks the block for
        per-phase spans.
        """
        return BlockJob(
            balancer=self.balancer,
            assignment=assignment,
            strategy=self.strategy,
            block_id=block_id,
            owned=owned,
            backend=self.backend,
            want_disc=self._record_disc(),
            want_mov=self.record == "full",
            overlap=self.overlap,
            delta=self.delta_frames,
            start_round=start_round,
            telemetry=telemetry,
        )

    def _resolve_assignment(self, n: int) -> np.ndarray:
        topo0 = self.balancer.partition_topology(0)
        if topo0.n != n:
            raise ValueError(f"topology has {topo0.n} nodes but loads has {n}")
        if self._assignment is not None:
            if self._assignment.shape != (n,):
                raise ValueError(
                    f"assignment must have shape ({n},), got {self._assignment.shape}"
                )
            return self._assignment
        # make_partition caches strategy assignments on the topology, so
        # repeat runs (and fresh simulators on the same graph) reuse the
        # first computation.
        return make_partition(topo0, self.partitions, self.strategy).assignment

    def _init_halo_stats(self, assignment: np.ndarray, mode: str) -> None:
        self.halo_stats = {
            "mode": mode,
            "transport": self.transport if mode == "process" else None,
            "blocks": int(assignment.max()) + 1,
            "strategy": self.strategy,
            "overlap": self.overlap if mode == "process" else False,
            "delta_frames": self.delta_frames if mode == "process" else False,
            "rounds": 0,
            "halo_values": 0,
            "halo_bytes": 0,
            "links": {},
        }

    def run(self, loads: np.ndarray, seed=0, replicas: int | None = None) -> EnsembleTrace:
        """Run all blocks until every replica's stopping rule fires.

        ``seed`` is accepted for engine-interface symmetry; the
        partition-capable schemes are deterministic (their rounds draw
        no randomness), so it is unused.
        """
        if self.mode == "process" and self.partitions > 1:
            return self.run_with_executor(loads, replicas, _LocalProcessExecutor)
        self.balancer.reset()
        L, B = initial_batch(self.balancer, loads, replicas)
        assignment = self._resolve_assignment(L.shape[0])
        self._init_halo_stats(assignment, "inprocess")
        trace = self._new_trace(B)
        active = np.ones(B, dtype=bool)
        stepper = batch_rounds(trace, L, active, self._block_kernel(assignment, B),
                               getattr(self.balancer, "allows_negative", False))
        L = self._drive(trace, stepper, active, "partitioned")
        self.halo_stats["rounds"] = trace.rounds
        trace._final_loads = L.T.copy()
        return trace

    def run_with_executor(self, loads: np.ndarray, replicas: int | None,
                          executor_factory) -> EnsembleTrace:
        """Run through a block executor (process mode's own, or a remote one).

        ``executor_factory(sim, L, B, assignment)`` must return an object
        with the executor seam: ``run_chunk(rounds, frozen)`` → one
        ``(partials, halo_values, bytes_by_peer)`` reply per block in
        ascending block order, with one row per round run (at most
        ``rounds``; an executor may stop a chunk early), ``rewind(rounds,
        frozen)`` → return every block to the start of the last chunk and
        replay ``rounds`` of it, ``gather()`` → replica-major loads, and
        ``close()``.  This is the entry point the multi-host dispatcher
        and the MPI runner use: the chunk schedule, statistics combine,
        stopping and conservation audits are exactly those of local
        process mode, so remote runs inherit its semantics (and its
        bit-for-bit trajectory guarantee) wholesale.
        """
        self.balancer.reset()
        L, B = initial_batch(self.balancer, loads, replicas)
        assignment = self._resolve_assignment(L.shape[0])
        self._init_halo_stats(assignment, "process")
        self.halo_stats.update(chunks=0, replayed_rounds=0)
        trace = self._new_trace(B)
        active = np.ones(B, dtype=bool)
        executor = executor_factory(self, L, B, assignment)
        try:
            chunks = _SpeculativeChunks(self, executor, trace, active)
            self._drive(trace, chunks.rounds(L), active, "partitioned")
            chunks.settle()
            self.halo_stats["rounds"] = trace.rounds
            trace._final_loads = executor.gather()
            return trace
        finally:
            executor.close()

    def _chunk_rounds(self, trace: EnsembleTrace, active: np.ndarray) -> int:
        """Rounds to grant the next speculative chunk.

        The tightest of the stopping rules' :meth:`~repro.simulation.stopping.StoppingRule.rounds_hint`
        values; a rule without a hint allows one eighth of the rounds
        committed so far, so the chunks of such a run grow geometrically
        and a stop replays at most that eighth.  Runs that keep snapshots
        gather after every round, so they grant one round at a time.
        """
        if self.keep_snapshots:
            return 1
        cautious = trace.rounds // 8
        hints = (rule.rounds_hint(trace, active) for rule in self.stopping)
        return max(min(cautious if h is None else h for h in hints), 1)

    def _block_kernel(self, assignment: np.ndarray, B: int):
        """The in-process round: every block's step from the previous matrix."""
        resolved = resolve_backend(self.backend)
        parts = _PartitionMemo(assignment, self.strategy)
        rounds = count()
        hs = self.halo_stats

        def kernel(L: np.ndarray, out: np.ndarray) -> np.ndarray:
            part = parts.get(self.balancer.partition_topology(next(rounds)))
            for p in range(part.blocks):
                local = block_local(part, p, resolved)
                # The halo refresh: owned + ghost rows gathered from the
                # previous round's matrix before this block's round.
                out[local.owned] = self.balancer.block_step(local, L[local.ext_ids])
                hs["halo_values"] += local.n_ghost * B
            return out

        return kernel


class _SpeculativeChunks:
    """The coordinator's chunk schedule over a block executor.

    :meth:`rounds` is the stepper of :meth:`RoundEngine._drive`: it
    grants a chunk of :meth:`PartitionedSimulator._chunk_rounds` rounds,
    and records the chunk's combined statistics rows one per step, so
    ``_drive`` evaluates the stopping rules after every round exactly as
    in a lockstep run.  The workers ran the chunk with the replica mask
    of its start; once a rule stops a replica at row ``r`` the rows after it are
    speculation with the wrong mask, so the schedule rewinds the blocks
    to the chunk start, replays the ``r`` committed rounds and grants the
    next chunk with the new mask.  A run that stops inside a chunk
    leaves it open: :meth:`settle` rewinds it before the final gather.
    The partition-capable rounds are deterministic, so the committed
    trajectory is bit-for-bit a lockstep run's.

    Halo accounting counts committed rows only: ``halo_stats`` values,
    bytes and links equal a lockstep run's, and the ``chunks`` and
    ``replayed_rounds`` keys count the grants and the rewound replays.
    """

    def __init__(self, sim: PartitionedSimulator, executor, trace: EnsembleTrace,
                 active: np.ndarray):
        self.sim = sim
        self.executor = executor
        self.trace = trace
        self.active = active
        #: the open chunk: (rows run, frozen mask, halo values per row,
        #: link bytes per row, wait start, wait end), and its committed rows
        self._open: tuple | None = None
        self._committed = 0

    def rounds(self, L: np.ndarray) -> Iterator[np.ndarray | None]:
        """The executor stepper: ``L``, then one statistics row per round.

        Each row is guarded like a lockstep round
        (:func:`~repro.simulation.ensemble.guard_row`) as it is recorded:
        rows past a stop are never recorded, so their speculation cannot
        fire the guard.
        """
        yield L
        sim, trace, active = self.sim, self.trace, self.active
        n = L.shape[0]
        traced = get_recorder().enabled
        floating = L.dtype.kind == "f"
        signed = getattr(sim.balancer, "allows_negative", False)
        while True:
            start = active.copy()
            frozen = None if start.all() else ~start
            t0 = perf_counter() if traced else 0.0
            replies = self.executor.run_chunk(sim._chunk_rounds(trace, active), frozen)
            t1 = perf_counter() if traced else 0.0
            (phis, sums, lows, disc, mov), values, links = _combine_chunk(replies, n)
            self._open = (len(values), frozen, values, links, t0, t1)
            self._committed = 0
            snapshot = self.executor.gather() if sim.keep_snapshots else None
            for i in range(len(values)):
                trace.record_stats(
                    phis[i], sums[i], None if disc is None else disc[i],
                    None if mov is None else mov[i], snapshot=snapshot,
                )
                guard_row(sums[i], lows[i], floating, signed)
                self._committed = i + 1
                yield None
                if not np.array_equal(active, start):
                    break
            self.settle()

    def settle(self) -> None:
        """Close the open chunk: rewind the rows the run did not commit,
        then account the committed ones."""
        if self._open is None:
            return
        ran, frozen, values, links, t0, t1 = self._open
        self._open = None
        c = self._committed
        replayed = 0
        if c < ran:
            self.executor.rewind(c, frozen)
            replayed = c
        hs = self.sim.halo_stats
        hs["chunks"] += 1
        hs["replayed_rounds"] += replayed
        hs["halo_values"] += int(values[:c].sum())
        for link, per_row in links.items():
            nbytes = int(per_row[:c].sum())
            hs["halo_bytes"] += nbytes
            hs["links"][link] = hs["links"].get(link, 0) + nbytes
        rec = get_recorder()
        if rec.enabled:
            rec.record_span("chunk", t0, t1, rounds=ran, start_round=self.trace.rounds - c,
                            committed=c, replayed=replayed, engine="partitioned")


def _combine_chunk(replies: list[tuple], n: int) -> tuple:
    """One chunk's per-block replies → combined statistics rows, halo
    values per row, and per-row byte counts keyed by directed link."""
    stats = _combine_stats([rep[0] for rep in replies], n)
    values = np.sum([rep[1] for rep in replies], axis=0)
    links = {
        f"{p}->{q}": per_row
        for p, rep in enumerate(replies)
        for q, per_row in rep[2].items()
    }
    return stats, values, links
