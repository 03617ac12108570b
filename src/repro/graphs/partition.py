"""Node-axis graph partitioning: block assignments, ghosts, halo plans.

The replica axis of the execution stack shards embarrassingly (PR 2);
the *node* axis does not — splitting one topology into ``P`` blocks
couples the blocks along every cut edge, so a partitioned round must
exchange boundary ("halo") loads before each block can advance.  This is
exactly how diffusive balancing deploys in practice: per-rank subdomains
exchanging only boundary values with neighbours (Demiralp et al.,
arXiv:2208.07553), with partition quality — edge cut, halo volume,
block-size balance — as first-class communication costs (Taylor et al.).

A :class:`Partition` derives, from a topology and a node→block
``assignment`` vector, everything the halo-exchange runtime in
:mod:`repro.simulation.partitioned` needs:

- per-block **owned** node lists (sorted global ids) and **ghost** lists
  (the exact out-of-block neighbour set of the owned nodes, sorted);
- the **cut-edge** set (edges whose endpoints live in different blocks);
- symmetric **halo plans**: for every adjacent block pair ``(p, q)``,
  which of ``p``'s owned nodes ``q`` needs (``p``'s send list) and where
  the received values land in ``q``'s ghost array (``q``'s recv slots).
  Both lists are ordered by global node id, so
  ``plan(p → q).send`` and ``plan(q ← p).recv`` enumerate the *same*
  nodes in the same order — the symmetry the runtime's paired
  send/recv relies on and the property tests assert;
- quality :meth:`metrics`: edge cut, halo volume, block-size imbalance.

Assignments come from pluggable strategies (``contiguous`` — node-id
ranges, the layout-friendly baseline — and ``bfs``, a greedy BFS grower
that produces connected, low-cut blocks on mesh-like graphs).  The
strategy only fixes the node→block map; all derived structure is
recomputed per topology, so a *dynamic* network (fixed nodes, changing
edges) keeps its assignment while ghosts, cut set and halo plans track
each round's edge set — :meth:`Partition.for_topology` caches the
derived structure on the (immutable) topology instance exactly like
:class:`~repro.core.operators.EdgeOperator` does.  A partition refers to
its topology weakly, so the cache forms no reference cycle.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.graphs.topology import Topology

__all__ = [
    "HaloLink",
    "Partition",
    "contiguous_assignment",
    "bfs_assignment",
    "make_partition",
    "parse_partitions",
    "PARTITION_STRATEGIES",
]

#: Strategy name -> assignment function.
PARTITION_STRATEGIES = ("contiguous", "bfs")

_CACHE_ATTR = "_partitions"


@dataclass(frozen=True)
class HaloLink:
    """One direction of a block's halo exchange with a neighbour block.

    ``send_idx`` indexes this block's *owned* array: the boundary nodes
    the peer needs, ordered by global node id.  ``recv_idx`` indexes this
    block's *ghost* array: the slots filled by values arriving from the
    peer, in the peer's send order (both orders are by global id, so they
    agree by construction).
    """

    peer: int
    send_idx: np.ndarray
    recv_idx: np.ndarray


def contiguous_assignment(topo: Topology, blocks: int) -> np.ndarray:
    """Node-id ranges: block ``p`` owns a contiguous slice of ``0..n-1``.

    The first ``n % blocks`` blocks are one node larger (the same
    near-equal split the replica sharding layer uses).  Oblivious to the
    edge structure — the baseline every smarter strategy is judged
    against — but optimal for generators that emit locality-friendly
    node orders (the 2-D torus's row-major ids make contiguous blocks
    row bands with only two cut rows per block).
    """
    n = topo.n
    if not 1 <= blocks <= n:
        raise ValueError(f"blocks must be in [1, {n}], got {blocks}")
    base, extra = divmod(n, blocks)
    sizes = np.full(blocks, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.repeat(np.arange(blocks, dtype=np.int64), sizes)


def bfs_assignment(topo: Topology, blocks: int) -> np.ndarray:
    """BFS-seeded greedy min-cut grower.

    Block ``p`` seeds at the smallest unassigned node id, then repeatedly
    absorbs the boundary candidate with the **fewest out-of-block
    neighbours** (tie-broken by node id) until it reaches its target
    size — the greedy rule that keeps the growing block's surface, and
    hence the final edge cut, short, and that swallows enclosed pockets
    immediately (a fully surrounded node has zero outside neighbours, so
    it is always the next pick).  Implemented with a lazy min-heap: a
    candidate's key ``degree - in_block_neighbours`` only decreases as
    the block grows, so a popped stale entry is simply re-pushed with its
    refreshed key.

    Deterministic; when the boundary empties (the reachable component is
    exhausted) the block re-seeds at the next smallest unassigned node,
    so disconnected graphs — including dynamic-round subgraphs with
    failed edges — always get a total assignment.  The last block's
    target is every node still unassigned, so it takes them without
    growing.
    """
    n = topo.n
    if not 1 <= blocks <= n:
        raise ValueError(f"blocks must be in [1, {n}], got {blocks}")
    # Python lists, not arrays: the grower touches one node at a time,
    # and indexing a list is several times cheaper than a numpy scalar.
    indptr = topo.indptr.tolist()
    indices = topo.indices.tolist()
    degrees = topo.degrees.tolist()
    assignment = [-1] * n
    heappush, heappop = heapq.heappush, heapq.heappop
    seed = 0  # every node below it is assigned; assignments never revert
    base, extra = divmod(n, blocks)
    for p in range(blocks - 1):
        target = base + (1 if p < extra else 0)
        in_p = [0] * n
        heap: list[tuple[int, int]] = []
        taken = 0
        while taken < target:
            node = -1
            while heap:
                key, cand = heappop(heap)
                if assignment[cand] >= 0:
                    continue
                cur = degrees[cand] - in_p[cand]
                if cur != key:
                    heappush(heap, (cur, cand))
                    continue
                node = cand
                break
            if node < 0:  # (re-)seed at the smallest unassigned node
                while assignment[seed] >= 0:
                    seed += 1
                node = seed
            assignment[node] = p
            taken += 1
            for nb in indices[indptr[node] : indptr[node + 1]]:
                inside = in_p[nb] = in_p[nb] + 1
                if assignment[nb] < 0:
                    heappush(heap, (degrees[nb] - inside, nb))
    out = np.asarray(assignment, dtype=np.int64)
    out[out < 0] = blocks - 1
    return out


_ASSIGNERS = {"contiguous": contiguous_assignment, "bfs": bfs_assignment}


def parse_partitions(spec: int | str) -> tuple[int, str]:
    """Normalize a ``--partitions`` spec to ``(blocks, strategy)``.

    Accepted forms::

        1, 4, "4"      -> (1, "contiguous"), (4, "contiguous"), ...
        "4:bfs"        -> (4, "bfs")
        "2:contiguous" -> (2, "contiguous")

    ``blocks`` must be >= 1 and the strategy one of
    :data:`PARTITION_STRATEGIES`.
    """
    strategy = "contiguous"
    if isinstance(spec, str):
        text = spec.strip().lower()
        if ":" in text:
            text, strategy = text.split(":", 1)
        try:
            blocks = int(text)
        except ValueError:
            raise ValueError(
                f"partitions must be 'P' or 'P:strategy', got {spec!r}"
            ) from None
    elif isinstance(spec, (int, np.integer)) and not isinstance(spec, bool):
        blocks = int(spec)
    else:
        raise ValueError(f"partitions must be an int or 'P[:strategy]', got {spec!r}")
    if blocks < 1:
        raise ValueError(f"partitions must be >= 1, got {blocks}")
    if strategy not in _ASSIGNERS:
        raise ValueError(
            f"unknown partition strategy {strategy!r}; choose from {PARTITION_STRATEGIES}"
        )
    return blocks, strategy


_ASSIGN_CACHE_ATTR = "_strategy_assignments"


def make_partition(topo: Topology, blocks: int, strategy: str = "contiguous") -> "Partition":
    """Assign ``topo``'s nodes to ``blocks`` blocks with ``strategy``.

    Strategy assignments are deterministic in ``(topology, blocks)``, so
    they are cached on the (immutable) topology instance — the BFS
    grower is ``O(n log n)`` and would otherwise be recomputed by every
    fresh simulator at bench sizes.
    """
    if strategy not in _ASSIGNERS:
        raise ValueError(
            f"unknown partition strategy {strategy!r}; choose from {PARTITION_STRATEGIES}"
        )
    cache = topo.__dict__.get(_ASSIGN_CACHE_ATTR)
    if cache is None:
        cache = topo.__dict__[_ASSIGN_CACHE_ATTR] = {}
    key = (int(blocks), strategy)
    assignment = cache.get(key)
    if assignment is None:
        assignment = cache[key] = _ASSIGNERS[strategy](topo, blocks)
    return Partition.for_topology(topo, assignment, strategy=strategy)


class Partition:
    """A node→block assignment plus every derived halo-exchange structure.

    Parameters
    ----------
    topo:
        The graph being split.  Ghosts, cut edges and halo plans are all
        functions of *this* topology's edge set; a dynamic network reuses
        the assignment on each round's topology via :meth:`for_topology`.
    assignment:
        ``(n,)`` integer vector mapping every node to a block in
        ``0 .. P-1``.  Every block must be non-empty (an empty block
        would be a worker with no subdomain).
    strategy:
        Label recorded in reports (the assignment itself is authoritative).
    """

    def __init__(self, topo: Topology, assignment: np.ndarray, strategy: str = "custom"):
        arr = np.asarray(assignment, dtype=np.int64)
        if arr.shape != (topo.n,):
            raise ValueError(f"assignment must have shape ({topo.n},), got {arr.shape}")
        if arr.size == 0 or arr.min() < 0:
            raise ValueError("assignment entries must be non-negative block ids")
        blocks = int(arr.max()) + 1
        counts = np.bincount(arr, minlength=blocks)
        if (counts == 0).any():
            empty = np.flatnonzero(counts == 0).tolist()
            raise ValueError(f"blocks {empty} own no nodes")
        # The arrays the derived structure reads, and a weak reference to
        # the topology itself: the partition is cached on the topology, and
        # a strong reference back would make a cycle that keeps a dropped
        # topology's arrays alive until a full garbage collection.
        self.n = topo.n
        self.m = topo.m
        self.edges = topo.edges
        self._topo = weakref.ref(topo)
        self.assignment = arr.copy()
        self.assignment.setflags(write=False)
        self.blocks = blocks
        self.strategy = str(strategy)

    @property
    def topo(self) -> Topology:
        """The partitioned topology (held weakly; the caller keeps it alive)."""
        topo = self._topo()
        if topo is None:
            raise ReferenceError("the partition's topology has been freed")
        return topo

    # ------------------------------------------------------------------
    # Caching (mirrors EdgeOperator.for_topology)
    # ------------------------------------------------------------------
    @classmethod
    def for_topology(
        cls, topo: Topology, assignment: np.ndarray, strategy: str = "custom"
    ) -> "Partition":
        """The partition of ``topo`` under ``assignment``, cached on the
        topology instance — dynamic networks that cycle through a fixed
        set of graphs derive the halo structure once per distinct graph."""
        cache = topo.__dict__.get(_CACHE_ATTR)
        if cache is None:
            cache = topo.__dict__[_CACHE_ATTR] = {}
        key = np.asarray(assignment, dtype=np.int64).tobytes()
        part = cache.get(key)
        if part is None:
            part = cache[key] = cls(topo, assignment, strategy=strategy)
        return part

    def with_topology(self, topo: Topology) -> "Partition":
        """The same node→block map applied to another graph on the same
        node set (a dynamic round's edge subset)."""
        if topo.n != self.n:
            raise ValueError(f"topology has {topo.n} nodes, assignment covers {self.n}")
        if topo is self._topo():
            return self
        return Partition.for_topology(topo, self.assignment, strategy=self.strategy)

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    @cached_property
    def owned(self) -> list[np.ndarray]:
        """Per-block sorted global node ids (a disjoint cover of ``0..n-1``)."""
        order = np.argsort(self.assignment, kind="stable")
        bounds = np.searchsorted(self.assignment[order], np.arange(self.blocks + 1))
        return [order[bounds[p] : bounds[p + 1]] for p in range(self.blocks)]

    @cached_property
    def block_sizes(self) -> np.ndarray:
        """Per-block owned-node counts, shape ``(P,)``."""
        return np.bincount(self.assignment, minlength=self.blocks)

    @cached_property
    def cut_edges(self) -> np.ndarray:
        """Global edge ids whose endpoints live in different blocks (sorted)."""
        edges = self.edges
        if edges.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        mask = self.assignment[edges[:, 0]] != self.assignment[edges[:, 1]]
        return np.flatnonzero(mask)

    @cached_property
    def ghosts(self) -> list[np.ndarray]:
        """Per-block sorted global ids of out-of-block neighbours.

        Block ``p``'s ghost set is exactly the union of cut-edge
        endpoints opposite an owned node — the values ``p`` must receive
        before it can evaluate any of its nodes' rounds.
        """
        edges = self.edges
        cut = self.cut_edges
        out: list[np.ndarray] = []
        u = edges[cut, 0]
        v = edges[cut, 1]
        bu = self.assignment[u]
        bv = self.assignment[v]
        for p in range(self.blocks):
            foreign = np.concatenate([v[bu == p], u[bv == p]])
            out.append(np.unique(foreign))
        return out

    @cached_property
    def halo_links(self) -> list[list[HaloLink]]:
        """Per-block halo links, each block's list ordered by peer id.

        ``halo_links[p]`` contains one :class:`HaloLink` per neighbouring
        block ``q``; links exist in both directions or neither (the
        symmetry test), and empty exchanges are omitted entirely.
        """
        links: list[list[HaloLink]] = [[] for _ in range(self.blocks)]
        owned = self.owned
        for p in range(self.blocks):
            ghost = self.ghosts[p]
            if ghost.size == 0:
                continue
            owners = self.assignment[ghost]
            for q in np.unique(owners):
                q = int(q)
                recv_idx = np.flatnonzero(owners == q)
                # q sends the same nodes, ordered by global id; translate
                # to positions in q's owned array via searchsorted (owned
                # lists are sorted).
                nodes = ghost[recv_idx]
                send_idx = np.searchsorted(owned[q], nodes)
                links[p].append(HaloLink(peer=q, send_idx=send_idx, recv_idx=recv_idx))
        # Re-key: links[p] currently records what p RECEIVES from q (and
        # what q must send).  The runtime wants, per block, both halves of
        # its own exchange: what *it* sends to q and where *its* recv
        # slots are.  Merge the two views.
        merged: list[list[HaloLink]] = [[] for _ in range(self.blocks)]
        recv_of = {
            (p, link.peer): link.recv_idx for p in range(self.blocks) for link in links[p]
        }
        send_of = {
            (link.peer, p): link.send_idx for p in range(self.blocks) for link in links[p]
        }
        for p in range(self.blocks):
            peers = sorted({q for (pp, q) in recv_of if pp == p} | {q for (pp, q) in send_of if pp == p})
            for q in peers:
                merged[p].append(
                    HaloLink(
                        peer=q,
                        send_idx=send_of.get((p, q), np.empty(0, dtype=np.int64)),
                        recv_idx=recv_of.get((p, q), np.empty(0, dtype=np.int64)),
                    )
                )
        return merged

    @cached_property
    def boundary_owned(self) -> list[np.ndarray]:
        """Per-block positions (into ``owned[p]``) of boundary rows.

        A boundary row is an owned node incident to at least one cut
        edge: its round update reads ghost columns, so it cannot be
        computed until the halo exchange delivers the peer values.
        Positions are sorted (owned lists are sorted by global id, and
        the incident node set is uniqued before translation).
        """
        edges = self.edges
        cut = self.cut_edges
        out: list[np.ndarray] = []
        u = edges[cut, 0] if cut.size else np.empty(0, dtype=np.int64)
        v = edges[cut, 1] if cut.size else np.empty(0, dtype=np.int64)
        bu = self.assignment[u]
        bv = self.assignment[v]
        for p in range(self.blocks):
            nodes = np.unique(np.concatenate([u[bu == p], v[bv == p]]))
            out.append(np.searchsorted(self.owned[p], nodes))
        return out

    @cached_property
    def interior_owned(self) -> list[np.ndarray]:
        """Per-block positions (into ``owned[p]``) of interior rows.

        The complement of :attr:`boundary_owned`: rows whose operator
        support lies entirely on owned columns, so their round update is
        computable before (or concurrently with) the halo exchange —
        the overlap window the split-phase runtime exploits.
        """
        out: list[np.ndarray] = []
        for p in range(self.blocks):
            mask = np.ones(self.owned[p].size, dtype=bool)
            mask[self.boundary_owned[p]] = False
            out.append(np.flatnonzero(mask))
        return out

    def boundary_fraction(self) -> float:
        """Fraction of all nodes that are boundary rows (0.0 = no cut)."""
        n = self.n
        return float(sum(b.size for b in self.boundary_owned) / n) if n else 0.0

    @cached_property
    def halo_volume(self) -> int:
        """Total ghost count over all blocks — the values exchanged per round."""
        return int(sum(g.size for g in self.ghosts))

    @cached_property
    def max_halo(self) -> int:
        """Largest per-block ghost count (the straggler's communication)."""
        return int(max((g.size for g in self.ghosts), default=0))

    def imbalance(self) -> float:
        """Largest block size over the mean block size (1.0 = perfectly even)."""
        sizes = self.block_sizes
        return float(sizes.max() / sizes.mean())

    def metrics(self) -> dict[str, float | int | str]:
        """Quality summary: the costs a partitioned run pays per round."""
        m = self.m
        return {
            "strategy": self.strategy,
            "blocks": self.blocks,
            "n": self.n,
            "m": m,
            "block_min": int(self.block_sizes.min()),
            "block_max": int(self.block_sizes.max()),
            "imbalance": round(self.imbalance(), 4),
            "edge_cut": int(self.cut_edges.size),
            "cut_fraction": round(self.cut_edges.size / m, 4) if m else 0.0,
            "halo_volume": self.halo_volume,
            "max_halo": self.max_halo,
            "interior_rows": int(sum(i.size for i in self.interior_owned)),
            "boundary_rows": int(sum(b.size for b in self.boundary_owned)),
            "boundary_fraction": round(self.boundary_fraction(), 4),
        }

    def __repr__(self) -> str:
        return (
            f"Partition(blocks={self.blocks}, strategy={self.strategy!r}, "
            f"n={self.n}, edge_cut={self.cut_edges.size}, halo={self.halo_volume})"
        )
