"""Immutable undirected-graph container used by every balancer.

The diffusion algorithms of Berenbrink, Friedetzky & Hu (IPPS 2006) operate
on an arbitrary connected network ``G = (V, E)`` with maximum degree
``delta``.  :class:`Topology` stores such a graph in a form that supports
the two access patterns the engines need:

1. *vectorized edge sweeps* — a ``(m, 2)`` edge array so per-edge flows are
   one fancy-indexing expression, and
2. *local neighbourhoods* — a CSR (``indptr``/``indices``) adjacency layout
   so the superstep (message-passing) substrate can hand each node exactly
   its neighbour list, mirroring what a real distributed node would know.

Instances are immutable; derived quantities (degrees, CSR arrays, the
Laplacian) are computed once and cached.  Spectral caching matters because
every theoretical bound in the paper is a function of ``lambda_2`` and
``delta``, and experiments query them repeatedly.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Topology"]


def _canonicalize_edges(n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """Return a sorted, deduplicated ``(m, 2)`` int64 array with ``u < v``.

    Self-loops are rejected: a node never balances with itself and a loop
    would corrupt the degree bookkeeping that the transfer rate
    ``1 / (4 max(d_i, d_j))`` depends on.  An ndarray of pairs is used as
    is; any other iterable is materialized first.  Duplicates go in one
    sort of the 1-D keys ``lo * n + hi`` (their order is the lexicographic
    order of the ``(lo, hi)`` rows) and an adjacent-difference mask, far
    cheaper than a row-wise ``np.unique(axis=0)``.
    """
    if isinstance(edges, np.ndarray):
        arr = edges.astype(np.int64, copy=False)
    else:
        arr = np.asarray(list(edges), dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be pairs, got array of shape {arr.shape}")
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError("edge endpoint out of range")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    if (lo == hi).any():
        raise ValueError("self-loops are not allowed")
    keys = np.sort(lo * n + hi)
    keep = np.empty(keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return np.stack(np.divmod(keys[keep], n), axis=1)


class Topology:
    """An immutable, undirected, simple graph on nodes ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of nodes.  Must be positive.
    edges:
        Iterable of ``(u, v)`` pairs, or an ``(m, 2)`` integer array.
        Direction, duplicates and ordering are normalized away; self-loops
        raise ``ValueError``.
    name:
        Optional human-readable label used by reports and benchmarks.

    Notes
    -----
    Equality and hashing are structural (``n`` and the canonical edge set),
    so topologies can key caches and be compared in tests.
    """

    __slots__ = ("_n", "_edges", "_name", "__dict__", "__weakref__")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray, name: str = "graph"):
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        self._n = int(n)
        self._edges = _canonicalize_edges(self._n, edges)
        self._edges.setflags(write=False)
        self._name = str(name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of (undirected) edges."""
        return int(self._edges.shape[0])

    @property
    def name(self) -> str:
        """Human-readable label."""
        return self._name

    @property
    def edges(self) -> np.ndarray:
        """Read-only ``(m, 2)`` int64 array of canonical edges (``u < v``)."""
        return self._edges

    @cached_property
    def degrees(self) -> np.ndarray:
        """Per-node degree vector, shape ``(n,)``, int64, read-only."""
        deg = np.bincount(self._edges.ravel(), minlength=self._n).astype(np.int64)
        deg.setflags(write=False)
        return deg

    @cached_property
    def max_degree(self) -> int:
        """Maximum degree ``delta`` — appears in every bound of the paper."""
        if self.m == 0:
            return 0
        return int(self.degrees.max())

    @cached_property
    def min_degree(self) -> int:
        """Minimum degree."""
        return int(self.degrees.min()) if self._n else 0

    @cached_property
    def edge_denominators(self) -> np.ndarray:
        """Per-edge damping ``4 max(d_u, d_v)`` as float64, shape ``(m,)``.

        This is the paper's transfer-rate denominator; every scheme that
        sweeps the edge array needs it each round, so it is computed once
        per topology (read-only) instead of per round.
        """
        denom = self.edge_denominators_int.astype(np.float64)
        denom.setflags(write=False)
        return denom

    @cached_property
    def edge_denominators_int(self) -> np.ndarray:
        """Per-edge damping ``4 max(d_u, d_v)`` as int64, shape ``(m,)``.

        The discrete algorithms floor-divide by this, so they need the
        exact integer value; cached for the same reason as the float view.
        """
        deg = self.degrees
        u, v = self._edges[:, 0], self._edges[:, 1]
        denom = 4 * np.maximum(deg[u], deg[v])
        denom.setflags(write=False)
        return denom

    # ------------------------------------------------------------------
    # CSR adjacency (local views for the superstep substrate)
    # ------------------------------------------------------------------
    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR (indptr, indices) of the symmetric adjacency structure."""
        u, v = self._edges[:, 0], self._edges[:, 1]
        heads = np.concatenate([u, v])
        tails = np.concatenate([v, u])
        order = np.argsort(heads, kind="stable")
        heads, tails = heads[order], tails[order]
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=self._n), out=indptr[1:])
        indptr.setflags(write=False)
        tails.setflags(write=False)
        return indptr, tails

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer, shape ``(n + 1,)``."""
        return self._csr[0]

    @property
    def indices(self) -> np.ndarray:
        """CSR column indices (neighbour ids), shape ``(2 m,)``."""
        return self._csr[1]

    def neighbors(self, i: int) -> np.ndarray:
        """Neighbour ids of node ``i`` as a read-only int64 view."""
        if not 0 <= i < self._n:
            raise IndexError(f"node {i} out of range for n={self._n}")
        indptr, indices = self._csr
        return indices[indptr[i] : indptr[i + 1]]

    def degree(self, i: int) -> int:
        """Degree of node ``i``."""
        return int(self.degrees[i])

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``{u, v}`` is an edge."""
        if u == v:
            return False
        return v in self.neighbors(u)

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Iterate canonical ``(u, v)`` edge tuples."""
        for u, v in self._edges:
            yield int(u), int(v)

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    @cached_property
    def is_connected(self) -> bool:
        """True iff the graph is connected (BFS over the CSR structure)."""
        if self._n == 1:
            return True
        if self.m == 0:
            return False
        indptr, indices = self._csr
        seen = np.zeros(self._n, dtype=bool)
        frontier = [0]
        seen[0] = True
        count = 1
        while frontier:
            nxt: list[int] = []
            for node in frontier:
                for nb in indices[indptr[node] : indptr[node + 1]]:
                    if not seen[nb]:
                        seen[nb] = True
                        count += 1
                        nxt.append(int(nb))
            frontier = nxt
        return count == self._n

    @cached_property
    def components(self) -> list[np.ndarray]:
        """Connected components as sorted node-id arrays."""
        indptr, indices = self._csr
        label = np.full(self._n, -1, dtype=np.int64)
        current = 0
        for seed in range(self._n):
            if label[seed] >= 0:
                continue
            label[seed] = current
            frontier = [seed]
            while frontier:
                nxt: list[int] = []
                for node in frontier:
                    for nb in indices[indptr[node] : indptr[node + 1]]:
                        if label[nb] < 0:
                            label[nb] = current
                            nxt.append(int(nb))
                frontier = nxt
            current += 1
        return [np.flatnonzero(label == c) for c in range(current)]

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph_with_edges(self, mask: Sequence[bool] | np.ndarray, name: str | None = None) -> "Topology":
        """Same node set, keeping only the edges where ``mask`` is True.

        Used by the dynamic-network models of Section 5: the node set is
        fixed while the active edge set changes from round to round.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.m,):
            raise ValueError(f"mask must have shape ({self.m},), got {mask.shape}")
        return Topology(self._n, self._edges[mask], name or f"{self._name}|sub")

    def relabeled(self, perm: Sequence[int] | np.ndarray, name: str | None = None) -> "Topology":
        """Apply a node permutation: node ``i`` becomes ``perm[i]``.

        Load balancing is equivariant under relabeling; the property tests
        use this to check that the engines have no hidden node-order bias.
        """
        perm = np.asarray(perm, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(self._n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        remapped = perm[self._edges]
        return Topology(self._n, remapped, name or f"{self._name}|perm")

    def union_edges(self, other: "Topology", name: str | None = None) -> "Topology":
        """Union of edge sets over the same node set."""
        if other.n != self._n:
            raise ValueError("node counts differ")
        combined = np.concatenate([self._edges, other._edges], axis=0)
        return Topology(self._n, combined, name or f"{self._name}+{other._name}")

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a ``networkx.Graph`` (requires networkx)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        g.add_edges_from(self.iter_edges())
        return g

    @classmethod
    def from_networkx(cls, g, name: str = "nx") -> "Topology":
        """Build from a ``networkx`` graph with integer-convertible nodes.

        Nodes are relabeled to ``0 .. n-1`` in sorted order.
        """
        nodes = sorted(g.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in g.edges() if u != v]
        return cls(len(nodes), edges, name)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle only the defining structure, never the derived caches.

        Everything in ``__dict__`` (cached degrees, CSR arrays, spectral
        results, the per-topology :class:`EdgeOperator` with its scratch
        buffers and sparse matrices) is pure derived data rebuilt on
        demand — shipping a warmed topology to a pool worker would
        otherwise serialize tens of MB per shard payload.
        """
        return {"n": self._n, "edges": self._edges, "name": self._name}

    def __setstate__(self, state: dict) -> None:
        self._n = state["n"]
        self._edges = np.asarray(state["edges"], dtype=np.int64)
        self._edges.setflags(write=False)
        self._name = state["name"]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._edges, other._edges)

    def __hash__(self) -> int:
        return hash((self._n, self._edges.tobytes()))

    def __repr__(self) -> str:
        return f"Topology(name={self._name!r}, n={self._n}, m={self.m}, delta={self.max_degree})"
