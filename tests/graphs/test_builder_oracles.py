"""The vectorised graph builders against the loop-built code they replaced.

The generators build their edge arrays with ``arange`` arithmetic, the
``Topology`` constructor deduplicates over 1-D keys, and the BFS
partitioner walks Python lists.  The oracles below are the earlier
per-edge loops, the row-wise ``np.unique`` canonicalisation and the
numpy-scalar BFS grower, kept verbatim: every output must be identical.
"""

import heapq

import numpy as np
import pytest

from repro.graphs import generators as g
from repro.graphs.partition import bfs_assignment, make_partition
from repro.graphs.topology import Topology


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def old_canonical(n, edges):
    """Row-wise canonicalisation: materialise, orient, ``unique(axis=0)``."""
    arr = np.asarray(list(edges), dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def loop_path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def loop_cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def loop_complete(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def loop_star(n):
    return n, [(0, i) for i in range(1, n)]


def loop_wheel(n):
    rim = list(range(1, n))
    edges = [(0, i) for i in rim]
    edges += [(rim[k], rim[(k + 1) % len(rim)]) for k in range(len(rim))]
    return n, edges


def loop_grid(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((r * cols + c, r * cols + c + 1))
            if r + 1 < rows:
                edges.append((r * cols + c, (r + 1) * cols + c))
    return rows * cols, edges


def loop_torus(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            edges.append((r * cols + c, r * cols + (c + 1) % cols))
            edges.append((r * cols + c, ((r + 1) % rows) * cols + c))
    return rows * cols, edges


def loop_hypercube(dim):
    n = 1 << dim
    edges = []
    for v in range(n):
        for b in range(dim):
            u = v ^ (1 << b)
            if v < u:
                edges.append((v, u))
    return n, edges


def loop_de_bruijn(dim):
    n = 1 << dim
    edges = []
    for v in range(n):
        for succ in ((2 * v) % n, (2 * v + 1) % n):
            if v != succ:
                edges.append((v, succ))
    return n, edges


def loop_k_ary_tree(k, depth):
    n = (k ** (depth + 1) - 1) // (k - 1)
    return n, [((child - 1) // k, child) for child in range(1, n)]


def loop_barbell(k):
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    edges.append((k - 1, k))
    return 2 * k, edges


def loop_lollipop(k, tail):
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    prev = k - 1
    for t in range(tail):
        edges.append((prev, k + t))
        prev = k + t
    return k + tail, edges


def loop_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return 10, outer + inner + spokes


def scalar_bfs_assignment(topo, blocks):
    """The BFS grower indexing numpy scalars, with an ``argmax`` re-seed."""
    n = topo.n
    indptr, indices = topo.indptr, topo.indices
    degrees = topo.degrees
    assignment = np.full(n, -1, dtype=np.int64)
    base, extra = divmod(n, blocks)
    for p in range(blocks):
        target = base + (1 if p < extra else 0)
        in_p = np.zeros(n, dtype=np.int64)
        heap = []
        taken = 0
        while taken < target:
            node = -1
            while heap:
                key, cand = heapq.heappop(heap)
                if assignment[cand] >= 0:
                    continue
                cur = int(degrees[cand] - in_p[cand])
                if cur != key:
                    heapq.heappush(heap, (cur, cand))
                    continue
                node = cand
                break
            if node < 0:
                node = int(np.argmax(assignment < 0))
            assignment[node] = p
            taken += 1
            for nb in indices[indptr[node] : indptr[node + 1]]:
                nb = int(nb)
                in_p[nb] += 1
                if assignment[nb] < 0:
                    heapq.heappush(heap, (int(degrees[nb] - in_p[nb]), nb))
    return assignment


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
#: Every ``by_name`` family except the seeded random one, at several sizes
#: including the degenerate ones.
LOOP_ORACLES = {
    "path:1": loop_path(1),
    "path:2": loop_path(2),
    "path:17": loop_path(17),
    "cycle:3": loop_cycle(3),
    "cycle:12": loop_cycle(12),
    "complete:1": loop_complete(1),
    "complete:9": loop_complete(9),
    "star:2": loop_star(2),
    "star:9": loop_star(9),
    "wheel:4": loop_wheel(4),
    "wheel:11": loop_wheel(11),
    "grid:1x1": loop_grid(1, 1),
    "grid:1x6": loop_grid(1, 6),
    "grid:5x3": loop_grid(5, 3),
    "torus:3x3": loop_torus(3, 3),
    "torus:3x7": loop_torus(3, 7),
    "torus:16x16": loop_torus(16, 16),
    "torus:256x256": loop_torus(256, 256),
    "hypercube:1": loop_hypercube(1),
    "hypercube:7": loop_hypercube(7),
    "debruijn:1": loop_de_bruijn(1),
    "debruijn:2": loop_de_bruijn(2),
    "debruijn:7": loop_de_bruijn(7),
    "bintree:0": loop_k_ary_tree(2, 0),
    "bintree:5": loop_k_ary_tree(2, 5),
    "barbell:2": loop_barbell(2),
    "barbell:6": loop_barbell(6),
    "lollipop:2+1": loop_lollipop(2, 1),
    "lollipop:5+4": loop_lollipop(5, 4),
    "petersen": loop_petersen(),
}


def test_every_family_has_an_oracle():
    covered = {spec.partition(":")[0] for spec in LOOP_ORACLES}
    assert covered | {"regular"} == set(g.FAMILIES)


@pytest.mark.parametrize("spec", sorted(LOOP_ORACLES))
def test_family_matches_loop_oracle(spec):
    n, edges = LOOP_ORACLES[spec]
    topo = g.by_name(spec)
    assert topo.n == n
    assert topo.edges.dtype == np.int64
    assert np.array_equal(topo.edges, old_canonical(n, edges))


@pytest.mark.parametrize("k,depth", [(2, 0), (3, 3), (4, 2)])
def test_k_ary_tree_matches_loop_oracle(k, depth):
    n, edges = loop_k_ary_tree(k, depth)
    assert np.array_equal(g.k_ary_tree(k, depth).edges, old_canonical(n, edges))


@pytest.mark.parametrize("spec", ["regular:64x4@7", "regular:50x3@1", "regular:10x1@3"])
def test_regular_canonicalisation_matches_row_wise_unique(spec, monkeypatch):
    """The swap-randomised family keeps its loop; its edge set must
    canonicalise exactly as the row-wise ``unique`` did."""
    raw = []

    class Recording(Topology):
        def __init__(self, n, edges, name="graph"):
            edges = edges if isinstance(edges, np.ndarray) else list(edges)
            raw.append((n, edges))
            super().__init__(n, edges, name)

    monkeypatch.setattr(g, "Topology", Recording)
    topo = g.by_name(spec)
    n, edges = raw[-1]
    assert np.array_equal(topo.edges, old_canonical(n, edges))


# ----------------------------------------------------------------------
# Topology construction
# ----------------------------------------------------------------------
def _as(kind, pairs):
    return np.asarray(pairs, dtype=np.int64) if kind == "ndarray" else list(pairs)


@pytest.mark.parametrize("kind", ["list", "ndarray"])
class TestTopologyInput:
    def test_duplicates_and_orientation_normalised(self, kind):
        pairs = [(3, 1), (1, 3), (0, 2), (2, 0), (0, 1), (3, 1)]
        topo = Topology(4, _as(kind, pairs))
        assert np.array_equal(topo.edges, old_canonical(4, pairs))
        assert topo.edges.tolist() == [[0, 1], [0, 2], [1, 3]]

    def test_self_loop_rejected(self, kind):
        with pytest.raises(ValueError, match="self-loops"):
            Topology(4, _as(kind, [(0, 1), (2, 2)]))

    @pytest.mark.parametrize("pair", [(0, 4), (-1, 2), (4, 5)])
    def test_out_of_range_rejected(self, kind, pair):
        with pytest.raises(ValueError, match="out of range"):
            Topology(4, _as(kind, [(0, 1), pair]))

    @pytest.mark.parametrize("bad", [[0, 1, 2], [(0, 1, 2), (1, 2, 3)]])
    def test_bad_shape_rejected(self, kind, bad):
        with pytest.raises(ValueError, match="pairs"):
            Topology(4, _as(kind, bad))

    def test_empty_edge_set(self, kind):
        topo = Topology(3, _as(kind, []))
        assert topo.edges.shape == (0, 2) and topo.m == 0


def test_ndarray_input_is_not_aliased():
    raw = np.array([[1, 0], [2, 1]], dtype=np.int64)
    topo = Topology(3, raw)
    raw[0] = (2, 0)
    assert topo.edges.tolist() == [[0, 1], [1, 2]]
    assert not topo.edges.flags.writeable


def test_generator_input_still_accepted():
    topo = Topology(4, ((i, i + 1) for i in range(3)))
    assert topo.edges.tolist() == [[0, 1], [1, 2], [2, 3]]


# ----------------------------------------------------------------------
# BFS partitioner
# ----------------------------------------------------------------------
def _failed_round():
    base = g.torus_2d(8, 8)
    mask = np.random.default_rng(5).random(base.m) < 0.55
    return base.subgraph_with_edges(mask, name="torus:8x8|failed")


BFS_GRAPHS = {
    "torus:3x3": lambda: g.torus_2d(3, 3),
    "torus:3x7": lambda: g.torus_2d(3, 7),
    "torus:16x16": lambda: g.torus_2d(16, 16),
    "grid:5x9": lambda: g.grid_2d(5, 9),
    "hypercube:6": lambda: g.hypercube(6),
    "regular:60x3": lambda: g.random_regular(60, 3, np.random.default_rng(7)),
    "two-components": lambda: Topology(12, [(0, 1), (1, 2), (2, 0), (2, 3), (7, 8), (8, 9), (9, 10), (10, 7)]),
    "edgeless": lambda: Topology(6, []),
    "failed-edges": _failed_round,
}


@pytest.mark.parametrize("name", sorted(BFS_GRAPHS))
@pytest.mark.parametrize("blocks", [1, 2, 3, 5])
def test_bfs_matches_scalar_oracle(name, blocks):
    topo = BFS_GRAPHS[name]()
    got = bfs_assignment(topo, blocks)
    assert got.dtype == np.int64
    assert np.array_equal(got, scalar_bfs_assignment(topo, blocks))


def test_bfs_matches_scalar_oracle_at_bench_size():
    topo = g.torus_2d(256, 256)
    got = bfs_assignment(topo, 2)
    assert np.array_equal(got, scalar_bfs_assignment(topo, 2))
    assert make_partition(topo, 2, "bfs").cut_edges.size == 512
