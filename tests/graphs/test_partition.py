"""Invariants of node-axis partitions: covers, ghosts, halo-plan symmetry."""

import hashlib

import numpy as np
import pytest

from repro.graphs.generators import by_name, hypercube, random_regular, torus_2d
from repro.graphs.partition import (
    PARTITION_STRATEGIES,
    Partition,
    bfs_assignment,
    contiguous_assignment,
    make_partition,
    parse_partitions,
)

TOPOLOGIES = [
    torus_2d(8, 8),
    hypercube(6),
    random_regular(60, 4, np.random.default_rng(7)),
]


def _half_failed(topo, seed):
    """``topo`` with about half its edges failed (all of them for seed None)."""
    if seed is None:
        return topo.subgraph_with_edges(np.zeros(topo.m, dtype=bool))
    return topo.subgraph_with_edges(np.random.default_rng(seed).random(topo.m) < 0.5)


def _check_invariants(topo, part):
    n = topo.n
    # Every node in exactly one block.
    cover = np.concatenate(part.owned)
    assert sorted(cover.tolist()) == list(range(n))
    assert part.block_sizes.sum() == n
    assert all(np.array_equal(part.owned[p], np.sort(part.owned[p])) for p in range(part.blocks))

    # Ghost sets are the exact out-of-block neighbour set.
    for p in range(part.blocks):
        owned = set(part.owned[p].tolist())
        expected = set()
        for node in owned:
            for nb in topo.neighbors(node):
                if int(nb) not in owned:
                    expected.add(int(nb))
        assert set(part.ghosts[p].tolist()) == expected
        assert np.array_equal(part.ghosts[p], np.sort(part.ghosts[p]))

    # Cut edges are exactly the cross-block edges.
    edges = topo.edges
    expected_cut = {
        e for e in range(topo.m)
        if part.assignment[edges[e, 0]] != part.assignment[edges[e, 1]]
    }
    assert set(part.cut_edges.tolist()) == expected_cut

    # Halo plans are symmetric: p sends to q exactly the nodes q receives
    # from p, in the same (global-id) order, and links pair up.
    links = {(p, link.peer): link for p in range(part.blocks) for link in part.halo_links[p]}
    for (p, q), link in links.items():
        assert (q, p) in links, f"link {p}->{q} has no reverse"
        sent_nodes = part.owned[p][link.send_idx]
        recv_nodes = part.ghosts[q][links[(q, p)].recv_idx]
        assert np.array_equal(sent_nodes, recv_nodes)
        # Everything sent is owned by p and ghosted by q.
        assert set(sent_nodes.tolist()) <= set(part.owned[p].tolist())
        assert set(sent_nodes.tolist()) <= set(part.ghosts[q].tolist())
    # Every ghost value arrives through exactly one link.
    for p in range(part.blocks):
        covered = np.concatenate(
            [link.recv_idx for link in part.halo_links[p]]
            or [np.empty(0, dtype=np.int64)]
        )
        assert sorted(covered.tolist()) == list(range(part.ghosts[p].size))

    # Interior/boundary rows partition each block's owned rows, and the
    # boundary is exactly the owned endpoints of cut edges (the rows
    # whose update reads ghost columns).
    for p in range(part.blocks):
        interior = part.interior_owned[p]
        boundary = part.boundary_owned[p]
        both = np.concatenate([interior, boundary])
        assert sorted(both.tolist()) == list(range(part.owned[p].size))
        owned = set(part.owned[p].tolist())
        expected_boundary = {
            i for i, node in enumerate(part.owned[p])
            if any(int(nb) not in owned for nb in topo.neighbors(int(node)))
        }
        assert set(boundary.tolist()) == expected_boundary
        assert np.array_equal(boundary, np.sort(boundary))
        assert np.array_equal(interior, np.sort(interior))

    # Metrics agree with the derived structure.
    m = part.metrics()
    assert m["edge_cut"] == len(expected_cut)
    assert m["halo_volume"] == sum(g.size for g in part.ghosts)
    assert m["max_halo"] == max((g.size for g in part.ghosts), default=0)
    assert m["block_max"] == int(part.block_sizes.max())
    assert m["imbalance"] >= 1.0
    assert m["interior_rows"] + m["boundary_rows"] == n
    assert m["boundary_fraction"] == round(m["boundary_rows"] / n, 4)
    if len(expected_cut) == 0:
        assert m["boundary_rows"] == 0 and m["boundary_fraction"] == 0.0


class TestPartitionInvariants:
    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.name)
    @pytest.mark.parametrize("P", [1, 2, 4, 7])
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_invariants(self, topo, P, strategy):
        _check_invariants(topo, make_partition(topo, P, strategy))

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_dynamic_edge_failures_keep_invariants(self, strategy):
        """The fixed assignment stays valid while the edge set (and hence
        ghosts, cut set and halo plans) changes under edge failures."""
        base = torus_2d(8, 8)
        part = make_partition(base, 4, strategy)
        rng = np.random.default_rng(3)
        for _ in range(5):
            mask = rng.random(base.m) < 0.6
            failed = base.subgraph_with_edges(mask)
            sub = part.with_topology(failed)
            assert np.array_equal(sub.assignment, part.assignment)
            _check_invariants(failed, sub)
            # Fewer edges can only shrink the communication structure.
            assert sub.cut_edges.size <= part.cut_edges.size
            assert sub.halo_volume <= part.halo_volume

    def test_block_sizes_near_equal(self):
        topo = torus_2d(8, 8)
        for strategy in PARTITION_STRATEGIES:
            part = make_partition(topo, 7, strategy)
            sizes = part.block_sizes
            assert sizes.max() - sizes.min() <= 1

    def test_bfs_blocks_connected_on_torus(self):
        """The BFS grower's blocks are connected subgraphs on a connected
        graph (the property that keeps its cuts short)."""
        topo = torus_2d(8, 8)
        part = make_partition(topo, 4, "bfs")
        for p in range(part.blocks):
            owned = set(part.owned[p].tolist())
            seen = {min(owned)}
            frontier = [min(owned)]
            while frontier:
                nxt = []
                for node in frontier:
                    for nb in topo.neighbors(node):
                        if int(nb) in owned and int(nb) not in seen:
                            seen.add(int(nb))
                            nxt.append(int(nb))
                frontier = nxt
            assert seen == owned

    def test_contiguous_is_id_ranges(self):
        topo = torus_2d(4, 4)
        a = contiguous_assignment(topo, 3)
        assert np.array_equal(a, np.sort(a))
        assert np.bincount(a).tolist() == [6, 5, 5]

    def test_bfs_assignment_total_on_disconnected(self):
        """Edge failures can disconnect the graph; the grower must still
        assign every node."""
        base = torus_2d(6, 6)
        empty = base.subgraph_with_edges(np.zeros(base.m, dtype=bool))
        a = bfs_assignment(empty, 4)
        assert (a >= 0).all()
        assert np.bincount(a, minlength=4).min() > 0

    @pytest.mark.parametrize(
        "build, P, digest",
        [
            (lambda: torus_2d(256, 256), 2,
             "1b3160a4d1aedb090046134e213782f1cf06356b8dbb05b9c3314e10b5ee78cb"),
            (lambda: torus_2d(64, 64), 4,
             "fca9dce19f407d8c610dab30dd18504584d07be73a3ae85a6f87bf90281507fc"),
            (lambda: by_name("hypercube:10"), 3,
             "38766c9a020f907b4785a1a16aaa21f19d1752f1d2ff4ac2b0d9bd4628337165"),
            (lambda: by_name("cycle:101"), 5,
             "6ff1f3106342775695e1e978517ed1ef95a36d55170c11ac3ec1c31353ea60fe"),
            (lambda: _half_failed(torus_2d(12, 12), 5), 3,
             "a906b3b806ba50ed940b3222c956f74558396d69e54cc7b4959d1f0811ddb899"),
            (lambda: _half_failed(torus_2d(6, 6), None), 4,
             "fbf7238b2da41a274a7d3e38dc64df7b07c2d41ad358da22e288d47d96c35f4f"),
            (lambda: torus_2d(16, 16), 1,
             "e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad"),
        ],
        ids=["torus256-P2", "torus64-P4", "hypercube10-P3", "cycle101-P5",
             "torus12-half-failed-P3", "torus6-no-edges-P4", "torus16-P1"],
    )
    def test_bfs_assignment_pinned(self, build, P, digest):
        """The grower's output is pinned bit for bit (int64 node -> block),
        so a faster grower cannot move a block boundary."""
        a = bfs_assignment(build(), P)
        assert a.dtype == np.int64
        assert hashlib.sha256(a.tobytes()).hexdigest() == digest

    def test_caching_per_topology(self):
        topo = torus_2d(4, 4)
        a = contiguous_assignment(topo, 2)
        p1 = Partition.for_topology(topo, a)
        p2 = Partition.for_topology(topo, a)
        assert p1 is p2
        p3 = Partition.for_topology(topo, contiguous_assignment(topo, 4))
        assert p3 is not p1


class TestPartitionValidation:
    def test_empty_block_rejected(self):
        topo = torus_2d(4, 4)
        a = np.zeros(topo.n, dtype=np.int64)
        a[0] = 2  # block 1 empty
        with pytest.raises(ValueError, match="own no nodes"):
            Partition(topo, a)

    def test_wrong_shape_rejected(self):
        topo = torus_2d(4, 4)
        with pytest.raises(ValueError, match="shape"):
            Partition(topo, np.zeros(5, dtype=np.int64))

    def test_negative_block_rejected(self):
        topo = torus_2d(4, 4)
        a = np.zeros(topo.n, dtype=np.int64)
        a[3] = -1
        with pytest.raises(ValueError, match="non-negative"):
            Partition(topo, a)

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_too_many_blocks_rejected(self, strategy):
        from repro.graphs.generators import cycle

        with pytest.raises(ValueError, match="blocks must be in"):
            make_partition(cycle(4), 5, strategy)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            make_partition(torus_2d(4, 4), 2, "metis")

    def test_with_topology_node_count_mismatch(self):
        part = make_partition(torus_2d(4, 4), 2)
        with pytest.raises(ValueError, match="nodes"):
            part.with_topology(torus_2d(4, 5))


class TestParsePartitions:
    @pytest.mark.parametrize("spec,expected", [
        (1, (1, "contiguous")),
        (4, (4, "contiguous")),
        ("4", (4, "contiguous")),
        ("4:bfs", (4, "bfs")),
        ("2:contiguous", (2, "contiguous")),
        (" 3:BFS ", (3, "bfs")),
    ])
    def test_accepted_forms(self, spec, expected):
        assert parse_partitions(spec) == expected

    @pytest.mark.parametrize("spec", [0, -1, "0", "-3", "x", "4:metis", "bfs:4", 2.5, True, None])
    def test_rejected_forms(self, spec):
        with pytest.raises(ValueError):
            parse_partitions(spec)
