"""A dropped topology is freed by reference counting alone.

The per-topology caches (edge operators, partitions, block slices) live
in the topology's ``__dict__``.  None of them may refer back to the
topology, or every discarded graph would keep its CSR and edge arrays
until a full cyclic garbage collection.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer
from repro.core.operators import edge_operator
from repro.graphs.generators import torus_2d
from repro.graphs.partition import make_partition
from repro.simulation.partitioned import PartitionedSimulator, block_local
from repro.simulation.stopping import MaxRounds


@pytest.fixture
def no_cyclic_gc():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _warm(topo):
    edge_operator(topo).round_csr()
    edge_operator(topo).fos_csr(0.2)
    part = make_partition(topo, 2, "bfs")
    part.halo_links
    block_local(part, 0).round_rows()
    return part


def test_topology_freed_without_cyclic_gc(no_cyclic_gc):
    topo = torus_2d(16, 16)
    _warm(topo)
    ref = weakref.ref(topo)
    del topo
    assert ref() is None


def test_partition_holds_its_topology_weakly(no_cyclic_gc):
    topo = torus_2d(8, 8)
    part = _warm(topo)
    cut = part.cut_edges.copy()
    ref = weakref.ref(topo)
    del topo
    assert ref() is None
    # The derived structure reads the arrays the partition keeps.
    assert np.array_equal(part.cut_edges, cut)
    assert part.metrics()["n"] == 64
    with pytest.raises(ReferenceError, match="freed"):
        part.topo


def test_partitioned_runs_reuse_block_slices():
    """The cache is strong: a run's block slices outlive the run, so a
    second run on the same topology (a warmed benchmark, a dynamic model
    cycling through its graphs) does not rebuild them."""
    topo = torus_2d(8, 8)
    loads = np.random.default_rng(5).uniform(0.0, 100.0, topo.n)

    def run():
        PartitionedSimulator(
            DiffusionBalancer(topo), partitions=2, strategy="bfs",
            stopping=[MaxRounds(5)],
        ).run(loads.copy())

    run()
    gc.collect()
    blocks = [weakref.ref(block_local(make_partition(topo, 2, "bfs"), p)) for p in range(2)]
    assert all(b() is not None for b in blocks)
    run()
    for p, b in enumerate(blocks):
        assert block_local(make_partition(topo, 2, "bfs"), p) is b()


def test_partition_cache_returns_the_held_instance():
    topo = torus_2d(8, 8)
    part = make_partition(topo, 2, "bfs")
    assert make_partition(topo, 2, "bfs") is part
    assert block_local(part, 1) is block_local(make_partition(topo, 2, "bfs"), 1)


def test_operator_keeps_the_degrees_it_reads():
    topo = torus_2d(4, 5)
    op = edge_operator(topo)
    assert op.degrees is topo.degrees
    assert not hasattr(op, "topo")
    assert np.array_equal(op.fos_csr(0.1).data, edge_operator(torus_2d(4, 5)).fos_csr(0.1).data)


def test_spectral_results_do_not_pin_the_topology():
    """Spectra and Fiedler vectors are cached on the instance, not in a
    module-level cache that would keep every graph they were asked about
    (with its operators and partitions) alive."""
    from repro.graphs.spectral import fiedler_vector, lambda_2

    topo = torus_2d(8, 8)
    lam2 = lambda_2(topo)
    vec = fiedler_vector(topo)
    assert lambda_2(topo) == lam2 and fiedler_vector(topo) is vec
    _warm(topo)
    ref = weakref.ref(topo)
    del topo
    gc.collect()
    assert ref() is None
    # A fresh equal graph gets the same values.
    again = torus_2d(8, 8)
    assert lambda_2(again) == lam2
    assert np.array_equal(fiedler_vector(again), vec)
