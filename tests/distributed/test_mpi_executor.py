"""The MPI block executor's rank-0 side, without mpi4py.

:class:`~repro.distributed.mpi._MpiBlockExecutor` speaks to its block
ranks only through the control channels ``_ctrl_channel`` opens.  Here
those are loopback channels, and each "rank" is a thread that receives
its ``("block", job)`` assignment and runs the unchanged
:func:`~repro.distributed.worker.run_block_loop` over loopback halo
links, so the executor's ``run`` / ``rewind`` / ``gather`` plumbing runs
end to end on any host.  The real ``mpiexec`` legs live in
``test_mpi.py``.
"""

import threading

import numpy as np
import pytest

import repro.distributed.mpi as mpi_mod
from repro.core.diffusion import DiffusionBalancer
from repro.distributed.transport import loopback_pair
from repro.distributed.worker import run_block_loop
from repro.graphs.generators import torus_2d
from repro.simulation.partitioned import PartitionedSimulator
from repro.simulation.stopping import MaxRounds, PotentialFractionBelow, Stagnation

P = 3


class _FakeComm:
    def Get_size(self):
        return P + 1


@pytest.fixture
def loopback_ranks(monkeypatch):
    """Route ``_ctrl_channel`` to loopback "ranks" serving one block each."""
    halo = {}
    for p in range(P):
        for q in range(p + 1, P):
            halo[p, q] = loopback_pair()
    threads = []

    def serve(ctrl, p):
        msg = ctrl.recv(10.0)
        assert msg[0] == "block"
        peers = {q: halo[min(p, q), max(p, q)][0 if p < q else 1]
                 for q in range(P) if q != p}
        run_block_loop(ctrl, peers, msg[1], peer_timeout=10.0)

    def ctrl_channel(comm, rank):
        coordinator, block = loopback_pair()
        thread = threading.Thread(target=serve, args=(block, rank - 1), daemon=True)
        thread.start()
        threads.append(thread)
        return coordinator

    monkeypatch.setattr(mpi_mod, "_ctrl_channel", ctrl_channel)
    yield
    for thread in threads:
        thread.join(timeout=10.0)
    assert not any(thread.is_alive() for thread in threads)


@pytest.mark.parametrize("rules", [
    lambda: [Stagnation(5), MaxRounds(2_000)],
    lambda: [PotentialFractionBelow(1e-3), MaxRounds(400)],
], ids=["stagnation", "fraction"])
def test_mpi_executor_rewinds_match_inprocess(loopback_ranks, rules):
    topo = torus_2d(8, 8)
    rng = np.random.default_rng(3)
    batch = np.stack(
        [rng.integers(0, 10 ** (3 + b), topo.n) for b in range(4)]
    ).astype(np.int64)
    expected = PartitionedSimulator(
        DiffusionBalancer(topo, mode="discrete"), partitions=P, stopping=rules(),
    ).run(batch.copy())
    sim = PartitionedSimulator(
        DiffusionBalancer(topo, mode="discrete"), partitions=P, stopping=rules(),
        mode="process",
    )
    trace = sim.run_with_executor(
        batch.copy(), None,
        lambda psim, L, B, assignment: mpi_mod._MpiBlockExecutor(
            psim, L, B, assignment, _FakeComm()),
    )
    assert np.array_equal(trace.final_loads, expected.final_loads)
    assert np.array_equal(trace.rounds_vector, expected.rounds_vector)
    assert trace.stopped_by == expected.stopped_by
    assert np.array_equal(trace.potentials_matrix, expected.potentials_matrix)
    assert sim.halo_stats["chunks"] < trace.rounds
