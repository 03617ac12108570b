"""Rank-per-block partitioned runs over MPI point-to-point channels.

The HPC-cluster face of the block-executor seam: under ``mpiexec -n P+1``
rank 0 is the coordinator — it drives the exact
:meth:`~repro.simulation.partitioned.PartitionedSimulator.run_with_executor`
loop every other execution mode uses — and each rank ``1..P`` hosts one
partition block, running the unchanged
:func:`~repro.distributed.worker.run_block_loop` over
:class:`~repro.distributed.transport.MpiChannel` links (control to rank
0, halo links block-to-block).  Because the block kernel, the pairwise
halo protocol and the coordinator loop are all shared, MPI trajectories
stay bit-for-bit identical to the serial engines.

Quickstart::

    mpiexec -n 5 python -m repro mpi-run --balancer diffusion \\
        --topology torus:32x32 --partitions 4 --rounds 200

Ranks beyond ``P + 1`` idle out cleanly, so ``-n`` only has to be *at
least* blocks + 1.  Everything here is import-gated on ``mpi4py`` (like
the numba backend): :func:`mpi_available` reports the gate without
initialising MPI.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.transport import (
    MpiChannel,
    TransportError,
    _require_mpi,
    have_mpi,
)
from repro.simulation.partitioned import _BlockChannels

__all__ = [
    "mpi_available",
    "run_partitioned_mpi",
    "serve_block_rank",
    "CTRL_TAG",
    "HALO_TAG",
]

#: coordinator <-> block-rank command channel tag
CTRL_TAG = 101
#: block-rank <-> block-rank halo channel tag
HALO_TAG = 102


def mpi_available() -> bool:
    """True when the mpi4py channel (and thus ``mpi-run``) can work."""
    return have_mpi()


def _ctrl_channel(comm, peer_rank: int) -> MpiChannel:
    return MpiChannel(comm, peer_rank, send_tag=CTRL_TAG)


class _MpiBlockExecutor(_BlockChannels):
    """Block executor over MPI ranks (rank 0 side of the seam).

    Block ``p`` lives on rank ``p + 1``.  The constructor ships each
    rank its :class:`~repro.distributed.worker.BlockJob` over the control
    channel — message order per (source, tag) pair is MPI-guaranteed,
    so no mesh barrier is needed: halo links are plain
    ``(comm, rank, tag)`` triples that exist as soon as both ends
    construct their channel objects.  Ranks beyond
    ``P + 1`` are told to idle out immediately.  ``run_chunk`` /
    ``rewind`` / ``gather`` are the shared
    :class:`~repro.simulation.partitioned._BlockChannels` commands.
    """

    def __init__(self, sim, L: np.ndarray, B: int, assignment: np.ndarray, comm):
        super().__init__(L, B, assignment)
        P = self.P
        size = comm.Get_size()
        if size < P + 1:
            # Raised before any payload ships; run_partitioned_mpi's
            # failure path idles the waiting ranks out.
            raise TransportError(
                f"{P} blocks need {P + 1} MPI ranks (coordinator + one per "
                f"block), got {size}; re-run under mpiexec -n {P + 1}"
            )
        self.conns = [_ctrl_channel(comm, p + 1) for p in range(P)]
        self._spare = [_ctrl_channel(comm, r) for r in range(P + 1, size)]
        for ch in self._spare:
            ch.send(("idle",))
        for p, ch in enumerate(self.conns):
            ch.send(("block", sim.block_job(assignment, p, L[self.owned[p]])))

    def _block_label(self, p: int) -> str:
        return f"block rank {p + 1}"

    def close(self) -> None:
        for c in self.conns:
            try:
                c.send(("stop",))
            except TransportError:  # pragma: no cover - rank already gone
                pass
        for c in self.conns + self._spare:
            c.close()

    def control_traffic(self) -> dict[str, dict[str, int]]:
        """Per-block-rank control-link byte counters (rank 0's side)."""
        return {f"rank{p + 1}": c.traffic() for p, c in enumerate(self.conns)}


def serve_block_rank(comm, *, timeout: float | None = None) -> None:
    """Nonzero-rank entry point: host one block (or idle out).

    Waits for rank 0's ``("block", job)`` assignment, builds halo
    channels to every peer block's rank, and hands control to the same
    :func:`~repro.distributed.worker.run_block_loop` the process and
    remote-worker modes run.  ``("idle",)`` — sent to surplus ranks and
    on coordinator-side failure — returns immediately.
    """
    from repro.distributed.worker import run_block_loop

    ctrl = _ctrl_channel(comm, 0)
    msg = ctrl.recv(timeout)
    if msg[0] == "idle":
        ctrl.close()
        return
    if msg[0] != "block":  # pragma: no cover - defensive
        ctrl.close()
        raise TransportError(f"expected a block assignment, got {msg[0]!r}")
    job = msg[1]
    P = int(job.assignment.max()) + 1
    peers = {
        q: MpiChannel(comm, q + 1, send_tag=HALO_TAG)
        for q in range(P)
        if q != job.block_id
    }
    run_block_loop(ctrl, peers, job, peer_timeout=timeout)


def run_partitioned_mpi(
    balancer,
    loads: np.ndarray,
    *,
    partitions: int | str = 2,
    strategy: str = "contiguous",
    stopping=None,
    record: str = "auto",
    keep_snapshots: bool = False,
    check_conservation: bool = True,
    cons_tol: float = 1e-6,
    backend: str | None = None,
    replicas: int | None = None,
    comm=None,
    timeout: float | None = None,
    delta_frames: bool = False,
):
    """Run a partitioned ensemble across MPI ranks; collective entry point.

    Every rank calls this (the ``mpi-run`` CLI does); the engine knobs,
    ``delta_frames`` included, are those of
    :class:`~repro.simulation.partitioned.PartitionedSimulator`.  Rank 0
    returns ``(trace, stats)`` — the same shape
    :func:`~repro.distributed.dispatcher.dispatch_partitioned` returns,
    with ``stats`` extending ``halo_stats`` with the rank roster and
    control-traffic counters; block ranks return ``None`` after serving.
    """
    from repro.simulation.partitioned import PartitionedSimulator

    MPI = _require_mpi()
    if comm is None:
        comm = MPI.COMM_WORLD
    if comm.Get_rank() != 0:
        serve_block_rank(comm, timeout=timeout)
        return None

    sim = PartitionedSimulator(
        balancer,
        partitions=partitions,
        strategy=strategy,
        stopping=stopping,
        record=record,
        keep_snapshots=keep_snapshots,
        check_conservation=check_conservation,
        cons_tol=cons_tol,
        mode="process",
        backend=backend,
        transport="mp-pipe",  # engine bookkeeping only; channels are MPI
        delta_frames=delta_frames,
    )
    executor_box: list[_MpiBlockExecutor] = []

    def factory(psim, L, B, resolved_assignment):
        executor = _MpiBlockExecutor(psim, L, B, resolved_assignment, comm)
        executor_box.append(executor)
        return executor

    try:
        trace = sim.run_with_executor(loads, replicas, factory)
    except Exception:
        if not executor_box:
            # The failure predates payload shipping (bad arguments, an
            # unpartitionable balancer): idle the block ranks out so the
            # job exits instead of hanging in their payload recv.
            size = comm.Get_size()
            for r in range(1, size):
                ch = _ctrl_channel(comm, r)
                try:
                    ch.send(("idle",))
                finally:
                    ch.close()
        raise
    stats = dict(sim.halo_stats)
    stats["mode"] = "mpi"
    stats["ranks"] = comm.Get_size()
    stats["blocks_by_rank"] = {
        f"rank{p + 1}": [p] for p in range(executor_box[0].P)
    }
    stats["control_traffic"] = executor_box[0].control_traffic()
    return trace, stats
