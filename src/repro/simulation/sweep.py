"""Grid sweeps: (topology x balancer) convergence matrices.

The question every adopter asks first — "which scheme should I run on my
network?" — is a grid evaluation, so it gets a first-class helper.
:func:`sweep` runs each registered scheme on each topology spec from the
same initial distribution and tabulates rounds-to-target, final
potential, and total net load movement (communication proxy), producing
the comparison table directly.

Specs are strings (``"torus:8x8"``, ``"diffusion-discrete"``) so sweeps
are declarative and CLI-expressible (``repro-lb sweep ...``).

Execution modes
---------------
``replicas > 1`` replicates every cell over independently drawn initial
distributions (per-replica spawned seeds) and reports medians/means.
Every cell is one :func:`~repro.simulation.engine.simulate` request, so
a cell runs on exactly the engine the CLI's ``run`` would pick for it:
batch-capable balancers advance all replicas in lockstep, the rest run
one replica at a time and merge the traces, ``workers`` (``"KxVectorized"``
or a plain ``K``) shards a cell's replica batch over a ``K``-process
pool, and ``partitions`` runs partition-capable cells on the node-axis
partitioned engine.  Per-replica results are identical on every path
(load trajectories bit-for-bit, derived statistics up to float
summation order), so the grid semantics do not depend on which schemes
happen to support batching or partitioning.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import Table
from repro.core.protocols import get_balancer
from repro.graphs.generators import by_name
from repro.simulation.engine import simulate
from repro.simulation.initial import make_loads
from repro.simulation.stopping import MaxRounds, PotentialFractionBelow, Stagnation

__all__ = ["SweepCell", "sweep"]


@dataclass(frozen=True)
class SweepCell:
    """One (topology, balancer) outcome.

    With ``replicas > 1`` the fields are aggregates: ``rounds`` is the
    median rounds-to-target over the replicas that reached it (None when
    none did), ``final_potential`` and ``total_movement`` are means, and
    ``stopped_by`` is the most common stopping reason.
    """

    topology: str
    balancer: str
    rounds: int | None  #: (median) rounds to reach the target (None = not reached)
    final_potential: float
    total_movement: float
    stopped_by: str
    replicas: int = 1


def _aggregate(topology: str, balancer: str, trace, eps: float) -> SweepCell:
    """One cell from its run's trace: medians and means over the replicas."""
    rounds = trace.rounds_to_fraction(eps)
    reached = rounds[~np.isnan(rounds)]
    return SweepCell(
        topology=topology,
        balancer=balancer,
        rounds=int(np.median(reached)) if reached.size else None,
        final_potential=float(np.mean(trace.last_potentials)),
        total_movement=float(np.mean(trace.total_net_movements())),
        stopped_by=Counter(trace.stopped_by).most_common(1)[0][0],
        replicas=trace.replicas,
    )


def _run_cell(
    spec, topo, name, load_kind, eps, max_rounds, seed, replicas, workers, backend=None,
    partitions=1,
) -> SweepCell:
    bal = get_balancer(name, topo)
    if backend is not None:
        bal.backend = backend
    discrete = bal.mode == "discrete"
    # Stagnation ends stalled runs (e.g. floor-discretized schemes
    # plateauing above the target) without burning the round cap;
    # `stopped_by` records which rule fired.
    rules = [PotentialFractionBelow(eps), Stagnation(patience=50), MaxRounds(max_rounds)]

    def initial_loads():
        """Initial distribution(s): ``(n,)`` for one replica, ``(B, n)`` else.

        Per-replica initial distributions and per-replica run streams
        come from *disjoint* spawn keys of the same root seed: reusing
        one stream for both would make a stochastic scheme's round
        randomness replay the bits that generated its own initial state.
        """
        if replicas == 1:
            return make_loads(load_kind, topo.n, rng=np.random.default_rng(seed), discrete=discrete)
        load_rngs = [
            np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b, 1)))
            for b in range(replicas)
        ]
        return np.stack(
            [make_loads(load_kind, topo.n, rng=rng_b, discrete=discrete) for rng_b in load_rngs]
        )

    trace, _ = simulate(
        bal, initial_loads(), rules, seed=seed, replicas=replicas, workers=workers,
        partitions=partitions, record="full",
    )
    return _aggregate(spec, name, trace, eps)


def sweep(
    topology_specs: list[str],
    balancer_names: list[str],
    load_kind: str = "point",
    eps: float = 1e-4,
    max_rounds: int = 100_000,
    seed: int = 0,
    replicas: int = 1,
    workers: int | str = 1,
    backend: str | None = None,
    partitions: int | str = 1,
) -> tuple[Table, list[SweepCell]]:
    """Run the grid; returns the rendered table and the raw cells.

    With ``replicas == 1`` every cell starts from the *same* initial
    distribution (drawn once per topology with the given seed), so rows
    within a topology are directly comparable.  With ``replicas > 1``
    each cell aggregates over independently drawn initial distributions
    (see :class:`SweepCell`).  Discrete and continuous schemes get the
    discrete/continuous rendering of the distribution respectively.
    ``workers`` and ``partitions`` choose each cell's engine (see the
    module docstring's *Execution modes*); ``backend`` pins the kernel
    backend on every constructed balancer (bit-for-bit interchangeable,
    so the grid's numbers do not depend on it).
    """
    if not topology_specs or not balancer_names:
        raise ValueError("need at least one topology and one balancer")
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    suffix = f", {replicas} replicas" if replicas > 1 else ""
    table = Table(
        title=f"sweep: rounds to Phi <= {eps:g}*Phi0 ({load_kind} load{suffix})",
        columns=["topology", "balancer", "rounds", "phi_final", "net_movement", "stopped_by"],
    )
    cells: list[SweepCell] = []
    for spec in topology_specs:
        topo = by_name(spec)
        for name in balancer_names:
            cell = _run_cell(
                spec, topo, name, load_kind, eps, max_rounds, seed, replicas, workers, backend,
                partitions=partitions,
            )
            cells.append(cell)
            table.add_row(
                cell.topology,
                cell.balancer,
                cell.rounds,
                cell.final_potential,
                cell.total_movement,
                cell.stopped_by,
            )
    return table, cells
