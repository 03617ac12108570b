"""The one entry point for a local run: :func:`simulate`.

:func:`simulate` picks the engine for a local run request.  The CLI's
``run`` and ``compare``, every sweep cell and every experiment call it
(or one of its one-replica forms below), so one request gets one engine
everywhere.  ``partitions > 1`` on a partition-capable scheme runs the
:class:`~repro.simulation.partitioned.PartitionedSimulator` (process
mode when ``workers > 1``); several replicas of a scheme without a
batched kernel run one at a time and merge; several replicas with
``workers > 1`` are sharded over a process pool; anything else is one
:class:`~repro.simulation.ensemble.EnsembleSimulator` run.  One replica
draws its rounds from ``np.random.default_rng(seed)``; ``B`` replicas
from ``spawn_rngs(seed, B)``; explicit generators are used as given.

The one-replica forms return a :class:`~repro.simulation.trace.Trace`,
the one-replica view of the record type every engine shares, with every
statistic recorded:

- :class:`Simulator` wires a :class:`~repro.core.protocols.Balancer` to
  a list of stopping rules and runs :func:`simulate`'s one-replica
  branch — one unvalidated ``step_batch`` round per item on the serial
  stepper of the shared round driver, or one ``step`` for a scheme
  without a batched kernel;
- :func:`run_balancer` runs a fixed number of rounds.

Determinism: a run is fully determined by ``(balancer, loads, seed)``.
The RNG handed to the balancer each round is a single generator advanced
across rounds (not reseeded), matching how a long-lived distributed
system would consume randomness.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.protocols import Balancer
from repro.graphs.partition import parse_partitions
from repro.simulation.ensemble import EnsembleSimulator, replica_rngs
from repro.simulation.partitioned import PartitionedSimulator
from repro.simulation.sharding import merge_ensemble_traces, parse_workers, run_sharded_ensemble
from repro.simulation.stopping import MaxRounds, StoppingRule
from repro.simulation.trace import EnsembleTrace, Trace

__all__ = ["Simulator", "run_balancer", "simulate"]


class Simulator(EnsembleSimulator):
    """Run a balancer until a stopping rule fires: :func:`simulate`'s
    one-replica run, read back as a :class:`Trace`.

    Parameters are those of :class:`~repro.simulation.ensemble.RoundEngine`;
    the trace always records every statistic (``record="full"``).
    """

    def __init__(
        self,
        balancer: Balancer,
        stopping: Sequence[StoppingRule] | None = None,
        keep_snapshots: bool = False,
        check_conservation: bool = True,
        cons_tol: float = 1e-6,
        backend: str | None = None,
    ) -> None:
        super().__init__(
            balancer, stopping, record="full", keep_snapshots=keep_snapshots,
            check_conservation=check_conservation, cons_tol=cons_tol, backend=backend,
        )

    def run(self, loads: np.ndarray, seed: int | np.random.Generator = 0) -> Trace:
        """Execute rounds until a rule fires; returns the trace."""
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        return super().run(loads, seed=[rng]).replica_trace(0)


def run_balancer(
    balancer: Balancer,
    loads: np.ndarray,
    rounds: int,
    seed: int | np.random.Generator = 0,
    keep_snapshots: bool = False,
    stopping: Sequence[StoppingRule] | None = None,
) -> Trace:
    """Convenience wrapper: run exactly ``rounds`` rounds.

    The installed rule list is exactly ``[MaxRounds(rounds)]`` plus any
    caller-supplied extra ``stopping`` rules — the engine's implicit
    ``MaxRounds`` safety net never applies, so the default call is
    *guaranteed* to run all ``rounds`` rounds even when the system has
    already converged or stalled (no ``Stagnation``-style rule can cut it
    short, because none is installed by default).

    Extra ``stopping`` rules are checked **before** the round cap, so
    passing e.g. ``[Stagnation(patience=5)]`` deliberately re-enables
    early exit; the trace's ``stopped_by`` records which rule actually
    fired.  Use :class:`Simulator` directly for fully custom rule lists.
    """
    rules: list[StoppingRule] = list(stopping) if stopping else []
    rules.append(MaxRounds(rounds))
    sim = Simulator(balancer, stopping=rules, keep_snapshots=keep_snapshots)
    return sim.run(loads, seed)


def simulate(
    balancer: Balancer,
    loads: np.ndarray,
    stopping: Sequence[StoppingRule] | None = None,
    *,
    seed: int | np.random.Generator | Sequence[np.random.Generator] = 0,
    replicas: int = 1,
    workers: int | str = 1,
    partitions: int | str = 1,
    record: str = "auto",
) -> tuple[EnsembleTrace, dict | None]:
    """Run one request on the engine the module docstring's rules pick.

    ``loads`` is a shared ``(n,)`` vector or ``(replicas, n)`` states;
    ``seed`` is a root seed, or the run's generators: one, or one per
    replica (as a Monte-Carlo ``run_batch`` receives them).  ``workers``
    and ``partitions`` take the specs of ``parse_workers`` and
    ``parse_partitions``.  Returns ``(trace, halo_stats)``; only the
    partitioned engine has ``halo_stats``, every other path gives None.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    processes, _ = parse_workers(workers)
    blocks, strategy = parse_partitions(partitions)
    if replicas == 1 and isinstance(seed, (int, np.integer)):
        seed = np.random.default_rng(seed)
    rngs = replica_rngs(seed, replicas, loads)
    if blocks > 1 and getattr(balancer, "supports_partition", False):
        psim = PartitionedSimulator(
            balancer, partitions=blocks, strategy=strategy, stopping=stopping, record=record,
            mode="process" if processes > 1 else "inprocess",
        )
        return psim.run(loads, replicas=replicas), psim.halo_stats
    batched = getattr(balancer, "supports_batch", False)
    if replicas > 1 and processes > 1 and batched:
        return run_sharded_ensemble(
            balancer, loads, seed=rngs, workers=processes, stopping=stopping, record=record,
        ), None
    ens = EnsembleSimulator(balancer, stopping=stopping, record=record)
    if replicas > 1 and not batched:
        rows = np.broadcast_to(loads, (replicas, np.shape(loads)[-1]))
        return merge_ensemble_traces(
            [ens.run(row, seed=[rng]) for row, rng in zip(rows, rngs)]), None
    return ens.run(loads, seed=rngs), None
