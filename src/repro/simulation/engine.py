"""The serial engine: one replica, one load vector, one ``step`` per round.

`Simulator` wires a :class:`~repro.core.protocols.Balancer` to an initial
load vector, a list of stopping rules and an RNG, and produces a
:class:`~repro.simulation.trace.Trace`, the one-replica view of the
record type every engine shares.  Its stepper is one ``step`` plus
``record``; everything else a round does — monitor, conservation audit,
stopping rules, ``round`` span — is the round driver of
:class:`~repro.simulation.ensemble.RoundEngine`, which every engine
shares, so the balancers stay pure round kernels.  The serial stepper
works for every balancer, batched or not, and keeps its one replica in
scalars: the trace's rows are floats, the stopping rules return bools
and the audit compares one total.

Determinism: a run is fully determined by ``(balancer, loads, seed)``.
The RNG handed to the balancer each round is a single generator advanced
across rounds (not reseeded), matching how a long-lived distributed
system would consume randomness.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.protocols import Balancer
from repro.simulation.ensemble import RoundEngine, serial_rounds
from repro.simulation.stopping import MaxRounds, StoppingRule
from repro.simulation.trace import Trace

__all__ = ["Simulator", "run_balancer"]


class Simulator(RoundEngine):
    """Run a balancer until a stopping rule fires.

    Parameters are those of :class:`~repro.simulation.ensemble.RoundEngine`;
    the serial trace always records every statistic.
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
            balancer, stopping, keep_snapshots=keep_snapshots,
            check_conservation=check_conservation, cons_tol=cons_tol, backend=backend,
        )

    def run(self, loads: np.ndarray, seed: int | np.random.Generator = 0) -> Trace:
        """Execute rounds until a rule fires; returns the trace."""
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self.balancer.reset()
        trace = Trace(balancer_name=self.balancer.name, keep_snapshots=self.keep_snapshots)
        self._drive(trace, serial_rounds(self.balancer, trace, self.balancer.validate_loads(loads), rng))
        return trace


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
