"""The vectorized round loop.

`Simulator` wires a :class:`~repro.core.protocols.Balancer` to an initial
load vector, a list of stopping rules and an RNG, and produces a
:class:`~repro.simulation.trace.Trace`.  It owns exactly the
orchestration concerns — recording, stopping, RNG threading, conservation
auditing — so the balancers stay pure round kernels.

Determinism: a run is fully determined by ``(balancer, loads, seed)``.
The RNG handed to the balancer each round is a single generator advanced
across rounds (not reseeded), matching how a long-lived distributed
system would consume randomness.

`Simulator` is the serial (``B = 1``) special case of
:class:`~repro.simulation.ensemble.EnsembleSimulator`: for batch-capable
balancers the ensemble engine reproduces this loop bit-for-bit per
replica while amortizing the per-round engine overhead across the whole
replica batch.  `Simulator` remains the universal engine — it works for
every balancer, batched or not.
"""

from __future__ import annotations

from time import perf_counter
from typing import Sequence

import numpy as np

from repro.core.protocols import Balancer
from repro.observability.recorder import get_recorder
from repro.simulation.stopping import MaxRounds, StoppingRule, first_satisfied
from repro.simulation.trace import Trace

__all__ = ["Simulator", "run_balancer"]


class Simulator:
    """Run a balancer until a stopping rule fires.

    Parameters
    ----------
    balancer:
        Any :class:`Balancer`; it is ``reset()`` at the start of each run.
    stopping:
        Stopping rules checked in order after every round.  A
        :class:`MaxRounds` safety net is appended automatically if absent.
    keep_snapshots:
        Record the full load vector after every round (memory-heavy).
    check_conservation:
        After every round, assert the total load is conserved (exact for
        discrete balancers, tolerance ``cons_tol`` for continuous ones).
        On violation the run raises immediately — a conservation bug must
        never silently skew an experiment.
    backend:
        Kernel backend for the balancer's operator kernels
        (``"numpy"``/``"scipy"``/``"numba"``/``"auto"``; None keeps the
        balancer's own setting).  Backends are bit-for-bit
        interchangeable, so this only affects speed.
    """

    DEFAULT_MAX_ROUNDS = 1_000_000

    def __init__(
        self,
        balancer: Balancer,
        stopping: Sequence[StoppingRule] | None = None,
        keep_snapshots: bool = False,
        check_conservation: bool = True,
        cons_tol: float = 1e-6,
        backend: str | None = None,
    ) -> None:
        self.balancer = balancer
        if backend is not None:
            self.balancer.backend = backend
        rules = list(stopping) if stopping else []
        if not any(isinstance(r, MaxRounds) for r in rules):
            rules.append(MaxRounds(self.DEFAULT_MAX_ROUNDS))
        self.stopping = rules
        self.keep_snapshots = keep_snapshots
        self.check_conservation = check_conservation
        self.cons_tol = cons_tol

    def run(self, loads: np.ndarray, seed: int | np.random.Generator = 0) -> Trace:
        """Execute rounds until a rule fires; returns the trace."""
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self.balancer.reset()
        current = self.balancer.validate_loads(loads)
        trace = Trace(balancer_name=self.balancer.name, keep_snapshots=self.keep_snapshots)
        trace.record(current)
        initial_sum = float(np.asarray(current, dtype=np.float64).sum())

        rec = get_recorder()
        traced = rec.enabled
        monitor = None
        if traced:
            from repro.observability.convergence import monitor_for

            monitor = monitor_for(self.balancer, rec)
            if monitor is not None:
                monitor.observe(trace._potentials[-1])
        r = 0
        rule = first_satisfied(self.stopping, trace)
        while rule is None:
            if traced:
                _t0 = perf_counter()
            current = self.balancer.step(current, rng)
            trace.record(current)
            if monitor is not None:
                monitor.observe(trace._potentials[-1])
            if self.check_conservation:
                self._audit_conservation(current, trace._sums[-1], initial_sum)
            rule = first_satisfied(self.stopping, trace)
            if traced:
                rec.record_span("round", _t0, round=r, engine="serial")
            r += 1
        if monitor is not None:
            monitor.finish()
        trace.stopped_by = rule.reason
        return trace

    def _audit_conservation(self, loads: np.ndarray, s: float, initial_sum: float) -> None:
        """Raise unless ``s`` (the float64 sum of ``loads`` that
        :meth:`Trace.record` just appended) conserves ``initial_sum``."""
        if not np.isfinite(s):
            raise AssertionError(
                f"{self.balancer.name} leaked load: non-finite sum {s} (NaN/inf in loads)"
            )
        if np.issubdtype(np.asarray(loads).dtype, np.integer):
            if s != initial_sum:
                raise AssertionError(
                    f"{self.balancer.name} leaked load: sum {s} != initial {initial_sum}"
                )
        else:
            scale = max(abs(initial_sum), 1.0)
            if abs(s - initial_sum) > self.cons_tol * scale:
                raise AssertionError(
                    f"{self.balancer.name} leaked load: sum {s} != initial {initial_sum} "
                    f"(tol {self.cons_tol * scale:.3g})"
                )


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
