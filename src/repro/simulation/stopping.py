"""Declarative stopping rules for simulation runs.

A :class:`StoppingRule` examines the running
:class:`~repro.simulation.trace.EnsembleTrace` after every round and
reports whether (and why) to stop.  Rules compose: the engine takes a
list and stops at the first satisfied rule, recording its reason — so an
experiment can say "stop when the potential is below the Theorem 6
threshold, or after 10x the theoretical bound, whichever comes first"
and later distinguish which one fired.

Each rule has one verdict method, ``should_stop``, written against the
trace's last rows (``last_potentials``, ``round_counts``, ...).  On a
one-replica trace those rows are scalars and the verdict is a bool; on
a ``B``-replica ensemble they are ``(B,)`` arrays and the same
expression is a boolean mask over replicas, evaluated without a Python
loop.  A custom rule that returns a single verdict for a multi-replica
trace has no batched form, and the ensemble engines refuse it.

Each rule declares the trace series its verdict reads in ``reads``
(``"potentials"``, ``"discrepancies"``, ``"movements"``; the round
counts are always there).  An engine on ``record="auto"`` records only
the union of its rules' declarations, plus the potentials and load
totals it always keeps, so a rule that reads a series it did not declare
fails with the trace's "not recorded" error.

A rule may also give a ``rounds_hint``: a conservative count of rounds
that can run before it fires for any active replica.  The partitioned
coordinator sizes its speculative chunks from these hints; a rule
without one (the default) makes it grow chunks cautiously.  A hint only
sizes chunks — a stop inside a chunk is rewound exactly — so an
optimistic hint costs replayed rounds, never a wrong trajectory.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

__all__ = [
    "StoppingRule",
    "MaxRounds",
    "PotentialBelow",
    "PotentialFractionBelow",
    "DiscrepancyBelow",
    "Stagnation",
    "first_satisfied",
]


class StoppingRule(ABC):
    """Predicate over the evolving trace; see module docstring."""

    #: the trace series ``should_stop`` and ``rounds_hint`` read
    reads: ClassVar[frozenset[str]] = frozenset()

    @abstractmethod
    def should_stop(self, trace):
        """Whether the run should end after the just-recorded round: a
        bool for one replica, a ``(B,)`` mask for an ensemble."""

    def rounds_hint(self, trace, active: np.ndarray) -> int | None:
        """Rounds that can run before this rule fires for a replica in
        ``active``, or None when the rule cannot predict it."""
        return None

    @property
    def reason(self) -> str:
        """Short label recorded in the trace when this rule fires."""
        return type(self).__name__


@dataclass
class MaxRounds(StoppingRule):
    """Stop after ``rounds`` balancing rounds (safety net; always include one)."""

    reads: ClassVar[frozenset[str]] = frozenset()

    rounds: int

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")

    def should_stop(self, trace):
        return trace.round_counts >= self.rounds

    def rounds_hint(self, trace, active: np.ndarray) -> int:
        """The exact remaining budget (active replicas have run every round)."""
        return max(self.rounds - trace.rounds, 0)

    @property
    def reason(self) -> str:
        return f"max-rounds({self.rounds})"


@dataclass
class PotentialBelow(StoppingRule):
    """Stop once ``Phi <= threshold`` (e.g. Theorem 6's ``Phi*``)."""

    reads: ClassVar[frozenset[str]] = frozenset({"potentials"})

    threshold: float

    def should_stop(self, trace):
        return trace.last_potentials <= self.threshold

    def rounds_hint(self, trace, active: np.ndarray) -> int | None:
        return _half_predicted_rounds(trace, active, self.threshold)

    @property
    def reason(self) -> str:
        return f"potential<={self.threshold:.6g}"


@dataclass
class PotentialFractionBelow(StoppingRule):
    """Stop once ``Phi <= eps * Phi_0`` (Theorem 4's criterion)."""

    reads: ClassVar[frozenset[str]] = frozenset({"potentials"})

    eps: float

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must be in (0, 1)")

    def should_stop(self, trace):
        return trace.last_potentials <= self.eps * trace.initial_potentials

    def rounds_hint(self, trace, active: np.ndarray) -> int | None:
        return _half_predicted_rounds(
            trace, active, self.eps * np.atleast_1d(trace.initial_potentials)[active]
        )

    @property
    def reason(self) -> str:
        return f"potential<={self.eps:.3g}*Phi0"


@dataclass
class DiscrepancyBelow(StoppingRule):
    """Stop once ``max load - min load <= threshold`` (RSW's criterion)."""

    reads: ClassVar[frozenset[str]] = frozenset({"discrepancies"})

    threshold: float

    def should_stop(self, trace):
        return trace.last_discrepancies <= self.threshold

    @property
    def reason(self) -> str:
        return f"discrepancy<={self.threshold:.6g}"


@dataclass
class Stagnation(StoppingRule):
    """Stop when the potential has not improved for ``patience`` rounds.

    Detects discrete fixed points (the paper's stalled-ramp example)
    without waiting for the max-round cap.  ``min_rel_drop`` is the
    relative improvement below which a round counts as stagnant.
    """

    reads: ClassVar[frozenset[str]] = frozenset({"potentials"})

    patience: int = 10
    min_rel_drop: float = 0.0

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.min_rel_drop < 0:
            raise ValueError("min_rel_drop must be >= 0")

    def should_stop(self, trace):
        # Only the window is materialized, keeping the per-round cost
        # O(patience) rather than O(run length).  The rule needs more
        # than ``patience`` recorded states (rounds >= patience) before
        # it can fire.
        window = trace.potentials_tail(self.patience + 1)
        before, after = window[:-1], window[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            improved = (before - after) / np.where(before > 0, before, 1.0) > self.min_rel_drop
        improved &= before > 0
        return ~improved.any(axis=0) & (trace.recorded_states > self.patience)

    @property
    def reason(self) -> str:
        return f"stagnation({self.patience})"


def _half_predicted_rounds(trace, active: np.ndarray, target) -> int | None:
    """Half the rounds the soonest active replica needs to bring its
    potential down to ``target``, at its recently observed geometric rate.

    The rate is measured over the last quarter of the run,
    ``(Phi_t / Phi_{t-w}) ** (1 / w)`` with ``w = max(t // 4, 1)``.  A
    potential whose decay slows down — a point load spreading over a
    torus decays like ``1/t`` before the spectral rate of Theorems 4 and
    6 takes over — reaches the target later than that rate predicts, so
    chunks of half the prediction approach the stop from below.  None
    before the first round, when some active replica's potential did not
    fall over the window, or for a target of 0 (no geometric rate
    reaches it).
    """
    t = trace.rounds
    if t == 0:
        return None
    w = max(t // 4, 1)
    tail = trace.potentials_tail(w + 1)
    tail = tail.reshape(tail.shape[0], -1)
    before, phi = tail[0][active], tail[-1][active]
    if not np.all((phi > 0) & (phi < before) & (np.asarray(target) > 0)):
        return None
    left = w * np.log(target / phi) / np.log(phi / before)
    return max(int(np.min(left)) // 2, 1)


def first_satisfied(rules: Sequence[StoppingRule], trace) -> StoppingRule | None:
    """First rule (in order) whose predicate holds, else None."""
    for rule in rules:
        if rule.should_stop(trace):
            return rule
    return None
