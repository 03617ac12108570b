"""Dynamic-network models for Section 5 of the paper.

Elsässer, Monien & Schamberger (ISPAN'04 — reference [10]) study diffusion
when the *node* set is fixed but the *edge* set changes every round: the
network is a sequence ``(G_k)_{k >= 0}`` of graphs on the same nodes.
Theorem 7 (continuous) and Theorem 8 (discrete, new in this paper) bound
convergence through the average normalized spectral gap

    A_K = (1/K) * sum_{k=1..K} lambda_2(G_k) / delta(G_k).

A :class:`DynamicNetwork` yields the topology active in round ``k``.  All
models are *deterministic given (seed, k)* — round ``k``'s graph is derived
from a per-round child RNG — so a simulation can be replayed and so the
same graph sequence can be fed to both the continuous and discrete engines
(E04/E05 share sequences).

Rounds in which the sampled graph is disconnected are legal:
``lambda_2 = 0`` simply contributes nothing to ``A_K``, exactly as the
theory predicts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.graphs.spectral import lambda_2
from repro.graphs.topology import Topology

__all__ = [
    "DynamicNetwork",
    "StaticDynamics",
    "EdgeSamplingDynamics",
    "AlternatingDynamics",
    "AdversarialDynamics",
    "MarkovEdgeDynamics",
    "average_normalized_gap",
]


class DynamicNetwork(ABC):
    """A sequence of graphs on a fixed node set.

    Subclasses implement :meth:`topology_at`; the base class provides the
    Theorem 7/8 spectral aggregates.
    """

    def __init__(self, n: int, seed: int = 0):
        self.n = int(n)
        self.seed = int(seed)

    @abstractmethod
    def topology_at(self, k: int) -> Topology:
        """The graph active in round ``k`` (0-based). Must be deterministic."""

    def _round_rng(self, k: int) -> np.random.Generator:
        """Independent, replayable RNG stream for round ``k``."""
        return np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(k,)))

    def sequence(self, rounds: int) -> list[Topology]:
        """Materialize the first ``rounds`` graphs."""
        return [self.topology_at(k) for k in range(rounds)]

    def normalized_gaps(self, rounds: int) -> np.ndarray:
        """Per-round ``lambda_2(G_k) / delta(G_k)`` (0 when edgeless)."""
        out = np.zeros(rounds)
        for k in range(rounds):
            topo = self.topology_at(k)
            delta = topo.max_degree
            out[k] = lambda_2(topo) / delta if delta > 0 else 0.0
        return out

    def average_gap(self, rounds: int) -> float:
        """Theorem 7's ``A_K`` for ``K = rounds``."""
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        return float(self.normalized_gaps(rounds).mean())

    def worst_threshold_term(self, rounds: int) -> float:
        """Theorem 8's ``max_k (delta^(k))^3 / lambda_2^(k)`` over connected rounds.

        Rounds with ``lambda_2 = 0`` are skipped — a disconnected round
        makes no progress but also does not enter the threshold (the
        balancing within each component still respects the componentwise
        bound; Theorem 8's statement takes the max over rounds that
        contribute).
        """
        worst = 0.0
        for k in range(rounds):
            topo = self.topology_at(k)
            lam2 = lambda_2(topo)
            if lam2 > 1e-12:
                worst = max(worst, topo.max_degree**3 / lam2)
        return worst


def average_normalized_gap(graphs: Sequence[Topology]) -> float:
    """``A_K`` of an explicit graph list (helper for tests and reports)."""
    if not graphs:
        raise ValueError("need at least one graph")
    total = 0.0
    for g in graphs:
        d = g.max_degree
        total += lambda_2(g) / d if d > 0 else 0.0
    return total / len(graphs)


class StaticDynamics(DynamicNetwork):
    """Degenerate model: the same graph every round.

    Exists so that the dynamic-network engine can replay the fixed-network
    experiments — Theorem 7 with a static sequence must reproduce
    Theorem 4 exactly, which is an integration test.
    """

    def __init__(self, base: Topology):
        super().__init__(base.n, seed=0)
        self.base = base

    def topology_at(self, k: int) -> Topology:
        return self.base


class EdgeSamplingDynamics(DynamicNetwork):
    """Each round keeps every edge of a base graph independently w.p. ``p``.

    The i.i.d. fault model: links fail independently per round.  For
    ``p`` close to 1 the expected normalized gap approaches the static
    one; small ``p`` stresses the ``A_K`` averaging.
    """

    def __init__(self, base: Topology, p: float, seed: int = 0):
        if not 0.0 < p <= 1.0:
            raise ValueError("p must be in (0, 1]")
        super().__init__(base.n, seed)
        self.base = base
        self.p = float(p)

    def topology_at(self, k: int) -> Topology:
        rng = self._round_rng(k)
        mask = rng.random(self.base.m) < self.p
        return self.base.subgraph_with_edges(mask, name=f"{self.base.name}|p{self.p:g}@r{k}")


class AlternatingDynamics(DynamicNetwork):
    """Cycle deterministically through a fixed list of graphs.

    Models phased interconnects (e.g. alternating row/column phases of a
    torus). ``A_K`` converges to the average of the phases' gaps.
    """

    def __init__(self, phases: Sequence[Topology]):
        if not phases:
            raise ValueError("need at least one phase")
        n = phases[0].n
        if any(g.n != n for g in phases):
            raise ValueError("all phases must share the node set")
        super().__init__(n, seed=0)
        self.phases = list(phases)

    def topology_at(self, k: int) -> Topology:
        return self.phases[k % len(self.phases)]


class AdversarialDynamics(DynamicNetwork):
    """Explicit per-round schedule, then a fallback graph forever after.

    Lets tests construct worst cases, e.g. "disconnected for the first
    ``r`` rounds, then an expander" — progress must match the ``A_K`` of
    the realized sequence, not of the fallback.
    """

    def __init__(self, schedule: Sequence[Topology], fallback: Topology):
        if any(g.n != fallback.n for g in schedule):
            raise ValueError("all graphs must share the node set")
        super().__init__(fallback.n, seed=0)
        self.schedule = list(schedule)
        self.fallback = fallback

    def topology_at(self, k: int) -> Topology:
        if k < len(self.schedule):
            return self.schedule[k]
        return self.fallback


class MarkovEdgeDynamics(DynamicNetwork):
    """Each edge is an independent on/off two-state Markov chain.

    ``p_fail`` is the on->off transition probability and ``p_recover`` the
    off->on one; the stationary on-probability is
    ``p_recover / (p_fail + p_recover)``.  Unlike i.i.d. sampling this
    produces *correlated* failures across rounds (bursty outages), the
    harder regime for Theorem 7's averaging.

    State at round ``k`` is computed by replaying the chain from round 0,
    memoized, so access stays deterministic and O(1) amortized for the
    sequential access pattern of a simulation.  While no edge flips,
    consecutive rounds return the same :class:`Topology` instance (named
    after the round it appeared in), so its cached spectrum is reused.
    """

    def __init__(self, base: Topology, p_fail: float, p_recover: float, seed: int = 0):
        if not 0.0 <= p_fail <= 1.0 or not 0.0 <= p_recover <= 1.0:
            raise ValueError("probabilities must be in [0, 1]")
        super().__init__(base.n, seed)
        self.base = base
        self.p_fail = float(p_fail)
        self.p_recover = float(p_recover)
        self._states: list[np.ndarray] = [np.ones(base.m, dtype=bool)]  # round 0: all up
        self._last: tuple[np.ndarray, Topology] | None = None

    def _state_at(self, k: int) -> np.ndarray:
        while len(self._states) <= k:
            step = len(self._states)
            rng = self._round_rng(step)
            prev = self._states[-1]
            u = rng.random(self.base.m)
            nxt = np.where(prev, u >= self.p_fail, u < self.p_recover)
            # An unchanged state is stored as the same array, which
            # topology_at recognizes to hand back the same graph.
            self._states.append(prev if np.array_equal(nxt, prev) else nxt)
        return self._states[k]

    def topology_at(self, k: int) -> Topology:
        mask = self._state_at(k)
        if self._last is not None and self._last[0] is mask:
            return self._last[1]
        topo = self.base.subgraph_with_edges(mask, name=f"{self.base.name}|markov@r{k}")
        self._last = (mask, topo)
        return topo

    @property
    def stationary_up_probability(self) -> float:
        """Long-run fraction of time an edge is up."""
        denom = self.p_fail + self.p_recover
        return 1.0 if denom == 0 else self.p_recover / denom
