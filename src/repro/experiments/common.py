"""Shared infrastructure for the experiment suite.

Each experiment module exposes ``run(...) -> Table`` (some return several
tables) with defaults sized so the whole suite regenerates in seconds;
the benches call ``run()`` and print, the CLI dispatches by experiment id,
and the tests assert the qualitative claims on the returned tables.

``standard_suite`` is the graph family set used by E01/E02/E10/E12 —
chosen to span the spectral extremes the literature evaluates on (see
:mod:`repro.graphs.generators`).
"""

from __future__ import annotations

import numpy as np

from repro.core.protocols import Balancer
from repro.graphs import generators
from repro.graphs.topology import Topology
from repro.simulation.engine import simulate
from repro.simulation.stopping import MaxRounds, PotentialBelow, PotentialFractionBelow
from repro.simulation.trace import EnsembleTrace, Trace

__all__ = [
    "standard_suite",
    "small_suite",
    "run_to_fraction",
    "run_to_threshold",
    "ensemble_to_fraction",
    "median_rounds_to_fraction",
    "SEED",
]

#: Root seed used by every experiment unless overridden — one knob.
SEED = 20060425  # IPDPS 2006 conference date


def standard_suite(seed: int = SEED) -> list[Topology]:
    """The default topology set: spans ring/torus/hypercube/expander/dense."""
    rng = np.random.default_rng(seed)
    return [
        generators.cycle(32),
        generators.path(32),
        generators.torus_2d(8, 8),
        generators.hypercube(6),
        generators.random_regular(64, 4, rng=rng),
        generators.complete(16),
        generators.star(32),
    ]


def small_suite(seed: int = SEED) -> list[Topology]:
    """Reduced set for the quick tests."""
    rng = np.random.default_rng(seed)
    return [
        generators.cycle(16),
        generators.torus_2d(4, 4),
        generators.hypercube(4),
        generators.random_regular(16, 4, rng=rng),
    ]


def _one_run(balancer: Balancer, loads: np.ndarray, rule, max_rounds: int, seed: int) -> Trace:
    """One run until ``rule`` fires (or the safety cap); the experiments
    read only its potentials, so it records what the rule reads."""
    trace, _ = simulate(balancer, loads, [rule, MaxRounds(max_rounds)], seed=seed)
    return trace.replica_trace(0)


def run_to_fraction(
    balancer: Balancer,
    loads: np.ndarray,
    eps: float,
    max_rounds: int,
    seed: int = SEED,
) -> Trace:
    """Run until ``Phi <= eps * Phi_0`` (or the safety cap)."""
    return _one_run(balancer, loads, PotentialFractionBelow(eps), max_rounds, seed)


def run_to_threshold(
    balancer: Balancer,
    loads: np.ndarray,
    threshold: float,
    max_rounds: int,
    seed: int = SEED,
) -> Trace:
    """Run until ``Phi <= threshold`` (or the safety cap)."""
    return _one_run(balancer, loads, PotentialBelow(threshold), max_rounds, seed)


def ensemble_to_fraction(
    balancer: Balancer,
    loads: np.ndarray,
    eps: float,
    max_rounds: int,
    seed: int = SEED,
    replicas: int = 1,
) -> EnsembleTrace:
    """Ensemble-path :func:`run_to_fraction`: ``replicas`` lockstep runs.

    Stochastic baselines replicate over per-replica RNG streams in one
    engine pass (``replicas=1`` is one run on ``default_rng(seed)`` —
    deterministic schemes need no replication).
    """
    rules = [PotentialFractionBelow(eps), MaxRounds(max_rounds)]
    return simulate(balancer, loads, rules, seed=seed, replicas=replicas)[0]


def median_rounds_to_fraction(trace: EnsembleTrace, eps: float) -> float | None:
    """Median per-replica rounds-to-target of an ensemble trace.

    Replicas that never reached the target are censored observations, not
    missing data: they enter the median as ``+inf`` (dropping them would
    bias the statistic low whenever some replicas hit the round cap).
    ``None`` means the median replica itself never reached the target.
    """
    rounds = trace.rounds_to_fraction(eps)
    if rounds.size == 0:
        return None
    med = float(np.median(np.where(np.isnan(rounds), np.inf, rounds)))
    return med if np.isfinite(med) else None
