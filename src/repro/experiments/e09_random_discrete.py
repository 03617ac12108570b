"""E09 — Lemma 13 & Theorem 14: discrete Algorithm 2 (random partners).

Claims
------
- **Lemma 13**: while ``Phi(L) >= 3200 n``, one discrete Algorithm-2
  round contracts the potential in expectation:
  ``E[Phi(L_{t+1}) | L_t] <= (39/40) Phi(L_t)``.
- **Theorem 14**: for any ``c > 0``, after ``T >= 240 c ln(Phi_0/3200n)``
  rounds, ``Pr[Phi(L_T) <= 3200 n] >= 1 - (Phi_0/3200n)^{-c/4}``.

Experiment
----------
Monte-Carlo over independent integer runs from a point load sized so
``Phi_0 >> 3200 n``.  Reports the expected per-round ratio *measured only
over rounds above the threshold* (where the lemma applies), the median
rounds to reach ``3200 n``, and the success fraction at Theorem 14's
round bound.  Replications run through the vectorized Monte-Carlo
backend (one lockstep ensemble) by default.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.reporting import Table
from repro.core.bounds import (
    theorem14_rounds,
    theorem14_success_probability,
    theorem14_threshold,
)
from repro.core.potential import potential
from repro.core.random_partner import RandomPartnerBalancer, partner_round_discrete
from repro.experiments.common import SEED
from repro.simulation.engine import simulate
from repro.simulation.initial import point_load
from repro.simulation.montecarlo import monte_carlo
from repro.simulation.stopping import MaxRounds, PotentialBelow

__all__ = ["run", "trial_discrete_partner"]


def _metrics_from_potentials(pots: list[float], threshold: float, t_bound: int) -> dict[str, float]:
    """The trial metrics, derived from one replica's potential series."""
    ratios = [pots[t] / pots[t - 1] for t in range(1, len(pots)) if pots[t - 1] >= threshold]
    rounds_to_threshold = math.nan
    if pots and pots[-1] <= threshold:
        rounds_to_threshold = len(pots) - 1
    success = 1.0 if (not math.isnan(rounds_to_threshold) and rounds_to_threshold <= max(t_bound, 1)) else 0.0
    return {
        "mean_ratio": float(np.mean(ratios)) if ratios else math.nan,
        "rounds_to_threshold": rounds_to_threshold,
        "success_at_bound": success,
    }


class _DiscretePartnerTrial:
    """One discrete Algorithm-2 run; ``run_batch`` runs every trial in
    lockstep through :func:`simulate`, in this process or as ``workers``
    shards."""

    def __call__(self, rng: np.random.Generator, n: int, total: int, c: float, max_rounds: int) -> dict[str, float]:
        loads = point_load(n, total=total, discrete=True)
        threshold = 3200.0 * n
        phi = potential(loads)
        t_bound = int(math.ceil(240.0 * c * math.log(phi / threshold))) if phi > threshold else 0
        pots = [phi]
        x = loads
        # Stop condition checked before each round, as the ensemble
        # engine's per-replica rules do (the initial state included).
        for _ in range(max_rounds):
            if pots[-1] <= threshold:
                break
            x = partner_round_discrete(x, rng)
            pots.append(potential(x))
        return _metrics_from_potentials(pots, threshold, t_bound)

    def run_batch(
        self, rngs, n: int, total: int, c: float, max_rounds: int, workers: int = 1
    ) -> dict[str, np.ndarray]:
        """All trials at once through one lockstep ensemble (``workers`` shards)."""
        loads = point_load(n, total=total, discrete=True)
        threshold = 3200.0 * n
        phi = potential(loads)
        t_bound = int(math.ceil(240.0 * c * math.log(phi / threshold))) if phi > threshold else 0
        rules = [PotentialBelow(threshold), MaxRounds(max_rounds)]
        trace, _ = simulate(
            RandomPartnerBalancer(mode="discrete"), loads, rules,
            seed=rngs, replicas=len(rngs), workers=workers,
        )
        per_trial = [
            _metrics_from_potentials(trace.replica_potentials(b), threshold, t_bound)
            for b in range(len(rngs))
        ]
        return {k: np.asarray([m[k] for m in per_trial]) for k in per_trial[0]}


trial_discrete_partner = _DiscretePartnerTrial()


def run(
    sizes: tuple[int, ...] = (64, 256),
    ratio: float = 1e4,
    trials: int = 20,
    c: float = 1.0,
    seed: int = SEED,
    workers: int | str = "vectorized",
) -> Table:
    """Regenerate the Lemma 13 / Theorem 14 table; see module docstring."""
    table = Table(
        title=f"E09 / Lemma 13 + Theorem 14 - discrete random partners (c={c:g}, {trials} trials)",
        columns=[
            "n", "Phi0", "Phi*=3200n", "E[ratio]", "39/40", "lemma13_holds",
            "T_meas_med", "T_bound", "success_frac", "guar_prob",
        ],
    )
    for n in sizes:
        threshold = theorem14_threshold(n).value
        total = max(int(math.ceil(math.sqrt(ratio * threshold / (1 - 1 / n)))), n)
        loads = point_load(n, total=total, discrete=True)
        phi0 = potential(loads)
        t_bound = theorem14_rounds(phi0, n, c)
        guar = theorem14_success_probability(phi0, n, c)
        max_rounds = int(math.ceil(t_bound.value)) + 50
        result = monte_carlo(
            trial_discrete_partner,
            trials=trials,
            root_seed=seed + n,
            workers=workers,
            trial_kwargs={"n": n, "total": total, "c": c, "max_rounds": max_rounds},
        )
        mean_ratio = result.mean("mean_ratio")
        table.add_row(
            n,
            phi0,
            threshold,
            mean_ratio,
            39.0 / 40.0,
            mean_ratio <= 39.0 / 40.0,
            result.quantile(0.5, "rounds_to_threshold"),
            math.ceil(t_bound.value),
            result.fraction_true("success_at_bound"),
            guar.value,
        )
    table.add_note("Lemma 13 holds iff E[ratio] <= 0.975 over rounds above 3200n.")
    table.add_note("Theorem 14 holds iff success_frac >= guar_prob.")
    return table
