"""E08 — Lemma 11 & Theorem 12: continuous Algorithm 2 (random partners).

Claims
------
- **Lemma 11**: one round of Algorithm 2 contracts the potential in
  expectation: ``E[Phi(L_{t+1}) | L_t] <= (19/20) Phi(L_t)`` — no
  network-parameter dependence at all.
- **Theorem 12**: for any ``c > 0``, after ``T >= 120 c ln Phi_0``
  rounds, ``Pr[Phi(L_T) <= e^{-c}] >= 1 - Phi_0^{-c/4}``.

Experiment
----------
Monte-Carlo over independent runs from a point load:

- per-round drop ratio ``Phi_{t+1}/Phi_t`` averaged across trials and
  rounds, versus the guaranteed 19/20 (the measured contraction is much
  stronger — the proof only credits links with both endpoints of degree
  <= 5);
- rounds to ``Phi <= e^{-c}`` (median across trials) versus Theorem 12's
  ``T = 120 c ln Phi_0``;
- the success fraction at the bound versus the guaranteed probability.

The replications run through the vectorized Monte-Carlo backend by
default: all trials advance in lockstep through one
:func:`~repro.simulation.engine.simulate` ensemble (per-trial load
trajectories identical to the serial loop, which remains available via
``workers=1``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.reporting import Table
from repro.core.bounds import theorem12_rounds, theorem12_success_probability
from repro.core.potential import potential
from repro.core.random_partner import RandomPartnerBalancer, partner_round_continuous
from repro.experiments.common import SEED
from repro.simulation.engine import simulate
from repro.simulation.initial import point_load
from repro.simulation.montecarlo import monte_carlo
from repro.simulation.stopping import MaxRounds, PotentialBelow

__all__ = ["run", "trial_drop_and_rounds"]


def _metrics_from_potentials(pots: list[float], target: float, t_bound: int) -> dict[str, float]:
    """The trial metrics, derived from one replica's potential series."""
    ratios = [pots[t] / pots[t - 1] for t in range(1, len(pots)) if pots[t - 1] > 1e-12]
    rounds_to_target = math.nan
    # Phi is non-increasing for Algorithm 2 (every link's transfer is
    # damped below the equalizing amount), so reaching the target settles
    # success at any later bound round.
    if pots and pots[-1] <= target:
        rounds_to_target = len(pots) - 1
    success = 1.0 if (not math.isnan(rounds_to_target) and rounds_to_target <= t_bound) else 0.0
    return {
        "mean_ratio": float(np.mean(ratios)) if ratios else math.nan,
        "max_ratio": float(np.max(ratios)) if ratios else math.nan,
        "rounds_to_target": rounds_to_target,
        "success_at_bound": success,
    }


class _DropAndRoundsTrial:
    """One Algorithm-2 run: per-round drop ratios and rounds-to-target.

    Calling it runs one trial serially (``monte_carlo``'s reference
    loop); :meth:`run_batch` runs every trial in lockstep through
    :func:`simulate`, in this process or as ``workers`` shards.
    """

    def __call__(self, rng: np.random.Generator, n: int, c: float, max_rounds: int) -> dict[str, float]:
        loads = point_load(n, total=100 * n, discrete=False)
        phi = potential(loads)
        target = math.exp(-c)
        t_bound = int(math.ceil(120.0 * c * math.log(phi)))
        pots = [phi]
        x = loads
        # Stop condition checked before each round, as the ensemble
        # engine's per-replica rules do (the initial state included).
        for _ in range(max_rounds):
            if pots[-1] <= target:
                break
            x = partner_round_continuous(x, rng)
            pots.append(potential(x))
        return _metrics_from_potentials(pots, target, t_bound)

    def run_batch(
        self, rngs, n: int, c: float, max_rounds: int, workers: int = 1
    ) -> dict[str, np.ndarray]:
        """All trials at once through one lockstep ensemble (``workers`` shards)."""
        loads = point_load(n, total=100 * n, discrete=False)
        phi = potential(loads)
        target = math.exp(-c)
        t_bound = int(math.ceil(120.0 * c * math.log(phi)))
        rules = [PotentialBelow(target), MaxRounds(max_rounds)]
        trace, _ = simulate(
            RandomPartnerBalancer(), loads, rules, seed=rngs, replicas=len(rngs), workers=workers
        )
        per_trial = [
            _metrics_from_potentials(trace.replica_potentials(b), target, t_bound)
            for b in range(len(rngs))
        ]
        return {k: np.asarray([m[k] for m in per_trial]) for k in per_trial[0]}


trial_drop_and_rounds = _DropAndRoundsTrial()


def run(
    sizes: tuple[int, ...] = (64, 256, 1024),
    trials: int = 20,
    c: float = 1.0,
    seed: int = SEED,
    workers: int | str = "vectorized",
) -> Table:
    """Regenerate the Lemma 11 / Theorem 12 table; see module docstring."""
    table = Table(
        title=f"E08 / Lemma 11 + Theorem 12 - continuous random partners (c={c:g}, {trials} trials)",
        columns=[
            "n", "Phi0", "E[ratio]", "19/20", "lemma11_holds",
            "T_meas_med", "T_bound", "success_frac", "guar_prob",
        ],
    )
    for n in sizes:
        loads = point_load(n, total=100 * n, discrete=False)
        phi0 = potential(loads)
        t_bound = theorem12_rounds(phi0, c)
        guar = theorem12_success_probability(phi0, c)
        max_rounds = int(math.ceil(t_bound.value)) + 10
        result = monte_carlo(
            trial_drop_and_rounds,
            trials=trials,
            root_seed=seed + n,
            workers=workers,
            trial_kwargs={"n": n, "c": c, "max_rounds": max_rounds},
        )
        mean_ratio = result.mean("mean_ratio")
        table.add_row(
            n,
            phi0,
            mean_ratio,
            19.0 / 20.0,
            mean_ratio <= 19.0 / 20.0,
            result.quantile(0.5, "rounds_to_target"),
            math.ceil(t_bound.value),
            result.fraction_true("success_at_bound"),
            guar.value,
        )
    table.add_note("Lemma 11 holds iff E[ratio] <= 0.95; Theorem 12 iff success_frac >= guar_prob.")
    return table
