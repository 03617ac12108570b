"""E11 — Remark after Lemma 5: a linear-in-n threshold, not quadratic.

Claim
-----
"Lemma 5 is slightly stronger than Theorem 4 of [MGS98], in that we only
require the potential to be linear in ``n``, while [MGS98] requires the
potential to be at least quadratic in ``n``."  I.e. the discrete analysis
keeps guaranteeing progress down to ``Phi ~ 64 delta^3 n / lambda_2``,
whereas the older analysis stops at a ``Theta(delta^2 n^2)``-scale
potential.

Experiment
----------
On constant-spectral-gap families (random 4-regular expanders — where
``lambda_2 = Theta(1)`` makes "linear vs quadratic in n" the dominant
term) of growing size:

1. run the discrete Algorithm 1 from a large point load until the
   potential stalls (stagnation detector),
2. record the stalled potential ``Phi_stall`` against the paper's linear
   threshold and the quadratic-style threshold ``delta^2 n^2``.

Expected shape: ``Phi_stall`` stays below the linear threshold on every
row (the guarantee is valid), and the stalled/quadratic ratio *decays*
like 1/n — demonstrating that a quadratic threshold is asymptotically
wasteful exactly as the remark states.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import Table
from repro.core.bounds import theorem6_threshold
from repro.core.diffusion import DiffusionBalancer
from repro.experiments.common import SEED
from repro.graphs.generators import random_regular
from repro.graphs.spectral import lambda_2
from repro.simulation.engine import simulate
from repro.simulation.initial import point_load
from repro.simulation.stopping import MaxRounds, Stagnation

__all__ = ["run"]


def run(
    sizes: tuple[int, ...] = (32, 64, 128, 256),
    degree: int = 4,
    seed: int = SEED,
    max_rounds: int = 20_000,
) -> Table:
    """Regenerate the threshold-scaling table; see module docstring."""
    table = Table(
        title=f"E11 / Lemma 5 remark - stalled potential vs linear & quadratic thresholds ({degree}-regular)",
        columns=[
            "n", "lambda2", "Phi_stall",
            "linear_thr", "stall/linear", "below_linear",
            "quadratic_thr", "stall/quadratic",
        ],
    )
    rng = np.random.default_rng(seed)
    for n in sizes:
        topo = random_regular(n, degree, rng=rng)
        lam2 = lambda_2(topo)
        loads = point_load(topo.n, total=1000 * n, discrete=True)
        rules = [Stagnation(patience=20), MaxRounds(max_rounds)]
        trace, _ = simulate(DiffusionBalancer(topo, mode="discrete"), loads, rules, seed=seed)
        phi_stall = trace.last_potentials
        linear = theorem6_threshold(n, degree, lam2).value
        quadratic = float(degree**2) * n * n  # [MGS98]-scale threshold at eps=1
        table.add_row(
            n,
            lam2,
            phi_stall,
            linear,
            phi_stall / linear if linear > 0 else None,
            phi_stall <= linear,
            quadratic,
            phi_stall / quadratic if quadratic > 0 else None,
        )
    table.add_note("The remark holds iff below_linear everywhere AND stall/quadratic decays with n.")
    return table
