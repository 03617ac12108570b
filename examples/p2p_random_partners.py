#!/usr/bin/env python
"""Scenario: peer-to-peer balancing with no topology at all (Section 6).

A fleet of workers (e.g. serverless shards) with no configured overlay:
each round every worker gossips with one uniformly random peer.  This is
the paper's Algorithm 2 — the analysis challenge is that a popular peer
may be picked by many workers at once (concurrency), which the
sequentialization technique handles.

The example demonstrates the two headline properties:

- **topology-free logarithmic convergence** (Theorem 12): rounds to
  near-balance grow only with ``log Phi_0``, independent of any network
  parameter — shown by sweeping the fleet size;
- **per-round 5% guaranteed contraction** (Lemma 11): the measured
  per-round potential ratio is far below the guaranteed 19/20.

Usage::

    python examples/p2p_random_partners.py
"""

import math

import numpy as np

from repro import core, simulation
from repro.analysis.reporting import Table
from repro.core.potential import potential

SEED = 123


def main() -> None:
    print("Algorithm 2: each worker picks one uniform random peer per round;")
    print("loads move along every realized link, damped by 1/(4 max(d_i, d_j)).")
    print()

    table = Table(
        "continuous Algorithm 2 - rounds to Phi <= 1e-6*Phi0 (median of 5 runs)",
        ["workers n", "Phi0", "T_measured", "120*ln(Phi0) (Thm 12, c=1)", "E[ratio]/round", "19/20 guar"],
    )
    for n in (64, 256, 1024, 4096):
        loads = simulation.point_load(n, total=100 * n, discrete=False)
        phi0 = potential(loads)
        rounds_needed = []
        ratios = []
        for trial in range(5):
            bal = core.RandomPartnerBalancer(mode="continuous")
            sim = simulation.Simulator(
                bal,
                stopping=[simulation.PotentialFractionBelow(1e-6), simulation.MaxRounds(5_000)],
            )
            trace = sim.run(loads, seed=SEED + 17 * trial + n)
            rounds_needed.append(trace.rounds_to_fraction(1e-6) or math.nan)
            ratios.extend(r for r in trace.drop_factors() if 0 < r < 1)
        table.add_row(
            n,
            phi0,
            float(np.median(rounds_needed)),
            math.ceil(120 * math.log(phi0)),
            float(np.mean(ratios)),
            19 / 20,
        )
    table.add_note("T grows ~ log(Phi0) and needs no lambda_2/delta: no overlay to configure.")
    print(table.to_text())
    print()

    # Discrete fleet: indivisible work items, Theorem 14's 3200n threshold.
    n = 512
    items = simulation.point_load(n, total=3_000_000, discrete=True)
    bal = core.RandomPartnerBalancer(mode="discrete")
    trace = simulation.run_balancer(bal, items, rounds=300, seed=SEED, record="full")
    thr = 3200 * n
    t_thr = trace.rounds_to_potential(thr)
    print(f"discrete fleet (n={n}, {items.sum()} items): Phi0={trace.initial_potential:.3g}")
    print(f"reached Theorem 14 threshold 3200n={thr} after {t_thr} rounds;")
    print(f"final discrepancy {trace.last_discrepancy:.0f} items, conservation exact: "
          f"{trace.conservation_error() == 0.0}")


if __name__ == "__main__":
    main()
