#!/usr/bin/env python
"""Scenario: rebalancing batch jobs across an HPC cluster interconnect.

The paper's motivating workload: ``n`` identical compute nodes connected
by a sparse interconnect; jobs (indivisible tokens) arrive unevenly —
here a Zipf-skewed burst, the "a few hot login nodes" pattern — and the
cluster must spread them with *neighbour-only* communication.

This example compares the paper's discrete Algorithm 1 against discrete
dimension exchange on a 3-D-ish interconnect (a 2-D torus stands in),
reporting the makespan proxy (maximum node load) as balancing proceeds,
and validates the Theorem 6 stall threshold.

Usage::

    python examples/cluster_scheduler.py
"""

import numpy as np

from repro import core, graphs, simulation
from repro.analysis.reporting import Table
from repro.baselines.dimension_exchange import DimensionExchangeBalancer

SEED = 42


def run_scheme(name: str, balancer, loads, rounds: int, seed: int):
    trace = simulation.run_balancer(balancer, loads, rounds=rounds, seed=seed, keep_snapshots=True,
                                    record="full")
    return name, trace


def main() -> None:
    topo = graphs.torus_2d(8, 8)  # 64-node cluster, 4 links per node
    rng = np.random.default_rng(SEED)
    jobs = simulation.zipf_load(topo.n, rng, exponent=1.3, total=64_000, discrete=True)
    mean = jobs.sum() / topo.n

    print(f"cluster: {topo.name} ({topo.n} nodes), {jobs.sum()} jobs, mean {mean:.0f}/node")
    print(f"initial max load: {jobs.max()} jobs (imbalance {jobs.max() / mean:.1f}x)")
    print()

    rounds = 120
    runs = [
        run_scheme("diffusion (Alg. 1)", core.DiffusionBalancer(topo, mode="discrete"), jobs, rounds, SEED),
        run_scheme("dimension exchange", DimensionExchangeBalancer(topo, mode="discrete"), jobs, rounds, SEED),
        run_scheme("random partners (Alg. 2)", core.RandomPartnerBalancer(mode="discrete"), jobs, rounds, SEED),
    ]

    table = Table(
        "max node load (makespan proxy) over rounds",
        ["round"] + [name for name, _ in runs],
    )
    for r in (0, 1, 2, 5, 10, 20, 40, 80, rounds):
        row = [r]
        for _, trace in runs:
            row.append(int(trace.snapshots[min(r, trace.rounds)].max()))
        table.add_row(*row)
    print(table.to_text())
    print()

    lam2 = graphs.lambda_2(topo)
    phi_star = core.theorem6_threshold(topo.n, topo.max_degree, lam2).value
    summary = Table(
        "final state after %d rounds" % rounds,
        ["scheme", "Phi_final", "below Theorem 6 threshold", "discrepancy",
         "jobs moved (net)", "jobs conserved"],
    )
    for name, trace in runs:
        summary.add_row(
            name,
            trace.last_potential,
            trace.last_potential <= phi_star,
            trace.last_discrepancy,
            int(trace.total_net_movement()),
            trace.conservation_error() == 0.0,
        )
    summary.add_note(f"Theorem 6 threshold Phi* = {phi_star:.4g}")
    summary.add_note("'jobs moved' is the migration cost the scheduler pays; note the")
    summary.add_note("random-partner scheme balances best but ships jobs across the whole")
    summary.add_note("cluster, while neighbourhood diffusion keeps every move one hop.")
    print(summary.to_text())


if __name__ == "__main__":
    main()
