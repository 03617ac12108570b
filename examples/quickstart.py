#!/usr/bin/env python
"""Quickstart: balance a point load on a torus, check the paper's bounds.

Runs both variants of Algorithm 1 (continuous and discrete) from the
worst-case initial state — every token on one node — and compares the
measured convergence against Theorem 4 and Theorem 6.

Usage::

    python examples/quickstart.py
"""

import math

from repro import core, graphs, simulation
from repro.analysis.reporting import Table

SEED = 7


def main() -> None:
    # An 8x8 torus: 64 nodes, 4-regular, lambda_2 = 2(1 - cos(pi/4)).
    topo = graphs.torus_2d(8, 8)
    lam2 = graphs.lambda_2(topo)
    print(f"topology: {topo}")
    print(f"lambda_2 = {lam2:.4f}, delta = {topo.max_degree}")
    print()

    # --- continuous Algorithm 1 vs Theorem 4 -------------------------------
    eps = 1e-6
    loads = simulation.point_load(topo.n, total=100 * topo.n, discrete=False)
    balancer = core.DiffusionBalancer(topo, mode="continuous")
    bound = core.theorem4_rounds(topo.max_degree, lam2, eps)
    sim = simulation.Simulator(
        balancer,
        stopping=[
            simulation.PotentialFractionBelow(eps),
            simulation.MaxRounds(int(bound.value * 3) + 100),
        ],
    )
    trace = sim.run(loads, SEED)
    t_meas = trace.rounds_to_fraction(eps)
    print(f"continuous: Phi <= {eps:g}*Phi0 after {t_meas} rounds")
    print(f"Theorem 4 bound: {math.ceil(bound.value)} rounds  (measured/bound = {t_meas / bound.value:.3f})")
    print()

    # --- discrete Algorithm 1 vs Theorem 6 ---------------------------------
    int_loads = simulation.point_load(topo.n, total=70_000, discrete=True)
    phi_star = core.theorem6_threshold(topo.n, topo.max_degree, lam2).value
    d_balancer = core.DiffusionBalancer(topo, mode="discrete")
    # record="full": the table below reads the discrepancy series too.
    d_trace = simulation.run_balancer(d_balancer, int_loads, rounds=2_000, seed=SEED,
                                      record="full")
    t_thr = d_trace.rounds_to_potential(phi_star)
    d_bound = core.theorem6_rounds(topo.n, topo.max_degree, lam2, d_trace.initial_potential)
    print(f"discrete: Phi0 = {d_trace.initial_potential:.4g}, threshold Phi* = {phi_star:.4g}")
    print(f"reached Phi* after {t_thr} rounds; Theorem 6 bound: {math.ceil(d_bound.value)}")
    print(f"final discrepancy: {d_trace.last_discrepancy:.0f} tokens "
          f"(total load conserved exactly: {d_trace.conservation_error() == 0.0})")
    print()

    # --- a small per-round view ---------------------------------------------
    table = Table("first rounds (discrete)", ["round", "Phi", "discrepancy"])
    for r in range(0, 10):
        table.add_row(r, d_trace.potentials[r], d_trace.discrepancies[r])
    print(table.to_text())


if __name__ == "__main__":
    main()
