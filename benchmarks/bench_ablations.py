"""Ablation benches for the implementation's main design choices.

A1 — damping constant: the paper's ``4 max(d_i, d_j)`` versus the
     aggressive ``max(d_i, d_j) + 1`` (Cybenko-style) and the overly
     conservative ``8 max``.  The paper's choice trades some speed for
     the clean sequentialization bound; the table quantifies the cost.
A2 — OPS eigenvalue ordering: Leja versus ascending (numerical
     stability; E12's scheme would silently lose exactness without it).
A3 — matching generator for dimension exchange: Luby local-min versus
     [GM94] two-stage (matching density drives the convergence factor
     measured in E10).
A4 — engine representation: vectorized kernel versus the message-passing
     substrate on the same instance (the price of fidelity).
"""

import math

import numpy as np
import pytest

from conftest import run_once

from repro.analysis.reporting import Table
from repro.baselines.ops import OptimalPolynomialBalancer
from repro.core.diffusion import apply_edge_flows, diffusion_round_discrete
from repro.core.potential import potential
from repro.experiments.common import SEED, run_to_fraction
from repro.graphs.generators import cycle, path, random_regular, torus_2d
from repro.graphs.matchings import luby_matching, two_stage_matching
from repro.simulation.engine import run_balancer
from repro.simulation.initial import point_load
from repro.simulation.superstep import run_superstep_diffusion


def _damped_round(loads, topo, damping):
    """Algorithm-1-style round with a custom per-edge damping function."""
    u, v = topo.edges[:, 0], topo.edges[:, 1]
    deg = topo.degrees
    denom = damping(np.maximum(deg[u], deg[v]).astype(np.float64))
    flows = (loads[u] - loads[v]) / denom
    return apply_edge_flows(loads, topo, flows)


def _rounds_to_eps(loads, topo, damping, eps=1e-6, cap=100_000):
    phi0 = potential(loads)
    x = loads.copy()
    for t in range(1, cap + 1):
        x = _damped_round(x, topo, damping)
        phi = potential(x)
        if not np.isfinite(phi) or phi > 10 * phi0:
            return None  # diverged
        if phi <= eps * phi0:
            return t
    return None


def ablation_damping():
    table = Table(
        "A1 - damping constant ablation (continuous, rounds to 1e-6*Phi0)",
        ["graph", "4max(d) (paper)", "2max(d)", "max(d)+1", "8max(d)"],
    )
    for topo in (cycle(32), torus_2d(8, 8), random_regular(64, 4, rng=np.random.default_rng(SEED))):
        loads = point_load(topo.n, discrete=False)
        table.add_row(
            topo.name,
            _rounds_to_eps(loads, topo, lambda m: 4.0 * m),
            _rounds_to_eps(loads, topo, lambda m: 2.0 * m),
            _rounds_to_eps(loads, topo, lambda m: m + 1.0),
            _rounds_to_eps(loads, topo, lambda m: 8.0 * m),
        )
    table.add_note("smaller damping converges faster but forfeits the Lemma 1 ordering argument;")
    table.add_note("the paper's 4max(d) pays <= 4x rounds vs max(d)+1 for a clean concurrency proof.")
    return table


def test_a1_damping_constant(benchmark, show):
    table = run_once(benchmark, ablation_damping)
    show(table)
    paper = table.column("4max(d) (paper)")
    aggressive = table.column("max(d)+1")
    conservative = table.column("8max(d)")
    for p, a, c in zip(paper, aggressive, conservative):
        assert p is not None and a is not None and c is not None
        assert a <= p <= c  # monotone in damping
        assert p <= 6 * a  # the paper's constant costs only a small factor


def ablation_ops_ordering():
    table = Table(
        "A2 - OPS eigenvalue ordering (final Phi after m-1 exact rounds)",
        ["graph", "m-1", "Phi_final (Leja)", "Phi_final (ascending)", "leja_wins"],
    )
    for topo in (path(24), cycle(32), torus_2d(8, 8)):
        loads = point_load(topo.n, discrete=False)
        leja = OptimalPolynomialBalancer(topo, use_leja=True)
        asc = OptimalPolynomialBalancer(topo, use_leja=False)
        t_leja = run_balancer(leja, loads, rounds=leja.rounds_to_exact)
        t_asc = run_balancer(asc, loads, rounds=asc.rounds_to_exact)
        table.add_row(
            topo.name,
            leja.rounds_to_exact,
            t_leja.last_potential,
            t_asc.last_potential,
            bool(t_leja.last_potential <= t_asc.last_potential),
        )
    return table


def test_a2_ops_ordering(benchmark, show):
    table = run_once(benchmark, ablation_ops_ordering)
    show(table)
    assert all(v is True for v in table.column("leja_wins"))
    # Leja keeps OPS numerically exact (tiny residual) on every family.
    assert max(table.column("Phi_final (Leja)")) < 1e-3


def ablation_matching_density():
    table = Table(
        "A3 - matching generator density (mean fraction of edges matched)",
        ["graph", "luby", "two-stage [GM94]", "luby/two-stage"],
    )
    rng = np.random.default_rng(SEED)
    for topo in (cycle(32), torus_2d(8, 8), random_regular(64, 4, rng=rng)):
        rounds = 300
        luby_frac = np.mean([luby_matching(topo, rng).size for _ in range(rounds)]) / topo.m
        gm_frac = np.mean([two_stage_matching(topo, rng).size for _ in range(rounds)]) / topo.m
        table.add_row(topo.name, float(luby_frac), float(gm_frac), float(luby_frac / gm_frac))
    table.add_note("denser matchings -> faster dimension exchange; explains E10's Luby-vs-GM94 gap.")
    return table


def test_a3_matching_density(benchmark, show):
    table = run_once(benchmark, ablation_matching_density)
    show(table)
    for luby, gm in zip(table.column("luby"), table.column("two-stage [GM94]")):
        assert luby > gm  # local-min matches strictly more edges
        assert gm > 1.0 / (8 * 31)  # never below the [GM94] floor


def ablation_engine_fidelity():
    table = Table(
        "A4 - vectorized engine vs message-passing substrate (50 rounds, discrete)",
        ["graph", "identical", "superstep msgs/round (upper bound)"],
    )
    for topo in (cycle(32), torus_2d(8, 8)):
        loads = point_load(topo.n, total=100 * topo.n, discrete=True)
        hist = run_superstep_diffusion(topo, loads, 50, discrete=True)
        x = loads.copy()
        identical = True
        for k in range(50):
            x = diffusion_round_discrete(x, topo)
            identical = identical and np.array_equal(hist[k + 1], x)
        table.add_row(topo.name, identical, 4 * topo.m)
    return table


def test_a4_engine_fidelity(benchmark, show):
    table = run_once(benchmark, ablation_engine_fidelity)
    show(table)
    assert all(v is True for v in table.column("identical"))
