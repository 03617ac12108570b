"""Measurement and verification machinery.

- :mod:`repro.analysis.verify` — executable checks of the paper's lemmas
  on concrete states and runs (Lemma 1/2 per-edge drops, Lemma 9
  conditional probabilities, Lemma 10's identity, per-round drop factors);
- :mod:`repro.analysis.convergence` — empirical rate fitting and
  bound-vs-measured comparison;
- :mod:`repro.analysis.divergence` — Rabani–Sinclair–Wanka local
  divergence and discrete-vs-idealized deviation;
- :mod:`repro.analysis.reporting` — aligned text/markdown tables used by
  the benches, the CLI and EXPERIMENTS.md.
"""

from repro.analysis.verify import (
    DropFactorStats,
    check_lemma1_on_state,
    check_lemma10_identity,
    empirical_lemma9,
    measure_drop_factors,
    partner_degree_statistics,
)
from repro.analysis.convergence import (
    BoundComparison,
    compare_to_bound,
    fit_contraction_rate,
    crossover_round,
)
from repro.analysis.divergence import (
    idealized_trajectory,
    local_divergence,
    max_deviation,
    rsw_divergence_bound,
)
from repro.analysis.reporting import Table, format_number, markdown_table
from repro.analysis.statistics import (
    MeanTest,
    RateEstimate,
    bootstrap_mean_interval,
    geometric_rate,
    one_sided_mean_test,
    wilson_interval,
)
from repro.analysis.archive import load_table, save_table

__all__ = [
    "DropFactorStats",
    "check_lemma1_on_state",
    "check_lemma10_identity",
    "empirical_lemma9",
    "measure_drop_factors",
    "partner_degree_statistics",
    "BoundComparison",
    "compare_to_bound",
    "fit_contraction_rate",
    "crossover_round",
    "idealized_trajectory",
    "local_divergence",
    "max_deviation",
    "rsw_divergence_bound",
    "Table",
    "format_number",
    "markdown_table",
    "MeanTest",
    "RateEstimate",
    "bootstrap_mean_interval",
    "geometric_rate",
    "one_sided_mean_test",
    "wilson_interval",
    "load_table",
    "save_table",
]
