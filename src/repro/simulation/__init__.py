"""Execution substrate: initial loads, stopping rules, traces, engines.

- :mod:`repro.simulation.initial` — the workload generators (point load,
  bimodal, uniform random, ramp, zipf, adversarial);
- :mod:`repro.simulation.stopping` — declarative stopping criteria;
- :mod:`repro.simulation.trace` — per-round records and convergence-time
  extraction;
- :mod:`repro.simulation.engine` — :func:`simulate`, the one entry point
  for a local run request (it picks the engine), and its one-replica
  forms :class:`Simulator` and :func:`run_balancer`, which return a
  :class:`Trace`;
- :mod:`repro.simulation.ensemble` — the batched lockstep engine running
  whole replica ensembles through one vectorized round loop;
- :mod:`repro.simulation.superstep` — the BSP / message-passing substrate
  in which each node runs the *local* protocol with mailboxes (fidelity
  reference for the vectorized engine);
- :mod:`repro.simulation.montecarlo` — seed sweeps: the serial loop, or
  a trial's ``run_batch`` in this process or sharded over ``workers``
  processes;
- :mod:`repro.simulation.sharding` — the sharded execution layer: split a
  replica batch into per-worker blocks, run each block as a process-local
  lockstep ensemble, merge the traces;
- :mod:`repro.simulation.partitioned` — node-axis partitioned execution:
  split one topology into P blocks with ghost nodes, advance each block
  locally and exchange only boundary loads per round (bit-for-bit equal
  to the global engines).
"""

from repro.simulation.initial import (
    adversarial_linear,
    bimodal_load,
    fiedler_load,
    make_loads,
    point_load,
    ramp_load,
    uniform_random_load,
    zipf_load,
)
from repro.simulation.stopping import (
    DiscrepancyBelow,
    MaxRounds,
    PotentialBelow,
    PotentialFractionBelow,
    Stagnation,
    StoppingRule,
    first_satisfied,
)
from repro.simulation.trace import Trace
from repro.simulation.engine import Simulator, run_balancer, simulate
from repro.simulation.ensemble import EnsembleSimulator, EnsembleTrace, spawn_rngs
from repro.simulation.superstep import (
    SuperstepNetwork,
    SuperstepPartnerNetwork,
    run_superstep_diffusion,
    run_superstep_partners,
)
from repro.simulation.montecarlo import MonteCarloResult, monte_carlo
from repro.simulation.sharding import (
    merge_ensemble_traces,
    parse_workers,
    run_sharded_ensemble,
    split_shards,
)
from repro.simulation.partitioned import BlockLocal, PartitionedSimulator, block_local
from repro.simulation.sweep import SweepCell, sweep

__all__ = [
    "adversarial_linear",
    "bimodal_load",
    "fiedler_load",
    "make_loads",
    "point_load",
    "ramp_load",
    "uniform_random_load",
    "zipf_load",
    "DiscrepancyBelow",
    "MaxRounds",
    "PotentialBelow",
    "PotentialFractionBelow",
    "Stagnation",
    "StoppingRule",
    "first_satisfied",
    "Trace",
    "Simulator",
    "run_balancer",
    "simulate",
    "EnsembleSimulator",
    "EnsembleTrace",
    "spawn_rngs",
    "SuperstepNetwork",
    "SuperstepPartnerNetwork",
    "run_superstep_diffusion",
    "run_superstep_partners",
    "MonteCarloResult",
    "monte_carlo",
    "merge_ensemble_traces",
    "parse_workers",
    "run_sharded_ensemble",
    "split_shards",
    "BlockLocal",
    "PartitionedSimulator",
    "block_local",
    "SweepCell",
    "sweep",
]
