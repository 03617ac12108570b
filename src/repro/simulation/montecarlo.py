"""Monte-Carlo replication over seeds: serial, vectorized or sharded.

Theorems 12 and 14 are probabilistic ("with probability at least ..."),
and Lemmas 9/11/13 bound expectations — verifying them needs many
independent runs.  :func:`monte_carlo` executes a user-provided trial
function over a range of seeds and aggregates the results.  It owns no
processes: spreading replicas over processes is the one job of
:func:`~repro.simulation.engine.simulate`, which a batched trial calls.

Execution modes
---------------
``workers`` selects among three modes:

- ``workers=1`` (default) — the serial reference loop, one
  ``trial(rng, *args, **kwargs)`` call per trial in this process: the
  loop every other mode must reproduce.
- ``workers="vectorized"`` — a trial object that implements
  ``run_batch(rngs, *args, workers=1, **kwargs)`` (typically by pushing
  all replicas through :func:`~repro.simulation.engine.simulate` in
  lockstep) receives every replica's generator at once, in this
  process, and returns the per-trial metric arrays in one call.
- ``workers=K`` or ``workers="KxVectorized"`` (e.g. ``"4xvectorized"``)
  with ``K > 1`` — the same ``run_batch`` call with ``workers=K``
  forwarded as a keyword, like ``backend=`` and ``partitions=``.  The
  trial passes it on to ``simulate(..., workers=K)``, which splits the
  replicas into ``K`` contiguous shards, runs each as one lockstep
  ensemble in its own worker process
  (:func:`~repro.simulation.sharding.run_sharded_ensemble`) and merges
  the traces in replica order.

A trial without ``run_batch`` always runs the serial loop, whatever
``workers`` asks for, so every mode is safe to request.

Seeds are derived from a root seed via ``SeedSequence.spawn`` so that

- trials are statistically independent,
- results are identical whichever mode runs them (per-trial load
  trajectories are bit-for-bit reproduced; derived statistics may differ
  in the last float ulp from summation order), and
- any single trial can be reproduced in isolation from its index.

The trial function takes a ``numpy.random.Generator`` and returns a
float or a dict of floats; ``run_batch`` returns a dict of per-trial
arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = ["MonteCarloResult", "monte_carlo", "trial_rng", "trial_rngs"]

TrialFn = Callable[..., float | Mapping[str, float]]


@dataclass
class MonteCarloResult:
    """Aggregated trial outcomes.

    ``samples`` maps each metric name to the per-trial value array
    (single-float trials are stored under ``"value"``).
    """

    samples: dict[str, np.ndarray]
    trials: int

    def mean(self, key: str = "value") -> float:
        return float(self.samples[key].mean())

    def std(self, key: str = "value") -> float:
        return float(self.samples[key].std(ddof=1)) if self.trials > 1 else 0.0

    def quantile(self, q: float, key: str = "value") -> float:
        return float(np.quantile(self.samples[key], q))

    def max(self, key: str = "value") -> float:
        return float(self.samples[key].max())

    def min(self, key: str = "value") -> float:
        return float(self.samples[key].min())

    def fraction_true(self, key: str = "value") -> float:
        """Fraction of trials where the (0/1-valued) metric was 1."""
        return float(self.samples[key].mean())

    def confidence_halfwidth(self, key: str = "value", z: float = 1.96) -> float:
        """Normal-approximation CI half-width for the mean."""
        if self.trials < 2:
            return float("inf")
        return z * self.std(key) / np.sqrt(self.trials)


def trial_rng(root_seed: int, index: int) -> np.random.Generator:
    """Trial ``index``'s generator — THE seed derivation of every mode.

    Equivalent to ``SeedSequence(root_seed).spawn(...)[index]`` but O(1).
    The serial loop and the ensemble engines' per-replica streams (so
    the vectorized and sharded modes too) all derive from this one
    function, so the cross-mode reproducibility contract cannot silently
    desynchronize.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=root_seed, spawn_key=(index,)))


def trial_rngs(root_seed: int, trials: int) -> list[np.random.Generator]:
    """Independent generators for ``trials`` replications of ``root_seed``.

    ``trial_rngs(s, k)[i]`` reproduces trial ``i`` of ``monte_carlo``
    runs with root seed ``s`` exactly.
    """
    return [trial_rng(root_seed, i) for i in range(trials)]


def monte_carlo(
    trial: TrialFn,
    trials: int,
    root_seed: int = 0,
    workers: int | str = 1,
    trial_args: Sequence = (),
    trial_kwargs: Mapping | None = None,
    backend: str | None = None,
    partitions: int | str | None = None,
) -> MonteCarloResult:
    """Run ``trial(rng, *trial_args, **trial_kwargs)`` for many seeds.

    ``workers`` picks the execution mode — ``1`` (serial loop),
    ``"vectorized"`` (one ``run_batch`` call) or ``K`` /
    ``"KxVectorized"`` (one ``run_batch`` call with ``workers=K``); see
    the module docstring's *Execution modes*.  Results are aggregated in
    trial order in every mode, so the output is independent of the
    execution strategy.

    ``backend`` selects the *kernel* backend (numpy/scipy/numba) and is
    forwarded to the trial as a ``backend=`` keyword — shorthand for
    putting it in ``trial_kwargs`` — so the trial can pass it to the
    balancers it builds.  Trials that do not accept the keyword should be
    run with ``backend=None`` (the default).

    ``partitions`` (``P`` or ``"P:strategy"``) is the node-axis analogue:
    validated here and forwarded as a ``partitions=`` keyword so trials
    that run their balancer through
    :class:`~repro.simulation.partitioned.PartitionedSimulator` can split
    each run into halo-exchanging blocks.  Results are independent of the
    setting (partitioned trajectories are bit-for-bit the global ones).
    """
    from repro.graphs.partition import parse_partitions
    from repro.simulation.sharding import parse_workers

    if trials < 1:
        raise ValueError("need at least one trial")
    kwargs = dict(trial_kwargs or {})
    if backend is not None:
        kwargs.setdefault("backend", backend)
    if partitions is not None:
        parse_partitions(partitions)  # fail fast on malformed specs
        kwargs.setdefault("partitions", partitions)
    with warnings.catch_warnings():
        # the oversubscription warning is simulate's, given once when it
        # starts the shard processes; a trial without run_batch starts none
        warnings.simplefilter("ignore", RuntimeWarning)
        processes, vectorized = parse_workers(workers)
    run_batch = getattr(trial, "run_batch", None)
    if run_batch is not None and (vectorized or processes > 1):
        if processes > 1:
            kwargs.setdefault("workers", processes)
        out = run_batch(trial_rngs(root_seed, trials), *trial_args, **kwargs)
        samples = {str(k): np.asarray(v, dtype=np.float64) for k, v in dict(out).items()}
        for key, arr in samples.items():
            if arr.shape != (trials,):
                raise ValueError(
                    f"run_batch returned {arr.shape} samples for {key!r}, expected ({trials},)"
                )
        return MonteCarloResult(samples=samples, trials=trials)

    outcomes = []
    for i in range(trials):
        out = trial(trial_rng(root_seed, i), *trial_args, **kwargs)
        outcomes.append(dict(out) if isinstance(out, Mapping) else {"value": float(out)})
    keys = sorted({k for o in outcomes for k in o})
    samples = {k: np.asarray([o.get(k, np.nan) for o in outcomes], dtype=np.float64) for k in keys}
    return MonteCarloResult(samples=samples, trials=trials)
