"""Sharded ensemble execution: K process-local ``(n, B/K)`` replica blocks.

PR 1's :class:`~repro.simulation.ensemble.EnsembleSimulator` amortizes the
per-round engine overhead across a replica batch, but only within one
process — ``monte_carlo`` forced a choice between a process pool running
*serial* kernels (``workers=K``) and one process running *batched* kernels
(``workers="vectorized"``).  This module composes the two axes: a replica
batch is split into contiguous per-worker shards, each shard advances in
lockstep through its own ``EnsembleSimulator`` in a pool process (the
baseline execution model of distributed assessments such as Demiralp et
al., arXiv:2208.07553), and the per-shard traces merge back into one
:class:`~repro.simulation.ensemble.EnsembleTrace`.

Equivalence contract
--------------------
Replica ``b`` consumes the RNG stream
``SeedSequence(entropy=seed, spawn_key=(b,))`` no matter which shard it
lands in — the same derivation the serial Monte-Carlo loop, the
single-process ensemble, and the pool workers use.  Per-replica **load
trajectories are bit-for-bit identical** across the serial, vectorized
and sharded paths (the property tests assert this).  Derived statistics
(potentials, sums) may differ from the other paths in the last float ulp
because vectorized reductions over an ``(n, B)`` block depend on the
block's width; stopping decisions compare those statistics against
thresholds, so they agree except on measure-zero ties.

Shard merging pads each shard's row records up to the longest shard's
round count by repeating the frozen rows — exactly what a single
ensemble run records for replicas that stopped early — so the merged
trace is indistinguishable from a single-process run of the full batch
(modulo the ulp caveat above).

Shards execute over the :mod:`repro.distributed.transport` seam: each
worker process receives its typed
:class:`~repro.distributed.worker.ShardJob` (balancer, stopping rules,
per-replica generators, initial shard loads) through a per-shard channel
and ships the finished trace back — ``mp-pipe`` socketpairs by default,
or ``tcp`` sockets, the same wire
:func:`repro.distributed.dispatcher.dispatch_sharded` uses to send the
*identical* payloads to remote hosts.  Payloads travel as protocol-5
frames (pickled metadata, numpy slabs as zero-copy out-of-band
buffers), so trials and balancers must be module-level/picklable
exactly as ``monte_carlo(workers=K)`` already requires.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import re
import warnings
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter
from typing import Mapping, Sequence

import numpy as np

from repro.core.protocols import Balancer
from repro.distributed.transport import TransportError, make_pair
from repro.distributed.worker import ShardJob
from repro.observability.recorder import get_recorder
from repro.simulation.ensemble import EnsembleSimulator, EnsembleTrace, replica_rngs
from repro.simulation.montecarlo import trial_rng
from repro.simulation.stopping import StoppingRule

__all__ = [
    "parse_workers",
    "usable_cpus",
    "split_shards",
    "merge_ensemble_traces",
    "shard_payloads",
    "run_shard_payload",
    "run_sharded_ensemble",
    "sharded_run_batch",
]

#: transports the local shard pool can run over (loopback queues cannot
#: cross a process boundary).
SHARD_TRANSPORTS = ("mp-pipe", "tcp")


def parse_workers(workers: int | str | tuple) -> tuple[int, bool]:
    """Normalize a ``workers`` spec to ``(processes, vectorized)``.

    Accepted forms::

        1, 4            -> (1, False), (4, False)   process pool, serial kernels
        "vectorized"    -> (1, True)                one process, batched kernels
        "4xvectorized"  -> (4, True)                4-process sharded ensembles
        "4x"            -> (4, True)                shorthand for the above
        (4, "vectorized") -> (4, True)

    ``processes`` is the pool size (1 means in-process execution) and
    ``vectorized`` selects the batched kernels.  Zero or negative counts
    are rejected with an explicit message (``--workers 0`` is a common
    "disable" guess — the spelling for that is ``1``); a count beyond
    the host's usable cores emits a ``RuntimeWarning`` (the pool still
    runs, it just cannot parallelize past the hardware).
    """
    if isinstance(workers, tuple):
        if len(workers) == 2 and workers[1] == "vectorized":
            return parse_workers(workers[0])[0], True
        raise ValueError(f"workers tuple must be (K, 'vectorized'), got {workers!r}")
    if isinstance(workers, str):
        spec = workers.strip().lower()
        if spec == "vectorized":
            return 1, True
        if re.fullmatch(r"[+-]?\d+", spec):  # CLI flags arrive as strings
            return parse_workers(int(spec))
        match = re.fullmatch(r"(\d+)x(?:vectorized)?", spec)
        if match:
            return parse_workers(int(match.group(1)))[0], True
        raise ValueError(
            f"workers must be an int, 'vectorized' or 'KxVectorized', got {workers!r}"
        )
    if isinstance(workers, (int, np.integer)) and not isinstance(workers, bool):
        if workers < 1:
            raise ValueError(
                f"workers must be >= 1, got {workers} (use 1 for in-process execution)"
            )
        processes = int(workers)
        cpus = usable_cpus()
        if processes > cpus:
            warnings.warn(
                f"workers={processes} exceeds the {cpus} usable core(s) on this host; "
                "extra processes will time-share rather than parallelize",
                RuntimeWarning,
                stacklevel=2,
            )
        return processes, False
    raise ValueError(f"workers must be an int, 'vectorized' or 'KxVectorized', got {workers!r}")


def usable_cpus() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def split_shards(total: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous near-equal ``(start, stop)`` blocks covering ``range(total)``.

    The first ``total % shards`` blocks are one element larger; empty
    blocks are dropped (``shards > total`` degrades gracefully).
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = min(shards, total) or 1
    base, extra = divmod(total, shards)
    bounds = [0]
    for k in range(shards):
        bounds.append(bounds[-1] + base + (1 if k < extra else 0))
    return [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def merge_ensemble_traces(traces: Sequence[EnsembleTrace]) -> EnsembleTrace:
    """Concatenate per-shard traces along the replica axis.

    Shards that stopped earlier than the longest one have their last
    recorded rows repeated (statistics) or zero-filled (movements) up to
    the common length — the frozen-replica semantics a single ensemble
    run applies round by round.
    """
    if not traces:
        raise ValueError("need at least one trace to merge")
    if len(traces) == 1:
        return traces[0]
    ref = traces[0]
    merged = EnsembleTrace(
        balancer_name=ref.balancer_name,
        replicas=sum(t.replicas for t in traces),
        record_discrepancies=ref.record_discrepancies,
        record_movements=ref.record_movements,
        keep_snapshots=ref.keep_snapshots,
    )
    merged.stopped_by = [reason for t in traces for reason in t.stopped_by]
    rows = max(t.recorded_states for t in traces)

    def stacked(view: str, pad: str, length: int) -> list[np.ndarray]:
        # Each shard's (T + 1, B_k) matrix, padded to ``length`` rows,
        # side by side; the merged trace keeps the rows.
        parts = []
        for t in traces:
            m = getattr(t, view)
            if m.shape[0] < length:
                fill = m[-1:] if pad == "repeat" else np.zeros((1, t.replicas))
                m = np.concatenate([m, np.repeat(fill, length - m.shape[0], axis=0)])
            parts.append(m)
        return list(np.concatenate(parts, axis=1))

    merged._rounds = np.concatenate([t.rounds_vector for t in traces])
    merged._potentials = stacked("potentials_matrix", "repeat", rows)
    merged._sums = stacked("load_sums_matrix", "repeat", rows)
    if ref.record_discrepancies:
        merged._discrepancies = stacked("discrepancies_matrix", "repeat", rows)
    if ref.record_movements:
        merged._movements = stacked("movements_matrix", "zero", rows - 1)
    if ref.keep_snapshots:
        snapshots = [t.snapshots for t in traces]
        merged._snapshots = [
            np.concatenate([s[min(i, len(s) - 1)] for s in snapshots], axis=0)
            for i in range(rows)
        ]
    merged._final_loads = np.concatenate([t.final_loads for t in traces], axis=0)
    # Each shard's exact totals in the loads' dtype (integer loads stay
    # exact past 2**53, where the float64 sums round).
    merged._totals = np.concatenate([np.atleast_1d(t.last_totals) for t in traces])
    return merged


def run_shard_payload(job: ShardJob) -> EnsembleTrace:
    """Shard worker: one shard through a fresh ``EnsembleSimulator``.

    The job's ``whole_batch`` flag selects the engine flavor: a shard
    that is one slice of a split batch runs with ``serial_singleton``
    disabled — a one-replica shard must compute its statistics with the
    same batched formulas as every other shard, or the merged trace's
    stopping decisions would depend on how the batch happened to split
    across workers — while a payload covering the *whole* batch keeps
    the engine's default dispatch, reproducing an unsharded run exactly.
    This is the one executable a shard ever runs — the local pool and
    the remote dispatch workers call it on identical payloads, which is
    what makes shard placement irrelevant to the result.
    """
    ens = EnsembleSimulator(
        job.balancer,
        stopping=job.stopping,
        record=job.record,
        keep_snapshots=job.keep_snapshots,
        check_conservation=job.check_conservation,
        cons_tol=job.cons_tol,
        serial_singleton=job.whole_batch,
        first_replica=job.first_replica,
    )
    rec = get_recorder()
    if not rec.enabled:
        return ens.run(job.loads, seed=job.rngs)
    t0 = perf_counter()
    trace = ens.run(job.loads, seed=job.rngs)
    rec.record_span("shard", t0, engine="sharded", replicas=len(job.rngs),
                    rounds=trace.rounds)
    return trace


def shard_payloads(
    balancer: Balancer,
    loads: np.ndarray,
    seed: int | Sequence[np.random.Generator] = 0,
    replicas: int | None = None,
    workers: int = 2,
    stopping: Sequence[StoppingRule] | None = None,
    record: str = "auto",
    keep_snapshots: bool = False,
    check_conservation: bool = True,
    cons_tol: float = 1e-6,
    backend: str | None = None,
) -> list[ShardJob]:
    """Split an ensemble request into per-shard :class:`ShardJob` payloads.

    Normalizes the seed/replica inputs exactly like
    :meth:`EnsembleSimulator.run`, derives the per-replica RNG streams by
    *global* replica index, and cuts the batch into the contiguous
    near-equal shards of :func:`split_shards` — the derivation is a pure
    function of ``(loads, seed, replicas, workers)``, independent of
    where the payloads later execute, so local pools and remote
    dispatchers produce interchangeable shards.  Returns at least one
    payload (``workers <= 1`` yields the whole batch as a single shard).

    Placement independence is what makes shard dispatch fault-tolerant:
    a payload re-queued onto a different worker after a crash re-runs on
    the same RNG streams and produces the identical trace, so the merged
    result is bit-for-bit stable no matter how many times shards move.
    """
    if backend is not None:
        balancer.backend = backend
    arr = np.asarray(loads)
    rngs = replica_rngs(seed, replicas, arr)
    if arr.ndim == 2 and arr.shape[0] != len(rngs):
        raise ValueError(f"replicas={len(rngs)} but loads has {arr.shape[0]} rows")
    shards = split_shards(len(rngs), max(int(workers), 1))
    return [
        ShardJob(
            balancer=balancer,
            loads=arr if arr.ndim == 1 else arr[start:stop],
            rngs=rngs[start:stop],
            stopping=list(stopping) if stopping else None,
            record=record,
            keep_snapshots=keep_snapshots,
            check_conservation=check_conservation,
            cons_tol=cons_tol,
            whole_batch=len(shards) == 1,
            first_replica=start,
        )
        for start, stop in shards
    ]


def run_sharded_ensemble(
    balancer: Balancer,
    loads: np.ndarray,
    seed: int | Sequence[np.random.Generator] = 0,
    replicas: int | None = None,
    workers: int = 2,
    stopping: Sequence[StoppingRule] | None = None,
    record: str = "auto",
    keep_snapshots: bool = False,
    check_conservation: bool = True,
    cons_tol: float = 1e-6,
    backend: str | None = None,
    transport: str = "mp-pipe",
) -> EnsembleTrace:
    """Run a replica ensemble as ``workers`` process-local shard blocks.

    Accepts the same inputs as :meth:`EnsembleSimulator.run` — a shared
    ``(n,)`` initial vector or per-replica ``(B, n)`` states, plus a root
    seed (spawned into per-replica streams by global replica index) or an
    explicit generator sequence — and returns one merged
    :class:`EnsembleTrace`.  With ``workers <= 1`` (or a single shard) it
    degrades to the in-process ensemble, so callers can pass the parsed
    pool size straight through.  ``backend`` pins the kernel backend on
    the balancer before it ships to the pool workers (the attribute
    travels with the pickled balancer), so every shard runs the same —
    bit-for-bit interchangeable — kernels.  ``transport`` selects the
    channel backend each shard's payload/trace travels over (``mp-pipe``
    socketpairs by default, ``tcp`` sockets; both run the same stream
    channel under any multiprocessing start method) — a pure wire choice
    with no effect on the merged trace.
    """
    # Validate up front, not on the multi-shard path only: a typo'd
    # transport must fail at the call that introduces it, not when the
    # caller later scales past one shard.
    if transport not in SHARD_TRANSPORTS:
        raise ValueError(
            f"transport must be one of {SHARD_TRANSPORTS}, got {transport!r} "
            "(loopback channels cannot cross a process boundary)"
        )
    payloads = shard_payloads(
        balancer,
        loads,
        seed=seed,
        replicas=replicas,
        workers=workers,
        stopping=stopping,
        record=record,
        keep_snapshots=keep_snapshots,
        check_conservation=check_conservation,
        cons_tol=cons_tol,
        backend=backend,
    )
    if len(payloads) == 1:
        # The whole batch in-process: the job's whole_batch flag
        # keeps the engine's default dispatch, so this is exactly an
        # unsharded EnsembleSimulator run — and exactly what a remote
        # worker runs when a dispatch hands it the entire batch.
        return run_shard_payload(payloads[0])
    return merge_ensemble_traces(_run_shards_local(payloads, transport))


def _run_shards_local(payloads: list[ShardJob], transport: str = "mp-pipe") -> list[EnsembleTrace]:
    """One worker process per shard, linked by transport channels.

    The worker entry point
    (:func:`repro.distributed.worker.shard_process_main`) receives its
    payload over the channel and ships the finished trace back; errors
    come back as ``("error", message)`` frames so a dead or failing
    shard surfaces as a diagnostic ``RuntimeError``, never a hang on a
    half-closed socket.
    """
    from repro.distributed.worker import shard_process_main

    if transport not in SHARD_TRANSPORTS:
        raise ValueError(
            f"transport must be one of {SHARD_TRANSPORTS}, got {transport!r} "
            "(loopback channels cannot cross a process boundary)"
        )
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
    workers = []
    try:
        for payload in payloads:
            parent, child = make_pair(transport)
            proc = ctx.Process(target=shard_process_main, args=(child,), daemon=True)
            proc.start()
            # Drop the parent's copy of the worker endpoint so a dead
            # worker surfaces as EOF on recv, not an indefinite block.
            child.detach()
            parent.send(payload)
            workers.append((parent, proc))
        traces = []
        for idx, (parent, proc) in enumerate(workers):
            try:
                reply = parent.recv()
            except TransportError as exc:
                raise RuntimeError(f"shard worker {idx} died: {exc}") from exc
            if reply[0] == "error":
                raise RuntimeError(f"shard worker {idx} failed: {reply[1]}")
            traces.append(reply[1])
        return traces
    finally:
        for parent, proc in workers:
            parent.close()
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()


def _run_batch_shard(payload: tuple) -> dict[str, np.ndarray]:
    """Pool worker: one shard of Monte-Carlo trials through ``run_batch``.

    Rebuilds the shard's generators from the *global* trial indices so a
    trial's stream does not depend on the shard decomposition.
    """
    trial, root_seed, start, stop, args, kwargs = payload
    rngs = [trial_rng(root_seed, i) for i in range(start, stop)]
    out = trial.run_batch(rngs, *args, **kwargs)
    return {str(k): np.asarray(v, dtype=np.float64) for k, v in dict(out).items()}


def sharded_run_batch(
    trial,
    trials: int,
    root_seed: int,
    workers: int,
    trial_args: tuple = (),
    trial_kwargs: Mapping | None = None,
) -> dict[str, np.ndarray]:
    """Fan a batched trial's replicas out over a process pool.

    Splits ``range(trials)`` into contiguous shards, calls
    ``trial.run_batch(shard_rngs, *trial_args, **trial_kwargs)`` in each
    pool process, and concatenates the per-key metric arrays in trial
    order — the sharded backend behind
    ``monte_carlo(workers="KxVectorized")``.
    """
    kwargs = dict(trial_kwargs or {})
    shards = split_shards(trials, max(int(workers), 1))
    payloads = [
        (trial, root_seed, start, stop, tuple(trial_args), kwargs) for start, stop in shards
    ]
    if len(payloads) == 1:
        outcomes = [_run_batch_shard(payloads[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            outcomes = list(pool.map(_run_batch_shard, payloads))
    keys = list(outcomes[0])
    for (start, stop), shard_out in zip(shards, outcomes):
        if sorted(shard_out) != sorted(keys):
            raise ValueError(
                f"run_batch shard [{start}:{stop}) returned keys {sorted(shard_out)}, "
                f"expected {sorted(keys)}"
            )
        for key, val in shard_out.items():
            if val.shape != (stop - start,):
                raise ValueError(
                    f"run_batch shard [{start}:{stop}) returned {val.shape} samples "
                    f"for {key!r}, expected ({stop - start},)"
                )
    return {key: np.concatenate([o[key] for o in outcomes]) for key in keys}
