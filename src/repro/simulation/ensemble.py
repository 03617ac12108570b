"""The round driver every engine shares, and the lockstep replica ensemble.

:class:`RoundEngine` owns the round contract of Algorithms 1 and 2 once:
step, freeze stopped replicas, record, advance, convergence monitor,
conservation audit, stopping rules and ``round`` span, plus the shared
constructor (``MaxRounds`` safety net, ``record`` policy, backend
pinning).  Each engine supplies only a *stepper*, an iterator that
advances its state one round per item and records it: serial ``step``
and ``step_batch`` here, or the block loop and block executors of
:class:`~repro.simulation.partitioned.PartitionedSimulator`.

:class:`EnsembleSimulator` verifies the paper's probabilistic results
(Theorems 12/14, Lemmas 9/11/13) by advancing ``B`` Monte-Carlo
replicas *in lockstep* through the balancer's ``step_batch`` kernel — an
``(n, B)`` matrix where column ``b`` is replica ``b`` — so a round of the
whole ensemble is a handful of large vectorized operations (for the
linear schemes, literally one cached sparse matmat).  The matrix is
node-major (C-ordered) unless the scheme's round works on replica rows
and the batch's recorded statistics are exact in any summation order
(:func:`initial_batch`); it is then the transposed view of C-contiguous
``(B, n)`` rows, which the stepper, record, freeze and audit read
without a copy.  Its semantics are exactly ``B`` independent serial runs:

- replica ``b`` consumes its own RNG stream, spawned from the root seed
  with the same ``SeedSequence(entropy=seed, spawn_key=(b,))`` derivation
  as :func:`repro.simulation.montecarlo.trial_rngs`, so any replica can
  be reproduced in isolation;
- stopping rules are evaluated **per replica**: each rule's one
  ``should_stop`` returns a mask over the batch's last statistics rows;
  replicas that stop are frozen — their loads no longer change — while
  the rest keep running;
- conservation is audited per replica every round (integer-exact for
  discrete balancers, at any magnitude);
- per-replica load trajectories are **bit-for-bit identical** to the
  serial runs (the property tests assert this for every batchable
  scheme).

Every engine records into one type,
:class:`~repro.simulation.trace.EnsembleTrace` (re-exported here);
the serial :class:`~repro.simulation.trace.Trace` is its one-replica
view.  A one-replica ensemble runs the serial stepper straight into its
own trace, whose rows are then scalars.  It is the only driver of a
local one-replica run: :class:`~repro.simulation.engine.Simulator` is
this run read back as a :class:`Trace`.  Recorded statistics are
computed once per round across the whole batch.  ``record="auto"`` (the
default everywhere) records only what the run's readers read: the
potentials and load sums every run keeps, plus the series each stopping
rule declares in its ``reads`` (discrepancies for a
:class:`~repro.simulation.stopping.DiscrepancyBelow`).
``record="full"`` records every series, adding discrepancies and
per-round net movement.  Derived statistics of a batch may differ from
the serial ones in the last float ulp (different summation order);
recorded *loads* never do.

Both steppers validate at the engine boundary only: :func:`initial_batch`
checks the initial state once, and each round runs the scheme's
unvalidated ``step_batch`` with two buffers ping-ponging through its
``out=`` (the serial stepper on ``(n, 1)`` views, so a round allocates
nothing).  Both keep ``validate_loads``' per-round guard from what the
trace records anyway: a non-finite sum raises ``loads must be
finite``, and a negative minimum ``loads must be non-negative`` unless
the scheme ``allows_negative`` (the batched stepper adds one
whole-batch ``min`` per round for it).  A scheme without
``supports_batch`` runs on ``step``, which checks its own input.
"""

from __future__ import annotations

import math
from functools import partial
from time import perf_counter
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core.protocols import Balancer
from repro.observability.recorder import get_recorder
from repro.simulation.montecarlo import trial_rngs
from repro.simulation.stopping import MaxRounds, StoppingRule, first_satisfied
from repro.simulation.trace import ALWAYS_RECORDED, SERIES, EnsembleTrace

__all__ = ["EnsembleSimulator", "EnsembleTrace", "RoundEngine", "initial_batch", "spawn_rngs"]

#: Float64 represents every integer total below this exactly; a discrete
#: run starting at or above it audits its integer totals instead.
EXACT_FLOAT_TOTAL = 2**53

# Replica streams ARE Monte-Carlo trial streams: one derivation, so an
# ensemble replica reproduces the corresponding serial trial bit-for-bit.
spawn_rngs = trial_rngs


def initial_batch(
    balancer: Balancer, loads: np.ndarray, replicas: int | None
) -> tuple[np.ndarray, int]:
    """Validate initial loads into an ``(n, B)`` batch; column ``b`` is replica ``b``.

    Accepts a shared ``(n,)`` vector (repeated across ``replicas``
    columns) or per-replica ``(B, n)`` states; every replica's vector
    goes through ``balancer.validate_loads``.  Shared by the ensemble
    and partitioned engines so their input contracts cannot drift.

    The batch is C-ordered (node-major) unless :func:`replica_major`
    allows the transposed view of C-contiguous ``(B, n)`` rows; the
    order is decided here, once per run, and ``batch_rounds``' buffers
    keep it.
    """
    arr = np.asarray(loads)
    if arr.ndim == 1:
        B = 1 if replicas is None else int(replicas)
        vec = balancer.validate_loads(arr)
        if replica_major(balancer, [vec]):
            return np.repeat(vec[None, :], B, axis=0).T, B
        return np.repeat(vec[:, None], B, axis=1), B
    if arr.ndim != 2:
        raise ValueError(f"loads must be (n,) or (B, n), got shape {arr.shape}")
    B = arr.shape[0]
    if replicas is not None and int(replicas) != B:
        raise ValueError(f"replicas={replicas} but loads has {B} rows")
    cols = [balancer.validate_loads(arr[b]) for b in range(B)]
    if replica_major(balancer, cols):
        return np.stack(cols, axis=0).T, B
    return np.ascontiguousarray(np.stack(cols, axis=1)), B


def replica_major(balancer: Balancer, cols: Sequence[np.ndarray]) -> bool:
    """Whether an ensemble holds these validated replica vectors replica-major.

    The scheme must ask for it (``replica_major_batch``), and every row
    the trace records must be exact in any summation order, because a
    batch's statistics sum along the node axis in memory order.  Integer
    sums, extrema and movements always are; the float64 sum of squares
    behind ``Phi`` is when the loads are non-negative integers whose
    per-replica total ``S`` has ``S**2 < 2**53``, since every square and
    every partial sum of squares is then an integer at most ``S**2``.
    """
    if not getattr(balancer, "replica_major_batch", False):
        return False
    if cols[0].dtype.kind not in "iu" or getattr(balancer, "allows_negative", False):
        return False
    totals = np.array([c.sum(dtype=np.float64) for c in cols])
    return bool(np.all(totals * totals < EXACT_FLOAT_TOTAL))


def replica_rngs(seed, replicas: int | None, loads) -> list[np.random.Generator]:
    """One generator per replica: a root ``seed`` spawned by global replica
    index, or the explicit generators ``seed`` lists.

    With ``replicas`` None the count comes from the generators, or from
    ``loads`` (its ``(B, n)`` rows; one replica for a shared ``(n,)``
    vector).  Shared by the ensemble engine, the shard planner and
    ``simulate`` so their seeding cannot drift.
    """
    if isinstance(seed, (int, np.integer)):
        if replicas is None:
            arr = np.asarray(loads)
            replicas = arr.shape[0] if arr.ndim == 2 else 1
        return spawn_rngs(int(seed), int(replicas))
    rngs = [seed] if isinstance(seed, np.random.Generator) else list(seed)
    if replicas is not None and len(rngs) != int(replicas):
        raise ValueError(f"got {len(rngs)} generators for {replicas} replicas")
    if not all(isinstance(r, np.random.Generator) for r in rngs):
        raise TypeError("seed must be an int or a sequence of numpy Generators")
    return rngs


class RoundEngine:
    """Configuration and round driver shared by every engine.

    Parameters
    ----------
    balancer:
        Any :class:`Balancer`; it is ``reset()`` at the start of each run.
    stopping:
        Stopping rules checked in order after every round.  A
        :class:`MaxRounds` safety net is appended automatically if absent.
    record:
        Which series the trace keeps: ``"auto"`` the union of what the
        stopping rules declare and :data:`~repro.simulation.trace.ALWAYS_RECORDED`,
        ``"full"`` all of them (see :meth:`recorded_series`).
    keep_snapshots:
        Record the full load state after every round (memory-heavy).
    check_conservation:
        After every round, assert that each replica's total load is
        conserved: exactly for integer loads (at any magnitude), within
        relative tolerance ``cons_tol`` otherwise.  On violation the run
        raises immediately, naming the replica — a conservation bug must
        never silently skew an experiment.
    backend:
        Kernel backend for the balancer's operator kernels
        (``"numpy"``/``"scipy"``/``"numba"``/``"auto"``).  An explicit
        backend pins the balancer; None keeps the balancer's own setting
        (e.g. one the CLI's ``--backend`` pinned).  Backends are
        bit-for-bit interchangeable, so this only affects speed.
    """

    DEFAULT_MAX_ROUNDS = 1_000_000
    #: global index of the batch's first replica, which errors add to the
    #: batch index they name (a shard of a larger batch sets it)
    first_replica = 0

    def __init__(
        self,
        balancer: Balancer,
        stopping: Sequence[StoppingRule] | None = None,
        *,
        record: str = "auto",
        keep_snapshots: bool = False,
        check_conservation: bool = True,
        cons_tol: float = 1e-6,
        backend: str | None = None,
    ) -> None:
        if record not in ("auto", "full"):
            raise ValueError(f"record must be 'auto' or 'full', got {record!r}")
        self.balancer = balancer
        if backend is not None:
            balancer.backend = backend
        #: the backend the kernels run on (block kernels resolve it too)
        self.backend = getattr(balancer, "backend", None)
        rules = list(stopping) if stopping else []
        if not any(isinstance(r, MaxRounds) for r in rules):
            rules.append(MaxRounds(self.DEFAULT_MAX_ROUNDS))
        self.stopping = rules
        self.record = record
        self.keep_snapshots = keep_snapshots
        self.check_conservation = check_conservation
        self.cons_tol = cons_tol

    def recorded_series(self) -> frozenset[str]:
        """The series this engine's traces record: every one under
        ``record="full"``; under ``"auto"`` the potentials and load sums
        plus the union of the stopping rules' ``reads``."""
        if self.record == "full":
            return SERIES
        return ALWAYS_RECORDED.union(*(rule.reads for rule in self.stopping))

    def _new_trace(self, replicas: int) -> EnsembleTrace:
        series = self.recorded_series()
        return EnsembleTrace(
            balancer_name=self.balancer.name,
            replicas=replicas,
            record_discrepancies="discrepancies" in series,
            record_movements="movements" in series,
            keep_snapshots=self.keep_snapshots,
        )

    def _drive(self, trace, rounds: Iterator, active: np.ndarray | None = None,
               engine: str = "serial"):
        """Run rounds until the stopping rules end the run; returns the final state.

        ``rounds`` is the engine's stepper.  Its first item is the initial
        state, which the driver records in ``trace``; each further item
        advances the state one round — step, freeze stopped replicas,
        record into ``trace`` — and is the new state (None when only
        statistics come back); the driver holds only the latest state.
        ``active`` is a batched run's per-replica mask, updated in place;
        the serial engine passes None and keeps its one replica in
        scalars.  After each round the driver credits it to the active
        replicas, feeds the convergence monitor, audits conservation,
        evaluates the stopping rules and closes the round's ``round`` span.
        """
        state = next(rounds)
        trace.record(state)
        serial = active is None
        rec = get_recorder()
        traced = rec.enabled
        monitor = None
        if traced:
            from repro.observability.convergence import monitor_for

            monitor = monitor_for(self.balancer, rec)
            if monitor is not None:
                monitor.observe(trace._potentials[-1], active)
        audit = None
        if self.check_conservation:
            audit = partial(audit_replica_sums, self.balancer.name, first=self.first_replica)
            integer = np.issubdtype(state.dtype, np.integer)
            # Float64 totals round past 2**53; such a run compares the
            # integer totals the trace keeps.  Decided once per run.
            exact = integer and bool(np.any(np.abs(trace._sums[0]) >= EXACT_FLOAT_TOTAL))
            initial = trace.last_totals if exact else trace._sums[0]
            tol = None if integer else self.cons_tol * np.maximum(np.abs(initial), 1.0)
        running = apply_stopping(self.stopping, trace, active)
        r = 0
        if traced:
            # One clock read per round: a round's end stamp starts the next.
            t0 = perf_counter()
        while running:
            state = next(rounds)
            trace.advance(active)
            if monitor is not None:
                # `active` is still this round's pre-stopping mask here.
                monitor.observe(trace._potentials[-1], active)
            if audit is not None:
                audit(trace.last_totals if exact else trace._sums[-1], initial, tol)
            running = apply_stopping(self.stopping, trace, active)
            if traced:
                t1 = perf_counter()
                if serial:
                    rec.record_span("round", t0, t1, round=r, engine=engine)
                else:
                    rec.record_span("round", t0, t1, round=r, engine=engine,
                                    active=int(active.sum()))
                t0 = t1
            r += 1
        if monitor is not None:
            monitor.finish()
        return state


class EnsembleSimulator(RoundEngine):
    """Run ``B`` replicas of a batch-capable balancer in lockstep.

    Parameters are those of :class:`RoundEngine`, with these specifics:

    balancer:
        Must have ``supports_batch`` (a one-replica run on the serial
        stepper takes any balancer).
    stopping:
        On more than one replica, every rule's ``should_stop`` must return
        a per-replica mask (every built-in rule does).
    record:
        ``"auto"`` (default) records potentials and load sums plus the
        series the stopping rules declare (discrepancies for a
        :class:`~repro.simulation.stopping.DiscrepancyBelow`); ``"full"``
        adds discrepancies and per-round net movement.
    serial_singleton:
        Run ``B = 1`` on the serial stepper (default), straight into the
        run's one-replica trace: its rows are scalars, so the round pays
        no batched bookkeeping with nothing to amortize it over, and the
        serial stepper works for *every* balancer, batched or not.  Load
        trajectories are identical either way; derived statistics
        (potentials, sums) may differ in the last float ulp, because a
        load vector's statistics use the centered formula and a batch's
        the shifted one.  Set ``False`` to force the batched kernels and
        formulas even for one replica: a one-replica slice of a sharded
        batch does, so its stopping decisions match the other shards'
        (and so do the bit-for-bit property tests).
    first_replica:
        Global index of the first replica, for a batch that is one shard
        of a larger one: the guard and the conservation audit then name
        the global replica.
    """

    def __init__(
        self,
        balancer: Balancer,
        stopping: Sequence[StoppingRule] | None = None,
        record: str = "auto",
        keep_snapshots: bool = False,
        check_conservation: bool = True,
        cons_tol: float = 1e-6,
        serial_singleton: bool = True,
        backend: str | None = None,
        first_replica: int = 0,
    ) -> None:
        super().__init__(
            balancer, stopping, record=record, keep_snapshots=keep_snapshots,
            check_conservation=check_conservation, cons_tol=cons_tol, backend=backend,
        )
        self.serial_singleton = serial_singleton
        self.first_replica = first_replica

    def run(self, loads: np.ndarray, seed=0, replicas: int | None = None) -> EnsembleTrace:
        """Run all replicas until each one's stopping rule fires.

        ``loads`` is a shared ``(n,)`` initial vector or per-replica
        ``(B, n)`` initial states; ``seed`` is a root seed (spawned into
        per-replica streams) or an explicit sequence of ``B`` generators.
        """
        self.balancer.reset()
        rngs = replica_rngs(seed, replicas, loads)
        L, B = initial_batch(self.balancer, loads, len(rngs))
        trace = self._new_trace(B)
        if B == 1 and self.serial_singleton:
            L = self._drive(trace, serial_rounds(self.balancer, trace, L[:, 0], rngs[0]))
        else:
            if not getattr(self.balancer, "supports_batch", False):
                raise TypeError(
                    f"{self.balancer.name} has no batched kernel; use "
                    "simulate(..., replicas=B), which merges one-replica runs"
                )
            active = np.ones(B, dtype=bool)

            def step(L, out):
                return self.balancer.step_batch(L, rngs, out=out)

            signed = getattr(self.balancer, "allows_negative", False)
            # The stepper is not held: its spare buffer is freed before the
            # final copy below.
            L = self._drive(trace, batch_rounds(trace, L, active, step, signed,
                                                self.first_replica), active, "ensemble")
        # (B, n) rows of the last state, detached from the recycled buffers.
        trace._final_loads = np.atleast_2d(L.T).copy()
        return trace


# ----------------------------------------------------------------------
# Steppers, stopping and the conservation audit
# ----------------------------------------------------------------------
def serial_rounds(balancer: Balancer, trace: EnsembleTrace, loads: np.ndarray,
                  rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The serial stepper: the initial ``(n,)`` vector, then one round per item.

    A batched scheme runs ``step_batch`` on ``(n, 1)`` views of two
    ping-pong buffers, guarded from its record's sum and minimum (see the
    module docstring); any other scheme calls ``step``.
    """
    yield loads
    if not getattr(balancer, "supports_batch", False):
        while True:
            loads = balancer.step(loads, rng)
            trace.record(loads)
            yield loads
    L, rngs = loads[:, None], [rng]
    spare = np.empty_like(L)
    signed = getattr(balancer, "allows_negative", False)
    while True:
        new = balancer.step_batch(L, rngs, out=spare)
        if new is L:
            raise AssertionError(f"{trace.balancer_name}'s round kernel returned its input")
        vec = new[:, 0]
        lo = trace.record(vec, prev=loads)
        if not math.isfinite(trace._sums[-1]):
            raise ValueError("loads must be finite (no NaN/inf)")
        if lo < 0 and not signed:
            raise ValueError("loads must be non-negative")
        L, spare, loads = new, L, vec
        yield loads


def batch_rounds(trace: EnsembleTrace, L: np.ndarray, active: np.ndarray,
                 kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 signed: bool = False, first: int = 0) -> Iterator[np.ndarray]:
    """The stepper over an ``(n, B)`` batch: ``L``, then one ``kernel``
    round per item.

    ``kernel(L, out)`` returns the next batch, written into ``out`` when
    it can.  Two buffers ping-pong through it so the loop allocates
    nothing: once a round is recorded, the previous batch is recycled as
    the next round's output (kernels that ignore ``out`` simply leave it
    to be reused).  The spare buffer takes ``L``'s memory order, so a
    replica-major batch stays replica-major.  Replicas no longer
    ``active`` keep their loads.

    Each round is guarded like the serial stepper's: a non-finite entry
    of the recorded sums row raises ``loads must be finite``, and a
    negative minimum of the whole batch ``loads must be non-negative``
    unless the scheme is ``signed`` (its ``allows_negative``); a trace
    that records discrepancies hands back the minimum row it computed
    for them instead.  Errors name replicas from ``first`` on.
    """
    yield L
    spare = np.empty_like(L)
    floating = L.dtype.kind == "f"
    while True:
        new = kernel(L, spare)
        if new is L:
            raise AssertionError(f"{trace.balancer_name}'s round kernel returned its input")
        if not active.all():
            frozen = ~active
            new[:, frozen] = L[:, frozen]
        lows = trace.record(new, prev=L)
        guard_row(trace._sums[-1], new if lows is None else lows, floating, signed, first)
        L, spare = new, L
        yield L


def guard_row(sums: np.ndarray, lows: np.ndarray, floating: bool, signed: bool,
              first: int = 0) -> None:
    """The per-round guard on one recorded row of a batch.

    Raises ``validate_loads``' error for the first replica whose total
    in ``sums`` is not finite (``floating`` loads only) or, unless the
    scheme is ``signed``, whose minimum is negative.  ``lows`` is the
    ``(B,)`` row of minima, or the ``(n, B)`` batch itself, whose column
    minima are then taken only when the batch's minimum fails.  Replica
    ``b`` is named ``first + b``.
    """
    if floating:
        finite = np.isfinite(sums)
        if not finite.all():
            b = int(np.flatnonzero(~finite)[0])
            raise ValueError(f"loads must be finite (no NaN/inf): replica {first + b}")
    if not signed and lows.min() < 0:
        if lows.ndim == 2:
            lows = lows.min(axis=0)
        b = int(np.flatnonzero(lows < 0)[0])
        raise ValueError(f"loads must be non-negative: replica {first + b}")


def apply_stopping(stopping, trace, active: np.ndarray | None) -> bool:
    """Evaluate the stopping rules; True while some replica still runs.

    A batched run's replicas (``active``, updated in place) each stop at
    the first rule whose verdict mask fires for them, which records its
    reason.  A one-replica run (``active`` None) stops at the first rule
    whose scalar verdict holds, without building a mask.
    """
    if active is None:
        rule = first_satisfied(stopping, trace)
        if rule is None:
            return True
        trace._reasons[0] = rule.reason
        return False
    remaining = active.copy()
    running = True
    for rule in stopping:
        verdict = rule.should_stop(trace)
        if np.ndim(verdict) == 0 and trace.replicas > 1:
            raise NotImplementedError(
                f"{type(rule).__name__} has no batched form: its should_stop returned one "
                f"verdict for a {trace.replicas}-replica trace instead of a per-replica mask"
            )
        newly = remaining & np.asarray(verdict, dtype=bool)
        if newly.any():
            for b in np.flatnonzero(newly):
                trace._reasons[b] = rule.reason
            remaining &= ~newly
            running = bool(remaining.any())
            if not running:
                break
    active[:] = remaining
    return running


def audit_replica_sums(name: str, sums, initial_sums, tol, first: int = 0) -> None:
    """Conservation check on a just-recorded total row.

    ``sums`` is one replica's scalar total or a ``(B,)`` row of them.
    Exact when ``tol`` is None (integer loads: float64 totals below
    ``2**53``, the integer totals from there on); otherwise each total
    must stay within its absolute tolerance in ``tol``, and a NaN total
    never passes.  Raises ``AssertionError`` naming the first leaking
    replica of a row, as ``first`` plus its index in the row.
    """
    ok = sums == initial_sums if tol is None else abs(sums - initial_sums) <= tol
    if not isinstance(ok, np.ndarray):  # a scalar total: no mask to build
        if not ok:
            raise AssertionError(f"{name} leaked load: {_leak(sums, initial_sums)}")
    elif not ok.all():
        b = int(np.flatnonzero(~ok)[0])
        raise AssertionError(
            f"{name} leaked load in replica {first + b}: {_leak(sums[b], initial_sums[b])}"
        )


def _leak(total, initial) -> str:
    if not np.isfinite(total):
        return f"non-finite sum {total} (NaN/inf in loads)"
    return f"sum {total} != initial {initial}"
