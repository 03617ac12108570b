"""The round driver every engine shares, and the lockstep replica ensemble.

:class:`RoundEngine` owns the round contract of Algorithms 1 and 2 once:
step, freeze stopped replicas, record, advance, convergence monitor,
conservation audit, stopping rules and ``round`` span, plus the shared
constructor (``MaxRounds`` safety net, ``record`` policy, backend
pinning).  Each engine supplies only a *stepper*, an iterator that
advances its state one round per item and records it: serial ``step``
(:class:`~repro.simulation.engine.Simulator`), ``step_batch`` here, or
the block loop and block executors of
:class:`~repro.simulation.partitioned.PartitionedSimulator`.

:class:`EnsembleSimulator` verifies the paper's probabilistic results
(Theorems 12/14, Lemmas 9/11/13) by advancing ``B`` Monte-Carlo
replicas *in lockstep* through the balancer's ``step_batch`` kernel — a
node-major ``(n, B)`` matrix where column ``b`` is replica ``b`` — so a
round of the whole ensemble is a handful of large vectorized operations
(for the linear schemes, literally one cached sparse matmat).  Its
semantics are exactly ``B`` independent serial runs:

- replica ``b`` consumes its own RNG stream, spawned from the root seed
  with the same ``SeedSequence(entropy=seed, spawn_key=(b,))`` derivation
  as :func:`repro.simulation.montecarlo.trial_rngs`, so any replica can
  be reproduced in isolation;
- stopping rules are evaluated **per replica** (vectorized via
  ``should_stop_batch``); replicas that stop are frozen — their loads no
  longer change — while the rest keep running;
- conservation is audited per replica every round (integer-exact for
  discrete balancers, at any magnitude);
- per-replica load trajectories are **bit-for-bit identical** to the
  serial runs (the property tests assert this for every batchable
  scheme).

Recorded statistics are computed once per round across the whole batch.
``record="auto"`` keeps the throughput-critical minimum (potentials and
load sums, plus discrepancies when a discrepancy rule is installed);
``record="full"`` adds discrepancies and per-round net movement, matching
everything a serial :class:`Trace` records.  Derived statistics may
differ from the serial ones in the last float ulp (different summation
order); recorded *loads* never do.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from time import perf_counter
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core.protocols import Balancer
from repro.observability.recorder import get_recorder
from repro.simulation.montecarlo import trial_rngs
from repro.simulation.stopping import (
    DiscrepancyBelow,
    MaxRounds,
    StoppingRule,
    first_satisfied,
)
from repro.simulation.trace import Trace

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
    """Validate initial loads into a node-major ``(n, B)`` batch.

    Accepts a shared ``(n,)`` vector (repeated across ``replicas``
    columns) or per-replica ``(B, n)`` states; every replica's vector
    goes through ``balancer.validate_loads``.  Shared by the ensemble
    and partitioned engines so their input contracts cannot drift.
    """
    arr = np.asarray(loads)
    if arr.ndim == 1:
        B = 1 if replicas is None else int(replicas)
        vec = balancer.validate_loads(arr)
        batch = np.ascontiguousarray(np.repeat(vec[:, None], B, axis=1))
        return batch, B
    if arr.ndim != 2:
        raise ValueError(f"loads must be (n,) or (B, n), got shape {arr.shape}")
    B = arr.shape[0]
    if replicas is not None and int(replicas) != B:
        raise ValueError(f"replicas={replicas} but loads has {B} rows")
    cols = [balancer.validate_loads(arr[b]) for b in range(B)]
    return np.ascontiguousarray(np.stack(cols, axis=1)), B


def replica_rngs(seed, replicas: int | None, loads) -> list[np.random.Generator]:
    """One generator per replica: a root ``seed`` spawned by global replica
    index, or the explicit generators ``seed`` lists.

    With ``replicas`` None the count comes from the generators, or from
    ``loads`` (its ``(B, n)`` rows; one replica for a shared ``(n,)``
    vector).  Shared by the ensemble engine and the shard planner so
    their seeding cannot drift.
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


class EnsembleTrace:
    """Batched per-round records for ``B`` lockstep replicas.

    The recording layout is row-per-round: ``potentials_matrix[t, b]`` is
    replica ``b``'s potential after ``t`` rounds.  A replica that stopped
    at round ``r`` keeps its frozen statistics in later rows; its true
    length is ``rounds_vector[b]``.  Per-replica accessors return the
    truncated series.
    """

    def __init__(
        self,
        balancer_name: str,
        replicas: int,
        record_discrepancies: bool = False,
        record_movements: bool = False,
        keep_snapshots: bool = False,
    ) -> None:
        self.balancer_name = balancer_name
        self.replicas = int(replicas)
        self.record_discrepancies = record_discrepancies
        self.record_movements = record_movements
        self.keep_snapshots = keep_snapshots
        self.stopped_by: list[str] = [""] * self.replicas
        self._rounds = np.zeros(self.replicas, dtype=np.int64)
        self._potentials: list[np.ndarray] = []
        self._sums: list[np.ndarray] = []
        self._discrepancies: list[np.ndarray] = []
        self._movements: list[np.ndarray] = []
        self._snapshots: list[np.ndarray] = []
        self._final_loads: np.ndarray | None = None
        self._ones: np.ndarray | None = None
        #: the last row's load totals in the loads' dtype (exact for
        #: integer loads, where ``load_sums_matrix`` rounds past 2**53)
        self.last_totals: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Recording (node-major (n, B) matrices)
    # ------------------------------------------------------------------
    def _stats_row(self, loads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Phi via the shifted-square identity sum(l^2) - n*mean^2: two
        # streaming passes, no (n, B) temporary.  Clamped at 0 because the
        # cancellation can land a hair below; accuracy is ~eps * sum(l^2)
        # absolute, ample for stopping thresholds and reports (the serial
        # Trace's centered formula differs only at that level).
        if np.issubdtype(loads.dtype, np.integer):
            sums = loads.sum(axis=0)  # exact integer totals
        else:
            ones = self._ones
            if ones is None or ones.shape[0] != loads.shape[0]:
                ones = self._ones = np.ones(loads.shape[0])
            sums = ones @ loads  # BLAS row-sum, ~3x faster than .sum(axis=0)
        ss = np.einsum("ij,ij->j", loads, loads, dtype=np.float64)
        phis = np.maximum(ss - sums * (sums / loads.shape[0]), 0.0)
        return phis, sums

    def record(self, loads: np.ndarray, prev: np.ndarray | None = None) -> None:
        """Append one state row (initial state first, then once per round)."""
        phis, sums = self._stats_row(loads)
        disc = loads.max(axis=0) - loads.min(axis=0) if self.record_discrepancies else None
        mov = None
        if self.record_movements and prev is not None:
            mov = 0.5 * np.abs(loads - prev).sum(axis=0)
        # record_stats copies the snapshot: for B=1 the transpose would
        # alias the engine's recycled ping-pong buffer.
        self.record_stats(phis, sums, disc, mov, loads.T if self.keep_snapshots else None)

    def record_stats(
        self,
        phis: np.ndarray,
        sums: np.ndarray,
        discrepancies: np.ndarray | None = None,
        movements: np.ndarray | None = None,
        snapshot: np.ndarray | None = None,
    ) -> None:
        """Append one state row from *precomputed* per-replica statistics.

        The partitioned process runtime computes each statistic from
        per-block partials (the full ``(n, B)`` matrix never exists in
        one process); this records the combined row directly.  ``sums``
        keeps the loads' dtype (see :attr:`last_totals`).  The initial
        state has no movements row.
        """
        self._potentials.append(np.asarray(phis, dtype=np.float64))
        self._sums.append(np.asarray(sums, dtype=np.float64))
        self.last_totals = sums
        if self.record_discrepancies:
            if discrepancies is None:
                raise ValueError("this trace records discrepancies; none supplied")
            self._discrepancies.append(np.asarray(discrepancies, dtype=np.float64))
        if self.record_movements and movements is not None:
            self._movements.append(np.asarray(movements, dtype=np.float64))
        if self.keep_snapshots:
            if snapshot is None:
                raise ValueError("this trace keeps snapshots; none supplied")
            self._snapshots.append(np.array(snapshot, order="C", copy=True))

    def advance(self, active: np.ndarray) -> None:
        """Credit one completed round to every still-active replica."""
        self._rounds[active] += 1

    # ------------------------------------------------------------------
    # Batched views (used by the vectorized stopping rules)
    # ------------------------------------------------------------------
    @property
    def rounds_vector(self) -> np.ndarray:
        """Per-replica completed round counts, shape ``(B,)``."""
        return self._rounds

    @property
    def rounds(self) -> int:
        """Rounds completed by the longest-running replica."""
        return int(self._rounds.max(initial=0))

    @property
    def potentials_matrix(self) -> np.ndarray:
        """``Phi`` after 0, 1, ... rounds; shape ``(T + 1, B)``."""
        return np.asarray(self._potentials)

    @property
    def recorded_states(self) -> int:
        """Number of recorded state rows (``T + 1``); O(1)."""
        return len(self._potentials)

    def potentials_tail(self, k: int) -> np.ndarray:
        """The last ``k`` potential rows as a ``(min(k, T+1), B)`` array.

        O(k * B) — used by windowed stopping rules so per-round cost does
        not grow with the run length.
        """
        return np.asarray(self._potentials[-k:])

    @property
    def last_potentials(self) -> np.ndarray:
        return self._potentials[-1]

    @property
    def initial_potentials(self) -> np.ndarray:
        return self._potentials[0]

    @property
    def last_discrepancies(self) -> np.ndarray:
        if not self._discrepancies:
            raise ValueError("discrepancies were not recorded for this ensemble")
        return self._discrepancies[-1]

    @property
    def discrepancies_matrix(self) -> np.ndarray:
        if not self._discrepancies:
            raise ValueError("discrepancies were not recorded for this ensemble")
        return np.asarray(self._discrepancies)

    @property
    def load_sums_matrix(self) -> np.ndarray:
        return np.asarray(self._sums)

    @property
    def movements_matrix(self) -> np.ndarray:
        if not self.record_movements:
            raise ValueError("movements were not recorded for this ensemble")
        return np.asarray(self._movements)

    @property
    def snapshots(self) -> list[np.ndarray]:
        """Per-round ``(B, n)`` load snapshots (requires ``keep_snapshots``)."""
        if not self.keep_snapshots:
            raise ValueError("snapshots were not enabled for this ensemble")
        return self._snapshots

    @property
    def final_loads(self) -> np.ndarray:
        """Each replica's final load vector, shape ``(B, n)``."""
        if self._final_loads is None:
            raise ValueError("run not finished")
        return self._final_loads

    # ------------------------------------------------------------------
    # Per-replica extraction
    # ------------------------------------------------------------------
    def replica_rounds(self, b: int) -> int:
        return int(self._rounds[b])

    def replica_potentials(self, b: int) -> list[float]:
        """Replica ``b``'s potential series (truncated at its stop round)."""
        upto = int(self._rounds[b]) + 1
        return [float(row[b]) for row in self._potentials[:upto]]

    def rounds_to_potential(self, threshold: float) -> np.ndarray:
        """Per-replica first round with ``Phi <= threshold`` (NaN if never)."""
        pots = self.potentials_matrix
        hit = pots <= threshold
        first = np.argmax(hit, axis=0).astype(np.float64)
        never = ~hit.any(axis=0)
        first[never] = np.nan
        # A replica cannot "reach" the threshold after it stopped.
        late = ~never & (np.nan_to_num(first, nan=0.0) > self._rounds)
        first[late] = np.nan
        return first

    def rounds_to_fraction(self, eps: float) -> np.ndarray:
        """Per-replica first round with ``Phi <= eps * Phi_0`` (NaN if never)."""
        pots = self.potentials_matrix
        hit = pots <= eps * self._potentials[0]
        first = np.argmax(hit, axis=0).astype(np.float64)
        first[~hit.any(axis=0)] = np.nan
        return first

    def total_net_movements(self) -> np.ndarray:
        """Per-replica total shipped volume (requires ``record='full'``)."""
        return self.movements_matrix.sum(axis=0)

    def conservation_error(self) -> float:
        """Max per-replica deviation of the load sum from its initial value."""
        sums = self.load_sums_matrix
        if sums.shape[0] == 0:
            return 0.0
        return float(np.max(np.abs(sums - sums[0])))

    def replica_trace(self, b: int) -> Trace:
        """Replica ``b``'s records repackaged as a serial :class:`Trace`.

        Only the statistics this ensemble recorded are filled in; load
        snapshots are attached when ``keep_snapshots`` was set.
        """
        upto = int(self._rounds[b]) + 1
        t = Trace(balancer_name=self.balancer_name, keep_snapshots=self.keep_snapshots)
        t.stopped_by = self.stopped_by[b]
        t._potentials = [float(row[b]) for row in self._potentials[:upto]]
        t._sums = [float(row[b]) for row in self._sums[:upto]]
        if self.record_discrepancies:
            t._discrepancies = [float(row[b]) for row in self._discrepancies[:upto]]
        if self.record_movements:
            t._movements = [float(row[b]) for row in self._movements[: upto - 1]]
        if self.keep_snapshots:
            t._snapshots = [snap[b].copy() for snap in self._snapshots[:upto]]
        return t

    def summary(self) -> dict[str, float | int | str]:
        """Compact aggregate dict used by reports and the CLI."""
        rounds = self._rounds
        return {
            "balancer": self.balancer_name,
            "replicas": self.replicas,
            "rounds_min": int(rounds.min()),
            "rounds_median": float(np.median(rounds)),
            "rounds_max": int(rounds.max()),
            "phi_final_mean": float(np.mean(self.last_potentials)),
            "phi_final_max": float(np.max(self.last_potentials)),
            "stopped_by": dict(Counter(self.stopped_by)),
        }


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
        Which statistics a batched trace keeps (see
        :class:`EnsembleSimulator`); a serial :class:`Trace` keeps all.
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

    def __init__(
        self,
        balancer: Balancer,
        stopping: Sequence[StoppingRule] | None = None,
        *,
        record: str = "full",
        keep_snapshots: bool = False,
        check_conservation: bool = True,
        cons_tol: float = 1e-6,
        backend: str | None = None,
    ) -> None:
        if record not in ("auto", "light", "full"):
            raise ValueError(f"record must be 'auto', 'light' or 'full', got {record!r}")
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

    def _record_disc(self) -> bool:
        """Whether batched traces record discrepancies under ``record``."""
        return self.record == "full" or (
            self.record == "auto" and any(isinstance(r, DiscrepancyBelow) for r in self.stopping)
        )

    def _new_trace(self, replicas: int) -> EnsembleTrace:
        return EnsembleTrace(
            balancer_name=self.balancer.name,
            replicas=replicas,
            record_discrepancies=self._record_disc(),
            record_movements=self.record == "full",
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
            audit = self._audit_conservation if serial else partial(
                audit_replica_sums, self.balancer.name)
            integer = np.issubdtype(state.dtype, np.integer)
            # Float64 totals round past 2**53; such a run compares the
            # integer totals the trace keeps.  Decided once per run.
            exact = integer and bool(np.any(np.abs(trace._sums[0]) >= EXACT_FLOAT_TOTAL))
            initial = trace.last_totals if exact else trace._sums[0]
            tol = None if integer else self.cons_tol * np.maximum(np.abs(initial), 1.0)
        span = {"engine": engine}
        running = apply_stopping(self.stopping, trace, active)
        r = 0
        while running:
            if traced:
                t0 = perf_counter()
            state = next(rounds)
            trace.advance(active)
            if monitor is not None:
                # `active` is still this round's pre-stopping mask here.
                monitor.observe(trace._potentials[-1], active)
            if audit is not None:
                audit(trace.last_totals if exact else trace._sums[-1], initial, tol)
            running = apply_stopping(self.stopping, trace, active)
            if traced:
                if not serial:
                    span["active"] = int(active.sum())
                rec.record_span("round", t0, round=r, **span)
            r += 1
        if monitor is not None:
            monitor.finish()
        return state

    def _audit_conservation(self, s, initial, tol) -> None:
        """Raise unless a one-replica run's total ``s`` conserves ``initial``.

        Exactly when ``tol`` is None (integer loads), else within the
        absolute tolerance ``tol``; a NaN total never passes.
        """
        ok = s == initial if tol is None else abs(s - initial) <= tol
        if not ok:
            raise AssertionError(f"{self.balancer.name} leaked load: {_leak(s, initial)}")


class EnsembleSimulator(RoundEngine):
    """Run ``B`` replicas of a batch-capable balancer in lockstep.

    Parameters are those of :class:`RoundEngine`, with these specifics:

    balancer:
        Must have ``supports_batch`` (a one-replica run on the serial
        stepper takes any balancer).
    stopping:
        Every rule must implement ``should_stop_batch``.
    record:
        ``"auto"`` (default) records potentials and load sums — plus
        discrepancies when a :class:`DiscrepancyBelow` rule is installed;
        ``"light"`` records only potentials and sums; ``"full"`` adds
        discrepancies and per-round net movement.
    serial_singleton:
        Run ``B = 1`` on the serial stepper (default).  A one-replica
        "batch" pays the batched bookkeeping with nothing to amortize it
        over — measurably slower than the serial round — and the serial
        stepper works for *every* balancer, batched or not.  Load
        trajectories are identical either way; derived statistics
        (potentials, sums) may differ in the last float ulp because the
        serial trace computes them with the centered formula.  Set
        ``False`` to force the batched kernels even for one replica (the
        bit-for-bit property tests do).
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
    ) -> None:
        super().__init__(
            balancer, stopping, record=record, keep_snapshots=keep_snapshots,
            check_conservation=check_conservation, cons_tol=cons_tol, backend=backend,
        )
        self.serial_singleton = serial_singleton

    def run(self, loads: np.ndarray, seed=0, replicas: int | None = None) -> EnsembleTrace:
        """Run all replicas until each one's stopping rule fires.

        ``loads`` is a shared ``(n,)`` initial vector or per-replica
        ``(B, n)`` initial states; ``seed`` is a root seed (spawned into
        per-replica streams) or an explicit sequence of ``B`` generators.
        """
        self.balancer.reset()
        rngs = replica_rngs(seed, replicas, loads)
        L, B = initial_batch(self.balancer, loads, len(rngs))
        if B == 1 and self.serial_singleton:
            return self._run_singleton(L[:, 0].copy(), rngs[0])
        if not getattr(self.balancer, "supports_batch", False):
            raise TypeError(
                f"{self.balancer.name} has no batched kernel; use Simulator "
                "(the serial B=1 engine) instead"
            )
        trace = self._new_trace(B)
        active = np.ones(B, dtype=bool)

        def step(L, out):
            return self.balancer.step_batch(L, rngs, out=out)

        L = self._drive(trace, batch_rounds(trace, L, active, step), active, "ensemble")
        trace._final_loads = L.T.copy()  # detach from the recycled buffers
        return trace

    def _run_singleton(self, loads: np.ndarray, rng: np.random.Generator) -> EnsembleTrace:
        """Run a one-replica ensemble on the serial stepper, repackaged.

        The serial round is faster than a ``B = 1`` batch (nothing to
        amortize the batched bookkeeping over) and works for every
        balancer; its :class:`Trace` records are copied into a one-column
        :class:`EnsembleTrace` so callers see the same interface
        regardless of dispatch.
        """
        t = Trace(balancer_name=self.balancer.name, keep_snapshots=self.keep_snapshots)
        self._drive(t, serial_rounds(self.balancer, t, loads, rng))
        trace = self._new_trace(1)
        trace.stopped_by = [t.stopped_by]
        trace._rounds = np.asarray([t.rounds], dtype=np.int64)
        trace._potentials = [np.asarray([p]) for p in t._potentials]
        trace._sums = [np.asarray([s]) for s in t._sums]
        if trace.record_discrepancies:
            trace._discrepancies = [np.asarray([d]) for d in t._discrepancies]
        if trace.record_movements:
            trace._movements = [np.asarray([mv]) for mv in t._movements]
        if self.keep_snapshots:
            trace._snapshots = [np.asarray(s, dtype=self.balancer.dtype)[None, :] for s in t._snapshots]
        # Trace holds the last loads in their own dtype, so discrete loads
        # come back exact at any magnitude (float64 would round past 2**53).
        trace._final_loads = np.asarray(t._last_loads, dtype=self.balancer.dtype)[None, :]
        return trace


# ----------------------------------------------------------------------
# Steppers, stopping and the conservation audit
# ----------------------------------------------------------------------
def serial_rounds(balancer: Balancer, trace: Trace, loads: np.ndarray,
                  rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The serial stepper: the initial vector, then one ``step`` per round."""
    yield loads
    while True:
        loads = balancer.step(loads, rng)
        trace.record(loads)
        yield loads


def batch_rounds(trace: EnsembleTrace, L: np.ndarray, active: np.ndarray,
                 kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Iterator[np.ndarray]:
    """The stepper over a node-major ``(n, B)`` batch: ``L``, then one
    ``kernel`` round per item.

    ``kernel(L, out)`` returns the next batch, written into ``out`` when
    it can.  Two buffers ping-pong through it so the loop allocates
    nothing: once a round is recorded, the previous batch is recycled as
    the next round's output (kernels that ignore ``out`` simply leave it
    to be reused).  Replicas no longer ``active`` keep their loads.
    """
    yield L
    spare = np.empty_like(L)
    while True:
        new = kernel(L, spare)
        if new is L:
            raise AssertionError(f"{trace.balancer_name}'s round kernel returned its input")
        if not active.all():
            frozen = ~active
            new[:, frozen] = L[:, frozen]
        trace.record(new, prev=L)
        L, spare = new, L
        yield L


def apply_stopping(stopping, trace, active: np.ndarray | None) -> bool:
    """Evaluate the stopping rules; True while some replica still runs.

    A batched run's replicas (``active``, updated in place) each stop at
    the first rule whose vectorized form fires for them, which records
    its reason.  The serial engine (``active`` None) evaluates the scalar
    forms on its one-replica trace.
    """
    if active is None:
        rule = first_satisfied(stopping, trace)
        if rule is None:
            return True
        trace.stopped_by = rule.reason
        return False
    remaining = active.copy()
    for rule in stopping:
        if not remaining.any():
            break
        newly = remaining & np.asarray(rule.should_stop_batch(trace), dtype=bool)
        if newly.any():
            for b in np.flatnonzero(newly):
                trace.stopped_by[b] = rule.reason
            remaining &= ~newly
    active[:] = remaining
    return bool(remaining.any())


def audit_replica_sums(name: str, sums: np.ndarray, initial_sums: np.ndarray, tol) -> None:
    """Per-replica conservation check on a just-recorded total row.

    Exact when ``tol`` is None (integer loads: float64 totals below
    ``2**53``, the integer totals from there on); otherwise each
    replica's total must stay within its absolute tolerance in ``tol``,
    and a NaN total never passes.  Raises ``AssertionError`` naming the
    first leaking replica.
    """
    ok = sums == initial_sums if tol is None else np.abs(sums - initial_sums) <= tol
    if not ok.all():
        b = int(np.flatnonzero(~ok)[0])
        raise AssertionError(f"{name} leaked load in replica {b}: {_leak(sums[b], initial_sums[b])}")


def _leak(total, initial) -> str:
    if not np.isfinite(total):
        return f"non-finite sum {total} (NaN/inf in loads)"
    return f"sum {total} != initial {initial}"
