"""Lockstep replica ensembles: one engine pass, ``B`` independent runs.

The paper's probabilistic results (Theorems 12/14, Lemmas 9/11/13) are
verified by Monte-Carlo replication.  Running each replica through its
own Python-level round loop pays the full interpreter-and-small-array
overhead ``B`` times; :class:`EnsembleSimulator` instead advances all
replicas *in lockstep* through the balancer's ``step_batch`` kernel — a
node-major ``(n, B)`` matrix where column ``b`` is replica ``b`` — so a
round of the whole ensemble is a handful of large vectorized operations
(for the linear schemes, literally one cached sparse matmat).

Semantics are exactly ``B`` independent :class:`Simulator` runs:

- replica ``b`` consumes its own RNG stream, spawned from the root seed
  with the same ``SeedSequence(entropy=seed, spawn_key=(b,))`` derivation
  as :func:`repro.simulation.montecarlo.trial_rngs`, so any replica can
  be reproduced in isolation;
- stopping rules are evaluated **per replica** (vectorized via
  ``should_stop_batch``); replicas that stop are frozen — their loads no
  longer change — while the rest keep running;
- conservation is audited per replica every round (integer-exact for
  discrete balancers);
- per-replica load trajectories are **bit-for-bit identical** to the
  serial runs (the property tests assert this for every batchable
  scheme).  :class:`Simulator` is therefore the ``B = 1`` special case
  of this engine; it survives as the universal fallback for balancers
  without a batched kernel.

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
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.core.protocols import Balancer
from repro.observability.recorder import get_recorder
from repro.simulation.engine import Simulator
from repro.simulation.montecarlo import trial_rngs
from repro.simulation.stopping import DiscrepancyBelow, MaxRounds, StoppingRule
from repro.simulation.trace import Trace

__all__ = ["EnsembleSimulator", "EnsembleTrace", "initial_batch", "spawn_rngs"]

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
        self._potentials.append(phis)
        self._sums.append(sums.astype(np.float64))
        if self.record_discrepancies:
            self._discrepancies.append((loads.max(axis=0) - loads.min(axis=0)).astype(np.float64))
        if self.record_movements and prev is not None:
            delta = np.abs(loads - prev)
            self._movements.append(0.5 * delta.sum(axis=0).astype(np.float64))
        if self.keep_snapshots:
            # .copy(), not ascontiguousarray: for B=1 the transpose is
            # already contiguous and would alias the engine's recycled
            # ping-pong buffer, silently rewriting history.
            self._snapshots.append(loads.T.copy())

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
        one process); this records the combined row directly.  The
        movements row is skipped for the initial state exactly as
        :meth:`record` skips it when ``prev`` is None.
        """
        self._potentials.append(np.asarray(phis, dtype=np.float64))
        self._sums.append(np.asarray(sums, dtype=np.float64))
        if self.record_discrepancies:
            if discrepancies is None:
                raise ValueError("this trace records discrepancies; none supplied")
            self._discrepancies.append(np.asarray(discrepancies, dtype=np.float64))
        if self.record_movements and movements is not None:
            self._movements.append(np.asarray(movements, dtype=np.float64))
        if self.keep_snapshots:
            if snapshot is None:
                raise ValueError("this trace keeps snapshots; none supplied")
            self._snapshots.append(np.array(snapshot, copy=True))

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


class EnsembleSimulator:
    """Run ``B`` replicas of a batch-capable balancer in lockstep.

    Parameters
    ----------
    balancer:
        Any :class:`Balancer` with ``supports_batch`` (it is ``reset()``
        at the start of each run).
    stopping:
        Stopping rules evaluated per replica after every round; a
        :class:`MaxRounds` safety net is appended automatically if
        absent.  Every rule must implement ``should_stop_batch``.
    record:
        ``"auto"`` (default) records potentials and load sums — plus
        discrepancies when a :class:`DiscrepancyBelow` rule is installed;
        ``"light"`` records only potentials and sums; ``"full"`` adds
        discrepancies and per-round net movement.
    keep_snapshots:
        Record every replica's full load vector after every round
        (memory-heavy; the bit-for-bit property tests use it).
    check_conservation:
        Audit per-replica load sums every round, as the serial engine
        does; a violation raises immediately, naming the replica.
    serial_singleton:
        Dispatch ``B = 1`` runs to the serial :class:`Simulator` (default).
        A one-replica "batch" pays the batched engine's bookkeeping with
        nothing to amortize it over — measurably slower than the serial
        loop — and the serial engine works for *every* balancer, batched
        or not.  Load trajectories are identical either way; derived
        statistics (potentials, sums) may differ in the last float ulp
        because the serial trace computes them with the centered formula.
        Set ``False`` to force the batched kernels even for one replica
        (the bit-for-bit property tests do).
    backend:
        Kernel backend for the balancer's operator kernels (None keeps
        the balancer's own setting).  Backends are bit-for-bit
        interchangeable, so this only affects speed.
    """

    DEFAULT_MAX_ROUNDS = 1_000_000

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
        if record not in ("auto", "light", "full"):
            raise ValueError(f"record must be 'auto', 'light' or 'full', got {record!r}")
        self.balancer = balancer
        if backend is not None:
            self.balancer.backend = backend
        rules = list(stopping) if stopping else []
        if not any(isinstance(r, MaxRounds) for r in rules):
            rules.append(MaxRounds(self.DEFAULT_MAX_ROUNDS))
        self.stopping = rules
        self.record = record
        self.keep_snapshots = keep_snapshots
        self.check_conservation = check_conservation
        self.cons_tol = cons_tol
        self.serial_singleton = serial_singleton

    # ------------------------------------------------------------------
    def _resolve_rngs(self, seed, replicas: int) -> list[np.random.Generator]:
        if isinstance(seed, (int, np.integer)):
            return spawn_rngs(int(seed), replicas)
        rngs = [seed] if isinstance(seed, np.random.Generator) else list(seed)
        if len(rngs) != replicas:
            raise ValueError(f"got {len(rngs)} generators for {replicas} replicas")
        if not all(isinstance(r, np.random.Generator) for r in rngs):
            raise TypeError("seed must be an int or a sequence of numpy Generators")
        return rngs

    def _initial_batch(self, loads: np.ndarray, replicas: int | None) -> tuple[np.ndarray, int]:
        return initial_batch(self.balancer, loads, replicas)

    def run(self, loads: np.ndarray, seed=0, replicas: int | None = None) -> EnsembleTrace:
        """Run all replicas until each one's stopping rule fires.

        ``loads`` is a shared ``(n,)`` initial vector or per-replica
        ``(B, n)`` initial states; ``seed`` is a root seed (spawned into
        per-replica streams) or an explicit sequence of ``B`` generators.
        """
        self.balancer.reset()
        if not isinstance(seed, (int, np.integer)):
            # Materialize once: a one-shot iterator of generators must not
            # be consumed twice (here and in _resolve_rngs).
            seed = [seed] if isinstance(seed, np.random.Generator) else list(seed)
            if replicas is None:
                replicas = len(seed)
        L, B = self._initial_batch(loads, replicas)
        rngs = self._resolve_rngs(seed, B)
        if B == 1 and self.serial_singleton:
            return self._run_singleton(L[:, 0].copy(), rngs[0])
        if not getattr(self.balancer, "supports_batch", False):
            raise TypeError(
                f"{self.balancer.name} has no batched kernel; use Simulator "
                "(the serial B=1 engine) instead"
            )

        record_disc = self.record == "full" or (
            self.record == "auto" and any(isinstance(r, DiscrepancyBelow) for r in self.stopping)
        )
        trace = EnsembleTrace(
            balancer_name=self.balancer.name,
            replicas=B,
            record_discrepancies=record_disc,
            record_movements=self.record == "full",
            keep_snapshots=self.keep_snapshots,
        )
        trace.record(L)
        initial_sums = trace._sums[0]
        is_discrete = np.issubdtype(L.dtype, np.integer)

        active = np.ones(B, dtype=bool)
        self._apply_stopping(trace, active)
        # Ping-pong two buffers through step_batch's `out` so the hot loop
        # allocates nothing; once a round is recorded, the previous batch
        # matrix is recycled as the next round's output buffer (kernels
        # that ignore `out` simply leave it to be reused next round).
        spare = np.empty_like(L)
        rec = get_recorder()
        traced = rec.enabled
        monitor = None
        if traced:
            from repro.observability.convergence import monitor_for

            monitor = monitor_for(self.balancer, rec)
            if monitor is not None:
                monitor.observe(trace.initial_potentials)
        r = 0
        while active.any():
            if traced:
                _t0 = perf_counter()
            new = self.balancer.step_batch(L, rngs, out=spare)
            if new is L:
                raise AssertionError(f"{self.balancer.name}.step_batch returned its input")
            if not active.all():
                frozen = ~active
                new[:, frozen] = L[:, frozen]
            trace.record(new, prev=L)
            trace.advance(active)
            if monitor is not None:
                # `active` is still this round's pre-stopping mask here.
                monitor.observe(trace.last_potentials, active)
            spare = L
            L = new
            if self.check_conservation:
                self._audit(trace._sums[-1], initial_sums, is_discrete)
            self._apply_stopping(trace, active)
            if traced:
                rec.record_span("round", _t0, round=r, engine="ensemble",
                                active=int(active.sum()))
            r += 1
        if monitor is not None:
            monitor.finish()
        trace._final_loads = L.T.copy()  # detach from the recycled buffers
        return trace

    # ------------------------------------------------------------------
    def _run_singleton(self, loads: np.ndarray, rng: np.random.Generator) -> EnsembleTrace:
        """Run a one-replica ensemble on the serial engine, repackaged.

        The serial :class:`Simulator` loop is faster than a ``B = 1``
        batch (nothing to amortize the batched bookkeeping over) and
        works for every balancer; its :class:`Trace` records are copied
        into a one-column :class:`EnsembleTrace` so callers see the same
        interface regardless of dispatch.
        """
        record_disc = self.record == "full" or (
            self.record == "auto" and any(isinstance(r, DiscrepancyBelow) for r in self.stopping)
        )
        sim = Simulator(
            self.balancer,
            stopping=self.stopping,
            keep_snapshots=self.keep_snapshots,
            check_conservation=self.check_conservation,
            cons_tol=self.cons_tol,
        )
        t = sim.run(loads, rng)
        trace = EnsembleTrace(
            balancer_name=self.balancer.name,
            replicas=1,
            record_discrepancies=record_disc,
            record_movements=self.record == "full",
            keep_snapshots=self.keep_snapshots,
        )
        trace.stopped_by = [t.stopped_by]
        trace._rounds = np.asarray([t.rounds], dtype=np.int64)
        trace._potentials = [np.asarray([p]) for p in t._potentials]
        trace._sums = [np.asarray([s]) for s in t._sums]
        if record_disc:
            trace._discrepancies = [np.asarray([d]) for d in t._discrepancies]
        if trace.record_movements:
            trace._movements = [np.asarray([mv]) for mv in t._movements]
        if self.keep_snapshots:
            trace._snapshots = [np.asarray(s, dtype=self.balancer.dtype)[None, :] for s in t._snapshots]
        # Trace holds the last loads in their own dtype, so discrete loads
        # come back exact at any magnitude (float64 would round past 2**53).
        trace._final_loads = np.asarray(t._last_loads, dtype=self.balancer.dtype)[None, :]
        return trace

    def _apply_stopping(self, trace: EnsembleTrace, active: np.ndarray) -> None:
        apply_stopping(self.stopping, trace, active)

    def _audit(self, sums: np.ndarray, initial_sums: np.ndarray, is_discrete: bool) -> None:
        audit_replica_sums(self.balancer.name, sums, initial_sums, is_discrete, self.cons_tol)


def apply_stopping(stopping, trace: EnsembleTrace, active: np.ndarray) -> None:
    """Deactivate replicas whose first satisfied rule fired this round.

    Shared by the ensemble and partitioned engines: rules are evaluated
    in order, the first satisfied one per replica records its reason,
    and ``active`` is updated in place.
    """
    remaining = active.copy()
    for rule in stopping:
        if not remaining.any():
            break
        mask = np.asarray(rule.should_stop_batch(trace), dtype=bool)
        newly = remaining & mask
        if newly.any():
            for b in np.flatnonzero(newly):
                trace.stopped_by[b] = rule.reason
            remaining &= ~newly
    active[:] = remaining


def audit_replica_sums(
    name: str,
    sums: np.ndarray,
    initial_sums: np.ndarray,
    is_discrete: bool,
    cons_tol: float,
) -> None:
    """Per-replica conservation check on a just-recorded sum row.

    Sums are compared as float64 — exact for discrete balancers (integer
    totals are exactly representable), relative tolerance ``cons_tol``
    for continuous ones.  Raises ``AssertionError`` naming the replica.
    """
    if not np.isfinite(sums).all():
        bad = ~np.isfinite(sums)
    elif is_discrete:
        bad = sums != initial_sums
    else:
        scale = np.maximum(np.abs(initial_sums), 1.0)
        bad = np.abs(sums - initial_sums) > cons_tol * scale
    if bad.any():
        b = int(np.flatnonzero(bad)[0])
        raise AssertionError(
            f"{name} leaked load in replica {b}: "
            f"sum {sums[b]} != initial {initial_sums[b]}"
        )
