"""Per-run records: what happened, round by round.

One record type holds the per-round potential ``Phi_t`` of every engine.
An :class:`EnsembleTrace` keeps ``B`` replicas' statistics as one row per
recorded state — the potential, the load total (for conservation
checks), and optionally the discrepancy, the per-round net movement and
full load snapshots.  Which optional series a run records is the
engine's ``record`` policy: ``"auto"`` records what the run's readers
declare (:data:`ALWAYS_RECORDED` plus each stopping rule's ``reads``),
``"full"`` every series in :data:`SERIES`; reading a series that was
not recorded raises a ``ValueError`` that names ``record="full"``.
:class:`Trace` is its one-replica view: the same
storage, read back as scalars, with the extraction helpers the serial
theorems pose ("after how many rounds was the potential below x?", "what
was the average per-round drop factor?").

:meth:`EnsembleTrace.record` selects by the state's shape:

- a load vector ``(n,)`` is one replica's state.  Its statistics are
  float rows, computed with held buffers: the loads are read in place
  and the float64 work (centering for ``Phi``, the per-round difference
  for the movement) happens in one scratch vector kept on the trace.
  The engine's stepper passes ``prev=``, the state this one replaced:
  the movement is measured against it and the trace keeps a reference
  to the new state, which the stepper's ping-pong leaves untouched until
  the next record.  A direct ``record(vec)`` copies the loads into a
  held vector in their own dtype instead.  Either way a round allocates
  nothing of size n, and ``Phi`` sums fixed chunks
  (:func:`~repro.core.potential.square_sum`), so its bits do not depend
  on the BLAS thread count.  A one-replica run never freezes, so its
  rounds are its records;
- a batch ``(n, B)`` holds ``B`` replicas, one per column, in either
  memory order (an ensemble may hold it replica-major; see
  :func:`~repro.simulation.ensemble.initial_batch`).  Its statistics
  are ``(B,)`` array rows, computed across the whole batch at once, and
  each replica's rounds are credited by :meth:`EnsembleTrace.advance`.

Matrix views reshape either kind of row to ``(T + 1, B)``, so both read
the same way; stopping rules read the last row of each statistic, which
is a float for one replica and a ``(B,)`` array for a batch.  Appending
is O(1) amortized (Python lists); the numpy views are built on demand.
Snapshots are opt-in because an n x T float64 history dwarfs everything
else at scale.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from repro.core.potential import _as_vector, discrepancy, square_sum

__all__ = ["ALWAYS_RECORDED", "SERIES", "EnsembleTrace", "Trace"]

#: Every series a trace can record; ``record="full"`` records them all.
SERIES = frozenset({"potentials", "load_sums", "discrepancies", "movements"})
#: The series every run records: the per-round guard and the conservation
#: audit read them, and so do the convergence monitor and the summaries.
ALWAYS_RECORDED = frozenset({"potentials", "load_sums"})


def _not_recorded(series: str) -> ValueError:
    return ValueError(
        f"{series} were not recorded for this trace; run with record=\"full\" to record them"
    )


class EnsembleTrace:
    """Per-round records for ``B`` lockstep replicas.

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
        self._reasons = [""] * self.replicas
        #: per-replica completed rounds; None while rows are floats (one
        #: replica that never freezes counts its rounds by its records)
        self._rounds: np.ndarray | None = np.zeros(self.replicas, dtype=np.int64)
        self._potentials: list = []
        self._sums: list = []
        self._discrepancies: list = []
        self._movements: list = []
        self._snapshots: list[np.ndarray] = []
        self._final_loads: np.ndarray | None = None
        self._ones: np.ndarray | None = None
        self._totals: np.ndarray | None = None
        self._last_loads: np.ndarray | None = None
        #: the vector a ``record`` without ``prev`` copies its state into
        self._held: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stats_row(self, loads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Phi via the shifted-square identity sum(l^2) - n*mean^2: two
        # streaming passes, no (n, B) temporary.  Clamped at 0 because the
        # cancellation can land a hair below; accuracy is ~eps * sum(l^2)
        # absolute, ample for stopping thresholds and reports (the float
        # rows' centered formula differs only at that level).
        if loads.dtype.kind in "iu":
            sums = loads.sum(axis=0)  # exact integer totals
        else:
            ones = self._ones
            if ones is None or ones.shape[0] != loads.shape[0]:
                ones = self._ones = np.ones(loads.shape[0])
            sums = ones @ loads  # BLAS row-sum, ~3x faster than .sum(axis=0)
        ss = np.einsum("ij,ij->j", loads, loads, dtype=np.float64)
        phis = np.maximum(ss - sums * (sums / loads.shape[0]), 0.0)
        return phis, sums

    def record(self, loads: np.ndarray,
               prev: np.ndarray | None = None) -> np.ndarray | np.generic | None:
        """Append one state (the initial state first, then once per round).

        An ``(n, B)`` batch appends one ``(B,)`` row per
        statistic and returns the per-replica minimum row when it
        computed one for the discrepancies (else None).  A load vector
        ``(n,)`` appends float rows that are
        bit-for-bit the values of :func:`~repro.core.potential.potential`,
        :func:`~repro.core.potential.discrepancy` and a float64 sum, from
        one float64 sum and the held scratch vector, and returns the
        vector's minimum load (the engine's sign guard reads it).

        ``prev`` is the state this one replaced, for the movement.  With
        ``prev`` the trace keeps a reference to ``loads`` as its last
        state: the caller must leave it untouched until the next record
        (the engines' ping-pong recycles ``prev``, never ``loads``).
        Without ``prev`` a vector is copied and the movement is measured
        against the last recorded state.
        """
        if np.ndim(loads) == 2:
            if loads.shape[1] != self.replicas:
                raise ValueError(
                    f"loads must be a 1-D vector or an (n, {self.replicas}) batch, "
                    f"got shape {loads.shape}"
                )
            phis, sums = self._stats_row(loads)
            lo = disc = None
            if self.record_discrepancies:
                lo = loads.min(axis=0)
                disc = loads.max(axis=0) - lo
            mov = None
            if self.record_movements and prev is not None:
                mov = 0.5 * np.abs(loads - prev).sum(axis=0)
            # record_stats copies the snapshot: for B=1 the transpose would
            # alias the engine's recycled ping-pong buffer.
            self.record_stats(phis, sums, disc, mov, loads.T if self.keep_snapshots else None)
            return lo
        arr = _as_vector(loads)
        buf = self._scratch
        if buf is None:
            if self.replicas != 1:
                raise ValueError(f"a {self.replicas}-replica trace records (n, B) batches")
            buf = self._scratch = np.empty(arr.shape, dtype=np.float64)
            self._rounds = None
        if arr.dtype == np.float64:
            flt = arr
        else:
            np.copyto(buf, arr, casting="unsafe")
            flt = buf
        # ``sum / n`` is exactly how ``mean()`` divides the same sum.
        s = float(flt.sum())
        np.subtract(flt, s / arr.size, out=buf)
        self._potentials.append(square_sum(buf))
        lo = arr.min()
        if self.record_discrepancies:
            self._discrepancies.append(float(arr.max() - lo))
        self._sums.append(s)
        last = self._last_loads if prev is None else prev
        if last is not None and self.record_movements:
            # Net per-round movement: half the total |change| — the exact
            # shipped volume when no load passes *through* a node within a
            # round, and a lower bound otherwise.  Scheme-agnostic
            # communication-cost proxy (token-hops with 1-hop transfers).
            np.subtract(arr, last, out=buf, dtype=np.float64)
            np.abs(buf, out=buf)
            self._movements.append(0.5 * float(buf.sum()))
        if prev is None:
            held = self._held
            if held is None or held.dtype != arr.dtype:
                held = self._held = arr.copy()
            else:
                np.copyto(held, arr)
            arr = held
        self._last_loads = arr
        if self.keep_snapshots:
            self._snapshots.append(np.array(loads, copy=True))
        return lo

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
        self._totals = sums
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

    def advance(self, active: np.ndarray | None = None) -> None:
        """Credit one completed round to every still-active replica.

        A one-replica run (``active`` None) has nothing to credit: its
        rounds are its records.
        """
        if active is not None:
            np.add(self._rounds, active, out=self._rounds)

    # ------------------------------------------------------------------
    # Rows: the last recorded value of each statistic, as the stopping
    # rules read it (a float for one replica, a (B,) array for a batch)
    # ------------------------------------------------------------------
    @property
    def round_counts(self):
        """Completed rounds per replica: an ``int`` on float rows, ``(B,)`` else."""
        if self._rounds is None:
            return max(len(self._potentials) - 1, 0)
        return self._rounds

    @property
    def last_potentials(self):
        return self._potentials[-1]

    @property
    def initial_potentials(self):
        return self._potentials[0]

    @property
    def last_discrepancies(self):
        if not self.record_discrepancies:
            raise _not_recorded("discrepancies")
        return self._discrepancies[-1]

    @property
    def last_totals(self):
        """The last recorded load totals in the loads' dtype: exact for
        integer loads where the float64 :attr:`load_sums` round (``2**53``)."""
        last = self._last_loads
        return self._totals if last is None else last.sum()

    @property
    def recorded_states(self) -> int:
        """Number of recorded state rows (``T + 1``); O(1)."""
        return len(self._potentials)

    def potentials_tail(self, k: int) -> np.ndarray:
        """The last ``k`` potential rows stacked: ``(min(k, T+1),)`` for
        float rows, ``(min(k, T+1), B)`` for array rows.

        O(k * B) — used by windowed stopping rules so per-round cost does
        not grow with the run length.
        """
        return np.asarray(self._potentials[-k:])

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def stopped_by(self) -> list[str]:
        """Per-replica label of the stopping rule that ended each replica."""
        return self._reasons

    @stopped_by.setter
    def stopped_by(self, reasons: list[str]) -> None:
        self._reasons = list(reasons)

    @property
    def rounds_vector(self) -> np.ndarray:
        """Per-replica completed round counts, shape ``(B,)``."""
        return np.atleast_1d(self.round_counts)

    @property
    def rounds(self) -> int:
        """Rounds completed by the longest-running replica."""
        return int(np.max(self.round_counts, initial=0))

    @property
    def load_sums(self) -> np.ndarray:
        """Total load after each recorded state (conservation check)."""
        return np.asarray(self._sums, dtype=np.float64)

    @property
    def net_movements(self) -> np.ndarray:
        """Net load movement of each round (communication lower bound)."""
        if not self.record_movements:
            raise _not_recorded("movements")
        return np.asarray(self._movements, dtype=np.float64)

    @property
    def potentials_matrix(self) -> np.ndarray:
        """``Phi`` after 0, 1, ... rounds; shape ``(T + 1, B)``."""
        return np.asarray(self._potentials, dtype=np.float64).reshape(-1, self.replicas)

    @property
    def discrepancies_matrix(self) -> np.ndarray:
        if not self.record_discrepancies:
            raise _not_recorded("discrepancies")
        return np.asarray(self._discrepancies, dtype=np.float64).reshape(-1, self.replicas)

    @property
    def load_sums_matrix(self) -> np.ndarray:
        return self.load_sums.reshape(-1, self.replicas)

    @property
    def movements_matrix(self) -> np.ndarray:
        return self.net_movements.reshape(-1, self.replicas)

    @property
    def snapshots(self) -> list[np.ndarray]:
        """Per-round ``(B, n)`` load snapshots (requires ``keep_snapshots``)."""
        if not self.keep_snapshots:
            raise ValueError("snapshots were not enabled for this trace")
        return [s.reshape(self.replicas, -1) for s in self._snapshots]

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
        return int(self.rounds_vector[b])

    def replica_potentials(self, b: int) -> list[float]:
        """Replica ``b``'s potential series (truncated at its stop round)."""
        return self.potentials_matrix[: self.replica_rounds(b) + 1, b].tolist()

    def rounds_to_potential(self, threshold: float) -> np.ndarray:
        """Per-replica first round with ``Phi <= threshold`` (NaN if never)."""
        pots = self.potentials_matrix
        hit = pots <= threshold
        first = np.argmax(hit, axis=0).astype(np.float64)
        never = ~hit.any(axis=0)
        first[never] = np.nan
        # A replica cannot "reach" the threshold after it stopped.
        late = ~never & (np.nan_to_num(first, nan=0.0) > self.rounds_vector)
        first[late] = np.nan
        return first

    def rounds_to_fraction(self, eps: float) -> np.ndarray:
        """Per-replica first round with ``Phi <= eps * Phi_0`` (NaN if never)."""
        pots = self.potentials_matrix
        hit = pots <= eps * pots[0]
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
        """Replica ``b``'s records as a one-replica :class:`Trace`.

        The replica trace records what this one did: a series that was
        not recorded raises the same "not recorded" ``ValueError`` here.
        Load snapshots are attached when ``keep_snapshots`` was set, and
        :attr:`final_loads` (shape ``(1, n)``) and :attr:`last_totals`
        read the replica's final loads.
        """
        upto = self.replica_rounds(b) + 1
        t = Trace(balancer_name=self.balancer_name, keep_snapshots=self.keep_snapshots,
                  stopped_by=self.stopped_by[b],
                  record_discrepancies=self.record_discrepancies,
                  record_movements=self.record_movements)
        t._potentials = self.potentials_matrix[:upto, b].tolist()
        t._sums = self.load_sums_matrix[:upto, b].tolist()
        if self.record_discrepancies:
            t._discrepancies = self.discrepancies_matrix[:upto, b].tolist()
        if self.record_movements:
            t._movements = self.movements_matrix[: upto - 1, b].tolist()
        if self.keep_snapshots:
            t._snapshots = [snap[b] for snap in self.snapshots[:upto]]
        if self._final_loads is not None:
            t._final_loads = self._final_loads[b : b + 1]
            t._last_loads = t._final_loads[0]
        return t

    #: the series :meth:`summary` reads (the one-replica summary takes
    #: ``discrepancy_final`` from the final loads when it has no series)
    summary_reads = frozenset({"potentials"})

    def summary(self) -> dict[str, float | int | str]:
        """Compact aggregate dict used by reports and the CLI."""
        rounds = self.rounds_vector
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


class Trace(EnsembleTrace):
    """Recorded evolution of one balancing run: a one-replica trace.

    Storage, recording and the conservation views are the
    :class:`EnsembleTrace`'s; this view reads them back as scalars.  A
    trace built directly records every series unless told otherwise; an
    engine's records what its ``record`` policy keeps.
    """

    def __init__(self, balancer_name: str = "", keep_snapshots: bool = False,
                 stopped_by: str = "", record_discrepancies: bool = True,
                 record_movements: bool = True) -> None:
        super().__init__(balancer_name, 1, record_discrepancies=record_discrepancies,
                         record_movements=record_movements, keep_snapshots=keep_snapshots)
        self._rounds = None
        self.stopped_by = stopped_by

    @property
    def stopped_by(self) -> str:
        """Reason label of the stopping rule that fired."""
        return self._reasons[0]

    @stopped_by.setter
    def stopped_by(self, reason: str) -> None:
        self._reasons[0] = reason

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def potentials(self) -> list[float]:
        """``Phi`` after 0, 1, 2, ... rounds."""
        return self._potentials

    @property
    def potential_array(self) -> np.ndarray:
        return np.asarray(self._potentials, dtype=np.float64)

    @property
    def discrepancies(self) -> list[float]:
        if not self.record_discrepancies:
            raise _not_recorded("discrepancies")
        return self._discrepancies

    @property
    def initial_potential(self) -> float:
        if not self._potentials:
            raise ValueError("empty trace")
        return self._potentials[0]

    @property
    def last_potential(self) -> float:
        if not self._potentials:
            raise ValueError("empty trace")
        return self._potentials[-1]

    @property
    def last_discrepancy(self) -> float:
        if not self.discrepancies:
            raise ValueError("empty trace")
        return self._discrepancies[-1]

    @property
    def snapshots(self) -> list[np.ndarray]:
        """The ``(n,)`` load vector after each recorded state."""
        if not self.keep_snapshots:
            raise ValueError("snapshots were not enabled for this trace")
        return self._snapshots

    def total_net_movement(self) -> float:
        """Total tokens shipped over the run (net, lower bound)."""
        return float(self.net_movements.sum())

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def rounds_to_potential(self, threshold: float) -> int | None:
        """First round index with ``Phi <= threshold`` (None if never)."""
        for r, phi in enumerate(self._potentials):
            if phi <= threshold:
                return r
        return None

    def rounds_to_fraction(self, eps: float) -> int | None:
        """First round with ``Phi <= eps * Phi_0`` (Theorem 4's T)."""
        return self.rounds_to_potential(eps * self.initial_potential)

    def rounds_to_discrepancy(self, threshold: float) -> int | None:
        """First round with discrepancy ``<= threshold``."""
        for r, d in enumerate(self.discrepancies):
            if d <= threshold:
                return r
        return None

    def drop_factors(self) -> np.ndarray:
        """Per-round ``Phi_t / Phi_{t-1}`` (1.0 recorded once Phi hits 0)."""
        pots = self.potential_array
        if pots.size < 2:
            return np.empty(0)
        prev, cur = pots[:-1], pots[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(prev > 0, cur / np.where(prev > 0, prev, 1.0), 1.0)
        return ratios

    def mean_drop_factor(self, skip_zero: bool = True) -> float:
        """Geometric-mean per-round contraction of the potential.

        Rounds where the potential was already ~0 are excluded when
        ``skip_zero`` (they carry no information about the rate).
        """
        ratios = self.drop_factors()
        if skip_zero:
            ratios = ratios[(ratios > 0) & (ratios < 1.0 + 1e-12)]
        if ratios.size == 0:
            return math.nan
        return float(np.exp(np.mean(np.log(np.maximum(ratios, 1e-300)))))

    def summary(self) -> dict[str, float | int | str]:
        """Compact dict used by reports and the CLI.

        It reads the potentials, which every trace records; an unrecorded
        discrepancy series leaves ``discrepancy_final`` to the final loads
        (the same value the series would end on), or NaN without them.
        """
        if self.record_discrepancies:
            disc_final = self.last_discrepancy
        elif self._last_loads is not None:
            disc_final = discrepancy(self._last_loads)
        else:
            disc_final = math.nan
        return {
            "balancer": self.balancer_name,
            "rounds": self.rounds,
            "phi0": self.initial_potential,
            "phi_final": self.last_potential,
            "discrepancy_final": disc_final,
            "mean_drop_factor": self.mean_drop_factor(),
            "stopped_by": self.stopped_by,
        }
