"""Per-run records: what happened, round by round.

A :class:`Trace` accumulates the quantities every experiment consumes —
the potential ``Phi`` and discrepancy after each round, the load sum (for
conservation checks), and optionally full load snapshots.  Extraction
helpers answer the questions the theorems pose: "after how many rounds
was the potential below x?" and "what was the average per-round drop
factor?".

Appending is O(1) amortized (Python lists); the numpy views are built on
demand.  Snapshots are opt-in because an n x T float64 history dwarfs
everything else at scale.

Statistics use held buffers: :meth:`Trace.record` reads the loads in
place, does its float64 work (centering for ``Phi``, the per-round
difference for the movement) in one scratch vector kept on the trace,
and copies the loads into a second held vector in their own dtype — a
round allocates nothing of size n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.potential import _as_vector

__all__ = ["Trace"]


@dataclass
class Trace:
    """Recorded evolution of one balancing run."""

    balancer_name: str = ""
    keep_snapshots: bool = False
    stopped_by: str = ""  #: reason label of the stopping rule that fired

    _potentials: list[float] = field(default_factory=list)
    _discrepancies: list[float] = field(default_factory=list)
    _sums: list[float] = field(default_factory=list)
    _snapshots: list[np.ndarray] = field(default_factory=list)
    _movements: list[float] = field(default_factory=list)
    _last_loads: np.ndarray | None = field(default=None, repr=False)
    _scratch: np.ndarray | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, loads: np.ndarray) -> None:
        """Append one state (call with the initial state, then once per round).

        Bit-for-bit the values of :func:`~repro.core.potential.potential`,
        :func:`~repro.core.potential.discrepancy` and a float64 sum, from
        one float64 sum and the held buffers.
        """
        arr = _as_vector(loads)
        buf = self._scratch
        if buf is None:
            buf = self._scratch = np.empty(arr.shape, dtype=np.float64)
        if arr.dtype == np.float64:
            flt = arr
        else:
            np.copyto(buf, arr, casting="unsafe")
            flt = buf
        # ``sum / n`` is exactly how ``mean()`` divides the same sum.
        s = float(flt.sum())
        np.subtract(flt, s / arr.size, out=buf)
        self._potentials.append(float(buf @ buf))
        self._discrepancies.append(float(arr.max() - arr.min()))
        self._sums.append(s)
        last = self._last_loads
        if last is not None:
            # Net per-round movement: half the total |change| — the exact
            # shipped volume when no load passes *through* a node within a
            # round, and a lower bound otherwise.  Scheme-agnostic
            # communication-cost proxy (token-hops with 1-hop transfers).
            np.subtract(arr, last, out=buf, dtype=np.float64)
            np.abs(buf, out=buf)
            self._movements.append(0.5 * float(buf.sum()))
        if last is None or last.dtype != arr.dtype:
            self._last_loads = arr.copy()
        else:
            np.copyto(last, arr)
        if self.keep_snapshots:
            self._snapshots.append(np.array(loads, copy=True))

    def advance(self, active=None) -> None:
        """Nothing to credit: a serial trace counts rounds by its records."""

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def last_totals(self):
        """Total of the last recorded loads in their own dtype: exact for
        integer loads where the float64 :attr:`load_sums` round (``2**53``)."""
        return self._last_loads.sum()

    @property
    def rounds(self) -> int:
        """Number of balancing rounds recorded (excludes the initial state)."""
        return max(len(self._potentials) - 1, 0)

    @property
    def potentials(self) -> list[float]:
        """``Phi`` after 0, 1, 2, ... rounds."""
        return self._potentials

    @property
    def potential_array(self) -> np.ndarray:
        return np.asarray(self._potentials, dtype=np.float64)

    @property
    def discrepancies(self) -> list[float]:
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
        if not self._discrepancies:
            raise ValueError("empty trace")
        return self._discrepancies[-1]

    @property
    def load_sums(self) -> np.ndarray:
        """Total load after each recorded state (conservation check)."""
        return np.asarray(self._sums, dtype=np.float64)

    @property
    def snapshots(self) -> list[np.ndarray]:
        if not self.keep_snapshots:
            raise ValueError("snapshots were not enabled for this trace")
        return self._snapshots

    @property
    def net_movements(self) -> np.ndarray:
        """Per-round net load movement (communication lower bound)."""
        return np.asarray(self._movements, dtype=np.float64)

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
        for r, d in enumerate(self._discrepancies):
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

    def conservation_error(self) -> float:
        """Max absolute deviation of the load sum from its initial value."""
        sums = self.load_sums
        if sums.size == 0:
            return 0.0
        return float(np.max(np.abs(sums - sums[0])))

    def summary(self) -> dict[str, float | int | str]:
        """Compact dict used by reports."""
        return {
            "balancer": self.balancer_name,
            "rounds": self.rounds,
            "phi0": self.initial_potential,
            "phi_final": self.last_potential,
            "discrepancy_final": self.last_discrepancy,
            "mean_drop_factor": self.mean_drop_factor(),
            "stopped_by": self.stopped_by,
        }
