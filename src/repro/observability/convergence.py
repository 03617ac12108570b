"""Analytical-bound convergence diagnostics for traced runs.

The paper's method is *analytical*: for the diffusion algorithm on a
fixed graph it guarantees a deterministic per-round relative drop of the
quadratic potential ``Phi`` —

- continuous (Theorem 4): ``drop/Phi >= lambda_2 / (4 delta)`` every
  round;
- discrete (Lemma 5): ``drop/Phi >= lambda_2 / (8 delta)`` while
  ``Phi >= Phi* = 64 delta^3 n / lambda_2`` (Theorem 6's threshold) —
  below ``Phi*`` rounding error may dominate and no progress is
  promised.

:class:`ConvergenceMonitor` turns those guarantees into a live check:
the engines feed it the per-round potentials they already compute (the
monitor never touches loads, so traced trajectories stay bit-for-bit
identical), and it

- emits one ``phi`` event per round (``value`` = max potential over
  active replicas, ``drop`` = worst per-replica relative drop) so
  ``trace-report`` can render per-round convergence columns;
- emits a ``bound_violation`` event whenever an active replica above
  the threshold drops by less than the guaranteed factor — which, for a
  correctly parameterized run, never happens; it fires when the assumed
  ``lambda_2``/``delta`` don't match the network actually balancing
  (the canonical mis-parameterization check);
- emits ``stall_detected`` when a replica above the threshold makes no
  progress for several consecutive rounds;
- emits a final ``convergence_summary`` with the fitted empirical drop
  factor (geometric mean over all checked observations) vs the bound.

Creation goes through :func:`monitor_for`, which activates only for a
static-topology :class:`~repro.core.diffusion.DiffusionBalancer` (other
schemes' guarantees are probabilistic, so a per-round check would
false-positive) and only when the recorder is enabled — the tracing-off
hot path never reaches this module.

``REPRO_CONV_LAM2`` / ``REPRO_CONV_DELTA`` environment overrides let a
run be *deliberately* mis-parameterized end-to-end (CI uses this to
prove the violation path fires).
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque

import numpy as np

from repro.core.bounds import lemma5_drop_factor, theorem6_threshold
from repro.observability.recorder import Recorder, get_recorder
from repro.observability.server import get_status_board

__all__ = ["ConvergenceMonitor", "monitor_for", "MONITOR_MAX_N"]

#: Largest graph the monitor will compute ``lambda_2`` for when tracing.
MONITOR_MAX_N = 65_536

#: Largest graph the monitor will run a *cold* dense eigensolve for.
#: Past this, only closed-form families (or ``REPRO_CONV_LAM2``) enable
#: the check: a multi-second eigendecomposition at job start can starve
#: a heartbeat-supervised worker's liveness thread.
_AUTO_SPECTRAL_N = 1024

#: At most this many ``bound_violation`` / ``stall_detected`` event lines
#: per run; further occurrences are only counted (summary has totals).
_MAX_EVENT_LINES = 25

#: Relative slack on the drop bound: guards float noise, never masks a
#: genuine violation (which undershoots by orders of magnitude).
_BOUND_TOL = 1e-6

#: Consecutive no-progress rounds above threshold before a stall event.
_STALL_PATIENCE = 5


class ConvergenceMonitor:
    """Track per-round potential drops against the paper's guarantees."""

    def __init__(
        self,
        rec: Recorder,
        *,
        n: int,
        delta: int,
        lam2: float,
        mode: str,
        balancer_name: str = "",
        stall_patience: int = _STALL_PATIENCE,
    ) -> None:
        self.rec = rec
        self.n = int(n)
        self.delta = int(delta)
        self.lam2 = float(lam2)
        self.mode = mode
        self.balancer_name = balancer_name
        self.stall_patience = int(stall_patience)
        if mode == "discrete":
            self.drop_bound = lemma5_drop_factor(self.delta, self.lam2).value
            self.threshold = theorem6_threshold(self.n, self.delta, self.lam2).value
        else:
            self.drop_bound = self.lam2 / (4.0 * self.delta)
            self.threshold = 0.0
        #: drops below this violate the bound
        self._limit = self.drop_bound * (1.0 - _BOUND_TOL) - 1e-15
        self._round = 0
        self._prev: np.ndarray | float | None = None
        self._floor = 0.0
        #: drops are checked only while the previous potential exceeds this
        self._check_floor = self.threshold
        self._phi0 = math.nan
        self._phi_last = math.nan
        self._violations = 0
        self._stalls = 0
        self._event_lines = 0
        self._rounds_checked = 0
        self._log_ratio_sum = 0.0
        self._log_ratio_obs = 0
        #: the scalar path's checked drops, not yet in the log-ratio fit
        self._drops: list[float] = []
        self._fit_lock = threading.Lock()
        self._stall_run: np.ndarray | int | None = None
        self._stall_latched: np.ndarray | bool | None = None
        self._recent: deque = deque(maxlen=180)
        self._finished = False
        rec.event(
            "convergence_params",
            n=self.n, delta=self.delta, lambda2=self.lam2, mode=self.mode,
            drop_bound=self.drop_bound, threshold=self.threshold,
            balancer=self.balancer_name,
        )
        get_status_board().register("convergence", self.board_snapshot)

    # ------------------------------------------------------------------
    def observe(self, phis, active=None) -> None:
        """Feed round-``r`` potentials; first call is the initial state.

        ``phis`` is the per-replica potential row the trace just
        recorded (scalar for the serial engine); ``active`` optionally
        masks replicas still running this round.  A run feeds either
        floats or rows throughout; a float with no mask takes a
        float-arithmetic path that emits exactly the events the row
        ``[phis]`` would.
        """
        if active is None and isinstance(phis, float):
            self._observe_scalar(float(phis))
            return
        cur = np.array(phis, dtype=np.float64, copy=True).ravel()
        if self._prev is None:
            self._begin(float(cur.max()) if cur.size else math.nan)
            self._prev = cur
            self._stall_run = np.zeros(cur.size, dtype=np.int64)
            self._stall_latched = np.zeros(cur.size, dtype=bool)
            return
        self._round += 1
        r = self._round
        prev = self._prev
        mask = np.ones(cur.size, dtype=bool) if active is None else np.asarray(active, dtype=bool).copy()
        eligible = mask & (prev > self._check_floor)
        emp = math.nan
        if eligible.any():
            drops = 1.0 - cur[eligible] / prev[eligible]
            emp = float(drops.min())
            self._rounds_checked += 1
            finite = np.isfinite(drops) & (drops < 1.0)
            if finite.any():
                self._log_ratio_sum += float(np.log1p(-drops[finite]).sum())
                self._log_ratio_obs += int(finite.sum())
            bad = drops < self._limit
            if bad.any():
                worst = int(np.argmin(drops))
                self._violation(
                    r, float(drops[worst]), int(np.flatnonzero(eligible)[worst]),
                    float(prev[eligible][worst]), int(bad.sum()),
                )
            # Stall: no relative progress while the theory still promises
            # a fixed-fraction drop.
            stalled_now = drops <= 1e-12
            idx = np.flatnonzero(eligible)
            self._stall_run[idx[stalled_now]] += 1
            self._stall_run[idx[~stalled_now]] = 0
            hit = (self._stall_run >= self.stall_patience) & ~self._stall_latched
            if hit.any():
                self._stall_latched |= hit
                first = int(np.flatnonzero(hit)[0])
                self._stall(r, first, float(prev[first]), int(hit.sum()))
        ineligible = ~eligible
        self._stall_run[ineligible] = 0
        self._phi(r, float(cur[mask].max()) if mask.any() else float(cur.max()), emp)
        self._prev = cur

    def _observe_scalar(self, phi: float) -> None:
        """:meth:`observe` for one unmasked replica, in float arithmetic.

        A checked drop joins the log-ratio fit later, in one vectorised
        pass (see :meth:`_fit_drops`).
        """
        prev = self._prev
        if prev is None:
            self._begin(phi)
            self._prev, self._stall_run, self._stall_latched = phi, 0, False
            return
        self._round += 1
        r = self._round
        emp = math.nan
        if prev > self._check_floor:
            emp = drop = 1.0 - phi / prev
            self._rounds_checked += 1
            self._drops.append(drop)
            if drop < self._limit:
                self._violation(r, drop, 0, prev, 1)
            self._stall_run = self._stall_run + 1 if drop <= 1e-12 else 0
            if self._stall_run >= self.stall_patience and not self._stall_latched:
                self._stall_latched = True
                self._stall(r, 0, prev, 1)
        else:
            self._stall_run = 0
        self._phi(r, phi, emp)
        self._prev = phi

    def _begin(self, phi0: float) -> None:
        """Record the initial potential and emit round 0's ``phi`` event."""
        self._phi0 = phi0
        self._phi_last = phi0
        # Below this, float cancellation noise dominates the drop
        # estimate — stop checking rather than emit fp ghosts.
        self._floor = max(phi0 * 1e-13, 1e-300)
        self._check_floor = max(self._floor, self.threshold)
        self._recent.append((0, phi0))
        self.rec.event("phi", round=0, value=phi0, bound=self.drop_bound)

    def _phi(self, r: int, phi_now: float, emp: float) -> None:
        """Emit round ``r``'s ``phi`` event (``drop`` when it was checked)."""
        self._phi_last = phi_now
        self._recent.append((r, phi_now))
        if math.isnan(emp):
            self.rec.event("phi", round=r, value=phi_now, bound=self.drop_bound)
        else:
            self.rec.event("phi", round=r, value=phi_now, bound=self.drop_bound, drop=emp)

    def _violation(self, r: int, observed: float, replica: int, phi: float, count: int) -> None:
        self._violations += count
        if self._event_lines < _MAX_EVENT_LINES:
            self._event_lines += 1
            self.rec.event(
                "bound_violation", round=r,
                observed=observed, bound=self.drop_bound,
                replica=replica, phi=phi, replicas=count,
            )

    def _stall(self, r: int, replica: int, phi: float, count: int) -> None:
        self._stalls += count
        if self._event_lines < _MAX_EVENT_LINES:
            self._event_lines += 1
            self.rec.event(
                "stall_detected", round=r,
                replica=replica, rounds_flat=self.stall_patience, phi=phi,
            )

    # ------------------------------------------------------------------
    def _fit_drops(self) -> None:
        """Fold the scalar path's pending drops into the log-ratio fit.

        One vectorised ``np.log1p`` (the row path's ufunc), then a
        strictly left-to-right sum: the additions one ``log1p`` per round
        would make, in the same order, so the fit keeps its bits.  Safe
        against a concurrent :meth:`observe`: only the counted prefix of
        the pending list is taken.
        """
        with self._fit_lock:
            k = len(self._drops)
            if k == 0:
                return
            drops = np.array(self._drops[:k], dtype=np.float64)
            del self._drops[:k]
            drops = drops[np.isfinite(drops) & (drops < 1.0)]
            total = self._log_ratio_sum
            for term in np.log1p(-drops).tolist():
                total += term
            self._log_ratio_sum = total
            self._log_ratio_obs += drops.size

    @property
    def empirical_drop_factor(self) -> float:
        """Geometric-mean relative drop over all checked observations."""
        self._fit_drops()
        if self._log_ratio_obs == 0:
            return math.nan
        return 1.0 - math.exp(self._log_ratio_sum / self._log_ratio_obs)

    def finish(self) -> dict:
        """Emit and return the run's ``convergence_summary``."""
        summary = {
            "balancer": self.balancer_name,
            "mode": self.mode,
            "n": self.n,
            "delta": self.delta,
            "lambda2": self.lam2,
            "rounds_observed": self._round,
            "rounds_checked": self._rounds_checked,
            "violations": self._violations,
            "stalls": self._stalls,
            "empirical_drop_factor": self.empirical_drop_factor,
            "drop_bound": self.drop_bound,
            "threshold": self.threshold,
            "phi0": self._phi0,
            "phi_final": self._phi_last,
        }
        if not self._finished:
            self._finished = True
            self.rec.event("convergence_summary", **summary)
        return summary

    def board_snapshot(self) -> dict:
        """Live view for the ``/status`` endpoint and ``repro-lb top``."""
        return {
            "balancer": self.balancer_name,
            "mode": self.mode,
            "drop_bound": self.drop_bound,
            "threshold": self.threshold,
            "rounds_observed": self._round,
            "violations": self._violations,
            "stalls": self._stalls,
            "empirical_drop_factor": self.empirical_drop_factor,
            "phi_recent": [[r, p] for r, p in self._recent],
        }


def _env_float(name: str) -> float | None:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def _closed_form_lambda2(name: str) -> float | None:
    """``lambda_2`` from the topology's family name, or None.

    The standard families have exact closed forms (used elsewhere as
    test oracles), making the monitor O(1) to arm at any graph size.
    """
    from repro.graphs import spectral as sp

    family, _, arg = str(name).partition(":")
    try:
        if family == "cycle":
            return sp.lambda2_cycle(int(arg))
        if family == "path":
            return sp.lambda2_path(int(arg))
        if family == "complete":
            return sp.lambda2_complete(int(arg))
        if family == "star":
            return sp.lambda2_star(int(arg))
        if family == "hypercube":
            return sp.lambda2_hypercube(int(arg))
        if family == "torus":
            rows, _, cols = arg.partition("x")
            return sp.lambda2_torus(int(rows), int(cols))
    except (ValueError, TypeError):
        return None
    return None


def _bounded_lambda2(topo) -> float | None:
    """``lambda_2`` at bounded cost, or None when it would be expensive."""
    closed = _closed_form_lambda2(getattr(topo, "name", ""))
    if closed is not None:
        return closed
    if topo.n > _AUTO_SPECTRAL_N:
        return None
    from repro.graphs.spectral import lambda_2

    try:
        return float(lambda_2(topo))
    except Exception:  # noqa: BLE001 — diagnostics must never kill a run
        return None


def monitor_for(balancer, rec: Recorder | None = None) -> ConvergenceMonitor | None:
    """Build a monitor for this run, or None when the check doesn't apply.

    Applies only to a static-topology diffusion balancer with a
    connected graph of tractable size, and only when tracing is on.
    """
    rec = rec if rec is not None else get_recorder()
    if not rec.enabled:
        return None
    from repro.core.diffusion import DiffusionBalancer

    if not isinstance(balancer, DiffusionBalancer) or balancer.dynamic:
        return None
    topo = balancer.network
    if topo.n < 2 or topo.n > MONITOR_MAX_N:
        return None
    lam2_override = _env_float("REPRO_CONV_LAM2")
    if lam2_override is not None and lam2_override > 0:
        lam2 = lam2_override
    else:
        lam2 = _bounded_lambda2(topo)
    if lam2 is None or lam2 <= 0.0:
        return None
    delta = int(topo.max_degree)
    delta_override = _env_float("REPRO_CONV_DELTA")
    if delta_override is not None and delta_override > 0:
        delta = int(delta_override)
    return ConvergenceMonitor(
        rec, n=topo.n, delta=delta, lam2=lam2,
        mode=balancer.mode, balancer_name=balancer.name,
    )
