"""Layer timing from outside the program: run-time wrappers and the ledger.

A :class:`Probe` replaces functions and methods of the program with thin
wrappers for the duration of one traced run and restores them afterwards.
Each wrapper records the call's *inclusive* time (the whole call) and its
*self* time (the call minus the wrapped calls nested inside it), so the
self times of all named layers never overlap and can be summed against
the run's wall time.

Round boundaries come from the stopping rules: the workload's criterion
rule is evaluated exactly once before the first round and once after
every round, so the entry times of that rule are the round ticks.  The
*loop window* runs from the first tick to the end of the last stopping
evaluation; everything the engine does between its named calls inside
that window is the loop's own cost, and what lies outside the window and
outside every named layer is the residual.
"""

from __future__ import annotations

import importlib
from time import perf_counter

__all__ = ["LAYER_TARGETS", "LedgerError", "Probe", "reconcile"]

#: ``(layer, "module:Owner.attribute", flags)``: what each layer's time is.
#: Functions are patched where the engines look them up (the importing
#: module's namespace), methods on the class that defines them.  The
#: stopping rules are patched per run on the rule instances.
LAYER_TARGETS = [
    ("core.step", "repro.core.diffusion:DiffusionBalancer.step", {}),
    ("core.step", "repro.core.diffusion:DiffusionBalancer.step_batch", {}),
    ("core.step", "repro.core.random_partner:RandomPartnerBalancer.step", {}),
    ("core.step", "repro.core.random_partner:RandomPartnerBalancer.step_batch", {}),
    ("core.kernel", "repro.core.operators:EdgeOperator.round_continuous", {}),
    ("core.kernel", "repro.core.operators:EdgeOperator.round_discrete", {}),
    ("core.operator_lookup", "repro.core.diffusion:edge_operator", {}),
    ("core.validate", "repro.core.protocols:Balancer.validate_loads", {}),
    ("core.partner_sample", "repro.core.random_partner:sample_partner_links",
     {"count_rows": True}),
    ("simulation.record", "repro.simulation.trace:Trace.record", {}),
    ("simulation.record", "repro.simulation.ensemble:EnsembleTrace.record", {}),
    ("simulation.record", "repro.simulation.ensemble:EnsembleTrace.record_stats", {}),
    ("simulation.audit", "repro.simulation.engine:Simulator._audit_conservation", {}),
    ("simulation.audit", "repro.simulation.ensemble:audit_replica_sums", {}),
    ("simulation.audit", "repro.simulation.partitioned:audit_replica_sums", {}),
    # Block shipping, mesh set-up and the final gather, and the
    # coordinator's wait for each chunk of rounds on the workers.
    ("distributed.ship", "repro.distributed.dispatcher:_RemoteBlockExecutor.__init__", {}),
    ("distributed.ship", "repro.distributed.dispatcher:_RemoteBlockExecutor.gather", {}),
    ("distributed.ship", "repro.distributed.dispatcher:_RemoteBlockExecutor.close", {}),
    ("distributed.coordinator_wait",
     "repro.distributed.dispatcher:_RemoteBlockExecutor.run_chunk", {}),
    ("observability.monitor", "repro.observability.convergence:ConvergenceMonitor.observe", {}),
] + [
    ("observability.span", f"repro.observability.recorder:Recorder.{method}", {})
    for method in ("record_span", "event", "count", "add", "observe", "ingest")
]


class LedgerError(AssertionError):
    """The layer times do not fit inside the wall time they claim to split."""


class Probe:
    """Wrap program callables, accumulating inclusive and self time per layer."""

    def __init__(self) -> None:
        self.incl: dict[str, float] = {}
        self.own: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.named = 0.0  # running sum of every layer's self time
        self.ticks: list[float] = []
        self.named_at_first_tick = 0.0
        self.last_stop_end: float | None = None
        self.named_at_last_stop = 0.0
        self.links = 0  # partner links sampled (Algorithm 2 work count)
        self.missing: list[str] = []
        self._stack = [0.0]
        self._patches: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------
    def wrap(self, layer: str, fn, *, tick: bool = False, stop: bool = False,
             count_rows: bool = False):
        """Return ``fn`` wrapped so its calls are charged to ``layer``."""
        self.incl.setdefault(layer, 0.0)
        self.own.setdefault(layer, 0.0)
        self.calls.setdefault(layer, 0)
        probe, stack, incl, own, calls = self, self._stack, self.incl, self.own, self.calls

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            if tick:
                if not probe.ticks:
                    probe.named_at_first_tick = probe.named
                probe.ticks.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                mine = dur - stack.pop()
                stack[-1] += dur
                incl[layer] += dur
                own[layer] += mine
                calls[layer] += 1
                probe.named += mine
                if stop:
                    probe.last_stop_end = t1
                    probe.named_at_last_stop = probe.named
            if count_rows:
                probe.links += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, name: str, layer: str, **flags) -> None:
        """Replace ``owner.name`` (module, class or instance attribute).

        A target the program no longer has is skipped and listed in
        :attr:`missing`, so a refactor shows up as unattributed time in
        the ledger instead of a crash.
        """
        if not hasattr(owner, name):
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{name}")
            return
        own_attrs = vars(owner)
        had_own = name in own_attrs
        original = own_attrs.get(name)
        setattr(owner, name, self.wrap(layer, getattr(owner, name), **flags))
        self._patches.append((owner, name, had_own, original))

    def patch_target(self, layer: str, target: str, **flags) -> None:
        """:meth:`patch` a ``"module:Owner.attribute"`` path from :data:`LAYER_TARGETS`."""
        module_name, _, path = target.partition(":")
        *owners, name = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for attr in owners:
                owner = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        self.patch(owner, name, layer, **flags)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    # ------------------------------------------------------------------
    @property
    def rounds(self) -> int:
        """Rounds observed: criterion evaluations after the initial one."""
        return max(len(self.ticks) - 1, 0)

    def round_latencies(self) -> list[float]:
        """Seconds from one criterion evaluation to the next, one per round."""
        t = self.ticks
        return [b - a for a, b in zip(t, t[1:])]

    def window(self) -> tuple[float, float]:
        """``(loop window seconds, named self time inside it)``."""
        if not self.ticks or self.last_stop_end is None:
            return 0.0, 0.0
        return (self.last_stop_end - self.ticks[0],
                self.named_at_last_stop - self.named_at_first_tick)


def reconcile(wall: float, rows: dict[str, float], tol: float = 1e-6) -> float:
    """Check that disjoint ledger rows fit in ``wall``; returns the residual.

    Raises :class:`LedgerError` when a row is negative or the rows add up
    to more than the wall time (beyond ``tol`` relative slack for clock
    rounding), which would mean some time was counted twice.
    """
    if wall <= 0:
        raise LedgerError(f"wall time must be positive, got {wall}")
    slack = tol * wall
    for name, value in rows.items():
        if value < -slack:
            raise LedgerError(f"ledger row {name} is negative: {value:.6g} s")
    total = sum(rows.values())
    if total > wall + slack:
        raise LedgerError(
            f"layer times add up to {total:.6g} s, more than the wall time {wall:.6g} s"
        )
    return wall - total
