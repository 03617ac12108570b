"""The round driver every engine shares.

Serial, ensemble and partitioned runs go through one round sequence
(step, record, monitor, conservation audit, stopping, ``round`` span),
so the audit's guarantees and the traced event order must hold on every
engine alike.
"""

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer
from repro.graphs.generators import torus_2d
from repro.observability import Recorder, set_recorder
from repro.observability.server import get_status_board
from repro.simulation.engine import Simulator
from repro.simulation.ensemble import EnsembleSimulator
from repro.simulation.partitioned import PartitionedSimulator
from repro.simulation.stopping import MaxRounds

#: a total whose float64 spacing (256) hides a one-token leak
BIG = 2**60


class _MintingDiscrete(DiffusionBalancer):
    """Discrete Algorithm 1 that mints one token on node 0 every round."""

    def step(self, loads, rng):
        out = super().step(loads, rng)
        out[0] += 1
        return out

    def step_batch(self, loads, rngs, out=None):
        new = super().step_batch(loads, rngs, out=out)
        new[0] += 1
        return new

    def block_step(self, local, ext, out=None, rows=None):
        # Process-mode rounds call this once per row set (interior, then
        # boundary), so the block owning node 0 may mint twice a round.
        new = super().block_step(local, ext, out, rows=rows)
        if local.owned[0] == 0:
            new[0] += 1
        return new


def _point(n: int, total: int) -> np.ndarray:
    loads = np.zeros(n, dtype=np.int64)
    loads[0] = total
    return loads


ENGINES = {
    "serial": lambda bal: Simulator(bal, stopping=[MaxRounds(5)]).run(_point(16, BIG), 0),
    "ensemble-B4": lambda bal: EnsembleSimulator(bal, stopping=[MaxRounds(5)]).run(
        _point(16, BIG), seed=0, replicas=4),
    "partitioned-inprocess": lambda bal: PartitionedSimulator(
        bal, partitions=2, stopping=[MaxRounds(5)]).run(_point(16, BIG), replicas=2),
    "partitioned-process": lambda bal: PartitionedSimulator(
        bal, partitions=2, stopping=[MaxRounds(5)], mode="process").run(
        _point(16, BIG), replicas=2),
}


class TestExactAuditAboveFloatPrecision:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_one_token_leak_at_2_60_detected(self, engine):
        with pytest.raises(AssertionError, match="leaked load"):
            ENGINES[engine](_MintingDiscrete(torus_2d(4, 4), mode="discrete"))

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_healthy_run_at_2_60_passes(self, engine):
        trace = ENGINES[engine](DiffusionBalancer(torus_2d(4, 4), mode="discrete"))
        assert trace.rounds == 5

    def test_leak_below_2_53_still_detected(self):
        bal = _MintingDiscrete(torus_2d(4, 4), mode="discrete")
        with pytest.raises(AssertionError, match="leaked load in replica 0"):
            EnsembleSimulator(bal, stopping=[MaxRounds(5)]).run(
                _point(16, 10**6), seed=0, replicas=4)


class TestRoundEventOrder:
    @pytest.fixture(autouse=True)
    def _clean_globals(self):
        yield
        get_status_board().clear()
        set_recorder(None)

    @staticmethod
    def _sequence(run) -> list[str]:
        rec = Recorder(enabled=True)
        set_recorder(rec)
        try:
            run(DiffusionBalancer(torus_2d(4, 4)), np.arange(16, dtype=np.float64))
        finally:
            set_recorder(None)
        return [ev["name"] for ev in rec.drain_events() if ev["name"] in ("phi", "round")]

    def test_phi_round_sequence_identical_across_engines(self):
        """Each round's ``round`` span closes after its ``phi`` event — the
        span covers the whole round, bookkeeping included, on every engine."""
        rules = [MaxRounds(4)]
        serial = self._sequence(lambda b, x: Simulator(b, stopping=rules).run(x, 0))
        ensemble = self._sequence(
            lambda b, x: EnsembleSimulator(b, stopping=rules).run(x, seed=0, replicas=2))
        partitioned = self._sequence(
            lambda b, x: PartitionedSimulator(b, partitions=2, stopping=rules).run(x, replicas=2))
        assert serial == ["phi"] + ["phi", "round"] * 4
        assert ensemble == serial
        assert partitioned == serial
