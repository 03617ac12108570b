"""The batched stepper's per-round guard.

Like the serial stepper, a batched round that leaves a replica with a
non-finite or (for an unsigned scheme) negative load fails within that
round with ``validate_loads``' message, naming the replica — on the
in-process ensemble and on the sharded path alike.
"""

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer
from repro.graphs.generators import by_name
from repro.simulation.engine import simulate
from repro.simulation.stopping import MaxRounds

N = 8


class _Drain(DiffusionBalancer):
    """Moves 5 units from node 0 to node 1 in every replica, every round."""

    def step_batch(self, loads, rngs, out=None):
        out = np.empty_like(loads) if out is None else out
        out[...] = loads
        out[0] -= 5
        out[1] += 5
        return out


class _SignedDrain(_Drain):
    allows_negative = True


class _Poison(_Drain):
    """A drain that writes NaN into node 0 of the last replica in round 2."""

    rounds = 0

    def step_batch(self, loads, rngs, out=None):
        out = super().step_batch(loads, rngs, out)
        self.rounds += 1
        if self.rounds == 2:
            out[0, -1] = np.nan
        return out


def _loads(replicas: int, dtype=np.float64) -> np.ndarray:
    """12 per node; node 0 of every replica but the last holds 100, so
    the last replica is the first to overdraw (in round 3)."""
    loads = np.full((replicas, N), 12, dtype=dtype)
    loads[:-1, 0] = 100
    return loads


def _balancer(cls):
    return cls(by_name(f"cycle:{N}"))


class TestNegative:
    # "full" records discrepancies, whose minimum row the guard reuses.
    @pytest.mark.parametrize("record", ["auto", "full"])
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_ensemble_raises_naming_the_replica(self, dtype, record):
        with pytest.raises(ValueError, match=r"loads must be non-negative: replica 1$"):
            simulate(_balancer(_Drain), _loads(2, dtype), [MaxRounds(10)], replicas=2,
                     record=record)

    def test_sharded_path_raises(self):
        # Replicas 2 and 3 are shard 1's; like the conservation audit, the
        # guard names the replica by its index within the shard.
        with pytest.raises(RuntimeError, match="shard worker 1 failed: ValueError: "
                           "loads must be non-negative: replica 1"):
            simulate(_balancer(_Drain), _loads(4), [MaxRounds(10)], replicas=4, workers=2)

    def test_signed_scheme_runs_through(self):
        trace, _ = simulate(_balancer(_SignedDrain), _loads(2), [MaxRounds(10)], replicas=2)
        assert trace.rounds == 10
        assert trace.final_loads[1, 0] == 12 - 50


class TestNonFinite:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_raises_before_the_audit(self):
        bal = _balancer(_Poison)
        with pytest.raises(ValueError, match=r"loads must be finite \(no NaN/inf\): replica 1$"):
            simulate(bal, _loads(2), [MaxRounds(10)], replicas=2)
        assert bal.rounds == 2
