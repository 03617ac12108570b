"""The batched stepper's per-round guard.

Like the serial stepper, a batched round that leaves a replica with a
non-finite or (for an unsigned scheme) negative load fails within that
round with ``validate_loads``' message, naming the replica — on the
in-process ensemble, on the sharded path and on partitioned runs, in
process, in per-block processes and dispatched to workers.
"""

import os

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer
from repro.distributed.dispatcher import dispatch_partitioned
from repro.distributed.worker import launch_worker_process
from repro.graphs.generators import by_name
from repro.simulation.engine import simulate
from repro.simulation.partitioned import PartitionedSimulator
from repro.simulation.stopping import MaxRounds, StoppingRule

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
        # Replicas 2 and 3 are shard 1's; the guard names the global replica.
        with pytest.raises(RuntimeError, match="shard worker 1 failed: ValueError: "
                           "loads must be non-negative: replica 3$"):
            simulate(_balancer(_Drain), _loads(4), [MaxRounds(10)], replicas=4, workers=2)

    def test_signed_scheme_runs_through(self):
        trace, _ = simulate(_balancer(_SignedDrain), _loads(2), [MaxRounds(10)], replicas=2)
        assert trace.rounds == 10
        assert trace.final_loads[1, 0] == 12 - 50


class _Leak(_Drain):
    """A drain that also mints one unit at node 0 of every replica whose
    node 2 (which the drain leaves alone) holds the marker 77."""

    def step_batch(self, loads, rngs, out=None):
        out = super().step_batch(loads, rngs, out)
        out[0, loads[2] == 77] += 1
        return out


class TestLeak:
    def test_sharded_audit_names_the_global_replica(self):
        loads = np.full((4, N), 100.0)
        loads[3, 2] = 77
        with pytest.raises(RuntimeError, match="shard worker 1 failed: AssertionError: "
                           r".* leaked load in replica 3: "):
            simulate(_balancer(_Leak), loads, [MaxRounds(10)], replicas=4, workers=2)


class TestNonFinite:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_raises_before_the_audit(self):
        bal = _balancer(_Poison)
        with pytest.raises(ValueError, match=r"loads must be finite \(no NaN/inf\): replica 1$"):
            simulate(bal, _loads(2), [MaxRounds(10)], replicas=2)
        assert bal.rounds == 2


class _BlockDrain(_Drain):
    """The drain as a partition block round: nodes 0 and 1 are global ids."""

    def block_step(self, local, ext_loads, out=None, rows=None):
        assert rows is None  # no split-phase rounds here
        owned = ext_loads[: local.n_owned]
        out = np.empty_like(owned) if out is None else out
        out[...] = owned
        out[local.owned == 0] -= 5
        out[local.owned == 1] += 5
        return out


class _BlockPoison(_BlockDrain):
    """A block drain that writes NaN into node 0 of the last replica in round 2."""

    rounds = 0

    def block_step(self, local, ext_loads, out=None, rows=None):
        out = super().block_step(local, ext_loads, out, rows)
        if np.any(local.owned == 0):
            self.rounds += 1
            if self.rounds == 2:
                out[local.owned == 0, -1] = np.nan
        return out


class _StopAt(StoppingRule):
    """Stops every replica after ``k`` rounds but hints at ten, so a
    partitioned run speculates past the stop."""

    def __init__(self, k: int):
        self.k = k

    def should_stop(self, trace):
        return trace.round_counts >= self.k

    def rounds_hint(self, trace, active):
        return 10


@pytest.fixture(scope="module")
def workers():
    """Two local workers that can unpickle this module's stubs."""
    here = os.path.dirname(os.path.abspath(__file__))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", here + os.pathsep + os.environ.get("PYTHONPATH", ""))
        launched = [launch_worker_process(extra_args=("--timeout", "60")) for _ in range(2)]
    yield [addr for _, addr in launched]
    for proc, _ in launched:
        proc.terminate()
    for proc, _ in launched:
        proc.wait(timeout=10)


def _partitioned(path, cls, stopping, record, request, loads):
    if path == "dispatch":
        workers = request.getfixturevalue("workers")
        return dispatch_partitioned(_balancer(cls), loads, workers, partitions=2,
                                    stopping=stopping, record=record, replicas=2)[0]
    sim = PartitionedSimulator(_balancer(cls), partitions=2, mode=path, stopping=stopping,
                               record=record)
    return sim.run(loads, replicas=2)


PATHS = ["inprocess", "process", "dispatch"]


class TestPartitioned:
    """The coordinator guards each combined row as it records it."""

    @pytest.mark.parametrize("record", ["auto", "full"])
    @pytest.mark.parametrize("path", PATHS)
    def test_negative_raises_naming_the_replica(self, path, record, request):
        with pytest.raises(ValueError, match=r"loads must be non-negative: replica 1$"):
            _partitioned(path, _BlockDrain, [MaxRounds(10)], record, request,
                         _loads(2, np.int64))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("path", PATHS)
    def test_nan_raises_naming_the_replica(self, path, request):
        with pytest.raises(ValueError, match=r"loads must be finite \(no NaN/inf\): replica 1$"):
            _partitioned(path, _BlockPoison, [MaxRounds(10)], "auto", request, _loads(2))

    @pytest.mark.parametrize("path", PATHS)
    def test_speculation_past_a_stop_does_not_fire(self, path, request):
        # Replica 1 overdraws in round 3, one round after the stop; a
        # chunk of ten rounds runs past it and is rewound.
        trace = _partitioned(path, _BlockDrain, [_StopAt(2), MaxRounds(10)], "auto",
                             request, _loads(2, np.int64))
        assert trace.rounds == 2
        assert trace.final_loads[1, 0] == 12 - 10
