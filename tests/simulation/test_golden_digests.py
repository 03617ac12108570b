"""Golden digests of serial traces: the recorded series must never drift.

Each case runs the serial :class:`Simulator` and hashes every series the
:class:`Trace` records (potentials, discrepancies, load sums, net
movements) together with the final load vector.  The digests were
captured before the statistics moved into held buffers; any change to
how ``Trace.record`` computes them — or to the trajectories themselves —
shows up here as a different hash.
"""

import hashlib

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer
from repro.core.random_partner import RandomPartnerBalancer
from repro.graphs.generators import torus_2d
from repro.simulation.engine import run_balancer


def _series_digest(trace, final_loads: np.ndarray) -> str:
    h = hashlib.sha256()
    for series in (trace.potentials, trace.discrepancies, trace._sums, trace._movements):
        h.update(np.asarray(series, dtype=np.float64).tobytes())
    h.update(str(final_loads.dtype).encode())
    h.update(np.ascontiguousarray(final_loads).tobytes())
    return h.hexdigest()


def _point_loads(n: int, total, dtype) -> np.ndarray:
    loads = np.zeros(n, dtype=dtype)
    loads[0] = total
    return loads


#: name -> (balancer factory, initial loads factory, rounds, sha256)
CASES = {
    "diffusion-continuous-torus64": (
        lambda: DiffusionBalancer(torus_2d(64, 64), "continuous"),
        lambda: _point_loads(4096, 4096.0 * 100, np.float64),
        150,
        "e3a8ce38546091ba1e5d3509e38748e5849468830d9a8b8781ec1500dae07c25",
    ),
    "diffusion-discrete-torus64": (
        lambda: DiffusionBalancer(torus_2d(64, 64), "discrete"),
        lambda: np.random.default_rng(3).integers(0, 1000, 4096).astype(np.int64),
        150,
        "1322f3fb867c444f58fe7a5a4c93ba0370b2be494c535824102fc1137f84f7fd",
    ),
    "partner-discrete-4096": (
        lambda: RandomPartnerBalancer("discrete"),
        lambda: np.random.default_rng(4).integers(0, 1000, 4096).astype(np.int64),
        20,
        "3479d937077d9a065a101f4a2bcceef69fee2aa4067a5318c39b143c04436ac6",
    ),
}


def run_case(name: str) -> str:
    make_balancer, make_loads, rounds, _ = CASES[name]
    bal = make_balancer()
    trace = run_balancer(bal, make_loads(), rounds, seed=11, keep_snapshots=True, record="full")
    assert trace.rounds == rounds
    return _series_digest(trace, trace.snapshots[-1])


@pytest.mark.parametrize("name", sorted(CASES))
def test_serial_trace_digest_is_golden(name):
    assert run_case(name) == CASES[name][3]
