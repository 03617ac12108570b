"""Random-partner ensembles held replica-major.

An ensemble of a scheme that sets ``replica_major_batch`` keeps its
batch as C-contiguous ``(B, n)`` rows and hands the stepper, the record
and the audit the ``(n, B)`` transposed view, so the partner round reads
and writes its rows in place.  It does so only when every recorded row
is exact in any summation order (integer loads whose per-replica total
``S`` has ``S**2 < 2**53``); any other batch stays node-major.  The
digests below were captured with every batch node-major: the recorded
rows and the trajectories must not change by a bit either way.
"""

import hashlib

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer
from repro.core.random_partner import RandomPartnerBalancer
from repro.graphs.generators import torus_2d
from repro.simulation.ensemble import EnsembleSimulator, initial_batch, spawn_rngs
from repro.simulation.stopping import MaxRounds, PotentialFractionBelow


def _rows_digest(trace) -> str:
    h = hashlib.sha256()
    for rows in (trace.potentials_matrix, trace.load_sums_matrix,
                 trace.discrepancies_matrix, trace.movements_matrix):
        h.update(np.ascontiguousarray(rows, dtype=np.float64).tobytes())
    final = trace.final_loads
    h.update(str(final.dtype).encode())
    h.update(np.ascontiguousarray(final).tobytes())
    h.update(np.asarray(trace.rounds_vector, dtype=np.int64).tobytes())
    return h.hexdigest()


#: name -> (mode, initial (B, n) loads, sha256 of a record="full" run)
CASES = {
    "continuous": (
        "continuous",
        lambda: np.random.default_rng(21).uniform(0.0, 1000.0, (6, 512)),
        "5fd10d4d469780d6546a7cd2bb332fbe4dca164ee81107e1889f0657ec7aa74d",
    ),
    # S = 512 * ~500 per replica: S**2 < 2**53, so this batch runs replica-major.
    "discrete-small-total": (
        "discrete",
        lambda: np.random.default_rng(22).integers(0, 1001, (6, 512)),
        "43d1ad64109416d163fb4fc6ccf9eb0a7f9cc59543b62f0674f13923901bdf28",
    ),
    # Loads near 1e8: S**2 >= 2**53 and sum(l**2) rounds, so the batch
    # stays node-major and its Phi rows keep the node-major summation order.
    "discrete-large-total": (
        "discrete",
        lambda: np.random.default_rng(23).integers(0, 2 * 10**8, (6, 1024)),
        "d4bce1e6e954287b0a91793d3ffedd8e4bd35c52c35d72f135ef45890b6fcd1f",
    ),
}


def _run(name: str):
    mode, make_loads, _ = CASES[name]
    bal = RandomPartnerBalancer(mode)
    ens = EnsembleSimulator(bal, stopping=[PotentialFractionBelow(1e-3), MaxRounds(40)],
                            record="full")
    return bal, ens.run(make_loads(), seed=5)


@pytest.mark.parametrize("name", sorted(CASES))
def test_recorded_rows_match_node_major_digest(name):
    _, trace = _run(name)
    assert _rows_digest(trace) == CASES[name][2]


class TestBatchOrder:
    """``initial_batch`` goes replica-major only where the rows stay exact."""

    def test_small_integer_totals_go_replica_major(self):
        L, B = initial_batch(RandomPartnerBalancer("discrete"), CASES["discrete-small-total"][1](),
                             None)
        assert (L.shape, B) == ((512, 6), 6)
        assert L.T.flags.c_contiguous

    def test_shared_vector_goes_replica_major(self):
        vec = np.arange(40, dtype=np.int64)
        L, B = initial_batch(RandomPartnerBalancer("discrete"), vec, 3)
        assert L.T.flags.c_contiguous
        assert np.array_equal(L, np.repeat(vec[:, None], 3, axis=1))

    @pytest.mark.parametrize("bal, loads", [
        (RandomPartnerBalancer("continuous"), np.ones((3, 40))),
        # S = 40 * 2**22: S**2 = 1600 * 2**44 >= 2**53
        (RandomPartnerBalancer("discrete"), np.full((3, 40), 2**22)),
        (DiffusionBalancer(torus_2d(4, 10), "discrete"), np.ones((3, 40), dtype=np.int64)),
    ], ids=["continuous", "large-total", "node-major-scheme"])
    def test_other_batches_stay_node_major(self, bal, loads):
        L, _ = initial_batch(bal, loads, None)
        assert L.flags.c_contiguous and not L.T.flags.c_contiguous

    def test_totals_at_the_bound(self):
        bal = RandomPartnerBalancer("discrete")
        below = 94_906_265  # floor(sqrt(2**53)): its square is below 2**53
        loads = np.zeros((2, 8), dtype=np.int64)
        loads[:, 0] = below
        assert initial_batch(bal, loads, None)[0].T.flags.c_contiguous
        loads[1, 1] = 1  # replica 1's total squared reaches 2**53
        assert initial_batch(bal, loads, None)[0].flags.c_contiguous

    @pytest.mark.parametrize("B", [1, 6])
    def test_replica_major_ensemble_allocates_no_row_buffers(self, B):
        bal = RandomPartnerBalancer("discrete")
        trace = EnsembleSimulator(bal, stopping=[MaxRounds(5)]).run(
            CASES["discrete-small-total"][1]()[:B], seed=1)
        assert trace.rounds == 5
        assert "loads" not in bal._work and "new" not in bal._work

    def test_node_major_ensemble_copies_through_row_buffers(self):
        bal = RandomPartnerBalancer("continuous")
        EnsembleSimulator(bal, stopping=[MaxRounds(2)]).run(CASES["continuous"][1](), seed=1)
        assert bal._work["loads"].shape == bal._work["new"].shape == (6, 512)


class TestStepBatchOrders:
    """``step_batch`` gives the same bits for any memory order of its
    input and output, with or without ``out``."""

    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    @pytest.mark.parametrize("B", [1, 64])
    def test_any_order_in_and_out(self, mode, B):
        n = 97
        bal = RandomPartnerBalancer(mode)
        rows = np.random.default_rng(B).integers(0, 1000, (B, n)).astype(bal.dtype)
        inputs = {"C": np.ascontiguousarray(rows.T), "F": rows.T}
        expected = np.stack([
            RandomPartnerBalancer(mode).step(rows[b], rng)
            for b, rng in enumerate(spawn_rngs(9, B))
        ], axis=1)
        for in_order, loads in inputs.items():
            before = loads.copy()
            for out_order in ("C", "F", None):
                out = None if out_order is None else np.empty((n, B), bal.dtype, order=out_order)
                got = bal.step_batch(loads, spawn_rngs(9, B), out=out)
                assert out is None or got is out
                assert got.dtype == bal.dtype
                assert np.array_equal(got, expected), (in_order, out_order)
                assert np.array_equal(loads, before)
