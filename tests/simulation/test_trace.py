"""Unit tests for the Trace record."""

import math

import numpy as np
import pytest

from repro.core.potential import DOT_CHUNK, discrepancy, potential, square_sum
from repro.simulation.trace import EnsembleTrace, Trace


def geometric_trace(phi0=1024.0, rate=0.5, rounds=10):
    t = Trace(balancer_name="geo")
    for i in range(rounds + 1):
        half = math.sqrt(phi0 * rate**i / 2)
        t.record(np.asarray([half, -half]))
    return t


class TestRecording:
    def test_rounds_excludes_initial(self):
        t = geometric_trace(rounds=5)
        assert t.rounds == 5

    def test_empty_trace_guards(self):
        t = Trace()
        assert t.rounds == 0
        with pytest.raises(ValueError):
            _ = t.initial_potential
        with pytest.raises(ValueError):
            _ = t.last_potential
        with pytest.raises(ValueError):
            _ = t.last_discrepancy

    def test_snapshots_disabled_by_default(self):
        t = Trace()
        t.record(np.ones(3))
        with pytest.raises(ValueError):
            _ = t.snapshots

    def test_snapshots_are_copies(self):
        t = Trace(keep_snapshots=True)
        v = np.ones(3)
        t.record(v)
        v[0] = 99
        assert t.snapshots[0][0] == 1.0

    def test_load_sums_tracked(self):
        t = Trace()
        t.record(np.asarray([1.0, 2.0]))
        t.record(np.asarray([1.5, 1.5]))
        assert t.load_sums.tolist() == [3.0, 3.0]
        assert t.conservation_error() == 0.0

    def test_conservation_error_detects_leak(self):
        t = Trace()
        t.record(np.asarray([1.0, 2.0]))
        t.record(np.asarray([1.0, 1.0]))
        assert t.conservation_error() == pytest.approx(1.0)


class TestHeldBuffers:
    """``record`` matches the reference statistics and reuses its buffers."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.int32, np.uint64])
    @pytest.mark.parametrize("n", [1, 5, 8193])
    def test_statistics_match_reference(self, dtype, n):
        rng = np.random.default_rng(n)
        states = [(rng.random(n) * 1e6).astype(dtype) for _ in range(3)]
        states.append(states[-1][::-1])  # a strided view
        t = Trace()
        for x in states:
            t.record(x)
        as_f64 = [np.asarray(x, dtype=np.float64) for x in states]
        assert t.potentials == [potential(x) for x in states]
        assert t.discrepancies == [discrepancy(x) for x in states]
        assert t._sums == [float(x.sum()) for x in as_f64]
        assert t._movements == [
            0.5 * float(np.abs(b - a).sum()) for a, b in zip(as_f64, as_f64[1:])
        ]

    def test_buffers_are_reused(self):
        t = Trace()
        t.record(np.arange(6, dtype=np.int64))
        last, scratch = t._last_loads, t._scratch
        t.record(np.arange(6, dtype=np.int64)[::-1])
        assert t._last_loads is last and t._scratch is scratch
        assert t._last_loads.tolist() == [5, 4, 3, 2, 1, 0]

    def test_last_loads_keep_their_dtype(self):
        t = Trace()
        big = np.full(4, 2**53 + 1, dtype=np.int64)
        t.record(big)
        assert t._last_loads.dtype == np.int64
        assert t._last_loads.tolist() == big.tolist()

    def test_rejects_non_vector(self):
        with pytest.raises(ValueError, match="1-D"):
            Trace().record(np.ones((2, 2)))


class TestExtraction:
    def test_rounds_to_potential(self):
        t = geometric_trace(phi0=1024, rate=0.5, rounds=10)
        # Thresholds carry a hair of slack: the crafted loads reproduce the
        # target potentials only up to float64 rounding.
        assert t.rounds_to_potential(1024.01) == 0
        assert t.rounds_to_potential(512.01) == 1
        assert t.rounds_to_potential(100) == 4  # 1024/16 = 64 <= 100
        assert t.rounds_to_potential(0.5) is None

    def test_rounds_to_fraction(self):
        t = geometric_trace(phi0=1000, rate=0.5, rounds=10)
        assert t.rounds_to_fraction(0.25) == 2

    def test_rounds_to_discrepancy(self):
        t = Trace()
        t.record(np.asarray([0.0, 10.0]))
        t.record(np.asarray([4.0, 6.0]))
        assert t.rounds_to_discrepancy(3) == pytest.approx(1)
        assert t.rounds_to_discrepancy(1) is None

    def test_drop_factors_geometric(self):
        t = geometric_trace(rate=0.5, rounds=6)
        assert np.allclose(t.drop_factors(), 0.5)

    def test_mean_drop_factor(self):
        t = geometric_trace(rate=0.25, rounds=8)
        assert t.mean_drop_factor() == pytest.approx(0.25, rel=1e-6)

    def test_mean_drop_factor_empty(self):
        t = Trace()
        t.record(np.ones(2))
        assert math.isnan(t.mean_drop_factor())

    def test_drop_factors_zero_potential_tail(self):
        t = Trace()
        t.record(np.asarray([0.0, 2.0]))
        t.record(np.asarray([1.0, 1.0]))
        t.record(np.asarray([1.0, 1.0]))
        factors = t.drop_factors()
        assert factors[0] == pytest.approx(0.0)
        assert factors[1] == pytest.approx(1.0)  # 0/0 treated as no-change

    def test_summary_keys(self):
        t = geometric_trace()
        t.stopped_by = "max-rounds(10)"
        s = t.summary()
        assert s["balancer"] == "geo"
        assert s["rounds"] == 10
        assert s["stopped_by"] == "max-rounds(10)"


_PHI_RUN = """
from repro.core.diffusion import DiffusionBalancer
from repro.graphs.generators import torus_2d
from repro.simulation.engine import run_balancer
from repro.simulation.initial import point_load

topo = torus_2d(256, 256)
trace = run_balancer(DiffusionBalancer(topo), point_load(topo.n, discrete=False), rounds=20,
                     record="full")
print([x.hex() for x in trace.potentials + trace._sums + trace.discrepancies + trace._movements])
"""


class TestThreadIndependentPotential:
    """Phi of a long vector must not depend on how many threads BLAS has."""

    @pytest.mark.parametrize("n", [1, 5, 9999, 10_000])
    def test_one_chunk_is_one_dot(self, n):
        v = np.random.default_rng(n).random(n)
        assert square_sum(v) == float(v @ v)

    def test_longer_vector_sums_fixed_chunks_in_order(self):
        v = np.random.default_rng(0).random(2 * DOT_CHUNK + 7)
        want = 0.0
        for chunk in (v[:DOT_CHUNK], v[DOT_CHUNK : 2 * DOT_CHUNK], v[2 * DOT_CHUNK :]):
            want += float(chunk @ chunk)
        assert square_sum(v) == want
        assert potential(v) == square_sum(v - v.mean())

    def test_n65536_series_same_on_one_and_two_threads(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", _PHI_RUN], env=env, check=True,
                                  capture_output=True, text=True, timeout=120)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]


class TestIntegerPotentialRow:
    """An integer batch whose squares sum exactly takes its ``Phi`` row
    from an int64 sum of squares; the bits are the float64 sum's."""

    @staticmethod
    def _float_row(loads):
        sums = loads.sum(axis=0)
        ss = np.einsum("ij,ij->j", loads, loads, dtype=np.float64)
        return np.maximum(ss - sums * (sums / loads.shape[0]), 0.0)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("top", [1, 1000, 94_906_265 // 512])
    def test_exact_batches_match_float_row(self, order, top):
        loads = np.random.default_rng(top).integers(0, top, (512, 7), endpoint=True)
        loads = np.asarray(loads, order=order)
        t = EnsembleTrace("x", 7)
        assert t.record(loads) is None  # no discrepancy row to hand back
        assert t._potentials[-1].tobytes() == self._float_row(loads).tobytes()

    @pytest.mark.parametrize("loads", [
        np.array([[2**40, 0], [3, 2**40]]),  # S**2 past 2**53
        np.array([[-2**40, 1], [2**40, 2]]),  # S = 0, squares past int64
    ], ids=["large-total", "negative"])
    def test_other_batches_keep_the_float_row(self, loads):
        t = EnsembleTrace("x", 2)
        t.record(loads)
        assert t._potentials[-1].tobytes() == self._float_row(loads).tobytes()

    def test_discrepancy_row_is_returned(self):
        t = EnsembleTrace("x", 2, record_discrepancies=True)
        assert t.record(np.array([[4, 1], [2, 3]])).tolist() == [2, 1]
