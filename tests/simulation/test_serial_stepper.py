"""The one-replica stepper: validate once, ping-pong ``step_batch``, guard each round.

A one-replica run validates its initial loads once and then runs the
scheme's unvalidated ``step_batch`` on ``(n, 1)`` views of two recycled
buffers.  These tests pin that this changes nothing a caller can see: the
recorded series and final loads of every registered scheme are those of
the ``step``-driven loop, a kernel that plants a bad value still fails
within the round, and recycled buffers never leak into a finished trace.
"""

import hashlib

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer
from repro.core.protocols import Balancer, get_balancer, registered_balancers
from repro.graphs.generators import by_name
from repro.simulation.engine import Simulator
from repro.simulation.ensemble import EnsembleSimulator
from repro.simulation.initial import point_load
from repro.simulation.stopping import MaxRounds
from repro.simulation.trace import Trace

ROUNDS = 60


def _loads(kind: str, n: int, discrete: bool) -> np.ndarray:
    if kind == "point":
        return point_load(n, discrete=discrete, total=n * 50)
    raw = np.random.default_rng(11).integers(0, 100, n)
    return raw.astype(np.int64 if discrete else np.float64)


def _digest(trace: Trace) -> str:
    h = hashlib.sha256()
    for series in (trace.potentials, trace.discrepancies, trace._sums, trace._movements):
        h.update(np.asarray(series, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(trace.final_loads).tobytes())
    h.update(np.ascontiguousarray(np.stack(trace.snapshots)).tobytes())
    return h.hexdigest()[:16]


#: "scheme/loads" -> digest of a 60-round Simulator run on torus:8x8 (seed
#: 7), captured when every round still went through ``Balancer.step``.
STEP_DRIVEN = {
    "async-diffusion-discrete/point": "690c67d4fd102e86",
    "async-diffusion-discrete/uniform": "c6f07f2d27650e02",
    "async-diffusion/point": "1ea0bf25de623aac",
    "async-diffusion/uniform": "5305e6582dd7988c",
    "diffusion-discrete/point": "26ba973d9337a3a6",
    "diffusion-discrete/uniform": "d2c8b05a36e290e4",
    "diffusion/point": "32e2d2b88cac4261",
    "diffusion/uniform": "acf726b7784f65a0",
    "fos-floor/point": "9a9b4e9024ead512",
    "fos-floor/uniform": "41896cc4bf14b5d6",
    "fos-randomized/point": "135ed58a89ade6c5",
    "fos-randomized/uniform": "713f294da96caba3",
    "fos/point": "202b777af91d578f",
    "fos/uniform": "d61efcd5dbbe32c8",
    "hetero-diffusion/point": "4108eddeaf01ae8c",
    "hetero-diffusion/uniform": "8289921ce9c0ba61",
    "matching-de-discrete/point": "c4055be83a4eeeb0",
    "matching-de-discrete/uniform": "dfb5e79d8c6c39b3",
    "matching-de/point": "bbf3092d199141b2",
    "matching-de/uniform": "b1bbbb1b9cc89fdb",
    "ops/point": "ac460ac3ce5e73d7",
    "ops/uniform": "e08e1ccd1ddc52eb",
    "random-partner-discrete/point": "c09851711c5100b3",
    "random-partner-discrete/uniform": "ea3dbbc4896ef849",
    "random-partner/point": "3fa0fa5c3b2f8b41",
    "random-partner/uniform": "4e697be32379434d",
    "round-robin-de/point": "ab629639e0700c44",
    "round-robin-de/uniform": "b2044005790a635b",
    "sos/point": "ac875e304d95a704",
    "sos/uniform": "a890ea16c560e684",
}


def _simulated(name: str, kind: str) -> Trace:
    topo = by_name("torus:8x8")
    bal = get_balancer(name, topo)
    loads = _loads(kind, topo.n, bal.mode == "discrete")
    return Simulator(bal, stopping=[MaxRounds(ROUNDS)], keep_snapshots=True,
                     record="full").run(loads, 7)


def _step_driven(name: str, kind: str) -> Trace:
    """The reference: one validated ``step`` per round, recorded by copy."""
    topo = by_name("torus:8x8")
    bal = get_balancer(name, topo)
    loads = bal.validate_loads(_loads(kind, topo.n, bal.mode == "discrete"))
    rng = np.random.default_rng(7)
    trace = Trace(bal.name, keep_snapshots=True)
    trace.record(loads)
    for _ in range(ROUNDS):
        loads = bal.step(loads, rng)
        trace.record(loads)
    trace._final_loads = loads[None, :]
    return trace


class TestSameAsStepDriven:
    def test_every_scheme_is_covered(self):
        assert {key.split("/")[0] for key in STEP_DRIVEN} == set(registered_balancers())

    @pytest.mark.parametrize("key", sorted(STEP_DRIVEN))
    def test_series_match_the_step_loop(self, key):
        name, kind = key.split("/")
        got, want = _simulated(name, kind), _step_driven(name, kind)
        assert np.array_equal(got.final_loads, want.final_loads)
        assert got.final_loads.dtype == want.final_loads.dtype
        assert got.potentials == want.potentials
        assert got.discrepancies == want.discrepancies
        assert got._sums == want._sums
        assert got._movements == want._movements
        assert all(np.array_equal(a, b) for a, b in zip(got.snapshots, want.snapshots))
        assert got.last_totals == want.last_totals

    @pytest.mark.parametrize("key", sorted(STEP_DRIVEN))
    def test_recorded_digest(self, key):
        assert _digest(_simulated(*key.split("/"))) == STEP_DRIVEN[key]


class _Planting(DiffusionBalancer):
    """Diffusion whose batched round writes ``value`` into node 0 at round ``at``."""

    def __init__(self, topo, value, at=3, mode="continuous"):
        super().__init__(topo, mode=mode)
        self.value, self.at = value, at

    def step_batch(self, loads, rngs, out=None):
        new = super().step_batch(loads, rngs, out)
        if self.state.round == self.at:
            new[1] += new[0] - self.value  # conserves the total for a finite value
            new[0] = self.value
        return new


class TestRoundGuard:
    # The record computes its statistics from the planted state before
    # the guard reads them, so an inf entry warns on its way to NaN.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("audit", [True, False])
    def test_non_finite_raises_within_the_round(self, torus, value, audit):
        bal = _Planting(torus, value)
        sim = Simulator(bal, stopping=[MaxRounds(10)], check_conservation=audit)
        with pytest.raises(ValueError, match=r"loads must be finite \(no NaN/inf\)"):
            sim.run(point_load(torus.n, discrete=False), 0)
        assert bal.state.round == bal.at

    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    @pytest.mark.parametrize("audit", [True, False])
    def test_negative_raises_within_the_round(self, torus, mode, audit):
        bal = _Planting(torus, -1, mode=mode)
        sim = Simulator(bal, stopping=[MaxRounds(10)], check_conservation=audit)
        with pytest.raises(ValueError, match="loads must be non-negative"):
            sim.run(point_load(torus.n, discrete=mode == "discrete"), 0)
        assert bal.state.round == bal.at

    def test_initial_loads_still_validated(self, torus):
        with pytest.raises(ValueError, match="non-negative"):
            Simulator(DiffusionBalancer(torus), [MaxRounds(2)]).run(-np.ones(torus.n), 0)

    @pytest.mark.parametrize("name", ["sos", "ops"])
    def test_signed_schemes_run_through_negative_loads(self, name):
        topo = by_name("cycle:16")
        bal = get_balancer(name, topo)
        assert bal.allows_negative
        trace = Simulator(bal, [MaxRounds(30)], keep_snapshots=True).run(
            point_load(topo.n, discrete=False, total=100.0), 0)
        assert trace.rounds == 30
        assert min(s.min() for s in trace.snapshots) < 0

    def test_step_batch_returning_its_input_raises(self, torus):
        class Lazy(DiffusionBalancer):
            def step_batch(self, loads, rngs, out=None):
                return loads

        with pytest.raises(AssertionError, match="returned its input"):
            Simulator(Lazy(torus), [MaxRounds(3)]).run(point_load(torus.n, discrete=False), 0)


class _StepOnly(Balancer):
    """A scheme without a batched kernel: halves every load towards the mean."""

    name = "step-only"

    def __init__(self):
        super().__init__()
        self.calls = 0

    def step(self, loads, rng):
        loads = self.validate_loads(loads)
        self.calls += 1
        return 0.5 * (loads + loads.mean())


class TestFallbackAndBuffers:
    def test_scheme_without_batch_runs_on_step(self):
        bal = _StepOnly()
        trace = Simulator(bal, [MaxRounds(7)]).run(np.asarray([8.0, 0.0, 4.0, 4.0]), 0)
        assert bal.calls == 7 and trace.rounds == 7
        assert trace.potentials[1] == trace.potentials[0] / 4

    def test_step_fallback_keeps_its_input_check(self):
        class Negative(_StepOnly):
            def step(self, loads, rng):
                out = super().step(loads, rng)
                out[0], out[1] = out[0] + 1.0, out[1] - 100.0
                return out

        sim = Simulator(Negative(), [MaxRounds(5)], check_conservation=False)
        with pytest.raises(ValueError, match="non-negative"):
            sim.run(np.asarray([8.0, 0.0, 4.0, 4.0]), 0)

    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    def test_second_run_leaves_the_first_trace_alone(self, torus, mode):
        discrete = mode == "discrete"
        ens = EnsembleSimulator(DiffusionBalancer(torus, mode=mode), [MaxRounds(6)])
        first = ens.run(point_load(torus.n, discrete=discrete, total=1600), seed=0)
        final, totals = first.final_loads.copy(), first.last_totals
        sim = Simulator(DiffusionBalancer(torus, mode=mode), [MaxRounds(9)])
        one = sim.run(point_load(torus.n, discrete=discrete, total=1600), 0)
        one_final, one_totals = one.final_loads.copy(), one.last_totals
        ens.run(point_load(torus.n, discrete=discrete, total=3200), seed=1)
        sim.run(point_load(torus.n, discrete=discrete, total=3200), 1)
        assert np.array_equal(first.final_loads, final) and first.last_totals == totals
        assert np.array_equal(one.final_loads, one_final) and one.last_totals == one_totals

    def test_trace_keeps_the_state_it_was_handed(self):
        """With ``prev`` a vector is kept by reference; without, copied."""
        t = Trace()
        a, b = np.arange(4.0), np.arange(4.0)[::-1].copy()
        t.record(a)
        assert t._last_loads is not a
        t.record(b, prev=a)
        assert t._last_loads is b and t._movements == [4.0]
