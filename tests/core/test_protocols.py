"""Unit tests for the Balancer interface and registry."""

import numpy as np
import pytest

from repro.core.protocols import (
    Balancer,
    get_balancer,
    registered_balancers,
)


class TestRegistry:
    def test_expected_schemes_registered(self):
        names = registered_balancers()
        for expected in (
            "diffusion",
            "diffusion-discrete",
            "random-partner",
            "random-partner-discrete",
            "fos",
            "fos-floor",
            "fos-randomized",
            "sos",
            "matching-de",
            "matching-de-discrete",
            "round-robin-de",
            "ops",
        ):
            assert expected in names

    def test_get_balancer_constructs(self, torus):
        bal = get_balancer("diffusion", torus)
        assert bal.mode == "continuous"

    def test_get_balancer_unknown_raises(self, torus):
        with pytest.raises(KeyError, match="unknown balancer"):
            get_balancer("simulated-annealing", torus)

    def test_partner_scheme_without_topology(self):
        bal = get_balancer("random-partner")
        assert bal.mode == "continuous"

    def test_duplicate_registration_rejected(self):
        from repro.core.protocols import register_balancer

        with pytest.raises(ValueError, match="already registered"):

            @register_balancer("diffusion")
            def _dup(topology=None):  # pragma: no cover
                raise AssertionError


class _NoopBalancer(Balancer):
    name = "noop"

    def step(self, loads, rng):
        self.advance_round()
        return loads.copy()


class TestValidation:
    def test_continuous_casts_to_float(self):
        bal = _NoopBalancer()
        out = bal.validate_loads(np.asarray([1, 2, 3], dtype=np.int64))
        assert out.dtype == np.float64

    def test_discrete_accepts_integer_floats(self):
        bal = _NoopBalancer()
        bal.mode = "discrete"
        out = bal.validate_loads(np.asarray([1.0, 2.0]))
        assert out.dtype == np.int64

    def test_discrete_rejects_fractional(self):
        bal = _NoopBalancer()
        bal.mode = "discrete"
        with pytest.raises(ValueError, match="integer"):
            bal.validate_loads(np.asarray([1.5, 2.0]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            _NoopBalancer().validate_loads(np.asarray([-1.0, 2.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _NoopBalancer().validate_loads(np.asarray([]))

    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    @pytest.mark.parametrize(
        "values, dtype, match",
        [
            ([1.0, np.nan], np.float64, "finite"),
            ([1.0, np.inf], np.float64, "finite"),
            ([-np.inf, 1.0], np.float64, "finite"),
            ([np.nan, -1.0], np.float64, "finite"),  # finiteness before sign
            ([-1.0, 2.0], np.float64, "non-negative"),
            ([-1, 2], np.int64, "non-negative"),
        ],
    )
    def test_rejection_message_and_order(self, mode, values, dtype, match):
        bal = _NoopBalancer()
        bal.mode = mode
        with pytest.raises(ValueError, match=match):
            bal.validate_loads(np.asarray(values, dtype=dtype))

    @pytest.mark.parametrize(
        "values, dtype, match",
        [
            ([1.5, 2.0], np.float64, "requires integer loads"),
            ([-1.5, 0.5], np.float64, "non-negative"),  # sign before integrality
            ([np.nan, 0.5], np.float64, "finite"),
            ([2**63, 0, 0, 0], np.uint64, "int64"),
            ([2**64 - 1, 0], np.uint64, "int64"),
        ],
    )
    def test_discrete_rejection_message_and_order(self, values, dtype, match):
        bal = _NoopBalancer()
        bal.mode = "discrete"
        with pytest.raises(ValueError, match=match):
            bal.validate_loads(np.asarray(values, dtype=dtype))

    def test_discrete_uint64_in_range_accepted(self):
        bal = _NoopBalancer()
        bal.mode = "discrete"
        out = bal.validate_loads(np.asarray([2**63 - 1, 0], dtype=np.uint64))
        assert out.dtype == np.int64
        assert out.tolist() == [2**63 - 1, 0]

    def test_continuous_uint64_above_int64_range_accepted(self):
        out = _NoopBalancer().validate_loads(np.asarray([2**63, 0], dtype=np.uint64))
        assert out.tolist() == [2.0**63, 0.0]

    def test_dtype_property(self):
        bal = _NoopBalancer()
        assert bal.dtype == np.dtype(np.float64)
        bal.mode = "discrete"
        assert bal.dtype == np.dtype(np.int64)


class TestState:
    def test_round_counter(self):
        bal = _NoopBalancer()
        rng = np.random.default_rng(0)
        bal.step(np.ones(3), rng)
        bal.step(np.ones(3), rng)
        assert bal.state.round == 2

    def test_reset_clears(self):
        bal = _NoopBalancer()
        bal.state.round = 5
        bal.state.history["x"] = np.ones(2)
        bal.reset()
        assert bal.state.round == 0
        assert bal.state.history == {}

    def test_repr(self):
        assert "noop" in repr(_NoopBalancer())
