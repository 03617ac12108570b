"""Unit tests for Algorithm 2 (random balancing partners)."""

import hashlib

import numpy as np
import pytest

from repro.core.potential import potential
from repro.core.random_partner import (
    RandomPartnerBalancer,
    link_degrees,
    partner_flows,
    partner_round_continuous,
    partner_round_discrete,
    sample_partner_links,
    sample_partners,
)
from repro.simulation.ensemble import EnsembleSimulator
from repro.simulation.stopping import MaxRounds


def _unique_links(n, rng):
    """The original formulation: ``np.unique`` over all ``n`` picks."""
    partners = sample_partners(n, rng)
    ids = np.arange(n, dtype=np.int64)
    lo = np.minimum(ids, partners)
    hi = np.maximum(ids, partners)
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _initial(n, mode, seed):
    rng = np.random.default_rng(seed)
    if mode == "discrete":
        return rng.integers(0, 1000, n).astype(np.int64)
    return rng.uniform(0.0, 1000.0, n)


def _serial_golden(mode):
    """20 serial rounds on n=257: digest of final loads and last links."""
    bal = RandomPartnerBalancer(mode=mode)
    rng = np.random.default_rng(2024)
    loads = _initial(257, mode, 11)
    for _ in range(20):
        loads = bal.step(loads, rng)
    return _digest(loads, bal.last_links)


def _ensemble_golden(mode):
    """A B=8 ensemble, 20 rounds on n=257: final loads and last links."""
    bal = RandomPartnerBalancer(mode=mode)
    ens = EnsembleSimulator(bal, stopping=[MaxRounds(20)])
    trace = ens.run(_initial(257, mode, 12), seed=99, replicas=8)
    return _digest(trace.final_loads, *bal.last_links)


# Captured from the original np.unique(axis=0) implementation; the
# sort-free sampler must reproduce every trajectory bit-for-bit.
GOLDEN = {
    ("serial", "continuous"): "f4dc4ebd60f931c1d8c2364c61d6015e1a34a6a51ec6e913c19c10b3296671d4",
    ("serial", "discrete"): "198ed61af8713cdcd56fda9e041db73476ee3da1d598de947b9bcaef19b06e3c",
    ("ensemble", "continuous"): "4856f3b1c338a0b2ebc40b49b3ab1b5469631ca515043f21cc51bac0036701ad",
    ("ensemble", "discrete"): "28ad3195b5a8853f7c02574292a34b30c5a781e0dfb89031e427092c5087603c",
}


class TestSampling:
    def test_partner_never_self(self, rng):
        for n in (2, 3, 17, 100):
            partners = sample_partners(n, rng)
            assert (partners != np.arange(n)).all()

    def test_partner_in_range(self, rng):
        partners = sample_partners(50, rng)
        assert partners.min() >= 0 and partners.max() < 50

    def test_partner_distribution_uniform(self):
        # Node 0's partner should be uniform over {1,...,n-1}.
        n, trials = 5, 40_000
        rng = np.random.default_rng(0)
        counts = np.zeros(n)
        for _ in range(trials):
            counts[sample_partners(n, rng)[0]] += 1
        assert counts[0] == 0
        expected = trials / (n - 1)
        assert np.abs(counts[1:] - expected).max() < 5 * np.sqrt(expected)

    def test_needs_two_nodes(self, rng):
        with pytest.raises(ValueError):
            sample_partners(1, rng)

    def test_links_canonical_unique(self, rng):
        links = sample_partner_links(64, rng)
        assert (links[:, 0] < links[:, 1]).all()
        # Strictly lexicographically increasing rows: unique and in the
        # order the continuous scatter accumulates its floats.
        assert (np.diff(links[:, 0] * 64 + links[:, 1]) > 0).all()

    def test_link_count_bounds(self, rng):
        # n picks collapse to between n/2 (all mutual) and n links.
        for _ in range(20):
            links = sample_partner_links(40, rng)
            assert 20 <= links.shape[0] <= 40

    @pytest.mark.parametrize("n", [2, 3, 5, 64, 4096])
    def test_matches_unique_oracle(self, n):
        for seed in range(50):
            fast_rng = np.random.default_rng(seed)
            oracle_rng = np.random.default_rng(seed)
            links = sample_partner_links(n, fast_rng)
            expected = _unique_links(n, oracle_rng)
            assert links.dtype == np.int64
            assert links.flags.c_contiguous
            assert np.array_equal(links, expected)
            # Both consumed the generator identically.
            assert fast_rng.integers(0, 2**62) == oracle_rng.integers(0, 2**62)

    def test_key_overflow_guard(self, rng):
        with pytest.raises(ValueError, match="int64"):
            sample_partner_links(3_037_000_500, rng)

    @pytest.mark.parametrize("engine", ["serial", "ensemble"])
    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    def test_golden_trajectories(self, engine, mode):
        run = _serial_golden if engine == "serial" else _ensemble_golden
        assert run(mode) == GOLDEN[(engine, mode)]

    def test_every_node_has_a_link(self, rng):
        links = sample_partner_links(32, rng)
        deg = link_degrees(32, links)
        assert (deg >= 1).all()

    def test_degrees_sum_twice_links(self, rng):
        links = sample_partner_links(32, rng)
        assert link_degrees(32, links).sum() == 2 * links.shape[0]


class TestFlows:
    def test_flow_formula_continuous(self):
        links = np.asarray([[0, 1]])
        deg = np.asarray([2, 3])
        loads = np.asarray([20.0, 8.0])
        f = partner_flows(loads, links, deg)
        assert f[0] == pytest.approx((20 - 8) / (4 * 3))

    def test_flow_formula_discrete(self):
        links = np.asarray([[0, 1]])
        deg = np.asarray([1, 1])
        f = partner_flows(np.asarray([9, 0], dtype=np.int64), links, deg, discrete=True)
        assert f[0] == 2  # floor(9/4)

    def test_round_conserves_continuous(self, rng):
        loads = rng.uniform(0, 100, 50)
        out = partner_round_continuous(loads, rng)
        assert out.sum() == pytest.approx(loads.sum(), rel=1e-12)

    def test_round_conserves_discrete(self, rng):
        loads = rng.integers(0, 10_000, 50).astype(np.int64)
        out = partner_round_discrete(loads, rng)
        assert out.sum() == loads.sum()
        assert out.dtype == np.int64

    def test_potential_never_increases_continuous(self, rng):
        loads = rng.uniform(0, 100, 64)
        for _ in range(20):
            new = partner_round_continuous(loads, rng)
            assert potential(new) <= potential(loads) + 1e-9
            loads = new

    def test_potential_never_increases_discrete(self, rng):
        loads = rng.integers(0, 10_000, 64).astype(np.int64)
        for _ in range(20):
            new = partner_round_discrete(loads, rng)
            assert potential(new) <= potential(loads) + 1e-9
            loads = new

    def test_lemma11_expected_drop(self):
        # Average the one-round ratio over many trials: must be <= 19/20
        # (measured is typically ~0.7).
        rng = np.random.default_rng(7)
        n = 128
        loads = np.zeros(n)
        loads[0] = 1000.0
        ratios = []
        for _ in range(300):
            out = partner_round_continuous(loads, rng)
            ratios.append(potential(out) / potential(loads))
        assert np.mean(ratios) <= 19 / 20

    def test_two_nodes_balance_quarter(self):
        rng = np.random.default_rng(0)
        out = partner_round_continuous(np.asarray([8.0, 0.0]), rng)
        # Only one link possible: (0,1), degrees 1,1; transfer 8/4 = 2.
        assert out.tolist() == [6.0, 2.0]


class TestBalancer:
    def test_step_records_links(self, rng):
        bal = RandomPartnerBalancer()
        loads = np.ones(16) * 4
        bal.step(loads, rng)
        assert bal.last_links is not None
        assert bal.last_degrees is not None
        assert bal.last_degrees.sum() == 2 * bal.last_links.shape[0]

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            RandomPartnerBalancer(mode="hybrid")

    def test_discrete_step_integer(self, rng):
        bal = RandomPartnerBalancer(mode="discrete")
        out = bal.step(np.full(16, 10, dtype=np.int64), rng)
        assert out.dtype == np.int64

    def test_deterministic_given_seed(self):
        loads = np.zeros(32)
        loads[0] = 320.0
        a = RandomPartnerBalancer().step(loads, np.random.default_rng(9))
        b = RandomPartnerBalancer().step(loads, np.random.default_rng(9))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    def test_step_batch_writes_out(self, mode):
        L = np.ascontiguousarray(
            np.stack([_initial(33, mode, s) for s in range(4)], axis=1)
        )
        before = L.copy()
        out = np.empty_like(L)
        got = RandomPartnerBalancer(mode=mode).step_batch(
            L, [np.random.default_rng(s) for s in range(4)], out=out
        )
        fresh = RandomPartnerBalancer(mode=mode).step_batch(
            L, [np.random.default_rng(s) for s in range(4)]
        )
        assert np.shares_memory(got, out)
        assert np.array_equal(got, fresh)
        assert np.array_equal(L, before)

    def test_different_rounds_different_links(self):
        bal = RandomPartnerBalancer()
        rng = np.random.default_rng(1)
        loads = np.full(64, 5.0)
        bal.step(loads, rng)
        first = bal.last_links.copy()
        bal.step(loads, rng)
        assert not np.array_equal(first, bal.last_links)
