"""Unit tests for Algorithm 2 (random balancing partners)."""

import hashlib
import math
import pickle

import numpy as np
import pytest

from repro.core.operators import RECIP_DIV_LIMIT, biased_reciprocal
from repro.core.potential import potential
from repro.core.random_partner import (
    RandomPartnerBalancer,
    _quarter_reciprocals,
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


def _literal_round(loads, rng, discrete):
    """The literal Algorithm 2 round: ``np.unique`` links, their degrees
    and flows, then ``subtract.at`` / ``add.at`` in canonical order.

    Returns the new loads, the links and the degrees."""
    n = loads.size
    links = _unique_links(n, rng)
    deg = link_degrees(n, links)
    flows = partner_flows(loads, links, deg, discrete=discrete)
    new = loads.copy()
    np.subtract.at(new, links[:, 0], flows)
    np.add.at(new, links[:, 1], flows)
    return new, links, deg


#: Every denominator ``4 k`` with ``k <= 8`` divides it, so planted load
#: differences sit at exact multiples of the usual denominators.
PLANT = 4 * math.lcm(*range(1, 9))
# The largest spread the float64 fast branch accepts, and the smallest
# that takes the exact int64 branch.
ORACLE_TOPS = [RECIP_DIV_LIMIT - 1, RECIP_DIV_LIMIT]
ORACLE_NODES = [2, 3, 5, 257]


def _planted(n, top, seed, mode):
    """Loads with ``max - min == top`` whose differences sit at ``k d`` and
    ``k d +- 1`` for every denominator ``d`` dividing :data:`PLANT`."""
    rng = np.random.default_rng(seed)
    small = rng.integers(0, 4, n)  # flows of 0..3 tokens
    large = rng.integers(0, top // PLANT, n)  # differences near the bound
    k = np.where(rng.random(n) < 0.5, small, large)
    loads = top - k * PLANT - rng.integers(0, 2, n)
    loads[0], loads[-1] = top, 0
    return loads.astype(np.int64 if mode == "discrete" else np.float64)


def _rngs(B, seed=0):
    return [np.random.default_rng([seed, b]) for b in range(B)]


def _same(got, want):
    """Bit-for-bit: dtype, shape and bytes."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _same_next_draw(rngs, ref_rngs):
    return all(r.integers(0, 2**62) == q.integers(0, 2**62) for r, q in zip(rngs, ref_rngs))


@pytest.mark.parametrize("top", ORACLE_TOPS, ids=["fast", "exact"])
@pytest.mark.parametrize("n", ORACLE_NODES)
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
class TestPartnerRoundOracle:
    """Every entry point equals the literal round bit for bit, on both
    sides of the reciprocal fast path's bound."""

    def test_step(self, mode, n, top):
        bal = RandomPartnerBalancer(mode)
        for seed in range(3):
            loads = _planted(n, top, seed, mode)
            rng, ref_rng = _rngs(1, seed)[0], _rngs(1, seed)[0]
            got = bal.step(loads, rng)
            want, links, deg = _literal_round(loads, ref_rng, mode == "discrete")
            assert _same(got, want), seed
            assert _same(bal.last_links, links) and _same(bal.last_degrees, deg)
            assert _same_next_draw([rng], [ref_rng])

    @pytest.mark.parametrize("B", [1, 3, 64])
    def test_step_batch(self, mode, n, top, B):
        loads = np.stack([_planted(n, top, seed, mode) for seed in range(B)])
        rngs, ref_rngs = _rngs(B), _rngs(B)
        bal = RandomPartnerBalancer(mode)
        got = bal.step_batch(np.ascontiguousarray(loads.T), rngs)
        refs = [_literal_round(loads[b], ref_rngs[b], mode == "discrete") for b in range(B)]
        assert _same(got, np.stack([r[0] for r in refs], axis=1))
        assert len(bal.last_links) == len(bal.last_degrees) == B
        for b, (_, links, deg) in enumerate(refs):
            assert _same(bal.last_links[b], links) and _same(bal.last_degrees[b], deg), b
        assert _same_next_draw(rngs, ref_rngs)

    @pytest.mark.parametrize("B", [None, 3], ids=["1d", "replica-major"])
    def test_partner_round(self, mode, n, top, B):
        round_fn = partner_round_discrete if mode == "discrete" else partner_round_continuous
        if B is None:
            loads = _planted(n, top, 7, mode)
            rng, ref_rng = _rngs(1, 7)[0], _rngs(1, 7)[0]
            got = round_fn(loads, rng)
            assert _same(got, _literal_round(loads, ref_rng, mode == "discrete")[0])
            assert _same_next_draw([rng], [ref_rng])
            return
        loads = np.stack([_planted(n, top, seed, mode) for seed in range(B)])
        rngs, ref_rngs = _rngs(B), _rngs(B)
        got = round_fn(loads, rngs)
        want = [_literal_round(loads[b], ref_rngs[b], mode == "discrete")[0] for b in range(B)]
        assert _same(got, np.stack(want))
        assert _same_next_draw(rngs, ref_rngs)


class TestRoundShape:
    def test_reciprocal_table_uses_shared_helper(self):
        table = _quarter_reciprocals(9)
        assert table[0] == 0.0
        assert _same(table[1:], biased_reciprocal(4 * np.arange(1, 10)))
        assert not table.flags.writeable

    def test_generator_count_checked(self):
        with pytest.raises(ValueError, match="generators"):
            partner_round_discrete(np.ones((3, 8), dtype=np.int64), _rngs(2))

    def test_links_read_lazily_from_held_picks(self):
        bal = RandomPartnerBalancer("discrete")
        assert bal.last_links is None and bal.last_degrees is None
        rng = np.random.default_rng(5)
        bal.step(np.arange(16, dtype=np.int64), rng)
        first = bal.last_links
        assert bal.last_links is first  # materialised once per round
        bal.step(np.arange(16, dtype=np.int64), rng)
        assert bal.last_links is not first

    def test_pickle_drops_work_arrays(self):
        bal = RandomPartnerBalancer("discrete")
        bal.step_batch(np.ones((64, 4), dtype=np.int64), _rngs(4))
        links = bal.last_links
        clone = pickle.loads(pickle.dumps(bal))
        assert clone._work == {}
        assert all(_same(a, b) for a, b in zip(clone.last_links, links))
