"""Unit tests for Monte-Carlo replication."""

import os
import warnings

import numpy as np
import pytest

from repro.simulation.montecarlo import MonteCarloResult, monte_carlo, trial_rngs


def scalar_trial(rng):
    return float(rng.uniform())


def dict_trial(rng, offset=0.0):
    u = rng.uniform()
    return {"u": u + offset, "indicator": 1.0 if u > 0.5 else 0.0}


def partition_aware_trial(rng, partitions=None):
    """Trial that reports the partitions spec it was handed."""
    from repro.graphs.partition import parse_partitions

    blocks = parse_partitions(partitions)[0] if partitions is not None else 0
    return {"blocks": float(blocks), "u": float(rng.uniform())}


class TestExecution:
    def test_scalar_trials_aggregate(self):
        res = monte_carlo(scalar_trial, trials=50, root_seed=1)
        assert res.trials == 50
        assert 0.0 < res.mean() < 1.0
        assert res.samples["value"].shape == (50,)

    def test_dict_trials_aggregate(self):
        res = monte_carlo(dict_trial, trials=30, root_seed=2)
        assert set(res.samples) == {"u", "indicator"}
        assert 0 <= res.fraction_true("indicator") <= 1

    def test_kwargs_forwarded(self):
        res = monte_carlo(dict_trial, trials=10, root_seed=3, trial_kwargs={"offset": 100.0})
        assert res.mean("u") > 100.0

    def test_reproducible(self):
        a = monte_carlo(scalar_trial, trials=20, root_seed=7)
        b = monte_carlo(scalar_trial, trials=20, root_seed=7)
        assert np.array_equal(a.samples["value"], b.samples["value"])

    def test_trials_independent(self):
        res = monte_carlo(scalar_trial, trials=20, root_seed=7)
        assert np.unique(res.samples["value"]).size == 20

    def test_parallel_equals_serial(self):
        serial = monte_carlo(scalar_trial, trials=16, root_seed=5, workers=1)
        parallel = monte_carlo(scalar_trial, trials=16, root_seed=5, workers=4)
        assert np.array_equal(serial.samples["value"], parallel.samples["value"])

    def test_trial_rngs_match_pool_streams(self):
        rngs = trial_rngs(9, 3)
        direct = [float(r.uniform()) for r in rngs]
        via_mc = monte_carlo(scalar_trial, trials=3, root_seed=9)
        assert direct == pytest.approx(via_mc.samples["value"].tolist())

    def test_at_least_one_trial(self):
        with pytest.raises(ValueError):
            monte_carlo(scalar_trial, trials=0)

    def test_partitions_forwarded_to_trial(self):
        res = monte_carlo(partition_aware_trial, trials=4, root_seed=1, partitions="4:bfs")
        assert (res.samples["blocks"] == 4.0).all()

    def test_partitions_default_not_forwarded(self):
        res = monte_carlo(partition_aware_trial, trials=4, root_seed=1)
        assert (res.samples["blocks"] == 0.0).all()

    def test_partitions_do_not_change_streams(self):
        plain = monte_carlo(partition_aware_trial, trials=8, root_seed=5)
        parted = monte_carlo(partition_aware_trial, trials=8, root_seed=5, partitions=2)
        assert np.array_equal(plain.samples["u"], parted.samples["u"])

    def test_bad_partitions_spec_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            monte_carlo(partition_aware_trial, trials=2, partitions="2:metis")
        with pytest.raises(ValueError, match="partitions must be >= 1"):
            monte_carlo(partition_aware_trial, trials=2, partitions=0)

    def test_bad_workers_value_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            monte_carlo(scalar_trial, trials=3, workers="gpu")


class _BatchableTrial:
    """Serial callable plus the vectorized `run_batch` backend."""

    def __call__(self, rng, offset=0.0):
        return float(rng.uniform()) + offset

    def run_batch(self, rngs, offset=0.0):
        return {"value": np.asarray([float(r.uniform()) + offset for r in rngs])}


class _BadBatchTrial(_BatchableTrial):
    def run_batch(self, rngs, offset=0.0):
        return {"value": np.zeros(1)}  # wrong length


class TestVectorizedBackend:
    def test_vectorized_equals_serial(self):
        trial = _BatchableTrial()
        serial = monte_carlo(trial, trials=12, root_seed=4, workers=1)
        vec = monte_carlo(trial, trials=12, root_seed=4, workers="vectorized")
        assert np.array_equal(serial.samples["value"], vec.samples["value"])

    def test_vectorized_forwards_kwargs(self):
        trial = _BatchableTrial()
        vec = monte_carlo(
            trial, trials=5, root_seed=4, workers="vectorized", trial_kwargs={"offset": 10.0}
        )
        assert vec.mean() > 10.0

    def test_vectorized_falls_back_without_run_batch(self):
        serial = monte_carlo(scalar_trial, trials=8, root_seed=2, workers=1)
        vec = monte_carlo(scalar_trial, trials=8, root_seed=2, workers="vectorized")
        assert np.array_equal(serial.samples["value"], vec.samples["value"])

    def test_wrong_sample_count_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            monte_carlo(_BadBatchTrial(), trials=4, workers="vectorized")

    def test_e08_trial_vectorized_matches_serial(self):
        from repro.experiments.e08_random_continuous import trial_drop_and_rounds

        kw = {"n": 32, "c": 1.0, "max_rounds": 300}
        serial = monte_carlo(trial_drop_and_rounds, trials=4, root_seed=6, workers=1, trial_kwargs=kw)
        vec = monte_carlo(
            trial_drop_and_rounds, trials=4, root_seed=6, workers="vectorized", trial_kwargs=kw
        )
        assert np.array_equal(
            serial.samples["rounds_to_target"], vec.samples["rounds_to_target"], equal_nan=True
        )
        assert np.allclose(serial.samples["mean_ratio"], vec.samples["mean_ratio"], rtol=1e-9)

    def test_e09_trial_vectorized_matches_serial(self):
        from repro.experiments.e09_random_discrete import trial_discrete_partner

        kw = {"n": 32, "total": 3300, "c": 1.0, "max_rounds": 200}
        serial = monte_carlo(trial_discrete_partner, trials=4, root_seed=6, workers=1, trial_kwargs=kw)
        vec = monte_carlo(
            trial_discrete_partner, trials=4, root_seed=6, workers="vectorized", trial_kwargs=kw
        )
        for key in serial.samples:
            assert np.allclose(
                serial.samples[key], vec.samples[key], rtol=1e-9, equal_nan=True
            ), key


class _WorkersProbeTrial:
    """Reports the ``workers`` its ``run_batch`` was handed (0 when the
    serial loop called the trial instead)."""

    def __call__(self, rng):
        return {"workers": 0.0}

    def run_batch(self, rngs, workers=1):
        return {"workers": np.full(len(rngs), float(workers))}


def pid_trial(rng):
    return float(os.getpid())


class TestWorkersForwarding:
    """``monte_carlo`` owns no processes: ``workers`` reaches ``run_batch``."""

    @pytest.mark.parametrize("spec,expected", [
        (3, 3.0), ("3xvectorized", 3.0), ("vectorized", 1.0), (1, 0.0),
    ])
    def test_workers_forwarded_to_run_batch(self, spec, expected):
        res = monte_carlo(_WorkersProbeTrial(), trials=4, workers=spec)
        assert (res.samples["workers"] == expected).all()

    def test_trial_without_run_batch_runs_in_calling_process(self):
        res = monte_carlo(pid_trial, trials=3, workers=2)
        assert (res.samples["value"] == float(os.getpid())).all()

    def test_sharded_spec_warns_once(self, monkeypatch):
        """Only ``simulate``, which starts the shard processes, warns of
        oversubscription; ``monte_carlo`` does not warn a second time."""
        from repro.experiments.e08_random_continuous import trial_drop_and_rounds
        from repro.simulation import sharding

        monkeypatch.setattr(sharding, "usable_cpus", lambda: 1)
        kw = {"n": 32, "c": 1.0, "max_rounds": 300}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            monte_carlo(trial_drop_and_rounds, trials=4, root_seed=6,
                        workers="2xvectorized", trial_kwargs=kw)
        assert sum("exceeds" in str(w.message) for w in caught) == 1

    def test_trial_without_run_batch_does_not_warn(self, monkeypatch):
        from repro.simulation import sharding

        monkeypatch.setattr(sharding, "usable_cpus", lambda: 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = monte_carlo(pid_trial, trials=3, workers=8)
        assert res.trials == 3

    def test_e09_trial_sharded_matches_vectorized(self):
        from repro.experiments.e09_random_discrete import trial_discrete_partner

        kw = {"n": 32, "total": 3300, "c": 1.0, "max_rounds": 200}
        vec = monte_carlo(trial_discrete_partner, trials=5, root_seed=8,
                          workers="vectorized", trial_kwargs=kw)
        sha = monte_carlo(trial_discrete_partner, trials=5, root_seed=8,
                          workers="2xvectorized", trial_kwargs=kw)
        for key in ("rounds_to_threshold", "success_at_bound"):
            assert np.array_equal(vec.samples[key], sha.samples[key], equal_nan=True), key
        assert np.allclose(vec.samples["mean_ratio"], sha.samples["mean_ratio"],
                           rtol=1e-12, equal_nan=True)


class TestStatistics:
    def make(self, values):
        return MonteCarloResult(samples={"value": np.asarray(values, dtype=float)}, trials=len(values))

    def test_mean_std(self):
        r = self.make([1, 2, 3, 4])
        assert r.mean() == pytest.approx(2.5)
        assert r.std() == pytest.approx(np.std([1, 2, 3, 4], ddof=1))

    def test_quantile_minmax(self):
        r = self.make([1, 2, 3, 4])
        assert r.quantile(0.5) == pytest.approx(2.5)
        assert r.min() == 1 and r.max() == 4

    def test_single_trial_std_zero(self):
        r = self.make([2.0])
        assert r.std() == 0.0
        assert r.confidence_halfwidth() == float("inf")

    def test_confidence_halfwidth_shrinks(self):
        wide = self.make([0, 1] * 5)
        wider = self.make([0, 1] * 50)
        assert wider.confidence_halfwidth() < wide.confidence_halfwidth()
