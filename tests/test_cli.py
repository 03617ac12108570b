"""Tests for the command-line interface (wiring-level)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        p = build_parser()
        assert p.parse_args(["topologies"]).command == "topologies"
        assert p.parse_args(["run", "--balancer", "diffusion", "--topology", "cycle:8"]).command == "run"


class TestCommands:
    def test_topologies(self, capsys):
        assert main(["topologies", "--spec", "cycle:8", "petersen"]) == 0
        out = capsys.readouterr().out
        assert "cycle:8" in out and "petersen" in out

    def test_run_continuous(self, capsys):
        rc = main([
            "run", "--balancer", "diffusion", "--topology", "torus:4x4",
            "--rounds", "50", "--eps", "0.01",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rounds" in out and "phi_final" in out

    @pytest.mark.parametrize("eps", [[], ["--eps", "0.001"]], ids=["rounds", "eps"])
    def test_one_replica_run_records_auto_and_reports_final_discrepancy(
        self, capsys, monkeypatch, eps
    ):
        """``run`` leaves ``record`` at the engines' ``"auto"``; the summary's
        discrepancy comes from the final loads and equals a full record's."""
        import numpy as np

        from repro.core.protocols import get_balancer
        from repro.graphs.generators import by_name
        from repro.simulation import engine
        from repro.simulation.initial import make_loads
        from repro.simulation.stopping import MaxRounds, PotentialFractionBelow

        asked = []
        real = engine.simulate

        def spy(*args, **kwargs):
            asked.append(kwargs.get("record", "auto"))
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "simulate", spy)
        assert main(["run", "--balancer", "diffusion-discrete", "--topology", "torus:8x8",
                     "--rounds", "300", "--seed", "2"] + eps) == 0
        assert asked == ["auto"]
        printed = {key.strip(): value.strip() for key, value in
                   (line.split(":", 1) for line in capsys.readouterr().out.splitlines())}
        topo = by_name("torus:8x8")
        loads = make_loads("point", topo.n, rng=np.random.default_rng(2), discrete=True)
        rules = [MaxRounds(300)] if not eps else [PotentialFractionBelow(1e-3), MaxRounds(300)]
        full = engine.Simulator(get_balancer("diffusion-discrete", topo), rules).run(loads, 2)
        assert printed["discrepancy_final"] == str(full.last_discrepancy)
        assert printed["rounds"] == str(full.rounds)

    def test_run_discrete_with_zipf(self, capsys):
        rc = main([
            "run", "--balancer", "diffusion-discrete", "--topology", "hypercube:4",
            "--loads", "zipf", "--rounds", "30",
        ])
        assert rc == 0

    def test_compare(self, capsys):
        rc = main([
            "compare", "--topology", "torus:4x4",
            "--balancers", "diffusion", "fos",
            "--eps", "0.01", "--max-rounds", "5000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "diffusion" in out and "fos" in out

    def test_compare_ends_stalled_discrete_runs(self, capsys):
        """At the default eps the discrete schemes stall far above
        eps*Phi0; compare ends them by stagnation instead of spinning to
        --max-rounds, and a discrete run that does reach eps is untouched."""
        from repro.cli import COMPARE_STAGNATION_PATIENCE

        rc = main([
            "compare", "--topology", "torus:8x8", "--seed", "3",
            "--balancers", "diffusion-discrete", "async-diffusion-discrete", "fos-floor",
        ])
        assert rc == 0
        rows = {
            line.split()[0]: line.split()
            for line in capsys.readouterr().out.splitlines()
            if line.split() and line.split()[0] in {
                "diffusion-discrete", "async-diffusion-discrete", "fos-floor"}
        }
        for name in ("diffusion-discrete", "async-diffusion-discrete"):
            assert rows[name][-1] == f"stagnation({COMPARE_STAGNATION_PATIENCE})"
            assert int(rows[name][1]) < 2 * COMPARE_STAGNATION_PATIENCE
        assert rows["fos-floor"][1] == "30"
        assert rows["fos-floor"][-1] == "potential<=0.0001*Phi0"

    def test_sweep(self, capsys):
        rc = main([
            "sweep", "--topologies", "torus:4x4", "cycle:8",
            "--balancers", "diffusion", "fos",
            "--eps", "0.01",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "net_movement" in out
        assert out.count("torus:4x4") == 2

    def test_verify(self, capsys):
        assert main(["verify", "--topology", "cycle:12", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 1: OK" in out
        assert "Lemma 10" in out

    def test_bounds(self, capsys):
        assert main(["bounds", "--topology", "cycle:16"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 4" in out and "Theorem 14" in out

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "e99"]) == 2

    def test_experiment_markdown(self, capsys):
        assert main(["experiment", "e07", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("**E07")
        assert "|" in out

    def test_run_with_replicas(self, capsys):
        rc = main([
            "run", "--balancer", "random-partner", "--topology", "torus:4x4",
            "--rounds", "20", "--replicas", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replicas" in out and "rounds_median" in out

    def test_run_replicas_ops_batched(self, capsys):
        # OPS gained a batched kernel: --replicas now runs it as an ensemble.
        rc = main([
            "run", "--balancer", "ops", "--topology", "hypercube:3",
            "--rounds", "5", "--replicas", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replicas: 4" in " ".join(out.split())

    def test_run_replicas_sharded_workers(self, capsys):
        rc = main([
            "run", "--balancer", "matching-de", "--topology", "torus:4x4",
            "--rounds", "20", "--replicas", "4", "--workers", "2xvectorized",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replicas" in out and "rounds_median" in out

    def test_run_bad_workers_spec_errors(self, capsys):
        rc = main([
            "run", "--balancer", "diffusion", "--topology", "torus:4x4",
            "--rounds", "5", "--replicas", "2", "--workers", "fast",
        ])
        assert rc == 2
        assert "workers" in capsys.readouterr().err

    def test_run_bad_workers_rejected_even_without_replicas(self, capsys):
        rc = main([
            "run", "--balancer", "diffusion", "--topology", "torus:4x4",
            "--rounds", "5", "--workers", "fast",
        ])
        assert rc == 2
        assert "workers" in capsys.readouterr().err

    def test_sweep_bad_workers_spec_errors(self, capsys):
        rc = main([
            "sweep", "--topologies", "torus:4x4", "--balancers", "diffusion",
            "--eps", "0.01", "--workers", "bogus",
        ])
        assert rc == 2
        assert "workers" in capsys.readouterr().err

    def test_sweep_with_replicas(self, capsys):
        rc = main([
            "sweep", "--topologies", "torus:4x4", "--balancers", "diffusion",
            "--eps", "0.01", "--replicas", "3",
        ])
        assert rc == 0
        assert "3 replicas" in capsys.readouterr().out


class TestPartitionsFlag:
    def test_partition_info_default_specs(self, capsys):
        rc = main(["partition-info", "--topology", "torus:8x8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "edge_cut" in out and "halo_volume" in out and "imbalance" in out
        assert "contiguous" in out and "bfs" in out
        # Overlap-headroom columns: per-block interior/boundary row counts.
        assert "interior" in out and "boundary" in out and "bound_frac" in out

    def test_partition_info_explicit_specs(self, capsys):
        rc = main([
            "partition-info", "--topology", "hypercube:5",
            "--partitions", "2:contiguous", "7:bfs",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "7:bfs" in out

    def test_partition_info_bad_spec_errors(self, capsys):
        rc = main(["partition-info", "--topology", "torus:4x4", "--partitions", "3:metis"])
        assert rc == 2
        assert "strategy" in capsys.readouterr().err

    def test_partition_info_json(self, capsys):
        """--json emits machine-readable metrics (no table scraping)."""
        import json

        rc = main([
            "partition-info", "--topology", "torus:8x8", "--json",
            "--partitions", "4:bfs", "2:contiguous",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["topology"].startswith("torus") and doc["n"] == 64
        assert [row["spec"] for row in doc["partitions"]] == ["4:bfs", "2:contiguous"]
        row = doc["partitions"][0]
        assert row["blocks"] == 4 and row["strategy"] == "bfs"
        for key in ("edge_cut", "halo_volume", "imbalance", "block_min", "block_max"):
            assert key in row
        # Split-phase headroom report: per-block interior/boundary rows
        # partition the 64 owned rows, consistent with the summary keys.
        assert len(row["interior_by_block"]) == 4
        assert len(row["boundary_by_block"]) == 4
        assert sum(row["interior_by_block"]) == row["interior_rows"]
        assert sum(row["boundary_by_block"]) == row["boundary_rows"]
        assert row["interior_rows"] + row["boundary_rows"] == 64
        assert 0.0 < row["boundary_fraction"] <= 1.0

    def test_run_partitioned_matches_unpartitioned(self, capsys):
        """--partitions is an execution knob: the trace summary is identical.

        Both paths run a 2-replica ensemble (the in-process partitioned
        engine records statistics from the assembled global matrix, so
        even the floats match the batched engine exactly).
        """
        args = [
            "run", "--balancer", "diffusion-discrete", "--topology", "torus:4x4",
            "--rounds", "25", "--replicas", "2",
        ]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--partitions", "4:bfs"]) == 0
        partitioned = capsys.readouterr().out
        assert "partitioned" in partitioned and "halo values" in partitioned
        for line in plain.strip().splitlines():
            assert line in partitioned

    def test_one_replica_summary_keys_do_not_depend_on_engine(self, capsys):
        """One replica prints the one-replica keys on every engine."""
        base = [
            "run", "--balancer", "diffusion", "--topology", "torus:4x4", "--rounds", "10",
        ]
        keys = []
        for extra in ([], ["--partitions", "2"], ["--partitions", "2", "--workers", "2"]):
            assert main(base + extra) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            keys.append([line.split(":", 1)[0].strip() for line in lines
                         if not line.lstrip().startswith("partitioned")])
        assert keys[0] == [
            "balancer", "rounds", "phi0", "phi_final", "discrepancy_final",
            "mean_drop_factor", "stopped_by",
        ]
        assert keys[1] == keys[0] and keys[2] == keys[0]

    def test_run_partitioned_with_replicas(self, capsys):
        rc = main([
            "run", "--balancer", "fos", "--topology", "torus:4x4",
            "--rounds", "15", "--replicas", "3", "--partitions", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replicas" in out and "partitioned" in out

    def test_run_partitioned_process_mode_via_workers(self, capsys):
        rc = main([
            "run", "--balancer", "diffusion", "--topology", "torus:4x4",
            "--rounds", "10", "--partitions", "2", "--workers", "2",
        ])
        assert rc == 0
        assert "process" in capsys.readouterr().out

    def test_run_bad_partitions_spec_errors(self, capsys):
        rc = main([
            "run", "--balancer", "diffusion", "--topology", "torus:4x4",
            "--rounds", "5", "--partitions", "nope",
        ])
        assert rc == 2
        assert "partitions" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["nope", "0", "4:metis"])
    def test_mpi_run_bad_partitions_spec_errors_like_run(self, capsys, monkeypatch, spec):
        """mpi-run refuses a bad --partitions spec with run's exit 2 and
        message, before anything reaches MPI (stubbed: no mpi4py needed)."""
        import repro.distributed.mpi as mpi_mod

        def unreachable(*args, **kwargs):
            raise AssertionError("a bad spec must be refused before the MPI run")

        monkeypatch.setattr(mpi_mod, "mpi_available", lambda: True)
        monkeypatch.setattr(mpi_mod, "run_partitioned_mpi", unreachable)
        common = ["--balancer", "diffusion", "--topology", "torus:4x4",
                  "--rounds", "5", "--partitions", spec]
        assert main(["run", *common]) == 2
        expected = capsys.readouterr().err
        assert main(["mpi-run", *common]) == 2
        assert capsys.readouterr().err == expected
        assert "partition" in expected

    def test_run_zero_partitions_errors(self, capsys):
        rc = main([
            "run", "--balancer", "diffusion", "--topology", "torus:4x4",
            "--rounds", "5", "--partitions", "0",
        ])
        assert rc == 2
        assert "partitions must be >= 1" in capsys.readouterr().err

    def test_run_unsupported_balancer_with_partitions_errors(self, capsys):
        rc = main([
            "run", "--balancer", "ops", "--topology", "torus:4x4",
            "--rounds", "5", "--partitions", "2",
        ])
        assert rc == 2
        assert "partitioned" in capsys.readouterr().err

    def test_run_negative_workers_clear_error(self, capsys):
        rc = main([
            "run", "--balancer", "diffusion", "--topology", "torus:4x4",
            "--rounds", "5", "--replicas", "2", "--workers", "-3",
        ])
        assert rc == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_sweep_with_partitions(self, capsys):
        rc = main([
            "sweep", "--topologies", "torus:4x4", "--balancers", "diffusion", "ops",
            "--eps", "0.01", "--partitions", "2:bfs",
        ])
        assert rc == 0
        assert "net_movement" in capsys.readouterr().out

    def test_sweep_bad_partitions_spec_errors(self, capsys):
        rc = main([
            "sweep", "--topologies", "torus:4x4", "--balancers", "diffusion",
            "--eps", "0.01", "--partitions", "4:metis",
        ])
        assert rc == 2
        assert "strategy" in capsys.readouterr().err


class TestBackendFlag:
    def test_backends_command(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "numpy" in out and "scipy" in out and "numba" in out
        assert "'auto' resolves to" in out

    def test_backends_json(self, capsys):
        import json

        assert main(["backends", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in doc["backends"]}
        assert {"numpy", "scipy", "numba"} <= names
        assert doc["auto"] in names
        numpy_row = next(row for row in doc["backends"] if row["name"] == "numpy")
        assert numpy_row["available"] is True

    def test_run_with_numpy_backend(self, capsys):
        rc = main([
            "run", "--balancer", "diffusion", "--topology", "torus:4x4",
            "--rounds", "20", "--backend", "numpy",
        ])
        assert rc == 0
        assert "rounds" in capsys.readouterr().out

    def test_run_replicas_with_backend(self, capsys):
        rc = main([
            "run", "--balancer", "diffusion-discrete", "--topology", "torus:4x4",
            "--rounds", "15", "--replicas", "3", "--backend", "numpy",
        ])
        assert rc == 0
        assert "replicas" in capsys.readouterr().out

    def test_run_backend_matches_default_output(self, capsys):
        """Backends are bit-for-bit interchangeable: same trace summary."""
        args = [
            "run", "--balancer", "diffusion-discrete", "--topology", "torus:4x4",
            "--rounds", "25",
        ]
        assert main(args + ["--backend", "numpy"]) == 0
        forced = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == forced

    def test_run_unavailable_backend_errors(self, capsys, monkeypatch):
        import repro.core.backends as B

        monkeypatch.setattr(B.NumbaBackend, "available", classmethod(lambda cls: False))
        rc = main([
            "run", "--balancer", "diffusion", "--topology", "torus:4x4",
            "--rounds", "5", "--backend", "numba",
        ])
        assert rc == 2
        assert "not available" in capsys.readouterr().err

    def test_run_unknown_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "run", "--balancer", "diffusion", "--topology", "torus:4x4",
                "--backend", "cuda",
            ])

    def test_sweep_with_backend(self, capsys):
        rc = main([
            "sweep", "--topologies", "torus:4x4", "--balancers", "diffusion", "fos",
            "--eps", "0.01", "--backend", "numpy",
        ])
        assert rc == 0
        assert "net_movement" in capsys.readouterr().out
