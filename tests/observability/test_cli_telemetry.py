"""CLI wiring for telemetry: --trace/--metrics flags, trace-report
(including --follow), --serve-metrics, and the top dashboard."""

import json

import pytest

from repro.cli import build_parser, main
from repro.observability import NULL_RECORDER, get_recorder, load_trace, validate_trace
from repro.observability.server import get_status_board


@pytest.fixture(autouse=True)
def _recorder_stays_clean():
    yield
    # Every command must shut its recorder down on exit.
    assert get_recorder() is NULL_RECORDER
    get_status_board().clear()


class TestParser:
    def test_telemetry_flags_parse(self):
        p = build_parser()
        args = p.parse_args([
            "run", "--balancer", "diffusion", "--topology", "cycle:8",
            "--trace", "t.jsonl", "--metrics",
        ])
        assert args.trace == "t.jsonl" and args.metrics is True
        args = p.parse_args(["trace-report", "t.jsonl", "--json"])
        assert args.command == "trace-report" and args.json

    def test_worker_log_level(self):
        args = build_parser().parse_args(["worker", "--log-level", "debug"])
        assert args.log_level == "debug"
        args = build_parser().parse_args([
            "dispatch", "--workers", "h:1", "--balancer", "diffusion",
            "--topology", "cycle:8",
        ])
        assert args.log_level == "info"

    def test_serve_metrics_flag_on_worker_and_dispatch(self):
        p = build_parser()
        args = p.parse_args(["worker", "--serve-metrics", "0.0.0.0:9099"])
        assert args.serve_metrics == "0.0.0.0:9099"
        args = p.parse_args([
            "dispatch", "--workers", "h:1", "--balancer", "diffusion",
            "--topology", "cycle:8", "--serve-metrics", "127.0.0.1:9100",
        ])
        assert args.serve_metrics == "127.0.0.1:9100"
        args = p.parse_args(["worker"])
        assert args.serve_metrics is None

    def test_trace_report_follow_flags(self):
        args = build_parser().parse_args([
            "trace-report", "t.jsonl", "--follow", "--interval", "0.2",
            "--frames", "3",
        ])
        assert args.follow and args.interval == 0.2 and args.frames == 3
        args = build_parser().parse_args(["trace-report", "t.jsonl"])
        assert not args.follow and args.frames == 0

    def test_top_requires_exactly_one_source(self):
        p = build_parser()
        args = p.parse_args(["top", "--connect", "h:9099"])
        assert args.connect == "h:9099" and args.trace is None
        args = p.parse_args(["top", "--trace", "t.jsonl", "--follow", "--no-clear"])
        assert args.trace == "t.jsonl" and args.follow and args.no_clear
        with pytest.raises(SystemExit):
            p.parse_args(["top"])
        with pytest.raises(SystemExit):
            p.parse_args(["top", "--connect", "h:1", "--trace", "t.jsonl"])


class TestRunTraced:
    def test_run_writes_valid_trace(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        rc = main([
            "run", "--balancer", "diffusion", "--topology", "torus:4x4",
            "--rounds", "20", "--trace", path,
        ])
        assert rc == 0
        events = load_trace(path)
        assert validate_trace(events) == []
        rounds = [ev for ev in events
                  if ev.get("ev") == "span" and ev["name"] == "round"]
        assert len(rounds) == 20

    def test_run_metrics_prints_prom(self, capsys):
        rc = main([
            "run", "--balancer", "diffusion", "--topology", "torus:4x4",
            "--rounds", "10", "--metrics",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_round_seconds summary" in out
        assert "repro_round_seconds_count 10" in out

    def test_traced_run_matches_untraced(self, tmp_path, capsys):
        argv = ["run", "--balancer", "diffusion-discrete",
                "--topology", "torus:4x4", "--rounds", "25"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--trace", str(tmp_path / "t.jsonl")]) == 0
        traced = capsys.readouterr().out
        assert plain == traced  # summary (phi, discrepancy...) identical

    def test_partitioned_run_traced(self, tmp_path, capsys):
        path = str(tmp_path / "part.jsonl")
        rc = main([
            "run", "--balancer", "diffusion", "--topology", "torus:4x4",
            "--rounds", "15", "--partitions", "2", "--trace", path,
        ])
        assert rc == 0
        events = load_trace(path)
        assert validate_trace(events) == []
        names = {ev["name"] for ev in events if ev.get("ev") == "span"}
        assert "round" in names
        rounds = [ev for ev in events
                  if ev.get("ev") == "span" and ev["name"] == "round"]
        assert {ev["engine"] for ev in rounds} == {"partitioned"}


    @pytest.mark.parametrize("replicas,engine", [(1, "serial"), (4, "ensemble")])
    def test_run_event_counts(self, tmp_path, capsys, replicas, engine):
        """A traced run emits one round span per round from its engine,
        one phi event per state and no shard span."""
        path = str(tmp_path / "counts.jsonl")
        assert main([
            "run", "--balancer", "diffusion", "--topology", "torus:8x8",
            "--rounds", "20", "--replicas", str(replicas), "--trace", path,
        ]) == 0
        counts = {}
        for ev in load_trace(path):
            if ev.get("ev") != "meta":
                key = (ev["ev"], ev["name"], ev.get("engine"))
                counts[key] = counts.get(key, 0) + 1
        assert counts == {
            ("event", "convergence_params", None): 1,
            ("event", "phi", None): 21,
            ("span", "round", engine): 20,
            ("event", "convergence_summary", None): 1,
        }


class TestTraceReport:
    @pytest.fixture()
    def trace_path(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        assert main([
            "run", "--balancer", "diffusion", "--topology", "torus:4x4",
            "--rounds", "10", "--trace", path,
        ]) == 0
        capsys.readouterr()
        return path

    def test_text(self, trace_path, capsys):
        assert main(["trace-report", trace_path]) == 0
        out = capsys.readouterr().out
        assert "rounds observed: 10" in out
        assert "round" in out and "span" in out

    def test_json(self, trace_path, capsys):
        assert main(["trace-report", trace_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rounds"] == 10
        assert report["totals"]["round"]["count"] == 10
        assert report["meta"]["schema"] == 1

    def test_missing_file(self, tmp_path, capsys):
        assert main(["trace-report", str(tmp_path / "nope.jsonl")]) == 2
        assert "nope" in capsys.readouterr().err

    def test_invalid_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ev":"span","name":"x"}\n')
        assert main(["trace-report", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "invalid trace" in err

    def test_convergence_columns_in_text_report(self, trace_path, capsys):
        assert main(["trace-report", trace_path]) == 0
        out = capsys.readouterr().out
        assert "convergence: verdict=OK" in out
        assert "drop factor: empirical" in out
        import re
        assert re.search(r"round\s+phi\s+drop\s+bound", out)  # table header

    def test_follow_single_frame_text(self, trace_path, capsys):
        assert main([
            "trace-report", trace_path, "--follow", "--frames", "1",
            "--interval", "0.01",
        ]) == 0
        out = capsys.readouterr().out
        assert "rounds observed: 10" in out
        assert "convergence: verdict=OK" in out

    def test_follow_single_frame_json(self, trace_path, capsys):
        assert main([
            "trace-report", trace_path, "--json", "--follow", "--frames", "1",
            "--interval", "0.01",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rounds"] == 10
        assert report["convergence"]["verdict"] == "ok"

    def test_follow_bad_json_line_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main([
            "trace-report", str(bad), "--follow", "--frames", "1",
        ]) == 2
        assert "invalid trace" in capsys.readouterr().err


class TestTop:
    @pytest.fixture()
    def trace_path(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        assert main([
            "run", "--balancer", "diffusion", "--topology", "torus:4x4",
            "--rounds", "10", "--trace", path,
        ]) == 0
        capsys.readouterr()
        return path

    def test_top_from_trace(self, trace_path, capsys):
        assert main(["top", "--trace", trace_path, "--no-clear"]) == 0
        out = capsys.readouterr().out
        assert "repro-lb top" in out
        assert "Phi" in out

    def test_top_unreachable_endpoint_still_renders(self, capsys):
        assert main([
            "top", "--connect", "127.0.0.1:9", "--frames", "1", "--no-clear",
        ]) == 0
        assert "unreachable" in capsys.readouterr().out
