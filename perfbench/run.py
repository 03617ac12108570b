#!/usr/bin/env python3
"""Time-to-balance benchmark for the diffusion load-balancing runtime.

Run from the repository root::

    python3 perfbench/run.py --workload serial-continuous --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

One invocation runs one workload (see ``workloads.py``):

1. makes the workload's inputs from ``--seed``;
2. sets up several times (topology, operator, partition, worker spawn and
   rendezvous, as the workload needs) and reports the median as
   ``setup_s``;
3. runs the workload once to warm up, then again and again until
   ``--seconds`` have passed, verifying every run outside its timed
   interval, and finally compares one replica with an untimed serial run;
4. prints one line per metric, a host stamp, and as the last line a JSON
   object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics from runs with no
instrumentation.  ``--trace 1`` alternates plain runs with runs in which a
``probe.Probe`` wraps the program's layer functions, prints the layer
ledger and reports the per-layer metrics; on ``dispatch-partitioned``
those runs also install the program's own recorder, whose worker spans
give the per-worker phases.

The benchmark refuses to run while any ``REPRO_*`` variable is set, runs
NumPy's BLAS on one thread per process, and writes nothing outside the
checkout (trace files go to a temporary directory under it and are
removed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

#: Longest a run may take before it aborts (and cleans up) on its own.
WATCHDOG_S = 170

#: Most of the measuring time that set-ups between runs may take.
SETUP_SHARE = 0.1

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "time_to_balance_s": "s",
    "replica_rounds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rounds_to_balance": "rounds",
    "verified_frac": "frac",
}

PER_LAYER = {
    "core.step_ms": "ms",
    "core.kernel_ms": "ms",
    "core.operator_lookup_ms": "ms",
    "core.validate_ms": "ms",
    "core.partner_sample_ms": "ms",
    "core.edge_updates_per_s": "1/s",
    "core.operator_build_s": "s",
    "simulation.record_ms": "ms",
    "simulation.stop_ms": "ms",
    "simulation.audit_ms": "ms",
    "simulation.loop_ms": "ms",
    "simulation.bookkeeping_share": "frac",
    "simulation.round_ms_p50": "ms",
    "simulation.round_ms_p99": "ms",
    "simulation.round_samples": "count",
    "graphs.topology_build_s": "s",
    "graphs.partition_build_s": "s",
    "graphs.cut_edges": "count",
    "distributed.spawn_s": "s",
    "distributed.rendezvous_s": "s",
    "distributed.ship_s": "s",
    "distributed.coordinator_wait_ms": "ms",
    "distributed.combine_ms": "ms",
    "distributed.interior_ms": "ms",
    "distributed.boundary_ms": "ms",
    "distributed.halo_send_ms": "ms",
    "distributed.halo_wait_ms": "ms",
    "distributed.halo_bytes_per_round": "bytes",
    "distributed.ctrl_bytes_per_round": "bytes",
    "distributed.ctrl_msgs_per_round": "count",
    "distributed.worker_rss_mb": "MB",
    "observability.monitor_ms": "ms",
    "observability.span_ms": "ms",
    "observability.flush_s": "s",
    "ledger.residual_share": "frac",
    "ledger.tracing_overhead": "frac",
}

#: Per-layer metrics that are inclusive time per round in one probe layer.
PER_ROUND_LAYERS = ("core.step", "core.kernel", "core.operator_lookup", "core.validate",
                    "core.partner_sample", "simulation.record", "simulation.stop",
                    "simulation.audit", "observability.monitor", "observability.span")

#: Set-up components, timed by the workloads themselves.
SETUP_PARTS = ("graphs.topology_build_s", "core.operator_build_s", "graphs.partition_build_s",
               "distributed.spawn_s", "distributed.rendezvous_s")

#: Worker-side phases the block loop records as spans when telemetry is on.
WORKER_PHASES = ("interior", "boundary", "halo_send", "halo_wait")


def median(values, default: float = 0.0) -> float:
    return float(statistics.median(values)) if values else default


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))]


class Session:
    """One workload's runs in this process, with their verification record."""

    def __init__(self, wl, ctx, inputs, tmpdir: Path) -> None:
        self.wl, self.ctx, self.inputs, self.tmpdir = wl, ctx, inputs, tmpdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.records: list[dict] = []  # one per verified run
        self.plain: list[dict] = []  # measured runs without the probe
        self.traced: list[dict] = []  # measured runs with the probe
        self.flush_s: list[float] = []

    def attempt(self, traced: bool, keep: bool = True) -> None:
        """Run the workload once and verify it; a failure is counted, not raised."""
        from probe import Probe
        from workloads import check, digest

        self.attempted += 1
        try:
            run = self._run_once(Probe() if traced else None)
            result = run.pop("result")
            errors = check(self.wl, self.inputs, result)
            rounds = result.rounds.tolist()
            full = digest(result.final)
            if self.records and rounds != self.records[0]["rounds"]:
                errors.append(f"rounds {rounds[:4]} differ from the first run's")
            if self.records and full != self.records[0]["digest"]:
                errors.append("final loads differ from the first run's")
            if errors:
                raise AssertionError("; ".join(errors[:3]))
            if traced:
                run["rows"], run["residual"] = ledger_of(run["probe"], run["wall"])
            k = self.inputs.get("replica", 0)
            self.records.append({"rounds": rounds, "digest": full,
                                 "replica_digest": digest(result.final[k]),
                                 "replica_rounds": int(result.rounds[k])})
        except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return
        run["rounds"] = rounds
        run["stats"] = result.stats
        if keep:
            (self.traced if traced else self.plain).append(run)

    def _recorder(self, traced: bool):
        """Install the program's recorder where the workload's path has one.

        ``serial-traced`` writes a JSONL trace on every run (that is the
        path it measures); ``dispatch-partitioned`` records in memory on
        traced runs only, so the workers ship their phase spans back.
        """
        from repro.observability.recorder import configure

        if self.wl.recorder == "file":
            path = self.tmpdir / f"trace-{self.attempted}.jsonl"
            return configure(trace=str(path), role="run"), path
        if self.wl.recorder == "traced" and traced:
            return configure(metrics=True, role="dispatch"), None
        return None, None

    def _release(self, rec, path) -> None:
        """Flush and uninstall the recorder; time the flush of a trace file."""
        if rec is None:
            return
        from repro.observability.recorder import shutdown

        t0 = perf_counter()
        shutdown()
        if path is not None:
            self.flush_s.append(perf_counter() - t0)
            path.unlink(missing_ok=True)

    def _run_once(self, probe) -> dict:
        wl, ctx = self.wl, self.ctx
        rules = wl.rules(ctx, self.inputs)
        traffic0 = wl.control_traffic(ctx) if wl.distributed else None
        rec, path = self._recorder(probe is not None)
        try:
            if probe is not None:
                instrument(probe, rules)
            try:
                t0 = perf_counter()
                result = wl.run(ctx, self.inputs, rules)
                wall = perf_counter() - t0
            finally:
                if probe is not None:
                    probe.restore()
            events = rec.drain_events() if rec is not None and path is None else []
        finally:
            self._release(rec, path)
        run = {"wall": wall, "result": result, "events": events, "probe": probe}
        if traffic0 is not None:
            traffic1 = wl.control_traffic(ctx)
            run["ctrl_bytes"] = traffic1[0] - traffic0[0]
            run["ctrl_msgs"] = traffic1[1] - traffic0[1]
        return run

    def check_reference(self) -> None:
        """Compare every verified run's reference replica with a serial run."""
        from workloads import reference_errors

        try:
            ref = self.wl.reference(self.inputs)
        except Exception as exc:  # noqa: BLE001 - no reference means no run is verified
            self.failed += len(self.records)
            self.errors.append(f"serial reference run failed: {type(exc).__name__}: {exc}")
            return
        if ref is None:
            return
        for record in self.records:
            errors = reference_errors(ref, record["replica_digest"], record["replica_rounds"])
            if errors:
                self.failed += 1
                self.errors.append("; ".join(errors))


def instrument(probe, rules) -> None:
    """Wrap every layer function the ledger names, and the stopping rules.

    The criterion rule (first in the list) marks the round ticks.
    """
    from probe import LAYER_TARGETS

    for layer, target, flags in LAYER_TARGETS:
        probe.patch_target(layer, target, **flags)
    for i, rule in enumerate(rules):
        for method in ("should_stop", "should_stop_batch"):
            probe.patch(rule, method, "simulation.stop", tick=i == 0, stop=True)


def ledger_of(probe, wall: float) -> tuple[dict[str, float], float]:
    """Disjoint ledger rows of a traced run and its residual, in seconds.

    Rows are the self time of every layer that was called, plus
    ``simulation.loop``: the loop window's time no named layer covers.
    Raises :class:`probe.LedgerError` when they do not fit in ``wall``.
    """
    from probe import reconcile

    window, named_in_window = probe.window()
    rows = {layer: own for layer, own in sorted(probe.own.items()) if probe.calls[layer]}
    rows["simulation.loop"] = window - named_in_window
    return rows, reconcile(wall, rows)


def run_layer_metrics(run: dict, edges_per_replica_round: int | None) -> dict[str, float]:
    """Per-layer metrics of one traced run."""
    probe, wall = run["probe"], run["wall"]
    rounds = max(probe.rounds, 1)
    incl, own = probe.incl, probe.own
    window, _ = probe.window()
    m = {f"{layer}_ms": 1e3 * incl.get(layer, 0.0) / rounds for layer in PER_ROUND_LAYERS}
    if edges_per_replica_round is None:  # sampled links, counted as they were drawn
        work = probe.links
    else:
        work = edges_per_replica_round * probe.calls.get("core.step", 0) * len(run["rounds"])
    step = incl.get("core.step", 0.0)
    m["core.edge_updates_per_s"] = work / step if step > 0 else 0.0
    m["simulation.loop_ms"] = 1e3 * run["rows"]["simulation.loop"] / rounds
    bookkeeping = sum(own.get(k, 0.0) for k in
                      ("simulation.record", "simulation.stop", "simulation.audit"))
    m["simulation.bookkeeping_share"] = bookkeeping / window if window > 0 else 0.0
    m["distributed.ship_s"] = incl.get("distributed.ship", 0.0)
    m["distributed.coordinator_wait_ms"] = 1e3 * own.get("distributed.coordinator_wait", 0.0) / rounds
    chunks = incl.get("distributed.coordinator_wait", 0.0)
    m["distributed.combine_ms"] = 1e3 * (window - chunks) / rounds if chunks else 0.0
    m.update(worker_phases(run["events"], rounds))
    m["ledger.residual_share"] = run["residual"] / wall
    return m


def worker_phases(events: list[dict], rounds: int) -> dict[str, float]:
    """Per-worker, per-round milliseconds of each block phase span."""
    totals = {phase: 0.0 for phase in WORKER_PHASES}
    workers = set()
    for ev in events:
        if ev.get("ev") == "span" and ev.get("name") in totals:
            totals[ev["name"]] += float(ev.get("dur", 0.0))
            workers.add(ev.get("worker"))
    scale = 1e3 / (max(len(workers), 1) * max(rounds, 1))
    return {f"distributed.{phase}_ms": total * scale for phase, total in totals.items()}


def layer_metrics(session: Session, setups: list[tuple[float, dict]]) -> dict[str, float]:
    """Every per-layer metric: medians over traced runs and set-ups.

    A layer the workload never calls reads 0.
    """
    wl, traced, plain = session.wl, session.traced, session.plain
    out = {name: 0.0 for name in PER_LAYER}
    for name in SETUP_PARTS:
        out[name] = median([parts[name] for _, parts in setups if name in parts])
    edges = wl.edges_per_replica_round(session.ctx)
    per_run = [run_layer_metrics(run, edges) for run in traced]
    for name in (per_run[0] if per_run else {}):
        out[name] = median([m[name] for m in per_run])
    latencies = [1e3 * x for run in traced for x in run["probe"].round_latencies()]
    out["simulation.round_ms_p50"] = percentile(latencies, 0.50)
    out["simulation.round_ms_p99"] = percentile(latencies, 0.99)
    out["simulation.round_samples"] = float(len(latencies))
    out["observability.flush_s"] = median(session.flush_s)
    if traced and plain:
        out["ledger.tracing_overhead"] = (median([r["wall"] for r in traced])
                                          / median([r["wall"] for r in plain]) - 1.0)
    if wl.distributed:
        # Exact counts, from the plain runs so shipped trace events do not
        # inflate the control traffic.
        counted = [r for r in plain if r["stats"].get("rounds")]

        def per_round(count) -> float:
            return median([count(r) / r["stats"]["rounds"] for r in counted])

        out["distributed.halo_bytes_per_round"] = per_round(lambda r: r["stats"]["halo_bytes"])
        out["distributed.ctrl_bytes_per_round"] = per_round(lambda r: r["ctrl_bytes"])
        out["distributed.ctrl_msgs_per_round"] = per_round(lambda r: r["ctrl_msgs"])
        out["distributed.worker_rss_mb"] = wl.worker_peak_rss_mb(session.ctx)
        out["graphs.cut_edges"] = float(session.ctx["cut_edges"])
    return out


def end_to_end_metrics(session: Session, setups: list[tuple[float, dict]],
                       peak_rss: float) -> dict[str, float]:
    """The end-to-end metrics; run times are the fastest repetition's.

    Every repetition does the same work (same inputs, same rounds), so
    only the host can make one slower than another.  On a shared 2-CPU
    host it did: co-tenants slowed one core by up to 90% for seconds at a
    time, and the median of a 20 s run moved by up to 40% between runs
    with the number of repetitions that fell in such a stretch.  The
    fastest repetition measures the program rather than its neighbours.
    """
    plain = session.plain
    return {
        "time_to_balance_s": min((r["wall"] for r in plain), default=0.0),
        "replica_rounds_per_s": max((sum(r["rounds"]) / r["wall"] for r in plain), default=0.0),
        "setup_s": median([total for total, _ in setups]),
        "peak_rss_mb": peak_rss,
        "rounds_to_balance": float(max(session.records[0]["rounds"])) if session.records else 0.0,
        "verified_frac": (session.attempted - session.failed) / max(session.attempted, 1),
    }


def print_ledger(session: Session) -> None:
    """Print the ledger of the traced run with the median wall time."""
    if not session.traced:
        return
    runs = sorted(session.traced, key=lambda r: r["wall"])
    run = runs[len(runs) // 2]
    rows, residual, wall = run["rows"], run["residual"], run["wall"]
    rounds = max(run["probe"].rounds, 1)
    print(f"ledger {session.wl.name}: wall {wall:.6f} s over {rounds} rounds "
          f"(self time per layer; rows plus residual = wall)")
    for name, secs in sorted(rows.items(), key=lambda kv: -kv[1]) + [("residual", residual)]:
        print(f"  {name:32s} {secs:12.6f} s {1e3 * secs / rounds:10.4f} ms/round "
              f"{secs / wall:7.2%}")
    if run["probe"].missing:
        print(f"  (not found in the program, so not timed: {', '.join(run['probe'].missing)})")


def measure(wl, seed: int, seconds: float, trace: bool, tmpdir: Path, *,
            min_runs: int = 3, setup_reps: int | None = None) -> tuple[dict[str, float], Session]:
    """Set up, run and verify one workload; returns (metrics, session).

    On a shared host each core's speed drifts over seconds, independently
    of the other cores.  So an in-process workload moves to the next core
    every second run (every plain/traced pair), and set-up is timed
    ``wl.setup_reps`` times before the first run and, for cheap set-ups,
    again between runs while that costs under ``SETUP_SHARE`` of the
    measuring time: runs and set-ups then sample every core and the whole
    measuring window instead of one core at one moment.
    """
    from workloads import process_rss_peak_mb

    inputs = wl.inputs(seed)
    setups: list[tuple[float, dict]] = []
    cpus = sorted(os.sched_getaffinity(0))

    def set_up() -> dict:
        t0 = perf_counter()
        fresh, parts = wl.setup(inputs)
        setups.append((perf_counter() - t0, parts))
        return fresh

    ctx = set_up()
    try:
        for _ in range((setup_reps or wl.setup_reps) - 1):
            wl.close(set_up())
        session = Session(wl, ctx, inputs, tmpdir)
        session.attempt(traced=False, keep=False)  # warm-up: lazy buffers, first job on workers
        start = perf_counter()
        between = 0.0
        while session.failed <= 3 and session.attempted < 1000:
            if not wl.distributed:  # the dispatch coordinator stays free; workers are pinned
                os.sched_setaffinity(0, {cpus[(session.attempted // 2) % len(cpus)]})
            session.attempt(traced=trace and len(session.traced) < len(session.plain))
            for _ in range(wl.setups_between_runs):
                if between > SETUP_SHARE * (perf_counter() - start):
                    break
                t0 = perf_counter()
                wl.close(set_up())
                between += perf_counter() - t0
            enough = len(session.plain) >= min_runs and (not trace or len(session.traced) >= min_runs)
            if enough and perf_counter() - start >= seconds:
                break
        peak_rss = process_rss_peak_mb()
        session.check_reference()
        if trace:
            return layer_metrics(session, setups), session
        return end_to_end_metrics(session, setups, peak_rss), session
    finally:
        os.sched_setaffinity(0, cpus)
        wl.close(ctx)


def host_stamp() -> dict:
    import numpy
    import scipy

    from repro.core.backends import resolve_backend
    from workloads import cpu_model, nproc

    return {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": resolve_backend(None),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def preflight() -> str | None:
    """Why the benchmark must not run here, or None when it may."""
    toggles = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if toggles:
        return (f"refusing to run with {', '.join(toggles)} set: the benchmark measures "
                "the program's defaults; unset every REPRO_* variable")
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program sources under {SRC}: run from a full checkout"
    return None


def _on_signal(signum, frame):
    raise SystemExit(128 + signum)


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's own verification, ledger and metric names")
    args = parser.parse_args(argv)
    problem = preflight()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    # One BLAS thread per process, set before NumPy loads (spawned workers
    # inherit it): idle OpenBLAS threads spin on the second core, which the
    # dispatch workers and the next round need.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _on_signal)
    if args.self_test:
        from selftest import run_self_test

        return run_self_test()
    from workloads import WORKLOADS, make

    if args.workload not in WORKLOADS:
        print(f"--workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_S)
    tmpdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        wl = make(args.workload)
        metrics, session = measure(wl, args.seed, args.seconds, bool(args.trace), tmpdir)
    finally:
        signal.alarm(0)
        shutil.rmtree(tmpdir, ignore_errors=True)
    if args.trace:
        print_ledger(session)
    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {wl.name} seed {args.seed}: {session.attempted} run(s), "
          f"{session.failed} failed")
    for err in session.errors[:10]:
        print(f"  error: {err}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:.6g} {unit}")
    print("host " + json.dumps(host_stamp(), sort_keys=True))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
