"""Self-test of the benchmark's own checks (``run.py --self-test``).

Uses small instances of every workload, so it finishes in well under a
minute.  It asserts that

- verification rejects a tampered result: one token moved, or a wrong
  round count;
- the ledger rejects layer times that add up to more than the wall time,
  and the probe's self times of nested calls never do;
- every metric name ``run.py`` prints, in both modes, matches
  ``BENCHMARK.json``, and a clean run of each workload verifies;
- the benchmark refuses to run while a ``REPRO_*`` variable is set.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
import time
import types
from pathlib import Path

import numpy as np


class SelfTestFailure(AssertionError):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SelfTestFailure(what)


def tampered_results(result, replica: int):
    """``(label, result)`` pairs: one token moved, rounds one off each way."""
    from workloads import Result

    moved = result.final.copy()
    row = moved[replica]
    src, dst = int(np.argmax(row)), int(np.argmin(row))
    row[src] -= 1
    row[dst] += 1
    yield "one token moved", Result(moved, result.rounds, result.potentials,
                                    result.threshold, result.stats)
    for delta in (1, -1):
        rounds = result.rounds.copy()
        rounds[replica] += delta
        yield f"rounds {delta:+d}", Result(result.final, rounds, result.potentials,
                                           result.threshold, result.stats)


def test_verification() -> None:
    from workloads import WORKLOADS, check, digest, make, reference_errors

    for name in WORKLOADS:
        wl = make(name, small=True)
        inputs = wl.inputs(7)
        ctx, _ = wl.setup(inputs)
        try:
            result = wl.run(ctx, inputs, wl.rules(ctx, inputs))
        finally:
            wl.close(ctx)
        ref = wl.reference(inputs)
        k = inputs.get("replica", 0)

        def problems(res):
            errs = check(wl, inputs, res)
            if ref is not None:
                errs += reference_errors(ref, digest(res.final[k]), int(res.rounds[k]))
            return errs

        clean = problems(result)
        expect(not clean, f"{name}: a clean run failed verification: {clean}")
        for label, bad in tampered_results(result, k):
            expect(bool(problems(bad)), f"{name}: verification accepted a result with {label}")


def test_ledger() -> None:
    from probe import LedgerError, Probe, reconcile

    for rows in ({"a": 0.7, "b": 0.5}, {"a": -0.1}):
        try:
            reconcile(1.0, rows)
        except LedgerError:
            continue
        raise SelfTestFailure(f"ledger accepted rows {rows} against a 1.0 s wall")
    expect(math.isclose(reconcile(1.0, {"a": 0.4, "b": 0.5}), 0.1), "ledger residual is wrong")

    def inner():
        time.sleep(0.01)

    def outer():
        ns.inner()
        time.sleep(0.01)

    ns = types.SimpleNamespace(inner=inner, outer=outer)
    with Probe() as probe:
        probe.patch(ns, "inner", "inner")
        probe.patch(ns, "outer", "outer")
        t0 = time.perf_counter()
        ns.outer()
        wall = time.perf_counter() - t0
    expect(ns.inner is inner and ns.outer is outer, "probe did not restore its patches")
    expect(probe.incl["outer"] >= probe.incl["inner"] > 0, "inclusive times are wrong")
    expect(probe.own["outer"] < probe.incl["outer"], "self time includes the nested call")
    reconcile(wall, dict(probe.own))


def test_metric_names(spec_path: Path) -> None:
    import run
    from workloads import WORKLOADS, make

    spec = json.loads(spec_path.read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "workload names differ from BENCHMARK.json")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == table, f"{key} names or units differ from BENCHMARK.json")
    tmpdir = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=run.ROOT))
    try:
        for name in WORKLOADS:
            for trace, table in ((False, run.END_TO_END), (True, run.PER_LAYER)):
                metrics, session = run.measure(make(name, small=True), 3, 0.0, trace, tmpdir,
                                               min_runs=1, setup_reps=1)
                expect(session.failed == 0, f"{name}: clean run failed: {session.errors}")
                expect(set(metrics) == set(table),
                       f"{name} trace={int(trace)}: printed names differ: "
                       f"{sorted(set(metrics) ^ set(table))}")
                expect(all(math.isfinite(v) for v in metrics.values()),
                       f"{name}: non-finite metric")
        expect(not any(tmpdir.iterdir()), "trace files were left behind")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def test_refuses_toggles() -> None:
    import run

    os.environ["REPRO_BACKEND"] = "numpy"
    try:
        expect(run.preflight() is not None, "benchmark would run with REPRO_BACKEND set")
    finally:
        del os.environ["REPRO_BACKEND"]
    expect(run.preflight() is None, "preflight refused a clean environment")


def run_self_test() -> int:
    import run

    tests = [
        ("verification rejects tampered results", test_verification),
        ("ledger rejects sums above wall time", test_ledger),
        ("metric names match BENCHMARK.json", lambda: test_metric_names(run.SPEC)),
        ("REPRO_* toggles are refused", test_refuses_toggles),
    ]
    failed = 0
    for label, fn in tests:
        t0 = time.perf_counter()
        try:
            fn()
            status = "ok"
        except SelfTestFailure as exc:
            failed += 1
            status = f"FAILED: {exc}"
        print(f"self-test {label}: {status} ({time.perf_counter() - t0:.1f} s)")
    return 1 if failed else 0
