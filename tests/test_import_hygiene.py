"""What a cold start imports.

A worker process pays for every module it imports before it can take a
job, so the runtime must not drag in the report layer, the experiments,
SciPy's dense linear algebra or the HTTP server.  The job runtime itself
(kernels, block loop, balancer classes) must be loaded *before* the
worker answers its first hello, or the import lands in the first timed job.
Each check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules no runtime import may load.
HEAVY = ("scipy.linalg", "scipy.sparse.linalg", "http.server", "repro.analysis", "repro.experiments")

#: Modules a worker runs its jobs with.
JOB_RUNTIME = (
    "repro.core.backends",
    "repro.core.operators",
    "repro.core.diffusion",
    "repro.core.random_partner",
    "repro.baselines.first_order",
    "repro.simulation.partitioned",
    "repro.simulation.sharding",
)


def _python(code: str) -> dict:
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _loaded_after(statement: str) -> list[str]:
    code = (
        "import json, sys\n"
        f"{statement}\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    return _python(code)


@pytest.mark.parametrize(
    "statement",
    ["import repro", "import repro.distributed.worker", "import repro.cli", "import repro.observability"],
)
def test_runtime_imports_stay_lean(statement):
    assert _loaded_after(statement) == []


def test_lazy_package_attributes_still_resolve():
    code = (
        "import json, repro\n"
        "topo = repro.graphs.torus_2d(3, 3)\n"
        "ns = {}\n"
        "exec('from repro import *', ns)\n"
        "import repro.observability as obs\n"
        "print(json.dumps({'m': topo.m, 'star': sorted(k for k in ns if not k.startswith('__')),\n"
        "                  'board': type(obs.get_status_board()).__name__,\n"
        "                  'unknown': hasattr(repro, 'nonexistent')}))\n"
    )
    got = _python(code)
    assert got["m"] == 18
    assert got["star"] == ["analysis", "baselines", "core", "extensions", "graphs", "simulation"]
    assert got["board"] == "StatusBoard"
    assert got["unknown"] is False


def test_spectral_functions_load_scipy_on_demand():
    code = (
        "import json, sys\n"
        "from repro.graphs import torus_2d, lambda_2\n"
        "before = 'scipy.linalg' in sys.modules\n"
        "lam = lambda_2(torus_2d(4, 4))\n"
        "print(json.dumps({'before': before, 'after': 'scipy.linalg' in sys.modules, 'lam': lam}))\n"
    )
    got = _python(code)
    assert got == {"before": False, "after": True, "lam": pytest.approx(2.0)}


_PROBE = """
import runpy
import sys

from repro.distributed import worker

HEAVY = {heavy!r}
JOB_RUNTIME = {job!r}
_serve = worker.serve
_load_job_runtime = worker._load_job_runtime
loaded = []


def load_job_runtime():
    _load_job_runtime()
    loaded.append(True)


def serve(*args, log=worker._default_log, **kwargs):
    def probe(message):
        if "listening on" in message:
            missing = [m for m in JOB_RUNTIME if m not in sys.modules]
            heavy = [m for m in HEAVY if m in sys.modules]
            if missing or heavy or not loaded:
                # Exit before the first accept: the handed-over listener
                # dies with this process and the waiting hello is reset.
                raise SystemExit(
                    f"not ready: runtime loaded {{bool(loaded)}}, "
                    f"missing {{missing}}, loaded {{heavy}}"
                )
        log(message)

    return _serve(*args, log=probe, **kwargs)


worker.serve = serve
worker._load_job_runtime = load_job_runtime
sys.argv = ["repro", *sys.argv[3:]]  # drop "-m repro"
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def test_launched_worker_loads_its_job_runtime_before_reporting(tmp_path, monkeypatch):
    """``launch_worker_process`` runs ``<python> -m repro worker``.  Through a
    wrapper interpreter, the worker exits at its ``listening on`` line when,
    at that moment, ``_load_job_runtime`` has not run, a job module is
    still missing or a heavy one is loaded.  (The CLI's own imports load
    the job modules too, so their presence alone would not show a loader
    moved after the line.)  The launch returns before that line, so the
    test handshakes with the worker: the job runtime must be loaded
    before it answers its first hello."""
    from repro.distributed.dispatcher import close_workers, connect_workers
    from repro.distributed.worker import launch_worker_process

    probe = tmp_path / "probe.py"
    probe.write_text(_PROBE.format(heavy=HEAVY, job=JOB_RUNTIME))
    wrapper = tmp_path / "python"
    wrapper.write_text(f'#!/bin/sh\nexec "{sys.executable}" "{probe}" "$@"\n')
    wrapper.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(wrapper))
    proc, address = launch_worker_process()
    try:
        assert address.startswith("127.0.0.1:")
        close_workers(connect_workers([address], timeout=30.0))
    finally:
        proc.terminate()
        proc.wait(timeout=10)
