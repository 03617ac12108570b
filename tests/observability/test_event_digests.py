"""Golden digest of the traced serial event stream.

A traced serial run emits ``convergence_params``, one ``phi`` event and
one ``round`` span per round, any ``bound_violation`` /
``stall_detected`` events, and a closing ``convergence_summary``.  These
tests hash that stream with the wall-clock fields (``t``, ``dur``)
stripped, so the monitor's bookkeeping — drops, log-ratio fit, event
caps, stall latching — must stay bit-for-bit what it was when the
digests were captured.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer
from repro.graphs.generators import by_name
from repro.observability import Recorder, set_recorder
from repro.observability.server import get_status_board
from repro.simulation.engine import Simulator
from repro.simulation.stopping import MaxRounds


@pytest.fixture(autouse=True)
def _clean_globals():
    yield
    get_status_board().clear()
    set_recorder(None)


def _point(n: int, total, dtype) -> np.ndarray:
    loads = np.zeros(n, dtype=dtype)
    loads[0] = total
    return loads


#: name -> (topology, mode, initial loads, rounds, env overrides, sha256)
CASES = {
    # Theorem 4 holds every round: phi events only, verdict ok.
    "normal-continuous": (
        "torus:16x16", "continuous", lambda: _point(256, 25600.0, np.float64), 60, {},
        "3b29ac73609d76a6a3e08ca6e272a31dbd1f790692b9388440a174464f9a03ec",
    ),
    # Lemma 5 checked while Phi >= Phi* (47 rounds), unchecked below it.
    "normal-discrete": (
        "torus:16x16", "discrete", lambda: _point(256, 25_600, np.int64), 60, {},
        "2ef7e91bcffc2f9a9c78fe3068a042bc0bb674310fb3853dfc3047e0eab5fe7a",
    ),
    # An absurd lambda_2 makes every round violate: the event cap bites.
    "violation": (
        "torus:16x16", "continuous", lambda: _point(256, 25600.0, np.float64), 60,
        {"REPRO_CONV_LAM2": "8.0"},
        "f880e585bfb59de3bc4e28e7e24da026438005eab3708cc1e098474f6544304c",
    ),
    # Neighbour differences of 7 < 4 * max degree: no token ever moves,
    # so the run stalls (and violates) above the lowered threshold.
    "stall": (
        "path:16", "discrete", lambda: 7 * np.arange(16, dtype=np.int64), 12,
        {"REPRO_CONV_LAM2": "1.0"},
        "b05ca63d1f9ecb270b70177ee42ca7e522a9a28c9d168f2ebe4b8b48bb455a53",
    ),
}


def _stream_digest(events: list[dict]) -> str:
    h = hashlib.sha256()
    for ev in events:
        stripped = {k: v for k, v in ev.items() if k not in ("t", "dur")}
        h.update(json.dumps(stripped, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def run_case(name: str, monkeypatch) -> tuple[str, list[dict]]:
    spec, mode, make_loads, rounds, env, _ = CASES[name]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    rec = Recorder(enabled=True)
    set_recorder(rec)
    try:
        bal = DiffusionBalancer(by_name(spec), mode)
        Simulator(bal, stopping=[MaxRounds(rounds)]).run(make_loads(), 0)
    finally:
        set_recorder(None)
    events = rec.drain_events()
    return _stream_digest(events), events


@pytest.mark.parametrize("name", sorted(CASES))
def test_traced_event_stream_digest_is_golden(name, monkeypatch):
    digest, _ = run_case(name, monkeypatch)
    assert digest == CASES[name][5]


def test_cases_cover_violation_and_stall(monkeypatch):
    _, events = run_case("violation", monkeypatch)
    assert any(ev["name"] == "bound_violation" for ev in events)
    _, events = run_case("stall", monkeypatch)
    assert any(ev["name"] == "stall_detected" for ev in events)
