"""The recorder's ordered buffer: recording appends one tuple, and the
drained events, JSON lines and metric folds are built from it later,
exactly as eager recording would have built them.

- flushed lines are byte-for-byte ``json.dumps`` of the drained dicts,
  for the scalars the fast line writer handles and for every fallback;
- a ``/metrics`` scrape in another thread neither loses nor reorders
  events, and drains remove only the counted prefix;
- folds happen in recording order, and folded samples and counter
  increments leave the buffer;
- the convergence monitor's deferred log-ratio fit adds the per-round
  ``np.log1p`` terms in the original order.
"""

import json
import math
import sys
import threading

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer
from repro.graphs.generators import torus_2d
from repro.observability import Recorder, set_recorder
from repro.observability import recorder as recorder_mod
from repro.observability.convergence import ConvergenceMonitor
from repro.observability.recorder import _Metric
from repro.observability.server import get_status_board
from repro.simulation.engine import Simulator
from repro.simulation.stopping import MaxRounds


@pytest.fixture(autouse=True)
def _clean_globals():
    yield
    get_status_board().clear()
    set_recorder(None)


@pytest.fixture
def _fast_switching():
    """Switch threads as often as the interpreter allows, so a lost
    append or a torn drain has every chance to show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _feed(rec: Recorder) -> None:
    """Every record kind, with labels the line writer inlines and
    labels that send it back to ``json``."""
    rec.record_span("round", 1234.5, 1234.500041, round=0, engine="serial")
    rec.record_span("ints", 0, 1, round=1)
    rec.record_span("shadow", 1.0, 2.0, t="label wins", dur=None)
    rec.event("phi", round=3, value=12345.678901234567, bound=0.0012345, drop=1.5e-07)
    rec.event("phi", round=4, value=float("nan"), bound=float("inf"))
    rec.event("labels", flag=True, off=False, none=None, big=2**70, neg=-0.0,
              text='quote " slash \\ ünïcode ☃ \n', blocks=[1, 3], nested={"a": 1})
    rec.event("numpy", value=np.float64(0.1), cast=float(np.float32(0.1)))
    rec.count("halo_bytes", 291, link="2->3", round=7)
    rec.count("fraction", 0.25)
    rec.observe("lat", 0.5)
    rec.add("bytes", 7)
    rec.ingest([{"ev": "span", "name": "interior", "t": 0.1, "dur": 0.2, "block": 1},
                {"ev": "count", "name": "halo_bytes", "value": 9}], worker="host:1")
    rec.ingest([{"ev": "event", "name": "requeue", "t": 0.3}])


@pytest.mark.parametrize("base", [None, {"block": 2}])
def test_flushed_lines_are_json_dumps_of_drained_events(base, tmp_path, monkeypatch):
    monkeypatch.setattr(recorder_mod, "perf_counter", lambda: 1234.0)
    path = tmp_path / "t.jsonl"
    flushed = Recorder(enabled=True, path=str(path), base=base)
    drained = Recorder(enabled=True, base=base)
    _feed(flushed)
    _feed(drained)
    assert flushed.flush() == 1 + drained.n_events
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    expected = [json.dumps(ev, separators=(",", ":")) for ev in drained.drain_events()]
    assert lines == expected
    assert flushed.metrics_snapshot() == drained.metrics_snapshot()


def test_event_dicts_keep_their_layout(monkeypatch):
    monkeypatch.setattr(recorder_mod, "perf_counter", lambda: 10.0)
    rec = Recorder(enabled=True, base={"block": 1})
    rec.record_span("interior", 10.5, 10.75, round=4)
    rec.event("phi", round=2, value=3.0)
    rec.count("halo_bytes", 64, link="1->0")
    rec.ingest([{"ev": "span", "name": "x", "t": 0, "dur": 1}], worker="w")
    events = rec.drain_events()
    assert [list(ev.items()) for ev in events] == [
        [("ev", "span"), ("name", "interior"), ("t", 0.5), ("dur", 0.25),
         ("block", 1), ("round", 4)],
        [("ev", "event"), ("name", "phi"), ("t", 0.0), ("block", 1),
         ("round", 2), ("value", 3.0)],
        [("ev", "count"), ("name", "halo_bytes"), ("value", 64), ("block", 1),
         ("link", "1->0")],
        [("ev", "span"), ("name", "x"), ("t", 0), ("dur", 1), ("worker", "w")],
    ]
    assert rec.n_events == 4


def test_folds_follow_recording_order():
    rec = Recorder(enabled=True)
    reference = _Metric()
    total = 6 * _Metric.RESERVOIR
    for i in range(total):
        value = float((i * 7919) % 1000) + 1e-3 * i
        if i % 3:
            rec.observe("x", value)
        else:
            rec.record_span("x", 0.0, value)
        reference.observe(value)
        # Folds of 1000 while the first third is recorded, then one fold
        # of more values than the reservoir holds.
        if i < total // 3 and i % 1000 == 0:
            rec.metrics_snapshot()
    assert rec.metrics_snapshot()["metrics"]["x"] == reference.snapshot()
    assert rec._metrics["x"]._ring == reference._ring
    assert rec.n_events == total // 3


def test_fold_only_records_do_not_pile_up():
    # A metrics-only recorder is never drained or flushed: its samples
    # and counter increments must fold away on their own.
    rec = Recorder(enabled=True)
    rec.event("start")
    for i in range(100_000):
        rec.add("frames")
        rec.observe("send_s", 1e-6 * (i % 7))
        assert len(rec._buf) <= recorder_mod._FOLD_EVERY + 1
    snap = rec.metrics_snapshot()
    assert [r[0] for r in rec._buf] == ["event"]
    assert snap["counters"]["frames"] == 100_000
    assert snap["metrics"]["send_s"]["count"] == 100_000
    assert rec.n_events == 1
    assert [ev["name"] for ev in rec.drain_events()] == ["start"]


def _stripped(events: list[dict]) -> list[dict]:
    return [{k: v for k, v in ev.items() if k not in ("t", "dur")} for ev in events]


def _traced_run(rounds: int, scrape: bool) -> tuple[list[dict], int, Recorder]:
    rec = Recorder(enabled=True)
    set_recorder(rec)
    stop = threading.Event()
    scrapes = [0]

    def scraper():
        while not stop.is_set():
            rec.metrics_snapshot()
            scrapes[0] += 1

    thread = threading.Thread(target=scraper, daemon=True)
    if scrape:
        thread.start()
    try:
        topo = torus_2d(8, 8)
        loads = np.random.default_rng(3).uniform(0.0, 1000.0, topo.n)
        Simulator(DiffusionBalancer(topo), stopping=[MaxRounds(rounds)]).run(loads, 0)
    finally:
        stop.set()
        if scrape:
            thread.join(timeout=60)
            assert not thread.is_alive()
        set_recorder(None)
    return rec.drain_events(), scrapes[0], rec


@pytest.mark.usefixtures("_fast_switching")
def test_concurrent_metrics_scrape_loses_and_reorders_nothing():
    plain, _, _ = _traced_run(2000, scrape=False)
    scraped, scrapes, rec = _traced_run(2000, scrape=True)
    assert scrapes > 0
    assert _stripped(scraped) == _stripped(plain)
    assert sum(ev["name"] == "round" for ev in scraped) == 2000
    assert rec.metrics_snapshot()["metrics"]["round"]["count"] == 2000


@pytest.mark.usefixtures("_fast_switching")
def test_drain_takes_only_the_counted_prefix():
    rec = Recorder(enabled=True)
    total = 20_000
    drained: list[dict] = []

    def writer():
        for i in range(total):
            rec.event("e", i=i)
            rec.observe("x", float(i))  # folded away while the writer appends

    thread = threading.Thread(target=writer)
    thread.start()
    while thread.is_alive():
        drained += rec.drain_events()
    thread.join(timeout=60)
    assert not thread.is_alive()
    drained += rec.drain_events()
    assert [ev["i"] for ev in drained] == list(range(total))
    assert rec.n_events == total
    x = rec.metrics_snapshot()["metrics"]["x"]
    assert (x["count"], x["sum"]) == (total, float(sum(range(total))))


def test_monitor_fit_adds_per_round_terms_in_order():
    rng = np.random.default_rng(11)
    drops = list(rng.uniform(1e-9, 0.5, 3000))
    drops[10:14] = [math.nan, math.inf, 1.0, 1.5]
    mon = ConvergenceMonitor(Recorder(enabled=True), n=64, delta=4, lam2=0.1,
                             mode="continuous")
    mon._drops.extend(drops)
    expected, used = 0.0, 0
    for drop in drops:
        if math.isfinite(drop) and drop < 1.0:
            expected += float(np.log1p(-drop))  # the per-round scalar ufunc
            used += 1
    fitted = mon.empirical_drop_factor
    assert (mon._log_ratio_sum, mon._log_ratio_obs) == (expected, used)
    assert fitted == 1.0 - math.exp(expected / used)
    assert mon._drops == []
