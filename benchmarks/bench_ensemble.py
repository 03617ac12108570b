"""Batched + sharded ensemble throughput vs sequential Simulator runs.

The tentpole claim of the batched execution stack is that running ``B``
Monte-Carlo replicas in lockstep through :class:`EnsembleSimulator` beats
``B`` sequential :class:`Simulator.run` calls by amortizing the per-round
engine overhead and turning the round kernel into a handful of large
vectorized operations.  This bench measures both sides in *replica-rounds
per second* (one replica advancing one round = 1 unit) on tori of n in
{256, 4096} with B in {1, 64}, continuous and discrete, for Algorithm 1
(``diffusion``) and random-matching dimension exchange (``matching-de``).

Two further sections:

- *backend rows*: the headline (n=4096, B=64) diffusion rows re-measured
  on **every available kernel backend** (numpy reference / scipy /
  numba), so the regression guard covers each backend the host can run
  and the fused-numba acceptance has a same-host scipy yardstick.
- *sharded*: ``run_sharded_ensemble`` — the replica batch split into K
  process-local ensemble shards — against the single-process vectorized
  path on the 4096-node torus at B=256.  The >=2x sharded acceptance
  applies to hosts with >=4 usable cores; core count is detected **at
  check time**, so a >=4-core runner enforces the gate (CI does, via a
  full-size gate row even under ``--smoke --check``) while a smaller
  host records the measured ratio with ``passed: null``.
- *partitioned*: the node-axis analogue — one giant graph split into
  P=4 halo-exchanging blocks (``PartitionedSimulator``, in-process and
  persistent-worker-process modes) against the single-block serial run,
  with halo-traffic counters per row.  Trajectories are bit-for-bit
  identical, so the rows measure pure execution speedup.  The >=1.0x
  process-mode acceptance (n=65536, discrete) is enforced at check time
  on >=4-core hosts via a full-size gate row, mirroring the sharded
  gate; smaller hosts record ``passed: null``.  ``--partitioned-out``
  writes the section as a standalone JSON artifact.
- *transport*: the frame layer itself — slab round-trip MB/s per
  channel (mp-pipe / tcp / loopback, plus mpi when importable),
  zero-copy protocol-5 frames against the old in-band pickle-blob
  framing.  The >=1.3x zero-copy acceptance on >=1 MiB slabs over tcp
  or mp-pipe is enforced at ``--check`` time on full-size slabs.

Run standalone to (re)generate the committed baseline::

    PYTHONPATH=src python benchmarks/bench_ensemble.py --out BENCH_ensemble.json
    PYTHONPATH=src python benchmarks/bench_ensemble.py --smoke   # CI, ~seconds

CI runs the smoke grid with ``--check BENCH_ensemble.json``: each
(n, B, mode, scheme, backend) row's measured *speedup* (batched over
serial — machine-normalized throughput) must stay within 30% of the
committed baseline's, turning the smoke run into a regression guard.
Rows whose (backend) key is absent from the baseline — e.g. numba rows
on a baseline recorded on a scipy-only host — are skipped, so
scipy-only hosts regress on no row while numba hosts still gate the
common rows.  ``--backend`` pins the main grid's kernel backend (the
numba CI leg runs ``--backend numba``).

Under pytest (smoke-sized) the headline speedups are asserted directly::

    PYTHONPATH=src python -m pytest benchmarks/bench_ensemble.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.baselines.dimension_exchange import DimensionExchangeBalancer
from repro.core.backends import BACKEND_CHOICES, available_backends, resolve_backend
from repro.core.diffusion import DiffusionBalancer
from repro.graphs.generators import torus_2d
from repro.simulation.engine import Simulator
from repro.simulation.ensemble import EnsembleSimulator, spawn_rngs
from repro.simulation.partitioned import PartitionedSimulator
from repro.simulation.sharding import run_sharded_ensemble
from repro.simulation.stopping import MaxRounds

SEED = 1234
SHARD_WORKERS = 4
#: node-axis gate: blocks for the partitioned acceptance row
PARTITION_BLOCKS = 4
#: node-axis gate: torus side (n = side^2 = 65536) for the full-size row
PARTITION_GATE_SIDE = 256
#: full-run floor for fused-numba discrete vs same-host scipy; the smoke
#: floor only guards against the fused path being a pessimization (shared
#: CI runners are too noisy to gate the full ratio at smoke sizes).
NUMBA_DISCRETE_GATE = 1.5
NUMBA_DISCRETE_SMOKE_FLOOR = 0.8
#: transport gate: zero-copy frames must move >=1 MiB slabs at least
#: this much faster than the in-band (pickle-blob) framing on tcp or
#: mp-pipe, measured at check time on full-size slabs.
TRANSPORT_GATE_MIN_SPEEDUP = 1.3
TRANSPORT_GATE_SLAB_MIB = 4


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _make_balancer(topo, mode: str, scheme: str, backend: str | None = None):
    if scheme == "diffusion":
        return DiffusionBalancer(topo, mode=mode, backend=backend)
    if scheme == "matching-de":
        bal = DimensionExchangeBalancer(topo, mode=mode, partner_rule="luby")
        bal.backend = backend
        return bal
    raise ValueError(f"unknown scheme {scheme!r}")


def _initial_loads(n: int, discrete: bool) -> np.ndarray:
    rng = np.random.default_rng(SEED)
    if discrete:
        return rng.integers(0, 10_000, n).astype(np.int64)
    return rng.uniform(0.0, 10_000.0, n)


def _time_serial(topo, mode, scheme, loads, replicas: int, rounds: int, backend=None) -> float:
    """Seconds for ``replicas`` sequential Simulator.run calls of ``rounds`` rounds.

    The runs record every series (``record="full"``), as the serial side
    did when the committed floors were recorded.
    """
    bal = _make_balancer(topo, mode, scheme, backend)
    rngs = spawn_rngs(SEED, replicas)
    start = time.perf_counter()
    for b in range(replicas):
        Simulator(bal, stopping=[MaxRounds(rounds)], record="full").run(loads, rngs[b])
    return time.perf_counter() - start


def _time_batched(topo, mode, scheme, loads, replicas: int, rounds: int, backend=None) -> float:
    """Seconds for one EnsembleSimulator run of ``replicas`` lockstep replicas."""
    bal = _make_balancer(topo, mode, scheme, backend)
    # serial_singleton=False so the B=1 row keeps measuring the batched
    # kernels themselves (the engine's default would dispatch it serially
    # and the row would tautologically read 1.0).
    ens = EnsembleSimulator(bal, stopping=[MaxRounds(rounds)], serial_singleton=False)
    start = time.perf_counter()
    ens.run(loads, seed=SEED, replicas=replicas)
    return time.perf_counter() - start


def _time_sharded(topo, mode, scheme, loads, replicas: int, rounds: int, workers: int) -> float:
    """Seconds for one sharded run: ``workers`` process-local ensemble blocks."""
    bal = _make_balancer(topo, mode, scheme)
    start = time.perf_counter()
    run_sharded_ensemble(
        bal, loads, seed=SEED, replicas=replicas, workers=workers,
        stopping=[MaxRounds(rounds)],
    )
    return time.perf_counter() - start


def measure(side, replicas, mode, rounds, repeats: int = 5, scheme: str = "diffusion",
            backend: str | None = None) -> dict:
    """One (n, B, mode, scheme, backend) serial-vs-batched comparison row.

    Each side is timed ``repeats`` times and the best time is kept — the
    standard way to strip scheduler noise from a shared machine; both
    sides get the same treatment (including any JIT warm-up, absorbed by
    the warm-up calls below).
    """
    backend = resolve_backend(backend)
    topo = torus_2d(side, side)
    loads = _initial_loads(topo.n, discrete=mode == "discrete")
    # Warm the per-topology operator caches (and JIT compilation for the
    # numba backend) so construction cost is not attributed to either side.
    _time_serial(topo, mode, scheme, loads, 1, 2, backend)
    _time_batched(topo, mode, scheme, loads, min(replicas, 2), 2, backend)
    serial_s = min(
        _time_serial(topo, mode, scheme, loads, replicas, rounds, backend)
        for _ in range(repeats)
    )
    batched_s = min(
        _time_batched(topo, mode, scheme, loads, replicas, rounds, backend)
        for _ in range(repeats)
    )
    unit = replicas * rounds  # replica-rounds executed by each side
    return {
        "n": topo.n,
        "replicas": replicas,
        "mode": mode,
        "scheme": scheme,
        "backend": backend,
        "rounds": rounds,
        "serial_seconds": round(serial_s, 6),
        "batched_seconds": round(batched_s, 6),
        "serial_replica_rounds_per_sec": round(unit / serial_s, 1),
        "batched_replica_rounds_per_sec": round(unit / batched_s, 1),
        "speedup": round(serial_s / batched_s, 3),
    }


def measure_sharded(side, replicas, mode, rounds, workers, repeats: int = 3,
                    scheme: str = "diffusion") -> dict:
    """One vectorized-vs-sharded comparison row (same total replica batch)."""
    topo = torus_2d(side, side)
    loads = _initial_loads(topo.n, discrete=mode == "discrete")
    _time_batched(topo, mode, scheme, loads, min(replicas, 2), 2)
    _time_sharded(topo, mode, scheme, loads, min(replicas, 2 * workers), 2, workers)
    vec_s = min(_time_batched(topo, mode, scheme, loads, replicas, rounds) for _ in range(repeats))
    sha_s = min(
        _time_sharded(topo, mode, scheme, loads, replicas, rounds, workers)
        for _ in range(repeats)
    )
    unit = replicas * rounds
    return {
        "n": topo.n,
        "replicas": replicas,
        "mode": mode,
        "scheme": scheme,
        "rounds": rounds,
        "workers": workers,
        "vectorized_seconds": round(vec_s, 6),
        "sharded_seconds": round(sha_s, 6),
        "vectorized_replica_rounds_per_sec": round(unit / vec_s, 1),
        "sharded_replica_rounds_per_sec": round(unit / sha_s, 1),
        "sharded_speedup": round(vec_s / sha_s, 3),
    }


def _time_partitioned(topo, mode, loads, rounds: int, partitions: int, strategy: str,
                      pmode: str, backend=None, transport: str = "mp-pipe",
                      delta: bool = False) -> tuple[float, dict]:
    """Seconds for one PartitionedSimulator run; returns (time, halo stats)."""
    bal = DiffusionBalancer(topo, mode=mode, backend=backend)
    psim = PartitionedSimulator(
        bal, partitions=partitions, strategy=strategy, mode=pmode,
        stopping=[MaxRounds(rounds)], transport=transport, delta_frames=delta,
    )
    start = time.perf_counter()
    psim.run(loads)
    return time.perf_counter() - start, dict(psim.halo_stats)


def _near_balanced_loads(n: int) -> np.ndarray:
    """Discrete loads a few rounds from convergence: a flat profile with a
    small perturbation on the first nodes.  Most rounds move nothing on
    most links, so delta frames collapse to row-index headers — the
    regime the delta byte-reduction gate measures."""
    loads = np.full(n, 100, dtype=np.int64)
    loads[: min(4, n)] += np.array([40, 30, 20, 10])[: min(4, n)]
    return loads


def measure_partitioned(side, mode, rounds, partitions=PARTITION_BLOCKS, strategy="bfs",
                        pmode="process", repeats: int = 3, backend: str | None = None,
                        transport: str = "mp-pipe", delta: bool = False,
                        near_balanced: bool = False) -> dict:
    """One single-block-vs-partitioned comparison row (B = 1, one graph).

    The single-block side is the serial :class:`Simulator` on the whole
    topology — the run a partitioned deployment replaces.  The
    partitioned side splits the node axis into ``partitions``
    halo-exchanging blocks (in-process vectorized loop, or persistent
    worker processes for ``pmode="process"``); trajectories are
    bit-for-bit identical, so the row measures pure execution overhead /
    speedup plus the halo traffic actually exchanged.
    """
    backend = resolve_backend(backend)
    topo = torus_2d(side, side)
    discrete = mode == "discrete"
    if near_balanced:
        loads = _near_balanced_loads(topo.n)
        loads = loads if discrete else loads.astype(np.float64)
    else:
        loads = _initial_loads(topo.n, discrete=discrete)
    # Warm the operator + partition caches on both sides (and the worker
    # startup path for process mode) so construction is not attributed.
    _time_serial(topo, mode, "diffusion", loads, 1, 2, backend)
    _time_partitioned(topo, mode, loads, 2, partitions, strategy, pmode, backend,
                      transport, delta)
    single_s = min(
        _time_serial(topo, mode, "diffusion", loads, 1, rounds, backend)
        for _ in range(repeats)
    )
    part_s = float("inf")
    halo: dict = {}
    for _ in range(repeats):
        t, h = _time_partitioned(
            topo, mode, loads, rounds, partitions, strategy, pmode, backend,
            transport, delta
        )
        if t < part_s:
            part_s, halo = t, h
    return {
        "n": topo.n,
        "backend": backend,
        "mode": mode,
        "rounds": rounds,
        "partitions": partitions,
        "strategy": strategy,
        "partition_mode": pmode,
        "transport": halo.get("transport"),
        "delta_frames": delta,
        "loads": "near-balanced" if near_balanced else "default",
        "single_seconds": round(single_s, 6),
        "partitioned_seconds": round(part_s, 6),
        "single_rounds_per_sec": round(rounds / single_s, 1),
        "partitioned_rounds_per_sec": round(rounds / part_s, 1),
        "partitioned_speedup": round(single_s / part_s, 3),
        "halo_values_exchanged": halo.get("halo_values", 0),
        "halo_values_per_round": round(halo.get("halo_values", 0) / max(rounds, 1), 1),
        "halo_bytes_per_round": round(halo.get("halo_bytes", 0) / max(rounds, 1), 1),
        "link_bytes_per_round": {
            link: round(nbytes / max(rounds, 1), 1)
            for link, nbytes in sorted(halo.get("links", {}).items())
        },
    }


# ----------------------------------------------------------------------
# Transport microbench: zero-copy frames vs the in-band pickle blob
# ----------------------------------------------------------------------
def _time_transport_round_trips(pair, make_payload, unwrap, count: int) -> float:
    """Seconds for ``count`` serialized payload round-trips over ``pair``.

    The echo side re-*sends* what it receives, so both directions pay the
    frame encode (where the zero-copy vs in-band difference lives).
    """
    a, b = pair

    def echo() -> None:
        for _ in range(count):
            b.send(b.recv(timeout=120.0))

    t = threading.Thread(target=echo, daemon=True)
    t.start()
    start = time.perf_counter()
    for _ in range(count):
        a.send(make_payload())
        unwrap(a.recv(timeout=120.0))
    elapsed = time.perf_counter() - start
    t.join(timeout=120)
    return elapsed


def measure_transport(transport: str, slab_mib: float, count: int,
                      repeats: int = 3) -> dict:
    """One channel's slab round-trip MB/s: zero-copy vs in-band framing.

    *Zero-copy* sends the numpy slab itself — protocol-5 ships it as an
    out-of-band buffer (views straight to the wire, ``recv`` lands chunks
    in a preallocated writable segment).  *In-band* emulates the old
    frame layer: the slab is pre-pickled into one ``bytes`` blob per
    send, which rides inside the metadata pickle (copied at least twice
    per hop), and the receiver unpickles it.  Same channel, same logical
    payload, so the ratio isolates the framing win.
    """
    from repro.distributed.transport import make_pair

    slab = np.random.default_rng(SEED).standard_normal(
        int(slab_mib * (1 << 20) // 8)
    )
    mb_moved = 2 * count * slab.nbytes / 1e6  # both directions
    zero_s = inband_s = float("inf")
    for _ in range(repeats):
        pair = make_pair(transport)
        zero_s = min(zero_s, _time_transport_round_trips(
            pair, lambda: slab, lambda obj: obj, count
        ))
        for ch in pair:
            ch.close()
        pair = make_pair(transport)
        inband_s = min(inband_s, _time_transport_round_trips(
            pair,
            lambda: pickle.dumps(slab, protocol=5),
            pickle.loads,
            count,
        ))
        for ch in pair:
            ch.close()
    return {
        "transport": transport,
        "slab_mib": slab_mib,
        "round_trips": count,
        "zero_copy_mb_per_sec": round(mb_moved / zero_s, 1),
        "in_band_mb_per_sec": round(mb_moved / inband_s, 1),
        "zero_copy_speedup": round(inband_s / zero_s, 3),
    }


def measure_transport_section(smoke: bool) -> dict:
    """Per-channel slab round-trip rows (every available transport).

    The mpi row appears whenever ``mpi4py`` is importable (a self-pair on
    ``COMM_SELF`` — same frame path a cluster run exercises).
    """
    from repro.distributed.transport import available_transports

    slab_mib = 1 if smoke else TRANSPORT_GATE_SLAB_MIB
    count = 5 if smoke else 20
    rows = [measure_transport(t, slab_mib, count) for t in available_transports()]
    for row in rows:
        print(
            f"{'transport':12s} {row['transport']:9s} slab={row['slab_mib']:.0f}MiB: "
            f"zero-copy {row['zero_copy_mb_per_sec']:>8.1f} MB/s  "
            f"in-band {row['in_band_mb_per_sec']:>8.1f} MB/s  "
            f"speedup {row['zero_copy_speedup']:.2f}x"
        )
    return {"slab_mib": slab_mib, "round_trips": count, "rows": rows}


def transport_gate_failures(rows: list[dict]) -> list[str]:
    """The >=1.3x zero-copy acceptance on full-size slabs (tcp/mp-pipe).

    Loopback is excluded (its zero-copy side moves references, so the
    ratio is huge but says nothing about wires); the gate passes when
    *either* real wire clears the bar, since socket-vs-pipe relative
    cost is host-dependent.
    """
    eligible = [r for r in rows if r["transport"] in ("tcp", "mp-pipe")]
    if not eligible:  # pragma: no cover - defensive
        return ["transport gate: no tcp/mp-pipe rows measured"]
    best = max(r["zero_copy_speedup"] for r in eligible)
    if best < TRANSPORT_GATE_MIN_SPEEDUP:
        return [
            f"transport gate: best zero-copy speedup {best:.3f}x over tcp/mp-pipe "
            f"< required {TRANSPORT_GATE_MIN_SPEEDUP}x on "
            f">= {TRANSPORT_GATE_SLAB_MIB} MiB slabs"
        ]
    return []


# ----------------------------------------------------------------------
# Distributed section: the dispatcher over real `repro-lb worker` processes
# ----------------------------------------------------------------------
def _spawn_local_workers(count: int, authkey: str | None = None) -> tuple[list, list[str]]:
    """Launch ``count`` ``repro-lb worker`` subprocesses on loopback.

    Returns once every worker has answered a handshake:
    ``launch_worker_process`` returns before its worker is up, and no
    timed row (nor a kill timer) may start during worker start-up.  A
    worker that fails to start raises with the tail of its output.
    """
    from repro.distributed.dispatcher import close_workers, connect_workers
    from repro.distributed.worker import launch_worker_process

    extra_args = ("--authkey", authkey) if authkey else ()
    procs, addrs = [], []
    try:
        for _ in range(count):
            proc, addr = launch_worker_process(extra_args=extra_args)
            procs.append(proc)
            addrs.append(addr)
        try:
            close_workers(connect_workers(addrs, authkey=authkey))
        except Exception as exc:
            tails = [
                f"{addr}: {' | '.join(proc.log_tail)}"
                for proc, addr in zip(procs, addrs) if proc.log_tail
            ]
            raise RuntimeError("; ".join([str(exc), *tails])) from exc
    except BaseException:
        _stop_local_workers(procs)
        raise
    return procs, addrs


def _stop_local_workers(procs: list) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except Exception:  # pragma: no cover - defensive
            proc.kill()


def measure_dispatch_partitioned(side, mode, rounds, worker_addrs, partitions=4,
                                 repeats: int = 2) -> dict:
    """One serial-vs-dispatched comparison row over real TCP workers.

    The same single-block serial baseline as the partitioned section;
    the distributed side round-robins ``partitions`` blocks over the
    workers and pays real rendezvous + TCP halo traffic, reported as
    per-link bytes/round next to the halo value counters.
    """
    from repro.distributed.dispatcher import dispatch_partitioned

    topo = torus_2d(side, side)
    loads = _initial_loads(topo.n, discrete=mode == "discrete")
    _time_serial(topo, mode, "diffusion", loads, 1, 2)
    single_s = min(_time_serial(topo, mode, "diffusion", loads, 1, rounds) for _ in range(repeats))
    disp_s = float("inf")
    stats: dict = {}
    for _ in range(repeats):
        bal = DiffusionBalancer(topo, mode=mode)
        start = time.perf_counter()
        _, s = dispatch_partitioned(
            bal, loads, worker_addrs, partitions=partitions, strategy="bfs",
            stopping=[MaxRounds(rounds)],
        )
        elapsed = time.perf_counter() - start
        if elapsed < disp_s:
            disp_s, stats = elapsed, s
    return {
        "kind": "partitioned-dispatch",
        "n": topo.n,
        "mode": mode,
        "rounds": rounds,
        "partitions": partitions,
        "workers": len(worker_addrs),
        "transport": "tcp",
        "single_seconds": round(single_s, 6),
        "dispatched_seconds": round(disp_s, 6),
        "dispatched_speedup": round(single_s / disp_s, 3),
        "halo_values_per_round": round(stats.get("halo_values", 0) / max(rounds, 1), 1),
        "halo_bytes_per_round": round(stats.get("halo_bytes", 0) / max(rounds, 1), 1),
        "link_bytes_per_round": {
            link: round(nbytes / max(rounds, 1), 1)
            for link, nbytes in sorted(stats.get("links", {}).items())
        },
        "blocks_by_worker": stats.get("blocks_by_worker", {}),
    }


def measure_dispatch_sharded(side, replicas, mode, rounds, worker_addrs,
                             repeats: int = 2) -> dict:
    """One vectorized-vs-dispatched shard comparison row over TCP workers."""
    from repro.distributed.dispatcher import dispatch_sharded

    topo = torus_2d(side, side)
    loads = _initial_loads(topo.n, discrete=mode == "discrete")
    _time_batched(topo, mode, "diffusion", loads, min(replicas, 2), 2)
    vec_s = min(
        _time_batched(topo, mode, "diffusion", loads, replicas, rounds) for _ in range(repeats)
    )
    disp_s = float("inf")
    stats: dict = {}
    for _ in range(repeats):
        bal = DiffusionBalancer(topo, mode=mode)
        start = time.perf_counter()
        _, s = dispatch_sharded(
            bal, loads, worker_addrs, shards=len(worker_addrs), seed=SEED,
            replicas=replicas, stopping=[MaxRounds(rounds)],
        )
        elapsed = time.perf_counter() - start
        if elapsed < disp_s:
            disp_s, stats = elapsed, s
    control_bytes = sum(
        t["bytes_sent"] + t["bytes_received"]
        for t in stats.get("control_traffic", {}).values()
    )
    return {
        "kind": "sharded-dispatch",
        "n": topo.n,
        "replicas": replicas,
        "mode": mode,
        "rounds": rounds,
        "shards": stats.get("shards"),
        "workers": len(worker_addrs),
        "transport": "tcp",
        "vectorized_seconds": round(vec_s, 6),
        "dispatched_seconds": round(disp_s, 6),
        "dispatched_speedup": round(vec_s / disp_s, 3),
        "control_bytes_total": control_bytes,
        "shards_by_worker": stats.get("shards_by_worker", {}),
    }


def measure_dispatch_hardened(side, replicas, mode, rounds, plain_row,
                              repeats: int = 2) -> dict:
    """Heartbeat + HMAC-auth overhead on the sharded dispatch row.

    Spawns its own pair of *keyed* workers (the hardened handshake needs
    both sides keyed), reruns the exact workload of ``plain_row`` with a
    heartbeat stream and authenticated rendezvous, and reports the
    overhead against that row's plain dispatched time.  Recorded, not
    gated — the expectation is "within noise": auth costs two HMAC
    round-trips at rendezvous and beats ride send_nowait.
    """
    from repro.distributed.dispatcher import dispatch_sharded

    authkey = "bench-hardened"
    heartbeat = 0.5
    topo = torus_2d(side, side)
    loads = _initial_loads(topo.n, discrete=mode == "discrete")
    procs, addrs = _spawn_local_workers(2, authkey=authkey)
    try:
        disp_s = float("inf")
        stats: dict = {}
        for _ in range(repeats):
            bal = DiffusionBalancer(topo, mode=mode)
            start = time.perf_counter()
            _, s = dispatch_sharded(
                bal, loads, addrs, shards=len(addrs), seed=SEED,
                replicas=replicas, stopping=[MaxRounds(rounds)],
                authkey=authkey, heartbeat=heartbeat,
            )
            elapsed = time.perf_counter() - start
            if elapsed < disp_s:
                disp_s, stats = elapsed, s
    finally:
        _stop_local_workers(procs)
    plain_s = plain_row["dispatched_seconds"]
    return {
        "kind": "sharded-dispatch-hardened",
        "n": topo.n,
        "replicas": replicas,
        "mode": mode,
        "rounds": rounds,
        "workers": len(addrs),
        "transport": "tcp",
        "auth": stats.get("auth", False),
        "heartbeat": heartbeat,
        "plain_seconds": plain_s,
        "hardened_seconds": round(disp_s, 6),
        "hardened_overhead_pct": round(100.0 * (disp_s - plain_s) / plain_s, 1),
    }


def measure_recovery_row(smoke: bool) -> dict:
    """Kill-one-worker re-dispatch: recovery time on a 3-worker sweep.

    Runs the same sharded ensemble twice over 3 self-spawned workers:
    once clean, once SIGKILLing one worker mid-sweep so its in-flight
    shards re-queue onto the survivors.  Reports the wall-clock cost of
    the recovery (detect EOF, probe the dead address, re-deal) on top of
    the clean run.  Both traces are bit-for-bit identical by the
    re-queue determinism contract; the row records only timing.
    """
    import threading

    from repro.distributed.dispatcher import dispatch_sharded

    side = 32
    replicas, shards = 6, 6
    # Sized so each single-replica shard runs >~1 s (per-round engine
    # overhead dominates at this n) — the kill must land while the
    # victim still has shards in flight.
    rounds = 5_000 if smoke else 10_000
    kill_at = 0.4 if smoke else 0.8
    topo = torus_2d(side, side)
    loads = _initial_loads(topo.n, discrete=False)

    def _run(kill: bool):
        # Workers are ready on return, so the kill lands mid-sweep and
        # neither timing includes worker start-up.
        procs, addrs = _spawn_local_workers(3)
        try:
            killer = threading.Timer(kill_at, procs[0].kill) if kill else None
            if killer is not None:
                killer.start()
            start = time.perf_counter()
            try:
                _, stats = dispatch_sharded(
                    DiffusionBalancer(topo), loads, addrs, shards=shards,
                    seed=SEED, replicas=replicas, stopping=[MaxRounds(rounds)],
                    timeout=120.0,
                )
            finally:
                if killer is not None:
                    killer.cancel()
            return time.perf_counter() - start, stats
        finally:
            _stop_local_workers(procs)

    clean_s, _ = _run(kill=False)
    killed_s, stats = _run(kill=True)
    return {
        "kind": "sharded-dispatch-recovery",
        "n": topo.n,
        "replicas": replicas,
        "shards": shards,
        "mode": "continuous",
        "rounds": rounds,
        "workers": 3,
        "transport": "tcp",
        "killed_after_seconds": kill_at,
        "clean_seconds": round(clean_s, 6),
        "recovered_seconds": round(killed_s, 6),
        "recovery_overhead_seconds": round(killed_s - clean_s, 6),
        "requeued_shards": stats.get("requeued_shards", 0),
        "retries": stats.get("retries", 0),
    }


def measure_distributed_section(smoke: bool, worker_addrs: list[str] | None = None) -> dict:
    """The dispatcher rows, against given workers or 2 self-spawned ones.

    Recorded, not gated: on a single host the rows measure the
    rendezvous + TCP overhead a real deployment amortizes over larger
    subproblems (loopback cannot exhibit multi-host parallelism).  The
    per-link bytes/round counters are the payload a cluster operator
    capacity-plans with.
    """
    side = 32 if smoke else 64
    rounds = 20 if smoke else 100
    replicas = 16 if smoke else 64
    procs: list = []
    spawned = worker_addrs is None or not worker_addrs
    if spawned:
        procs, worker_addrs = _spawn_local_workers(2)
    try:
        rows = [
            measure_dispatch_partitioned(side, "discrete", rounds, worker_addrs),
            measure_dispatch_sharded(side, replicas, "continuous", rounds, worker_addrs),
        ]
        rows.append(
            measure_dispatch_hardened(side, replicas, "continuous", rounds, rows[-1])
        )
    finally:
        _stop_local_workers(procs)
    rows.append(measure_recovery_row(smoke))
    for row in rows:
        if row["kind"] == "partitioned-dispatch":
            print(
                f"{'dispatch':12s} n={row['n']:5d} P={row['partitions']} "
                f"{row['mode']:10s} [{row['workers']} workers, tcp]: "
                f"speedup {row['dispatched_speedup']:.2f}x  "
                f"halo {row['halo_values_per_round']:.0f} values "
                f"/ {row['halo_bytes_per_round']:.0f} B per round"
            )
        elif row["kind"] == "sharded-dispatch-hardened":
            print(
                f"{'dispatch':12s} n={row['n']:5d} B={row['replicas']:3d} "
                f"{row['mode']:10s} [auth+hb, {row['workers']} workers, tcp]: "
                f"hardened {row['hardened_seconds']:.3f}s vs plain "
                f"{row['plain_seconds']:.3f}s "
                f"({row['hardened_overhead_pct']:+.1f}%)"
            )
        elif row["kind"] == "sharded-dispatch-recovery":
            print(
                f"{'dispatch':12s} n={row['n']:5d} B={row['replicas']:3d} "
                f"{row['mode']:10s} [kill 1/{row['workers']} workers, tcp]: "
                f"recovered {row['recovered_seconds']:.3f}s vs clean "
                f"{row['clean_seconds']:.3f}s  "
                f"requeued {row['requeued_shards']} shard(s) "
                f"over {row['retries']} retry(ies)"
            )
        else:
            print(
                f"{'dispatch':12s} n={row['n']:5d} B={row['replicas']:3d} "
                f"{row['mode']:10s} [{row['shards']} shards, {row['workers']} workers, tcp]: "
                f"speedup {row['dispatched_speedup']:.2f}x  "
                f"control {row['control_bytes_total']} B"
            )
    return {
        "workers": list(worker_addrs),
        "spawned_local_workers": spawned,
        "rows": rows,
    }


def _median_ratio(num: list[float], den: list[float]) -> float:
    """Median of per-repeat paired ratios — one poisoned timing window
    shifts one ratio, not the estimate (the overhead gates sit at 2%,
    far below the burst noise a shared host can inject)."""
    ratios = sorted(a / b for a, b in zip(num, den))
    mid = len(ratios) // 2
    if len(ratios) % 2:
        return ratios[mid]
    return (ratios[mid - 1] + ratios[mid]) / 2.0


def measure_telemetry_overhead(side, mode, rounds, repeats: int = 5,
                               backend: str | None = None) -> dict:
    """Instrumented-vs-plain serial round loop, plus the tracing-on cost.

    Three timings of the same ``(balancer, loads, seed)`` workload:

    - ``plain``: a verbatim copy of the pre-telemetry round loop (step /
      record / stopping check, no recorder interaction at all);
    - ``tracing off``: the instrumented :class:`Simulator` loop with the
      recorder disabled — the production default, whose only extra work
      is a hoisted local-bool branch per round;
    - ``tracing on``: the same loop with an in-memory tracing recorder
      installed (per-round spans + per-kernel timings).

    ``tracing_off_overhead`` is the fractional cost of carrying the
    disabled instrumentation; the telemetry acceptance requires <= 2%
    at full size.  Best-of-``repeats`` timings shed scheduler noise.
    """
    from repro.observability.recorder import Recorder, set_recorder
    from repro.simulation.ensemble import audit_replica_sums
    from repro.simulation.stopping import first_satisfied
    from repro.simulation.trace import Trace

    topo = torus_2d(side, side)
    loads = _initial_loads(topo.n, mode == "discrete")

    def run_plain() -> float:
        # Verbatim pre-telemetry Simulator.run (same attribute-access
        # patterns — a locals-hoisted copy would flatter the plain side).
        sim = Simulator(_make_balancer(topo, mode, "diffusion", backend),
                        stopping=[MaxRounds(rounds)], check_conservation=False, record="full")
        start = time.perf_counter()
        rng = np.random.default_rng(SEED)
        sim.balancer.reset()
        current = sim.balancer.validate_loads(loads.copy())
        trace = Trace(balancer_name=sim.balancer.name,
                      keep_snapshots=sim.keep_snapshots)
        trace.record(current)
        initial_sum = float(np.asarray(current, dtype=np.float64).sum())
        tol = None if mode == "discrete" else sim.cons_tol * max(abs(initial_sum), 1.0)
        rule = first_satisfied(sim.stopping, trace)
        while rule is None:
            current = sim.balancer.step(current, rng)
            trace.record(current)
            if sim.check_conservation:
                audit_replica_sums(sim.balancer.name, trace._sums[-1], initial_sum, tol)
            rule = first_satisfied(sim.stopping, trace)
        trace.stopped_by = rule.reason
        return time.perf_counter() - start

    def run_instrumented() -> float:
        bal = _make_balancer(topo, mode, "diffusion", backend)
        sim = Simulator(bal, stopping=[MaxRounds(rounds)], check_conservation=False,
                        record="full")
        start = time.perf_counter()
        sim.run(loads.copy(), SEED)
        return time.perf_counter() - start

    # Interleave the three variants inside each repeat (plain → off → on)
    # so frequency scaling and cache warmth hit all of them alike.
    # Overheads are estimated via _median_ratio; throughputs report
    # best-of-repeats as usual.
    plain_ts, off_ts, on_ts = [], [], []
    run_plain()  # shared warmup: first-touch allocations, kernel caches
    for _ in range(repeats):
        plain_ts.append(run_plain())
        off_ts.append(run_instrumented())
        previous = set_recorder(Recorder(enabled=True, role="bench"))
        try:
            on_ts.append(run_instrumented())
        finally:
            set_recorder(previous)

    return {
        "n": topo.n,
        "mode": mode,
        "rounds": rounds,
        "repeats": repeats,
        "plain_rounds_per_sec": round(rounds / min(plain_ts), 1),
        "tracing_off_rounds_per_sec": round(rounds / min(off_ts), 1),
        "tracing_on_rounds_per_sec": round(rounds / min(on_ts), 1),
        "tracing_off_overhead": round(_median_ratio(off_ts, plain_ts) - 1.0, 4),
        "tracing_on_overhead": round(_median_ratio(on_ts, plain_ts) - 1.0, 4),
    }


def measure_endpoints_overhead(side, mode, rounds, repeats: int = 5,
                               backend: str | None = None) -> dict:
    """Cost of serving the HTTP observability plane while a run is live.

    Both variants run the instrumented :class:`Simulator` loop with an
    enabled tracing recorder installed — the recording cost itself is
    already metered by :func:`measure_telemetry_overhead`; this row
    isolates the *serve-side* cost (the ``--serve-metrics`` thread plus
    snapshot locking on the shared recorder):

    - ``endpoints off``: recorder installed, no server;
    - ``endpoints on``: same, with a live :class:`MetricsServer` bound to
      an ephemeral loopback port; ``/metrics`` is scraped once per repeat
      *outside* the timed window to prove the plane answers.

    ``endpoints_overhead`` is the fractional cost of keeping the plane
    up; the telemetry acceptance requires <= 2% at full size.
    """
    from repro.observability.recorder import Recorder, set_recorder
    from repro.observability.server import get_status_board, start_metrics_server

    topo = torus_2d(side, side)
    loads = _initial_loads(topo.n, mode == "discrete")

    def run_once() -> float:
        bal = _make_balancer(topo, mode, "diffusion", backend)
        sim = Simulator(bal, stopping=[MaxRounds(rounds)], check_conservation=False,
                        record="full")
        start = time.perf_counter()
        sim.run(loads.copy(), SEED)
        return time.perf_counter() - start

    # Each timed run gets a fresh recorder (a reused one accumulates
    # events across repeats, slowing later windows asymmetrically).
    off_ts, on_ts = [], []
    scrape_bytes = 0
    previous = set_recorder(Recorder(enabled=True, role="bench"))
    try:
        run_once()  # warmup: first-touch allocations, kernel caches
        for _ in range(repeats):
            set_recorder(Recorder(enabled=True, role="bench"))
            off_ts.append(run_once())
            rec = Recorder(enabled=True, role="bench")
            set_recorder(rec)
            srv = start_metrics_server("127.0.0.1:0", recorder=rec)
            try:
                on_ts.append(run_once())
                # Liveness proof, deliberately outside the timed window:
                # the gate meters coexistence cost, not scrape traffic.
                from urllib.request import urlopen
                with urlopen(srv.url + "/metrics", timeout=5) as resp:
                    scrape_bytes = len(resp.read())
            finally:
                srv.stop()
    finally:
        set_recorder(previous)
        get_status_board().clear()

    return {
        "n": topo.n,
        "mode": mode,
        "rounds": rounds,
        "repeats": repeats,
        "endpoints_off_rounds_per_sec": round(rounds / min(off_ts), 1),
        "endpoints_on_rounds_per_sec": round(rounds / min(on_ts), 1),
        "endpoints_overhead": round(_median_ratio(on_ts, off_ts) - 1.0, 4),
        "scrape_bytes": scrape_bytes,
    }


def measure_backend_rows(smoke: bool, grid_rows: list[dict] | None = None) -> list[dict]:
    """Headline (n=4096, B=64) diffusion rows for every available backend.

    The backend that just ran the main grid already measured the exact
    same configuration; its rows are **reused** rather than re-measured —
    the (4096, B=64) cells are the slowest in the suite, and a second
    independent measurement under the same (n, B, mode, scheme, backend)
    key would shadow the main-grid row in the regression guard's lookup.
    """
    grid_rows = grid_rows or []
    rows = []
    rounds = 30 if smoke else 200
    for backend in available_backends():
        for mode in ("continuous", "discrete"):
            reused = next(
                (
                    r for r in grid_rows
                    if r["n"] == 4096 and r["replicas"] == 64 and r["mode"] == mode
                    and r["scheme"] == "diffusion" and r["backend"] == backend
                ),
                None,
            )
            row = reused if reused is not None else measure(
                64, 64, mode, rounds, repeats=3, backend=backend
            )
            rows.append(row)
            note = " (from main grid)" if reused is not None else ""
            print(
                f"{'backend':12s} n={row['n']:5d} B=64  {mode:10s} [{backend}]: "
                f"serial {row['serial_replica_rounds_per_sec']:>10.1f} rr/s  "
                f"batched {row['batched_replica_rounds_per_sec']:>10.1f} rr/s  "
                f"speedup {row['speedup']:.2f}x{note}"
            )
    return rows


def run_suite(smoke: bool = False, backend: str | None = None,
              dist_workers: list[str] | None = None) -> dict:
    """The full grid; ``smoke`` shrinks the round counts for CI.

    ``dist_workers`` points the distributed section at already-running
    ``repro-lb worker`` addresses (the CI distributed leg launches two
    over TCP loopback); by default two local workers are spawned for the
    duration of the section.
    """
    backend = resolve_backend(backend)
    rows = []
    grid = [
        # (side, replicas, mode, rounds, scheme)
        (16, 1, "continuous", 60 if smoke else 400, "diffusion"),
        (16, 64, "continuous", 60 if smoke else 400, "diffusion"),
        (16, 64, "discrete", 60 if smoke else 400, "diffusion"),
        (64, 1, "continuous", 30 if smoke else 200, "diffusion"),
        (64, 64, "continuous", 30 if smoke else 200, "diffusion"),
        (64, 64, "discrete", 30 if smoke else 200, "diffusion"),
        (16, 64, "continuous", 60 if smoke else 400, "matching-de"),
        (16, 64, "discrete", 60 if smoke else 400, "matching-de"),
        (64, 64, "continuous", 20 if smoke else 60, "matching-de"),
        (64, 64, "discrete", 20 if smoke else 60, "matching-de"),
    ]
    for side, replicas, mode, rounds, scheme in grid:
        row = measure(side, replicas, mode, rounds, scheme=scheme, backend=backend)
        rows.append(row)
        print(
            f"{scheme:12s} n={row['n']:5d} B={replicas:3d} {mode:10s} [{row['backend']}]: "
            f"serial {row['serial_replica_rounds_per_sec']:>10.1f} rr/s  "
            f"batched {row['batched_replica_rounds_per_sec']:>10.1f} rr/s  "
            f"speedup {row['speedup']:.2f}x"
        )
    backend_rows = measure_backend_rows(smoke, grid_rows=rows)
    cpus = _cpu_count()
    shard_workers = min(SHARD_WORKERS, max(cpus, 2))
    sharded_rows = [
        measure_sharded(64, 64 if smoke else 256, "continuous",
                        10 if smoke else 200, shard_workers),
        measure_sharded(64, 64 if smoke else 256, "discrete",
                        10 if smoke else 100, shard_workers),
    ]
    for row in sharded_rows:
        print(
            f"{'sharded':12s} n={row['n']:5d} B={row['replicas']:3d} {row['mode']:10s} "
            f"K={row['workers']}: vectorized {row['vectorized_replica_rounds_per_sec']:>10.1f} rr/s  "
            f"sharded {row['sharded_replica_rounds_per_sec']:>10.1f} rr/s  "
            f"speedup {row['sharded_speedup']:.2f}x"
        )

    # Node-axis partitioned section: one giant graph split into P
    # halo-exchanging blocks vs the single-block serial run (B = 1).
    # Smoke uses a 4096-node torus (records only — worker startup
    # dominates at smoke sizes); full runs measure the 65536-node gate
    # size.  Halo traffic is part of every row.
    part_side = 64 if smoke else PARTITION_GATE_SIDE
    part_rounds = 20 if smoke else 100
    partitioned_rows = [
        measure_partitioned(part_side, "continuous", part_rounds, pmode="inprocess", backend=backend),
        measure_partitioned(part_side, "discrete", part_rounds, pmode="inprocess", backend=backend),
        measure_partitioned(part_side, "continuous", part_rounds, pmode="process", backend=backend),
        measure_partitioned(part_side, "discrete", part_rounds, pmode="process", backend=backend),
        measure_partitioned(part_side, "discrete", part_rounds, partitions=2, pmode="process",
                            backend=backend),
        # Same process-mode row over TCP sockets: the wire a multi-host
        # deployment pays, yardsticked against pipes on the same host.
        measure_partitioned(part_side, "discrete", part_rounds, pmode="process",
                            backend=backend, transport="tcp"),
        # Delta-frame pair: a near-convergence discrete run where most
        # halo rows are unchanged round-to-round, dense vs delta framing.
        # The byte counters are deterministic; the delta-frames gate
        # requires the second row to move strictly fewer bytes.
        measure_partitioned(part_side, "discrete", part_rounds, pmode="process",
                            backend=backend, near_balanced=True),
        measure_partitioned(part_side, "discrete", part_rounds, pmode="process",
                            backend=backend, delta=True, near_balanced=True),
    ]
    for row in partitioned_rows:
        wire = f", {row['transport']}" if row.get("transport") else ""
        flags = "+delta" if row.get("delta_frames") else ""
        print(
            f"{'partitioned':12s} n={row['n']:5d} P={row['partitions']} "
            f"{row['mode']:10s} [{row['partition_mode']}{wire}{flags}, {row['backend']}]: "
            f"single {row['single_rounds_per_sec']:>8.1f} r/s  "
            f"partitioned {row['partitioned_rounds_per_sec']:>8.1f} r/s  "
            f"speedup {row['partitioned_speedup']:.2f}x  "
            f"halo {row['halo_values_per_round']:.0f} values "
            f"/ {row['halo_bytes_per_round']:.0f} B per round"
        )

    # Distributed section: the rendezvous dispatcher driving real
    # `repro-lb worker` processes over TCP loopback.
    distributed = measure_distributed_section(smoke, dist_workers)

    # Transport microbench: the frame layer itself, per channel.
    transport_section = measure_transport_section(smoke)

    # Telemetry overhead: the instrumented round loop with tracing off
    # must cost (almost) nothing vs the plain pre-telemetry loop.
    telemetry_row = measure_telemetry_overhead(
        64, "continuous", 40 if smoke else 200, repeats=5 if smoke else 15,
        backend=backend)
    print(
        f"{'telemetry':12s} n={telemetry_row['n']:5d} {telemetry_row['mode']:10s}: "
        f"plain {telemetry_row['plain_rounds_per_sec']:>8.1f} r/s  "
        f"tracing-off overhead {telemetry_row['tracing_off_overhead']:+.1%}  "
        f"tracing-on overhead {telemetry_row['tracing_on_overhead']:+.1%}"
    )

    # HTTP observability plane: a live --serve-metrics endpoint must not
    # slow a traced run beyond noise.
    endpoints_row = measure_endpoints_overhead(
        64, "continuous", 40 if smoke else 200, repeats=5 if smoke else 15,
        backend=backend)
    print(
        f"{'endpoints':12s} n={endpoints_row['n']:5d} {endpoints_row['mode']:10s}: "
        f"off {endpoints_row['endpoints_off_rounds_per_sec']:>8.1f} r/s  "
        f"serve-metrics overhead {endpoints_row['endpoints_overhead']:+.1%}  "
        f"scrape {endpoints_row['scrape_bytes']} B"
    )

    def _row(n, replicas, mode, scheme):
        return next(
            r for r in rows
            if r["n"] == n and r["replicas"] == replicas
            and r["mode"] == mode and r["scheme"] == scheme
        )

    def _backend_row(mode, name):
        return next(
            (r for r in backend_rows if r["mode"] == mode and r["backend"] == name), None
        )

    headline = _row(4096, 64, "continuous", "diffusion")
    discrete = _row(4096, 64, "discrete", "diffusion")
    de = _row(4096, 64, "continuous", "matching-de")
    sharded = sharded_rows[0]
    parallel_host = cpus >= 4
    part_gate = next(
        r for r in partitioned_rows
        if r["partition_mode"] == "process" and r["mode"] == "discrete"
        and r["transport"] == "mp-pipe"
        and r["loads"] == "default" and r["partitions"] == PARTITION_BLOCKS
    )
    delta_off = next(
        r for r in partitioned_rows
        if r["loads"] == "near-balanced" and not r["delta_frames"]
    )
    delta_on = next(
        r for r in partitioned_rows
        if r["loads"] == "near-balanced" and r["delta_frames"]
    )
    delta_ratio = (
        round(delta_on["halo_bytes_per_round"] / delta_off["halo_bytes_per_round"], 3)
        if delta_off["halo_bytes_per_round"] else None
    )
    numba_disc = _backend_row("discrete", "numba")
    scipy_disc = _backend_row("discrete", "scipy")
    numba_ratio = None
    if numba_disc is not None and scipy_disc is not None:
        numba_ratio = round(
            numba_disc["batched_replica_rounds_per_sec"]
            / scipy_disc["batched_replica_rounds_per_sec"],
            3,
        )
    return {
        "benchmark": "bench_ensemble",
        "units": "replica-rounds per second (higher is better)",
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpus": cpus,
        },
        "backends_available": available_backends(),
        "acceptance": {
            "batched": {
                "criterion": "EnsembleSimulator B=64 >= 4x rounds/sec of 64 sequential "
                "Simulator.run calls on a 4096-node torus (continuous diffusion).  The "
                "original PR-1 gate was 5x; the backend seam then sped the *serial* side "
                "~20% (matvecs now hit the C kernels directly instead of the sparse-array "
                "wrapper), shrinking the ratio while batched throughput was unchanged, so "
                "the floor is recalibrated against the faster serial baseline",
                "speedup": headline["speedup"],
                "passed": headline["speedup"] >= 4.0,
            },
            "discrete": {
                "criterion": "discrete diffusion B=64 on the 4096-node torus > the 1.346x the "
                "int64-division kernel measured (the reciprocal floor-division kernel speeds "
                "the serial side too, so absolute throughput gains ~30% while the ratio "
                "moves less)",
                "speedup": discrete["speedup"],
                "batched_replica_rounds_per_sec": discrete["batched_replica_rounds_per_sec"],
                "previous_batched_replica_rounds_per_sec": 9476.7,
                "passed": discrete["speedup"] > 1.346,
            },
            "numba-fused-discrete": {
                "criterion": "fused numba discrete round (n=4096, B=64) >= "
                f"{NUMBA_DISCRETE_GATE}x the same-host scipy backend's batched throughput "
                "(the committed scipy-host baseline measured 12595.2 rr/s, so the target is "
                ">= ~19k rr/s on comparable hardware); recorded but not gated when numba "
                "is unavailable or at smoke sizes",
                "available": numba_disc is not None,
                "speedup_vs_scipy": numba_ratio,
                "batched_replica_rounds_per_sec": (
                    numba_disc["batched_replica_rounds_per_sec"] if numba_disc else None
                ),
                "passed": (
                    numba_ratio >= NUMBA_DISCRETE_GATE
                    if (numba_ratio is not None and not smoke)
                    else None
                ),
            },
            "dimension-exchange": {
                "criterion": "batched per-replica Luby matchings B=64 on the 4096-node torus "
                ">= 2x the serial dimension-exchange loop",
                "speedup": de["speedup"],
                "passed": de["speedup"] >= 2.0,
            },
            "sharded": {
                "criterion": "sharded B=256 (K process-local ensemble shards) >= 2x the "
                "single-process vectorized path on the 4096-node torus; applies to hosts "
                "with >= 4 usable cores — core count is detected at check time, so CI "
                "runners enforce the gate while on smaller hosts the measured ratio is "
                "recorded but not gated (process parallelism cannot exceed the core count)",
                "speedup": sharded["sharded_speedup"],
                "workers": sharded["workers"],
                "cpus": cpus,
                "passed": sharded["sharded_speedup"] >= 2.0 if parallel_host else None,
            },
            "partitioned": {
                "criterion": "node-axis partitioned execution (P=4 persistent worker "
                "processes + pipe halo exchange, discrete diffusion, B=1) beats the "
                "single-block serial run on the 65536-node torus (>= 1.0x) on hosts "
                "with >= 4 usable cores; trajectories are bit-for-bit identical, so "
                "the row measures pure execution speedup plus the halo traffic paid. "
                "Smoke sizes and smaller hosts record the measured ratio with "
                "passed: null (CI enforces the gate via a full-size check-time row)",
                "speedup": part_gate["partitioned_speedup"],
                "partitions": part_gate["partitions"],
                "n": part_gate["n"],
                "halo_values_per_round": part_gate["halo_values_per_round"],
                "cpus": cpus,
                "passed": (
                    part_gate["partitioned_speedup"] >= 1.0
                    if (parallel_host and not smoke)
                    else None
                ),
            },
            "delta-frames": {
                "criterion": "near-convergence discrete delta framing (changed-row "
                "index + values, dense fallback when not smaller) moves strictly "
                "fewer halo bytes per round than dense framing on the same run.  "
                "Byte counters are deterministic, so the gate is enforced at every "
                "size and on every host",
                "halo_bytes_per_round_dense": delta_off["halo_bytes_per_round"],
                "halo_bytes_per_round_delta": delta_on["halo_bytes_per_round"],
                "bytes_ratio": delta_ratio,
                "passed": (
                    delta_on["halo_bytes_per_round"] < delta_off["halo_bytes_per_round"]
                ),
            },
            "telemetry": {
                "criterion": "the instrumented serial round loop with tracing off "
                "(recorder disabled — the production default) costs <= 2% over a "
                "verbatim copy of the plain pre-telemetry loop on the 4096-node "
                "torus; the tracing-on cost is recorded alongside.  Smoke sizes "
                "record the measured overheads with passed: null (short loops "
                "are too noise-dominated to gate a 2% margin)",
                "tracing_off_overhead": telemetry_row["tracing_off_overhead"],
                "tracing_on_overhead": telemetry_row["tracing_on_overhead"],
                "endpoints_criterion": "a live --serve-metrics HTTP plane "
                "(ephemeral loopback MetricsServer on a traced run, /metrics "
                "scraped once per repeat outside the timed window) costs "
                "<= 2% over the same traced run without the server",
                "endpoints_overhead": endpoints_row["endpoints_overhead"],
                "passed": (
                    telemetry_row["tracing_off_overhead"] <= 0.02
                    and endpoints_row["endpoints_overhead"] <= 0.02
                    if not smoke else None
                ),
            },
            "transport-zero-copy": {
                "criterion": "protocol-5 out-of-band frames move "
                f">= {TRANSPORT_GATE_SLAB_MIB} MiB slabs at "
                f">= {TRANSPORT_GATE_MIN_SPEEDUP}x the in-band (pickle-blob) "
                "framing's MB/s over tcp or mp-pipe.  Smoke sizes record the "
                "measured ratios with passed: null (CI enforces via a "
                "full-size check-time measurement)",
                "speedups": {
                    r["transport"]: r["zero_copy_speedup"]
                    for r in transport_section["rows"]
                },
                "passed": (
                    not transport_gate_failures(transport_section["rows"])
                    if not smoke
                    else None
                ),
            },
        },
        "results": rows,
        "backend_results": backend_rows,
        "sharded": sharded_rows,
        "partitioned": partitioned_rows,
        "distributed": distributed,
        "transport": transport_section,
        "telemetry": telemetry_row,
        "endpoints": endpoints_row,
        "smoke": smoke,
    }


def _row_key(row: dict) -> tuple:
    return (
        row["n"],
        row["replicas"],
        row["mode"],
        row.get("scheme", "diffusion"),
        row.get("backend", "scipy"),
    )


def check_against(report: dict, baseline_path: Path, tolerance: float = 0.30) -> list[str]:
    """Regression guard: compare measured speedups to the committed baseline.

    Speedups are machine-normalized throughput ratios (both sides of a
    row run on the same host), so they transfer across machines far
    better than raw replica-rounds/sec.  A smoke-sized report compares
    against the baseline's ``smoke_results``/``smoke_backend_results``
    (smoke rounds amortize fixed overheads less, so full-run speedups
    would be a biased yardstick).  Rows are matched on
    ``(n, B, mode, scheme, backend)``; rows with no baseline counterpart
    (e.g. numba rows against a scipy-only baseline) are skipped.  A row
    regresses when its measured speedup falls more than ``tolerance``
    below the baseline's.  Returns failure strings (empty = pass).
    """
    baseline = json.loads(Path(baseline_path).read_text())
    if report.get("smoke") and "smoke_results" in baseline:
        reference = list(baseline["smoke_results"]) + list(
            baseline.get("smoke_backend_results", [])
        )
    else:
        reference = list(baseline["results"]) + list(baseline.get("backend_results", []))
    base_rows = {_row_key(r): r["speedup"] for r in reference}
    failures = []
    for row in list(report["results"]) + list(report.get("backend_results", [])):
        base = base_rows.get(_row_key(row))
        if base is None:
            continue
        floor = (1.0 - tolerance) * base
        if row["speedup"] < floor:
            failures.append(
                f"{_row_key(row)}: speedup {row['speedup']:.3f}x < {floor:.3f}x "
                f"(baseline {base:.3f}x - {tolerance:.0%})"
            )
    return failures


def skipped_gate_names(report: dict) -> list[str]:
    """Acceptance gates recorded but not enforced on this host.

    A gate whose precondition the host lacks (< 4 cores for the sharded
    and partitioned gates, no numba for the fused gate, smoke sizes for
    full-run-only criteria) carries ``passed: null``.  The ``--check``
    summary line names these explicitly — a green line that silently
    omitted unenforced gates used to read as "everything was gated".
    """
    return sorted(
        name
        for name, acc in report.get("acceptance", {}).items()
        if acc.get("passed", False) is None
    )


def check_summary_line(report: dict, baseline_path) -> str:
    """The summary printed when ``--check`` finds no regression."""
    line = f"no >30% speedup regression vs {baseline_path}; runtime gates OK"
    skipped = skipped_gate_names(report)
    if skipped:
        line += (
            "; gates skipped on this host (passed: null): " + ", ".join(skipped)
        )
    return line


def runtime_gates(report: dict, smoke: bool) -> list[str]:
    """Host-condition gates evaluated at check time (not baseline-relative).

    - fused-numba discrete must beat the same-host scipy row (full runs:
      >= NUMBA_DISCRETE_GATE; smoke: >= NUMBA_DISCRETE_SMOKE_FLOOR, a
      pessimization guard) whenever numba is available;
    - the >=2x sharded acceptance is enforced on >=4-core hosts.  In
      smoke mode the grid's sharded rows are startup-dominated, so a
      dedicated full-size gate row is measured instead (see main()).
    """
    failures = []
    acc = report["acceptance"].get("numba-fused-discrete", {})
    ratio = acc.get("speedup_vs_scipy")
    if ratio is not None:
        floor = NUMBA_DISCRETE_SMOKE_FLOOR if smoke else NUMBA_DISCRETE_GATE
        if ratio < floor:
            failures.append(
                f"numba fused discrete: {ratio:.3f}x scipy backend < required {floor}x"
            )
    # Delta-frame byte reduction is deterministic (counters, not timings),
    # so it is enforced on every host and at smoke sizes too.
    delta = report["acceptance"].get("delta-frames", {})
    if delta.get("passed") is False:
        failures.append(
            f"delta frames: {delta['halo_bytes_per_round_delta']} B/round not < "
            f"{delta['halo_bytes_per_round_dense']} B/round dense"
        )
    return failures


# ----------------------------------------------------------------------
# pytest entry points (smoke-sized)
# ----------------------------------------------------------------------
def test_ensemble_headline_speedup():
    """B=64 lockstep beats 64 sequential runs on the 4096-node torus.

    The full-size baseline gates the >=4x acceptance; at smoke rounds the
    fixed per-run overheads amortize less, so this asserts a conservative
    3.5x floor.
    """
    row = measure(64, 64, "continuous", rounds=30)
    assert row["speedup"] >= 3.5, f"expected >=3.5x, measured {row['speedup']}x"


def test_ensemble_beats_serial_small_torus():
    row = measure(16, 64, "continuous", rounds=60)
    assert row["speedup"] > 1.0


def test_dimension_exchange_batched_speedup():
    """Batched per-replica matchings beat the serial DE loop on the big torus."""
    row = measure(64, 64, "continuous", rounds=10, scheme="matching-de")
    assert row["speedup"] > 2.0, f"expected >2x, measured {row['speedup']}x"


def test_sharded_matches_vectorized_throughput_order():
    """Sharded execution stays within sanity range of vectorized even on
    hosts where process parallelism cannot pay off (the equivalence tests
    cover correctness; this guards against pathological overhead)."""
    row = measure_sharded(16, 32, "continuous", rounds=60, workers=2, repeats=2)
    assert row["sharded_speedup"] > 0.1, row


def test_partitioned_row_well_formed():
    """The partitioned bench row runs both modes and reports halo traffic.

    Correctness (bit-for-bit parity) is covered by the property tests;
    this guards the bench plumbing and against pathological overhead.
    """
    for pmode in ("inprocess", "process"):
        row = measure_partitioned(16, "discrete", 10, partitions=2, pmode=pmode, repeats=1)
        assert row["partitions"] == 2 and row["partition_mode"] == pmode
        assert row["halo_values_exchanged"] > 0
        assert row["partitioned_rounds_per_sec"] > 0
        assert row["partitioned_speedup"] > 0.01, row


def test_partitioned_row_reports_link_bytes():
    """Process-mode rows carry the per-link bytes/round counters the
    distributed section documents (transport channels meter payloads)."""
    row = measure_partitioned(16, "discrete", 10, partitions=2, pmode="process", repeats=1)
    assert row["halo_bytes_per_round"] > 0
    assert row["link_bytes_per_round"]
    assert all(v > 0 for v in row["link_bytes_per_round"].values())
    inproc = measure_partitioned(16, "discrete", 5, partitions=2, pmode="inprocess", repeats=1)
    assert inproc["halo_bytes_per_round"] == 0  # no serialization in-process


def test_partitioned_delta_rows_well_formed():
    """The dense/delta rows carry their flag and the near-convergence
    delta pair moves strictly fewer bytes (pytest-sized delta gate)."""
    dense = measure_partitioned(16, "discrete", 12, partitions=2, pmode="process",
                                repeats=1, near_balanced=True)
    delta = measure_partitioned(16, "discrete", 12, partitions=2, pmode="process",
                                repeats=1, delta=True, near_balanced=True)
    assert not dense["delta_frames"] and delta["delta_frames"]
    assert dense["loads"] == delta["loads"] == "near-balanced"
    assert 0 < delta["halo_bytes_per_round"] < dense["halo_bytes_per_round"], (
        dense["halo_bytes_per_round"], delta["halo_bytes_per_round"])


def test_telemetry_overhead_row_well_formed():
    """The instrumented-vs-plain row reports all three timings and the
    disabled path is not a pathological slowdown (the precise <= 2% gate
    is full-size-only; pytest sizes assert a loose sanity bound)."""
    row = measure_telemetry_overhead(16, "continuous", 60, repeats=2)
    assert row["plain_rounds_per_sec"] > 0
    assert row["tracing_off_rounds_per_sec"] > 0
    assert row["tracing_on_rounds_per_sec"] > 0
    assert row["tracing_off_overhead"] < 0.5, row
    from repro.observability import NULL_RECORDER
    from repro.observability.recorder import get_recorder

    assert get_recorder() is NULL_RECORDER  # bench restores the default


def test_endpoints_overhead_row_well_formed():
    """The serve-plane row reports both timings, a live scrape, and no
    pathological slowdown (the precise <= 2% gate is full-size-only;
    pytest sizes assert a loose sanity bound) — and leaves no recorder,
    server, or board state behind."""
    row = measure_endpoints_overhead(16, "continuous", 60, repeats=2)
    assert row["endpoints_off_rounds_per_sec"] > 0
    assert row["endpoints_on_rounds_per_sec"] > 0
    assert row["endpoints_overhead"] < 0.5, row
    assert row["scrape_bytes"] > 0  # the plane answered mid-run
    from repro.observability import NULL_RECORDER
    from repro.observability.recorder import get_recorder
    from repro.observability.server import get_status_board

    assert get_recorder() is NULL_RECORDER  # bench restores the default
    assert set(get_status_board().snapshot()) == {"uptime_s"}  # board cleared


def test_check_summary_lists_skipped_gates():
    """Gates a host cannot enforce must be named in the --check summary,
    not silently dropped (the passed: null reporting fix)."""
    report = {
        "acceptance": {
            "batched": {"passed": True},
            "sharded": {"passed": None},
            "partitioned": {"passed": None},
            "discrete": {"passed": False},
        }
    }
    assert skipped_gate_names(report) == ["partitioned", "sharded"]
    line = check_summary_line(report, "BENCH_ensemble.json")
    assert "gates skipped on this host (passed: null): partitioned, sharded" in line
    clean = {"acceptance": {"batched": {"passed": True}}}
    assert "skipped" not in check_summary_line(clean, "BENCH_ensemble.json")


def test_transport_microbench_zero_copy_wins_on_large_slabs():
    """Zero-copy frames beat the in-band pickle blob on full-size slabs
    over at least one real wire (the ISSUE-6 acceptance, pytest-sized)."""
    rows = [
        measure_transport(t, TRANSPORT_GATE_SLAB_MIB, 5, repeats=2)
        for t in ("mp-pipe", "tcp")
    ]
    for row in rows:
        assert row["zero_copy_mb_per_sec"] > 0 and row["in_band_mb_per_sec"] > 0
    assert not transport_gate_failures(rows), rows


def test_backend_rows_cover_available_backends():
    """Every available backend produces a well-formed headline row pair."""
    rows = [
        measure(16, 8, mode, rounds=20, repeats=1, backend=name)
        for name in available_backends()
        for mode in ("continuous", "discrete")
    ]
    assert {r["backend"] for r in rows} == set(available_backends())
    assert all(r["batched_replica_rounds_per_sec"] > 0 for r in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="short CI-sized run")
    parser.add_argument("--out", type=Path, default=None, help="write the JSON baseline here")
    parser.add_argument(
        "--backend", default=None, choices=BACKEND_CHOICES,
        help="kernel backend for the main grid (default: auto = fastest available); "
        "the per-backend section always covers every available backend",
    )
    parser.add_argument(
        "--check", type=Path, default=None, metavar="BASELINE",
        help="compare speedups against a committed baseline JSON; exit 1 on "
        ">30%% regression in any matched row or on a failed runtime gate",
    )
    parser.add_argument(
        "--partitioned-out", type=Path, default=None, metavar="PATH",
        help="additionally write just the node-axis partitioned section "
        "(rows + gate + halo counters) as a standalone JSON artifact",
    )
    parser.add_argument(
        "--dist-workers", nargs="*", default=None, metavar="HOST:PORT",
        help="addresses of running 'repro-lb worker' processes for the "
        "distributed section (default: spawn 2 local workers for its duration)",
    )
    args = parser.parse_args(argv)
    report = run_suite(smoke=args.smoke, backend=args.backend,
                       dist_workers=args.dist_workers)
    if args.out is not None and not args.smoke:
        # A committed baseline carries a smoke-sized row set too, so the CI
        # smoke guard compares like against like.  They are measured in a
        # fresh subprocess because that is what the CI guard runs: the full
        # grid leaves warmed allocator/cache state behind that inflates
        # in-process smoke numbers by ~30%.
        print("-- smoke rows for the regression guard (fresh process) --")
        import subprocess
        import tempfile

        with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
            subprocess.run(
                [sys.executable, __file__, "--smoke", "--out", tmp.name],
                check=True,
                env={**os.environ, "PYTHONPATH": os.environ.get("PYTHONPATH", "src")},
            )
            smoke_report = json.loads(Path(tmp.name).read_text())
            report["smoke_results"] = smoke_report["results"]
            report["smoke_backend_results"] = smoke_report["backend_results"]
    failures: list[str] = []
    cpus = _cpu_count()
    if args.check is not None and args.smoke and cpus >= 4:
        # The smoke grid's sharded rows are pool-startup-dominated, so the
        # >=2x gate gets its own full-size measurement on gate-eligible
        # (>=4-core) hosts — this is the "detect usable cores at check
        # time" half of the sharded acceptance.  400 rounds keep pool
        # startup well under 10% of the measured window.
        gate_row = measure_sharded(
            64, 256, "continuous", 400, min(SHARD_WORKERS, cpus), repeats=2
        )
        report["sharded_gate"] = gate_row
        print(
            f"{'sharded-gate':12s} n={gate_row['n']:5d} B={gate_row['replicas']:3d} "
            f"K={gate_row['workers']}: speedup {gate_row['sharded_speedup']:.2f}x "
            f"(>= 2.0 required on this {cpus}-core host)"
        )
        if gate_row["sharded_speedup"] < 2.0:
            failures.append(
                f"sharded gate: {gate_row['sharded_speedup']:.3f}x < 2.0x on a "
                f"{cpus}-core host"
            )
        # Node-axis analogue of the sharded gate: the smoke grid's
        # partitioned rows are worker-startup-dominated, so the >=1.0x
        # acceptance gets its own full-size (n=65536) measurement on
        # gate-eligible hosts.
        pgate = measure_partitioned(
            PARTITION_GATE_SIDE, "discrete", 300, pmode="process", repeats=2,
            backend=args.backend,
        )
        report["partitioned_gate"] = pgate
        print(
            f"{'part-gate':12s} n={pgate['n']:5d} P={pgate['partitions']} "
            f"[{pgate['partition_mode']}]: speedup {pgate['partitioned_speedup']:.2f}x "
            f"(>= 1.0 required on this {cpus}-core host; "
            f"halo {pgate['halo_values_per_round']:.0f}/round)"
        )
        if pgate["partitioned_speedup"] < 1.0:
            failures.append(
                f"partitioned gate: {pgate['partitioned_speedup']:.3f}x < 1.0x on a "
                f"{cpus}-core host"
            )
    if args.check is not None and args.smoke:
        # The transport acceptance is full-slab-only (small slabs are
        # latency-dominated), so a smoke --check measures its own
        # full-size rows for the two real wires.  Unlike the core-count
        # gates this one runs on any host: a single channel pair needs
        # no parallelism.
        tgate_rows = [
            measure_transport(t, TRANSPORT_GATE_SLAB_MIB, 10)
            for t in ("mp-pipe", "tcp")
        ]
        report["transport_gate"] = tgate_rows
        for row in tgate_rows:
            print(
                f"{'trans-gate':12s} {row['transport']:9s} "
                f"slab={row['slab_mib']:.0f}MiB: zero-copy "
                f"{row['zero_copy_mb_per_sec']:>8.1f} MB/s  speedup "
                f"{row['zero_copy_speedup']:.2f}x "
                f"(>= {TRANSPORT_GATE_MIN_SPEEDUP} on tcp or mp-pipe required)"
            )
        failures.extend(transport_gate_failures(tgate_rows))
    payload = json.dumps(report, indent=2)
    if args.out is not None:
        args.out.write_text(payload + "\n")
        print(f"wrote {args.out}")
    else:
        print(payload)
    if args.partitioned_out is not None:
        section = {
            "benchmark": "bench_ensemble.partitioned",
            "units": "rounds per second (higher is better)",
            "machine": report["machine"],
            "acceptance": report["acceptance"]["partitioned"],
            "acceptance_delta_frames": report["acceptance"]["delta-frames"],
            "partitioned": report["partitioned"],
            "smoke": report["smoke"],
        }
        if "partitioned_gate" in report:
            section["partitioned_gate"] = report["partitioned_gate"]
        args.partitioned_out.write_text(json.dumps(section, indent=2) + "\n")
        print(f"wrote {args.partitioned_out}")
    if args.check is not None:
        failures.extend(check_against(report, args.check))
        failures.extend(runtime_gates(report, smoke=args.smoke))
        if failures:
            print("REGRESSION vs baseline / failed gates:")
            for f in failures:
                print(f"  {f}")
            return 1
        print(check_summary_line(report, args.check))
    # A smoke run only checks the regression guard / that both engines
    # execute (shared CI runners are too noisy for absolute thresholds);
    # a full run additionally gates on the acceptance criteria (criteria
    # whose precondition the host lacks — <4 cores for sharded, no numba
    # for the fused gate — stay record-only with passed: null).
    if args.smoke:
        return 0
    gated = [a for a in report["acceptance"].values() if a["passed"] is not None]
    return 0 if all(a["passed"] for a in gated) else 1


if __name__ == "__main__":
    sys.exit(main())
