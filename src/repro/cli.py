"""Command-line interface: ``repro-lb`` (or ``python -m repro``).

Subcommands
-----------
- ``topologies`` — list the graph families and their spectral profiles;
- ``run`` — run one balancer on one topology and print the trace summary;
- ``compare`` — run several balancers on one topology side by side;
- ``verify`` — execute the lemma checks on random states;
- ``experiment`` — regenerate one or all experiment tables (E01..E13);
- ``bounds`` — print every theorem bound for a given topology;
- ``backends`` — diagnose the available kernel backends;
- ``partition-info`` — partition quality metrics (edge cut, halo volume,
  block balance) for a topology and strategy;
- ``worker`` — serve as a distributed-runtime worker (TCP rendezvous);
- ``dispatch`` — run partition blocks or replica shards on remote
  ``worker`` processes and combine the results exactly;
- ``mpi-run`` — run partition blocks rank-per-block under ``mpiexec``
  (needs ``mpi4py``; see :mod:`repro.distributed.mpi`);
- ``trace-report`` — render a ``--trace`` JSONL file into per-phase /
  per-worker / per-link breakdown tables (or ``--json``); ``--follow``
  tails a growing trace, folding incrementally;
- ``top`` — live terminal dashboard: worker roster, phase shares, halo
  bytes/round and the Φ-vs-bound sparkline, from a ``--serve-metrics``
  endpoint (``--connect``) or a followed trace (``--trace --follow``).

``run``, ``sweep``, ``worker`` and ``dispatch`` take ``--trace PATH``
(JSONL event trace) and ``--metrics`` (aggregated metrics, dumped in
Prometheus text format on exit); ``worker`` and ``dispatch`` take
``--log-level`` for the structured ``repro.distributed`` logger and
``--serve-metrics HOST:PORT`` to expose live ``/metrics``, ``/healthz``
and ``/status`` HTTP endpoints while the process runs.

``backends``, ``partition-info`` and ``dispatch`` take ``--json`` for
machine-readable output (the dispatcher and scripts consume diagnostics
and run summaries without scraping tables).  The CLI is a thin layer:
every command resolves to a library call that the tests exercise
directly, so the CLI tests only assert wiring.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

# Only what the parser and the shared request helpers need is imported
# here; each command imports the rest itself, so ``repro-lb worker`` never
# loads the report tables, the experiments or SciPy's linear algebra.
from repro.core.potential import discrepancy
from repro.core.protocols import get_balancer, registered_balancers
from repro.graphs.generators import by_name
from repro.graphs.partition import parse_partitions
from repro.simulation.initial import GENERATORS, make_loads

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-lb",
        description="Parallel diffusion-type load balancing (Berenbrink-Friedetzky-Hu, IPPS 2006).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_topo = sub.add_parser("topologies", help="list graph families and spectral profiles")
    p_topo.add_argument("--spec", nargs="*", default=None, help='e.g. "torus:8x8" "cycle:32"')

    p_run = sub.add_parser("run", help="run one balancer")
    p_run.add_argument("--balancer", required=True, choices=registered_balancers())
    p_run.add_argument("--topology", required=True, help='e.g. "torus:8x8"')
    p_run.add_argument("--loads", default="point", choices=sorted(GENERATORS))
    p_run.add_argument("--rounds", type=int, default=1000)
    p_run.add_argument("--eps", type=float, default=None, help="stop at Phi <= eps*Phi0")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="run N replicas in lockstep through the batched ensemble engine",
    )
    p_run.add_argument(
        "--workers",
        default="1",
        help="shard the replica ensemble over K processes ('KxVectorized', or plain K; "
        "needs --replicas > 1)",
    )
    _add_partitions_flag(p_run)
    _add_backend_flag(p_run)
    _add_telemetry_flags(p_run)

    p_cmp = sub.add_parser("compare", help="run several balancers side by side")
    p_cmp.add_argument("--topology", required=True)
    p_cmp.add_argument("--balancers", nargs="+", required=True)
    p_cmp.add_argument("--eps", type=float, default=1e-4)
    p_cmp.add_argument("--max-rounds", type=int, default=100_000)
    p_cmp.add_argument("--seed", type=int, default=0)

    p_sweep = sub.add_parser("sweep", help="grid-evaluate balancers across topologies")
    p_sweep.add_argument("--topologies", nargs="+", required=True)
    p_sweep.add_argument("--balancers", nargs="+", required=True)
    p_sweep.add_argument("--loads", default="point", choices=sorted(GENERATORS))
    p_sweep.add_argument("--eps", type=float, default=1e-4)
    p_sweep.add_argument("--max-rounds", type=int, default=100_000)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="aggregate each cell over N replicas (batched when the scheme allows)",
    )
    p_sweep.add_argument(
        "--workers",
        default="1",
        help="shard each cell's replica batch over K processes ('KxVectorized' or K)",
    )
    _add_partitions_flag(p_sweep)
    _add_backend_flag(p_sweep)
    _add_telemetry_flags(p_sweep)

    p_ver = sub.add_parser("verify", help="run the lemma checks on random states")
    p_ver.add_argument("--topology", default="torus:8x8")
    p_ver.add_argument("--trials", type=int, default=10)
    p_ver.add_argument("--seed", type=int, default=0)

    p_exp = sub.add_parser("experiment", help="regenerate experiment tables")
    p_exp.add_argument("ids", nargs="*", default=[], help="e01..e13; empty = all")
    p_exp.add_argument("--markdown", action="store_true", help="emit markdown instead of text")

    p_bounds = sub.add_parser("bounds", help="print the paper's bounds for a topology")
    p_bounds.add_argument("--topology", required=True)
    p_bounds.add_argument("--eps", type=float, default=1e-6)
    p_bounds.add_argument("--tokens", type=int, default=None, help="point-load size for Phi0")

    p_back = sub.add_parser("backends", help="diagnose the available kernel backends")
    p_back.add_argument(
        "--json", action="store_true",
        help="emit the diagnostic as JSON (for scripts and the dispatcher)",
    )

    p_part = sub.add_parser(
        "partition-info", help="partition quality metrics for a topology + strategy"
    )
    p_part.add_argument("--topology", required=True, help='e.g. "torus:32x32"')
    p_part.add_argument(
        "--partitions",
        nargs="+",
        default=["4:contiguous", "4:bfs"],
        help="one or more 'P[:strategy]' specs (strategies: contiguous, bfs)",
    )
    p_part.add_argument(
        "--json", action="store_true",
        help="emit the metrics as JSON (for scripts and the dispatcher)",
    )

    p_worker = sub.add_parser(
        "worker", help="serve as a distributed-runtime worker (TCP rendezvous)"
    )
    p_worker.add_argument(
        "--bind", default="127.0.0.1:0",
        help="control address to listen on ('host:port'; port 0 picks an ephemeral "
        "port, printed on startup), or 'fd:N': an inherited socket, already bound "
        "and listening, that a launcher handed over.  A second ephemeral peer port "
        "for halo links is opened on the same host and advertised to the dispatcher.",
    )
    p_worker.add_argument(
        "--max-jobs", type=int, default=0,
        help="exit after serving this many jobs (0 = serve until killed)",
    )
    p_worker.add_argument(
        "--timeout", type=float, default=600.0,
        help="seconds any in-job channel wait may block before the job aborts "
        "(a dead dispatcher or peer worker must never wedge the server)",
    )
    p_worker.add_argument(
        "--advertise", default=None, metavar="HOST",
        help="host other WORKERS should dial this worker's peer port at.  "
        "Default: the host the dispatcher reached this worker through — right "
        "when one address works cluster-wide; set explicitly when peers route "
        "to this machine differently than the dispatcher does",
    )
    p_worker.add_argument(
        "--authkey", default=None, metavar="KEY",
        help="require HMAC authentication on the rendezvous and on halo peer "
        "links (default: the REPRO_AUTHKEY environment variable; unset = "
        "unauthenticated, loopback-trust mode)",
    )
    _add_log_level_flag(p_worker)
    _add_telemetry_flags(p_worker)
    _add_serve_metrics_flag(p_worker)

    p_disp = sub.add_parser(
        "dispatch",
        help="run partition blocks or replica shards on remote workers",
    )
    p_disp.add_argument(
        "--workers", nargs="+", required=True, metavar="HOST:PORT",
        help="addresses of running 'repro-lb worker' processes",
    )
    p_disp.add_argument("--balancer", required=True, choices=registered_balancers())
    p_disp.add_argument("--topology", required=True, help='e.g. "torus:64x64"')
    p_disp.add_argument("--loads", default="point", choices=sorted(GENERATORS))
    p_disp.add_argument("--rounds", type=int, default=1000)
    p_disp.add_argument("--eps", type=float, default=None, help="stop at Phi <= eps*Phi0")
    p_disp.add_argument("--seed", type=int, default=0)
    p_disp.add_argument(
        "--replicas", type=int, default=1,
        help="replica count (the node axis composes with the replica axis)",
    )
    p_disp.add_argument(
        "--partitions", default=None,
        help="node axis: split the graph into P halo-exchanging blocks "
        "('P' or 'P:strategy') assigned round-robin over the workers",
    )
    p_disp.add_argument(
        "--shards", type=int, default=None,
        help="replica axis: split the batch into K shards dealt round-robin over "
        "the workers (default: one shard per worker when --partitions is not given)",
    )
    p_disp.add_argument(
        "--timeout", type=float, default=300.0,
        help="seconds any dispatcher-side wait may block before aborting the run",
    )
    p_disp.add_argument(
        "--authkey", default=None, metavar="KEY",
        help="authenticate the rendezvous with this HMAC key (default: the "
        "REPRO_AUTHKEY environment variable; must match the workers')",
    )
    p_disp.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="ask workers to stream liveness frames at this interval so a "
        "stalled/partitioned worker is detected in bounded time (default: off; "
        "detection fires after ~2x the interval of silence)",
    )
    p_disp.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="partitioned runs only: snapshot block state every N rounds so a "
        "worker death replays from the snapshot on the survivors instead of "
        "aborting (default: off = abort on failure)",
    )
    p_disp.add_argument(
        "--retry-budget", type=int, default=3, metavar="K",
        help="max re-queues per shard / recoveries per partitioned run before "
        "the dispatcher gives up",
    )
    p_disp.add_argument(
        "--json", action="store_true",
        help="emit the run summary as JSON (trace summary + distributed stats: "
        "per-link bytes/round, control traffic, worker roster)",
    )
    _add_backend_flag(p_disp)
    _add_log_level_flag(p_disp)
    _add_telemetry_flags(p_disp)
    _add_serve_metrics_flag(p_disp)

    p_mpi = sub.add_parser(
        "mpi-run",
        help="run partition blocks rank-per-block under mpiexec (needs mpi4py)",
        description="Collective entry point: launch with "
        "'mpiexec -n P+1 python -m repro mpi-run --partitions P ...'. "
        "Rank 0 coordinates and prints the summary; ranks 1..P each host "
        "one block. Trajectories are bit-for-bit identical to the serial "
        "engines (--verify re-runs serially on rank 0 and asserts it).",
    )
    p_mpi.add_argument("--balancer", required=True, choices=registered_balancers())
    p_mpi.add_argument("--topology", required=True, help='e.g. "torus:64x64"')
    p_mpi.add_argument("--loads", default="point", choices=sorted(GENERATORS))
    p_mpi.add_argument("--rounds", type=int, default=1000)
    p_mpi.add_argument("--eps", type=float, default=None, help="stop at Phi <= eps*Phi0")
    p_mpi.add_argument("--seed", type=int, default=0)
    p_mpi.add_argument("--replicas", type=int, default=1)
    p_mpi.add_argument(
        "--partitions", default="2",
        help="node axis: P halo-exchanging blocks ('P' or 'P:strategy'), "
        "one MPI rank per block plus the rank-0 coordinator",
    )
    p_mpi.add_argument(
        "--timeout", type=float, default=300.0,
        help="seconds any channel wait may block before aborting the run",
    )
    p_mpi.add_argument(
        "--verify", action="store_true",
        help="after the MPI run, re-run serially on rank 0 and assert the "
        "trajectories match bit-for-bit",
    )
    p_mpi.add_argument(
        "--json", action="store_true",
        help="emit the run summary as JSON (same shape as dispatch --json)",
    )
    _add_backend_flag(p_mpi)

    p_trace = sub.add_parser(
        "trace-report",
        help="render a --trace JSONL file into per-phase/per-worker tables",
    )
    p_trace.add_argument("path", help="trace file written by --trace")
    p_trace.add_argument(
        "--json", action="store_true",
        help="emit the full report (totals, per-worker shares, per-link "
        "bytes/latency, counters) as JSON",
    )
    p_trace.add_argument(
        "--follow", action="store_true",
        help="tail a growing trace: re-render at --interval, folding only "
        "newly appended events (never re-parsing from byte 0)",
    )
    p_trace.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh interval for --follow (default: 1.0)",
    )
    p_trace.add_argument(
        "--frames", type=int, default=0, metavar="N",
        help="with --follow: stop after N renders (0 = until interrupted)",
    )

    p_top = sub.add_parser(
        "top",
        help="live terminal dashboard: worker roster, phase shares, "
        "halo traffic and Phi-vs-bound convergence",
    )
    src = p_top.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--connect", metavar="HOST:PORT",
        help="poll a live --serve-metrics endpoint (/status + /healthz)",
    )
    src.add_argument(
        "--trace", metavar="PATH",
        help="render from a JSONL trace file instead of a live endpoint",
    )
    p_top.add_argument(
        "--follow", action="store_true",
        help="with --trace: keep tailing the file as it grows",
    )
    p_top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh interval (default: 1.0)",
    )
    p_top.add_argument(
        "--frames", type=int, default=0, metavar="N",
        help="stop after N frames (0 = until interrupted)",
    )
    p_top.add_argument(
        "--no-clear", action="store_true",
        help="print frames sequentially instead of clearing the screen "
        "(for pipes and dumb terminals)",
    )
    return parser


def _add_partitions_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--partitions",
        default="1",
        help="split the node axis into P halo-exchanging blocks ('P' or 'P:strategy'; "
        "strategies: contiguous, bfs).  Supported by diffusion (continuous/discrete) "
        "and continuous FOS; trajectories are bit-for-bit identical to the "
        "unpartitioned run.  Combine with --workers > 1 to run blocks as parallel "
        "worker processes (process mode always uses one worker per block).",
    )


def _add_backend_flag(parser: argparse.ArgumentParser) -> None:
    from repro.core.backends import BACKEND_CHOICES

    parser.add_argument(
        "--backend",
        default=None,
        choices=BACKEND_CHOICES,
        help="kernel backend for the hot round kernels: 'numpy' (pure-NumPy reference), "
        "'scipy' (compiled CSR kernels), 'numba' (fused JIT rounds; needs numba), or "
        "'auto' (fastest available; the default).  Backends are bit-for-bit "
        "interchangeable — this flag only affects speed.",
    )


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL event trace (per-round phase spans, kernel and "
        "transport timings) to PATH; render it with 'repro-lb trace-report'. "
        "Tracing is observation-only: trajectories are bit-for-bit identical "
        "with it on or off.",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="aggregate timing metrics (count/sum/min/max/p50/p99) and dump "
        "them in Prometheus text format on exit",
    )


def _add_serve_metrics_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--serve-metrics", default=None, metavar="HOST:PORT",
        help="expose live HTTP endpoints while the command runs: GET /metrics "
        "(Prometheus text format), /healthz (liveness + worker heartbeat "
        "ages) and /status (current job, per-worker round progress, per-link "
        "halo bytes).  Port 0 picks an ephemeral port; the actual address is "
        "printed on startup.  Implies a metrics recorder; view live with "
        "'repro-lb top --connect HOST:PORT'.",
    )


def _add_log_level_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level", default="info",
        choices=["debug", "info", "warning", "error"],
        help="level for the structured 'repro.distributed' logger "
        "(timestamped, levelled lines on stdout)",
    )


def _telemetry_begin(args: argparse.Namespace, role: str = "main"):
    """Install a recorder from ``--trace``/``--metrics``; None when off."""
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", False)
    if not trace and not metrics:
        return None
    from repro.observability import configure

    return configure(trace=trace, metrics=metrics, role=role)


def _telemetry_end(rec, args: argparse.Namespace) -> None:
    """Flush the trace file; print the Prometheus dump when ``--metrics``."""
    if rec is None:
        return
    from repro.observability import metrics_to_prom, shutdown

    shutdown()
    if getattr(args, "metrics", False):
        print(metrics_to_prom(rec.metrics_snapshot()), end="")


def _with_telemetry(fn, role: str):
    """Wrap a command so --trace/--metrics/--serve-metrics span its body."""

    def wrapped(args: argparse.Namespace) -> int:
        rec = _telemetry_begin(args, role=role)
        server = None
        serve = getattr(args, "serve_metrics", None)
        if serve:
            import os

            from repro.observability import configure, get_status_board, start_metrics_server

            if rec is None:
                # /metrics needs a live registry even without --metrics.
                rec = configure(metrics=True, role=role)
            get_status_board().update(role=role, pid=os.getpid())
            try:
                server = start_metrics_server(serve)
            except (OSError, ValueError) as exc:
                print(f"--serve-metrics: {exc}", file=sys.stderr)
                _telemetry_end(rec, args)
                return 2
            print(f"serving metrics on {server.url}", flush=True)
        try:
            return fn(args)
        finally:
            if server is not None:
                server.stop()
            _telemetry_end(rec, args)

    return wrapped


def _cmd_topologies(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import Table
    from repro.graphs.generators import FAMILIES
    from repro.graphs.spectral import spectral_profile

    table = Table("Topologies", ["name", "n", "m", "delta", "lambda2", "gamma", "mu", "#distinct eig"])
    specs = args.spec or ["cycle:32", "path:32", "torus:8x8", "hypercube:6", "debruijn:6", "complete:16", "star:32", "petersen"]
    for spec in specs:
        prof = spectral_profile(by_name(spec))
        table.add_row(prof.name, prof.n, prof.m, prof.delta, prof.lambda2, prof.gamma, prof.mu, prof.distinct_eigenvalues)
    print(table.to_text())
    print()
    print("families:")
    for fam, syntax in sorted(FAMILIES.items()):
        print(f"  {syntax}")
    return 0


def _resolve_backend_arg(name):
    """Validate a ``--backend`` value; returns (resolved-or-None, error)."""
    if name is None:
        return None, None
    from repro.core.backends import resolve_backend

    try:
        return resolve_backend(name), None
    except (ValueError, RuntimeError) as exc:
        return None, str(exc)


def _run_request(args: argparse.Namespace):
    """``(balancer, loads, options)`` of a ``run``, ``dispatch`` or ``mpi-run``.

    The balancer runs on ``--backend``; the options are the stopping rules
    (the engines' default ``record="auto"`` keeps what they read, and a
    one-replica summary takes its final discrepancy from the final loads).
    None after printing a refused value.
    """
    from repro.simulation.stopping import MaxRounds, PotentialFractionBelow

    topo = by_name(args.topology)
    bal = get_balancer(args.balancer, topo)
    backend, err = _resolve_backend_arg(args.backend)
    if err or args.replicas < 1:
        print(err or f"--replicas must be >= 1, got {args.replicas}", file=sys.stderr)
        return None
    if backend is not None:
        bal.backend = backend
    rng = np.random.default_rng(args.seed)
    loads = make_loads(args.loads, topo.n, rng=rng, discrete=bal.mode == "discrete")
    stopping = [MaxRounds(args.rounds)]
    if args.eps is not None:
        stopping.insert(0, PotentialFractionBelow(args.eps))
    return bal, loads, {"stopping": stopping}


def _partition_capable(args: argparse.Namespace, bal) -> bool:
    """Whether ``bal`` has a partitioned kernel; prints the refusal if not."""
    if getattr(bal, "supports_partition", False):
        return True
    print(
        f"{args.balancer} has no partitioned kernel; supported: diffusion "
        "(continuous/discrete) and continuous fos",
        file=sys.stderr,
    )
    return False


def _run_summary(trace) -> dict:
    """A run's summary: one replica reports its own series, more the ensemble's.

    A one-replica run that did not record discrepancies reports that of
    its final loads.
    """
    if trace.replicas > 1:
        return trace.summary()
    summary = trace.replica_trace(0).summary()
    if not trace.record_discrepancies:
        summary["discrepancy_final"] = discrepancy(trace.final_loads[0])
    return summary


def _print_run_summary(trace) -> None:
    for key, value in _run_summary(trace).items():
        print(f"{key:>20}: {value}")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.simulation.engine import simulate
    from repro.simulation.sharding import parse_workers

    request = _run_request(args)
    if request is None:
        return 2
    bal, loads, run_opts = request
    try:
        processes, _ = parse_workers(args.workers)
        part_blocks, _ = parse_partitions(args.partitions)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if part_blocks > 1:
        if not _partition_capable(args, bal):
            return 2
        if processes > 1 and processes != part_blocks:
            print(
                f"note: partitioned process mode runs one worker per block "
                f"({part_blocks} workers for --partitions {part_blocks}); "
                f"--workers {processes} only selects the mode",
                file=sys.stderr,
            )
    elif processes > 1 and args.replicas == 1:
        print("note: --workers shards replicas; with --replicas 1 it has no effect", file=sys.stderr)
    trace, hs = simulate(
        bal, loads, seed=args.seed, replicas=args.replicas,
        workers=args.workers, partitions=args.partitions, **run_opts,
    )
    _print_run_summary(trace)
    if hs is not None:
        print(
            f"{'partitioned':>20}: {hs['blocks']} blocks [{hs['strategy']}, {hs['mode']}], "
            f"{hs['halo_values']} halo values exchanged over {hs['rounds']} rounds"
        )
    return 0


#: Rounds without a potential drop after which ``compare`` ends a
#: discrete-mode run.  A discrete scheme stalls for good above its
#: Theorem 6 threshold (on torus:8x8 at ``--eps 1e-4`` diffusion-discrete
#: stops improving near round 80 and would spin to ``--max-rounds``),
#: while runs that do reach ``eps*Phi0`` pause for a few rounds at most.
COMPARE_STAGNATION_PATIENCE = 1000


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import Table
    from repro.simulation.engine import simulate
    from repro.simulation.stopping import MaxRounds, PotentialFractionBelow, Stagnation

    topo = by_name(args.topology)
    table = Table(
        f"Compare on {topo.name} (rounds to Phi <= {args.eps:g}*Phi0)",
        ["balancer", "rounds", "phi_final", "mean_drop_factor", "stopped_by"],
    )
    for name in args.balancers:
        bal = get_balancer(name, topo)
        rng = np.random.default_rng(args.seed)
        loads = make_loads("point", topo.n, rng=rng, discrete=bal.mode == "discrete")
        rules = [PotentialFractionBelow(args.eps), MaxRounds(args.max_rounds)]
        if bal.mode == "discrete":
            rules.append(Stagnation(COMPARE_STAGNATION_PATIENCE))
        s = _run_summary(simulate(bal, loads, rules, seed=args.seed)[0])
        table.add_row(name, s["rounds"], s["phi_final"], s["mean_drop_factor"], s["stopped_by"])
    print(table.to_text())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.simulation.sharding import parse_workers
    from repro.simulation.sweep import sweep

    try:
        parse_workers(args.workers)
        parse_partitions(args.partitions)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    backend, err = _resolve_backend_arg(args.backend)
    if err:
        print(err, file=sys.stderr)
        return 2
    table, _ = sweep(
        args.topologies,
        args.balancers,
        load_kind=args.loads,
        eps=args.eps,
        max_rounds=args.max_rounds,
        seed=args.seed,
        replicas=args.replicas,
        workers=args.workers,
        backend=backend,
        partitions=args.partitions,
    )
    print(table.to_text())
    return 0


def _cmd_partition_info(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.reporting import Table
    from repro.graphs.partition import make_partition

    topo = by_name(args.topology)
    rows = []
    for spec in args.partitions:
        try:
            blocks, strategy = parse_partitions(spec)
            part = make_partition(topo, blocks, strategy)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        m = part.metrics()
        # Report the *requested* strategy: two strategies can produce the
        # same assignment (e.g. on hypercubes), in which case the cached
        # partition carries whichever label built it first.
        rows.append({
            **m, "spec": spec, "strategy": strategy,
            "interior_by_block": [int(i.size) for i in part.interior_owned],
            "boundary_by_block": [int(b.size) for b in part.boundary_owned],
        })
    if args.json:
        print(json.dumps({"topology": topo.name, "n": topo.n, "m": topo.m,
                          "partitions": rows}, indent=2))
        return 0
    table = Table(
        f"Partition quality on {topo.name} (n={topo.n}, m={topo.m})",
        [
            "spec", "blocks", "strategy", "block_min", "block_max",
            "imbalance", "edge_cut", "cut_frac", "halo_volume", "max_halo",
            "interior", "boundary", "bound_frac",
        ],
    )
    for m in rows:
        table.add_row(
            m["spec"], m["blocks"], m["strategy"], m["block_min"], m["block_max"],
            m["imbalance"], m["edge_cut"], m["cut_fraction"], m["halo_volume"], m["max_halo"],
            "/".join(str(i) for i in m["interior_by_block"]),
            "/".join(str(b) for b in m["boundary_by_block"]),
            m["boundary_fraction"],
        )
    print(table.to_text())
    print(
        "\nedge_cut: edges crossing blocks; halo_volume: ghost values exchanged "
        "per round; imbalance: max/mean block size (1.0 = even);\n"
        "interior/boundary: per-block owned rows computable before/after the "
        "halo arrives (communication/computation overlap headroom)."
    )
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.reporting import Table
    from repro.core.backends import backend_summaries, resolve_backend

    summaries = backend_summaries()
    if args.json:
        print(json.dumps({"backends": summaries, "auto": resolve_backend("auto")}, indent=2))
        return 0
    table = Table("Kernel backends", ["backend", "available", "default", "detail"])
    for row in summaries:
        table.add_row(
            row["name"],
            "yes" if row["available"] else "no",
            "*" if row["default"] else "",
            row["detail"],
        )
    print(table.to_text())
    print(f"\n'auto' resolves to: {resolve_backend('auto')}")
    print("All backends are bit-for-bit interchangeable; selection only affects speed.")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.distributed.transport import TransportError
    from repro.distributed.worker import serve
    from repro.observability import configure_logging

    configure_logging(args.log_level)
    try:
        return serve(args.bind, max_jobs=args.max_jobs, timeout=args.timeout,
                     advertise=args.advertise, authkey=args.authkey)
    except (TransportError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


def _cmd_dispatch(args: argparse.Namespace) -> int:
    from repro.distributed.dispatcher import (
        DispatcherError,
        dispatch_partitioned,
        dispatch_sharded,
    )
    from repro.observability import configure_logging

    configure_logging(args.log_level)
    request = _run_request(args)
    if request is None:
        return 2
    bal, loads, run_opts = request
    if args.partitions is not None and args.shards is not None:
        print("--partitions (node axis) and --shards (replica axis) are exclusive",
              file=sys.stderr)
        return 2
    # Telemetry implies live progress: ask workers to piggyback periodic
    # stats frames on the control channel next to heartbeats.
    stats_interval = 0.5 if (args.trace or args.metrics or args.serve_metrics) else None
    try:
        if args.partitions is not None:
            part_blocks, part_strategy = parse_partitions(args.partitions)
            if not _partition_capable(args, bal):
                return 2
            trace, stats = dispatch_partitioned(
                bal, loads, args.workers,
                partitions=part_blocks, strategy=part_strategy,
                replicas=args.replicas, timeout=args.timeout,
                authkey=args.authkey, heartbeat=args.heartbeat,
                checkpoint_every=args.checkpoint_every,
                retry_budget=args.retry_budget,
                stats_interval=stats_interval, **run_opts,
            )
        else:
            if not getattr(bal, "supports_batch", False) and args.replicas > 1:
                print(f"{args.balancer} has no batched kernel; use --replicas 1",
                      file=sys.stderr)
                return 2
            trace, stats = dispatch_sharded(
                bal, loads, args.workers,
                shards=args.shards, seed=args.seed, replicas=args.replicas,
                timeout=args.timeout, authkey=args.authkey, heartbeat=args.heartbeat,
                retry_budget=args.retry_budget, stats_interval=stats_interval, **run_opts,
            )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except DispatcherError as exc:
        print(f"dispatch failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(_run_summary_json(trace, stats))
        return 0
    _print_run_summary(trace)
    if stats.get("mode") == "sharded-dispatch":
        print(
            f"{'distributed':>20}: {stats['shards']} shard(s) over "
            f"{len(stats['workers'])} worker(s) [tcp]: "
            + ", ".join(
                f"{w}={shards}" for w, shards in stats["shards_by_worker"].items()
            )
        )
    else:
        rounds = max(stats.get("rounds", 0), 1)
        print(
            f"{'distributed':>20}: {stats['blocks']} block(s) [{stats['strategy']}] over "
            f"{len(stats['workers'])} worker(s) [tcp], "
            f"{stats['halo_values']} halo values / {stats['halo_bytes']} payload bytes "
            f"exchanged over {stats['rounds']} rounds"
        )
        for link, nbytes in sorted(stats.get("links", {}).items()):
            print(f"{'link ' + link:>20}: {nbytes} B total, {nbytes / rounds:.1f} B/round")
    if stats.get("retries") or stats.get("requeued_shards") or stats.get("requeued_blocks"):
        requeued = stats.get("requeued_shards", 0) or stats.get("requeued_blocks", 0)
        what = "shard(s)" if "requeued_shards" in stats else "block(s)"
        print(
            f"{'recovery':>20}: {requeued} {what} re-queued over "
            f"{stats['retries']} reconnect attempt(s)"
        )
    for label, live in sorted(stats.get("workers_live", {}).items()):
        line = f"last seen {live['last_seen_age_s']:.2f}s ago"
        if live.get("hb_count"):
            line += f", {live['hb_count']} heartbeat(s)"
            if "hb_interval_mean_s" in live:
                line += (
                    f" every {live['hb_interval_mean_s']:.2f}s "
                    f"[{live['hb_interval_min_s']:.2f}-{live['hb_interval_max_s']:.2f}]"
                )
        snap = live.get("stats")
        if snap:
            line += (
                f"; {snap.get('rounds_done', 0)} round(s), "
                f"{snap.get('jobs_done', 0)}/{snap.get('jobs_accepted', 0)} job(s), "
                f"busy {snap.get('busy_s', 0.0):.2f}s"
            )
        print(f"{'worker ' + label:>20}: {line}")
    return 0


def _jsonable(value):
    """Recursively coerce numpy scalars/arrays for ``json.dumps``."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def _run_summary_json(trace, stats: dict) -> str:
    """The machine-readable run summary shared by dispatch/mpi-run --json."""
    import json

    rounds = max(int(stats.get("rounds", 0)), 1)
    payload = {
        "trace": _jsonable(_run_summary(trace)),
        "distributed": _jsonable(stats),
        "links_per_round": {
            link: nbytes / rounds
            for link, nbytes in sorted(_jsonable(stats.get("links", {})).items())
        },
    }
    return json.dumps(payload, indent=2)


def _cmd_mpi_run(args: argparse.Namespace) -> int:
    from repro.distributed.mpi import mpi_available, run_partitioned_mpi
    from repro.distributed.transport import TransportError
    from repro.simulation.engine import simulate

    if not mpi_available():
        print("mpi-run requires mpi4py (launch under mpiexec with mpi4py installed)",
              file=sys.stderr)
        return 2
    request = _run_request(args)
    if request is None:
        return 2
    bal, loads, run_opts = request
    try:
        part_blocks, part_strategy = parse_partitions(args.partitions)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not _partition_capable(args, bal):
        return 2
    try:
        result = run_partitioned_mpi(
            bal, loads,
            partitions=part_blocks, strategy=part_strategy,
            replicas=args.replicas, timeout=args.timeout, **run_opts,
        )
    except TransportError as exc:
        print(f"mpi-run failed: {exc}", file=sys.stderr)
        return 1
    if result is None:  # block rank: served its block, exit quietly
        return 0
    trace, stats = result
    if args.verify:
        fresh = get_balancer(args.balancer, by_name(args.topology))
        fresh.backend = bal.backend
        serial, _ = simulate(
            fresh, loads, replicas=args.replicas, partitions=args.partitions, **run_opts
        )
        same = (
            serial.rounds == trace.rounds
            and np.array_equal(serial.final_loads, trace.final_loads)
            and np.array_equal(serial.potentials_matrix, trace.potentials_matrix)
        )
        if not same:
            print("verify FAILED: MPI trajectory diverges from the serial run",
                  file=sys.stderr)
            return 1
        print(f"verify OK: bit-for-bit identical to the serial run over "
              f"{trace.rounds} rounds")
    if args.json:
        print(_run_summary_json(trace, stats))
        return 0
    _print_run_summary(trace)
    rounds = max(int(stats.get("rounds", 0)), 1)
    print(
        f"{'distributed':>20}: {len(stats['blocks_by_rank'])} block(s) over "
        f"{stats['ranks']} rank(s) [mpi], "
        f"{stats['halo_values']} halo values / {stats['halo_bytes']} payload bytes "
        f"exchanged over {stats['rounds']} rounds"
    )
    for link, nbytes in sorted(stats.get("links", {}).items()):
        print(f"{'link ' + link:>20}: {nbytes} B total, {nbytes / rounds:.1f} B/round")
    return 0


def _trace_report_follow(args: argparse.Namespace) -> int:
    """Tail a growing trace, folding only the newly appended events."""
    import json
    import time

    from repro.observability import ReportBuilder, TraceFollower, render_report

    follower = TraceFollower(args.path)
    builder = ReportBuilder()
    shown = 0
    try:
        while True:
            try:
                builder.add_many(follower.poll())
            except ValueError as exc:
                print(f"invalid trace: {exc}", file=sys.stderr)
                return 2
            report = builder.report()
            if args.json:
                print(json.dumps(report, indent=2), flush=True)
            else:
                print(render_report(report), flush=True)
            shown += 1
            if args.frames and shown >= args.frames:
                return 0
            time.sleep(args.interval)
    except (KeyboardInterrupt, BrokenPipeError):
        return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    import json

    from repro.observability import load_trace, render_report, trace_report, validate_trace

    if args.follow:
        return _trace_report_follow(args)
    try:
        events = load_trace(args.path)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    problems = validate_trace(events)
    if problems:
        for p in problems:
            print(f"invalid trace: {p}", file=sys.stderr)
        return 2
    report = trace_report(events)
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(render_report(report))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.observability.top import run_top

    try:
        return run_top(
            connect=args.connect,
            trace=args.trace,
            follow=args.follow,
            interval=args.interval,
            frames=args.frames,
            clear=not args.no_clear,
        )
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.verify import check_lemma1_on_state, check_lemma10_identity, empirical_lemma9

    topo = by_name(args.topology)
    rng = np.random.default_rng(args.seed)
    for trial in range(args.trials):
        state = rng.uniform(0, 10_000, topo.n)
        check_lemma1_on_state(state, topo)
        check_lemma10_identity(state)
    est = empirical_lemma9(max(topo.n, 64), rng, rounds=50)
    print(f"Lemma 1: OK on {args.trials} random states of {topo.name} ({topo.m} edges each)")
    print(f"Lemma 10: identity verified on {args.trials} random states")
    print(f"Lemma 9: Pr[max(di,dj)<=5 | link] = {est['probability']:.4f} (> 0.5: {est['probability'] > 0.5})")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS

    ids = args.ids or sorted(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {unknown}; known: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    for eid in ids:
        table = EXPERIMENTS[eid]()
        print(table.to_markdown() if args.markdown else table.to_text())
        print()
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.core.bounds import (
        theorem4_rounds,
        theorem6_rounds,
        theorem6_threshold,
        theorem12_rounds,
        theorem14_threshold,
    )
    from repro.core.potential import potential
    from repro.graphs.spectral import lambda_2

    topo = by_name(args.topology)
    lam2 = lambda_2(topo)
    tokens = args.tokens if args.tokens is not None else 100 * topo.n
    loads = np.zeros(topo.n)
    loads[0] = tokens
    phi0 = potential(loads)
    print(f"{topo.name}: n={topo.n} delta={topo.max_degree} lambda2={lam2:.6g} Phi0(point,{tokens})={phi0:.6g}")
    for report in (
        theorem4_rounds(topo.max_degree, lam2, args.eps),
        theorem6_threshold(topo.n, topo.max_degree, lam2),
        theorem6_rounds(topo.n, topo.max_degree, lam2, phi0),
        theorem12_rounds(phi0, 1.0),
        theorem14_threshold(topo.n),
    ):
        print("  " + report.describe())
    return 0


_COMMANDS = {
    "topologies": _cmd_topologies,
    "run": _with_telemetry(_cmd_run, "run"),
    "compare": _cmd_compare,
    "sweep": _with_telemetry(_cmd_sweep, "sweep"),
    "verify": _cmd_verify,
    "experiment": _cmd_experiment,
    "bounds": _cmd_bounds,
    "backends": _cmd_backends,
    "partition-info": _cmd_partition_info,
    "worker": _with_telemetry(_cmd_worker, "worker"),
    "dispatch": _with_telemetry(_cmd_dispatch, "dispatcher"),
    "mpi-run": _cmd_mpi_run,
    "trace-report": _cmd_trace_report,
    "top": _cmd_top,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
