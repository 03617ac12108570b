"""The five workloads: inputs from a seed, set-up, one run, verification.

Every workload drives the program through the public calls its CLI path
uses, with the program's defaults (backend ``auto``, no ``REPRO_*``
toggles).  A workload object is stateless; what a run needs lives in the
context :meth:`Workload.setup` returns, so set-up can be repeated and
timed on its own.

Results are normalised to :class:`Result`: node loads per replica, the
rounds each replica ran, and the engine's own potential series.
:func:`check` verifies a result against the workload's criterion and the
paper's bound outside any timed interval.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.bounds import theorem4_rounds, theorem6_rounds, theorem6_threshold
from repro.core.diffusion import DiffusionBalancer
from repro.core.operators import edge_operator
from repro.core.random_partner import RandomPartnerBalancer
from repro.graphs.generators import torus_2d
from repro.graphs.partition import make_partition
from repro.graphs.spectral import lambda2_torus
from repro.simulation.engine import Simulator
from repro.simulation.ensemble import EnsembleSimulator
from repro.simulation.montecarlo import trial_rngs
from repro.simulation.stopping import MaxRounds, PotentialBelow, PotentialFractionBelow

__all__ = ["WORKLOADS", "Result", "Workload", "check", "digest", "potential_of", "make"]

DELTA = 4  # maximum degree of every 2-D torus used here


@dataclass
class Result:
    """One run's outcome, replica-major."""

    final: np.ndarray  # (B, n) final loads
    rounds: np.ndarray  # (B,) rounds each replica ran
    potentials: np.ndarray  # (T + 1, B) potential after each round, as the engine recorded it
    threshold: np.ndarray  # (B,) potential the stopping criterion compares against
    stats: dict = field(default_factory=dict)


def potential_of(loads: np.ndarray) -> np.ndarray:
    """``Phi = sum_i (l_i - mean)^2`` per row, computed here, not by the program."""
    arr = np.atleast_2d(np.asarray(loads, dtype=np.float64))
    centred = arr - arr.mean(axis=1, keepdims=True)
    return np.einsum("ij,ij->i", centred, centred)


def digest(arr: np.ndarray) -> str:
    a = np.ascontiguousarray(arr)
    return f"{a.dtype}{a.shape}:" + hashlib.sha256(a.tobytes()).hexdigest()


class StepCapture:
    """Keep the last loads a balancer class's ``step``/``step_batch`` returned.

    The serial engine returns only its statistics trace; the final loads
    are needed to verify the run.  Both stepping methods are watched, so
    an engine that runs one replica through ``step_batch`` is seen too.
    Patched on the class, not the instance, so a balancer shipped to a
    worker process still pickles.
    """

    def __init__(self, cls) -> None:
        self.cls = cls
        self.last: np.ndarray | None = None
        self._saved: list[tuple[str, object]] = []

    def __enter__(self) -> "StepCapture":
        for name in ("step", "step_batch"):
            self._saved.append((name, self.cls.__dict__.get(name)))
            setattr(self.cls, name, self._watch(getattr(self.cls, name)))
        return self

    def _watch(self, method):
        def watched(balancer, loads, *args, **kwargs):
            out = method(balancer, loads, *args, **kwargs)
            self.last = out
            return out

        return watched

    def __exit__(self, *exc) -> bool:
        for name, original in reversed(self._saved):
            if original is None:
                delattr(self.cls, name)
            else:
                setattr(self.cls, name, original)
        return False

    @property
    def final(self) -> np.ndarray | None:
        """The last loads as a ``(n,)`` vector (``(n, 1)`` batches flattened)."""
        return None if self.last is None else np.asarray(self.last).reshape(-1)


def ensemble_result(trace, threshold: np.ndarray, stats: dict | None = None) -> Result:
    return Result(
        final=np.asarray(trace.final_loads),
        rounds=np.asarray(trace.rounds_vector).copy(),
        potentials=np.asarray(trace.potentials_matrix, dtype=np.float64),
        threshold=np.broadcast_to(np.asarray(threshold, dtype=np.float64),
                                  (trace.replicas,)).copy(),
        stats=stats or {},
    )


def pin(pid: int, cpu: int) -> None:
    """Bind every thread of process ``pid`` to one CPU.

    One worker per core, as on a cluster.  Left to the scheduler, the
    workers' placement changed from run to run, and dispatch run medians
    on a 2-CPU host fell into two groups a third apart.  Threads the
    worker starts later inherit the binding.
    """
    for tid in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(tid), {cpu})


# ----------------------------------------------------------------------
class Workload:
    """Base class; subclasses fill in the sizes and the four steps."""

    name = ""
    #: set-ups timed before the first run, and at most this many more
    #: after each run (see ``run.measure``)
    setup_reps = 3
    setups_between_runs = 1
    replicas = 1
    replicas_small = 1
    bound_name = ""  # the paper's round bound checked by verify, if any
    #: the program's recorder on this path: None, "file" (every run writes
    #: a JSONL trace) or "traced" (in memory, traced runs only)
    recorder: str | None = None
    #: runs on worker processes (halo and control traffic are counted)
    distributed = False

    def __init__(self, small: bool = False) -> None:
        self.small = small

    @property
    def B(self) -> int:
        return self.replicas_small if self.small else self.replicas

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, inputs: dict) -> tuple[dict, dict[str, float]]:
        """Build what the first round needs; returns ``(ctx, component seconds)``."""
        raise NotImplementedError

    def rules(self, ctx: dict, inputs: dict) -> list:
        """Fresh stopping rules: the criterion first, then a round cap."""
        raise NotImplementedError

    def run(self, ctx: dict, inputs: dict, rules: list) -> Result:
        raise NotImplementedError

    def reference(self, inputs: dict) -> tuple[int, np.ndarray, int] | None:
        """Untimed serial run of one replica: ``(replica, final, rounds)``."""
        return None

    def round_bound(self, inputs: dict, result: Result) -> np.ndarray | None:
        return None

    def edges_per_replica_round(self, ctx: dict) -> int | None:
        """Edges one replica's round touches (None when they are sampled)."""
        return None

    def close(self, ctx: dict) -> None:
        pass


def serial_run(balancer, loads: np.ndarray, rules: list, rng) -> tuple[np.ndarray, object]:
    """Run the serial engine and return ``(final loads, trace)``."""
    with StepCapture(type(balancer)) as cap:
        trace = Simulator(balancer, stopping=rules).run(loads, rng)
    final = cap.final
    return (np.asarray(loads) if final is None else final), trace


class _Torus(Workload):
    """Algorithm 1 on a square 2-D torus (vertex-transitive, degree 4)."""

    side = 256
    side_small = 16
    tokens_per_node = 1

    @property
    def dims(self) -> int:
        return self.side_small if self.small else self.side

    @property
    def n(self) -> int:
        return self.dims ** 2

    @property
    def lam2(self) -> float:
        return lambda2_torus(self.dims, self.dims)

    @property
    def phi_star(self) -> float:
        """Theorem 6's threshold ``64 delta^3 n / lambda_2``."""
        return theorem6_threshold(self.n, DELTA, self.lam2).value

    def build(self, mode: str, operator: bool = True):
        """Topology, balancer and (optionally) the operator's round matrices."""
        t0 = perf_counter()
        topo = torus_2d(self.dims, self.dims)
        t1 = perf_counter()
        parts = {"graphs.topology_build_s": t1 - t0}
        if operator:
            op = edge_operator(topo)
            if mode == "continuous":
                op.round_csr()
            else:
                op.incidence_csr(np.int64)
            parts["core.operator_build_s"] = perf_counter() - t1
        return topo, DiffusionBalancer(topo, mode), parts

    def point_inputs(self, seed: int, dtype) -> dict:
        """One point load of ``tokens_per_node * n`` per replica at a seeded node."""
        rng = np.random.default_rng(seed)
        loads = np.zeros((self.B, self.n), dtype=dtype)
        loads[np.arange(self.B), rng.integers(0, self.n, size=self.B)] = self.tokens_per_node * self.n
        return {"loads": loads, "seed": int(rng.integers(2**31)),
                "replica": int(rng.integers(self.B))}

    def theorem6_bound(self, result: Result) -> np.ndarray:
        return np.asarray([theorem6_rounds(self.n, DELTA, self.lam2, float(p)).value
                           for p in result.potentials[0]])

    def edges_per_replica_round(self, ctx: dict) -> int:
        return ctx["topo"].m


class SerialContinuous(_Torus):
    """``repro-lb run``: serial Simulator, Algorithm 1 continuous, point load,
    stopping at ``Phi <= eps Phi_0`` (Theorem 4's criterion)."""

    name = "serial-continuous"
    eps = 1e-3
    bound_name = "Theorem 4"

    def inputs(self, seed):
        inputs = self.point_inputs(seed, np.float64)
        inputs["loads"] = inputs["loads"][0]
        return inputs

    def setup(self, inputs):
        topo, bal, parts = self.build("continuous")
        return {"topo": topo, "balancer": bal}, parts

    def rules(self, ctx, inputs):
        cap = 10 * int(theorem4_rounds(DELTA, self.lam2, self.eps).value)
        return [PotentialFractionBelow(self.eps), MaxRounds(cap)]

    def run(self, ctx, inputs, rules):
        final, trace = serial_run(ctx["balancer"], inputs["loads"], rules, inputs["seed"])
        pots = np.asarray(trace.potentials, dtype=np.float64)[:, None]
        return Result(final=final[None, :], rounds=np.asarray([trace.rounds]), potentials=pots,
                      threshold=np.asarray([self.eps * pots[0, 0]]))

    def round_bound(self, inputs, result):
        return np.asarray([theorem4_rounds(DELTA, self.lam2, self.eps).value])


class SerialTraced(SerialContinuous):
    """``repro-lb run --trace``: the serial path with the JSONL recorder and
    the convergence monitor armed, on a 64x64 torus."""

    name = "serial-traced"
    side = 64
    side_small = 8
    eps = 1e-4
    setup_reps = 5
    setups_between_runs = 3
    recorder = "file"


class EnsembleDiscrete(_Torus):
    """Monte-Carlo path: EnsembleSimulator, Algorithm 1 discrete, per-replica
    point loads, stopping at Theorem 6's ``Phi*``."""

    name = "ensemble-discrete"
    side = 64
    side_small = 8
    replicas = 64
    replicas_small = 4
    tokens_per_node = 150
    setup_reps = 5
    setups_between_runs = 3
    bound_name = "Theorem 6"

    def inputs(self, seed):
        return self.point_inputs(seed, np.int64)

    def setup(self, inputs):
        topo, bal, parts = self.build("discrete")
        return {"topo": topo, "balancer": bal}, parts

    def rules(self, ctx, inputs):
        return [PotentialBelow(self.phi_star), MaxRounds(10**6)]

    def run(self, ctx, inputs, rules):
        trace = EnsembleSimulator(ctx["balancer"], stopping=rules).run(
            inputs["loads"], seed=inputs["seed"])
        return ensemble_result(trace, self.phi_star)

    def reference(self, inputs):
        k = inputs["replica"]
        _, bal, _ = self.build("discrete", operator=False)
        rng = trial_rngs(inputs["seed"], self.B)[k]
        final, trace = serial_run(bal, inputs["loads"][k], self.rules(None, inputs), rng)
        return k, final, trace.rounds

    def round_bound(self, inputs, result):
        return self.theorem6_bound(result)


class EnsemblePartners(Workload):
    """Algorithm 2: RandomPartnerBalancer discrete over EnsembleSimulator,
    seeded random loads, stopping at ``Phi <= eps Phi_0``.  Theorem 14
    bounds a different criterion (``Phi <= 3200 n`` w.h.p.), so no round
    bound is checked."""

    name = "ensemble-partners"
    n = 4096
    n_small = 64
    replicas = 64
    replicas_small = 4
    eps = 0.1
    mean_load = 500
    setup_reps = 10
    setups_between_runs = 3

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        n = self.n_small if self.small else self.n
        loads = rng.integers(0, 2 * self.mean_load + 1, size=(self.B, n), dtype=np.int64)
        return {"loads": loads, "seed": int(rng.integers(2**31)),
                "replica": int(rng.integers(self.B))}

    def setup(self, inputs):
        from repro.simulation.ensemble import initial_batch, spawn_rngs

        # No topology and no operator: what a fresh run pays before its
        # first round is the balancer, the per-replica RNG streams and
        # the validated (n, B) batch.
        bal = RandomPartnerBalancer("discrete")
        spawn_rngs(inputs["seed"], self.B)
        initial_batch(bal, inputs["loads"], None)
        return {"balancer": bal}, {}

    def rules(self, ctx, inputs):
        return [PotentialFractionBelow(self.eps), MaxRounds(10**6)]

    def run(self, ctx, inputs, rules):
        trace = EnsembleSimulator(ctx["balancer"], stopping=rules).run(
            inputs["loads"], seed=inputs["seed"])
        return ensemble_result(trace, self.eps * np.asarray(trace.initial_potentials))

    def reference(self, inputs):
        k = inputs["replica"]
        rng = trial_rngs(inputs["seed"], self.B)[k]
        final, trace = serial_run(RandomPartnerBalancer("discrete"), inputs["loads"][k],
                                  self.rules(None, inputs), rng)
        return k, final, trace.rounds


class DispatchPartitioned(_Torus):
    """``repro-lb dispatch``: two spawned local workers, dispatch_partitioned
    with P=2 bfs blocks, Algorithm 1 discrete, stopping at Theorem 6's
    ``Phi*`` (one coordinator round-trip per round)."""

    name = "dispatch-partitioned"
    tokens_per_node = 250
    setups_between_runs = 0  # a set-up spawns two worker processes
    workers = 2
    bound_name = "Theorem 6"
    recorder = "traced"
    distributed = True

    def inputs(self, seed):
        inputs = self.point_inputs(seed, np.int64)
        inputs["loads"] = inputs["loads"][0]
        return inputs

    def setup(self, inputs):
        from repro.distributed.dispatcher import connect_workers
        from repro.distributed.worker import launch_worker_process

        topo, bal, parts = self.build("discrete", operator=False)
        t0 = perf_counter()
        partition = make_partition(topo, 2, "bfs")
        t1 = perf_counter()
        parts["graphs.partition_build_s"] = t1 - t0
        ctx = {"topo": topo, "balancer": bal, "procs": [], "handles": [],
               "cut_edges": int(partition.cut_edges.size)}
        try:
            addresses = []
            cpus = sorted(os.sched_getaffinity(0))
            for i in range(self.workers):
                proc, address = launch_worker_process()
                ctx["procs"].append(proc)
                addresses.append(address)
                pin(proc.pid, cpus[i % len(cpus)])
            t2 = perf_counter()
            ctx["handles"] = connect_workers(addresses)
            t3 = perf_counter()
        except BaseException:
            self.close(ctx)
            raise
        parts["distributed.spawn_s"] = t2 - t1
        parts["distributed.rendezvous_s"] = t3 - t2
        return ctx, parts

    def rules(self, ctx, inputs):
        return [PotentialBelow(self.phi_star), MaxRounds(10**6)]

    def run(self, ctx, inputs, rules):
        from repro.distributed.dispatcher import dispatch_partitioned

        trace, stats = dispatch_partitioned(
            ctx["balancer"], inputs["loads"], ctx["handles"],
            partitions=2, strategy="bfs", stopping=rules,
        )
        return ensemble_result(trace, self.phi_star, stats)

    def reference(self, inputs):
        _, bal, _ = self.build("discrete", operator=False)
        final, trace = serial_run(bal, inputs["loads"], self.rules(None, inputs), 0)
        return 0, final, trace.rounds

    def round_bound(self, inputs, result):
        return self.theorem6_bound(result)

    def control_traffic(self, ctx) -> tuple[int, int]:
        """Cumulative ``(bytes, messages)`` over every dispatcher control channel."""
        nbytes = msgs = 0
        for handle in ctx["handles"]:
            t = handle.channel.traffic()
            nbytes += t["bytes_sent"] + t["bytes_received"]
            msgs += t["messages_sent"] + t["messages_received"]
        return nbytes, msgs

    def worker_peak_rss_mb(self, ctx) -> float:
        """Largest peak resident set (``VmHWM``) over the worker processes."""
        peak = 0.0
        for proc in ctx["procs"]:
            try:
                with open(f"/proc/{proc.pid}/status", encoding="ascii") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]) / 1024.0)
            except OSError:
                pass
        return peak

    def close(self, ctx):
        from repro.distributed.dispatcher import close_workers

        close_workers(ctx.get("handles", []))
        for proc in ctx.get("procs", []):
            proc.terminate()
        for proc in ctx.get("procs", []):
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
            if proc.stdout is not None:
                proc.stdout.close()
        ctx["procs"] = []
        ctx["handles"] = []


WORKLOADS = {cls.name: cls for cls in
             (SerialContinuous, EnsembleDiscrete, EnsemblePartners, DispatchPartitioned,
              SerialTraced)}


def make(name: str, small: bool = False) -> Workload:
    return WORKLOADS[name](small=small)


# ----------------------------------------------------------------------
def check(workload: Workload, inputs: dict, result: Result) -> list[str]:
    """Verify one run; returns the list of problems (empty when correct).

    - loads are conserved per replica: exactly for integer loads, to a
      relative 1e-9 for continuous ones;
    - the potential recomputed here from the final loads matches the
      engine's last recorded potential and satisfies the criterion;
    - each replica stopped at the first round its criterion held;
    - no replica ran longer than the paper's round bound, where one applies.
    """
    errors: list[str] = []
    initial = np.atleast_2d(inputs["loads"])
    final = result.final
    if final.shape != initial.shape:
        return [f"final loads have shape {final.shape}, expected {initial.shape}"]
    if not np.isfinite(final).all():
        return ["final loads are not finite"]
    if np.issubdtype(final.dtype, np.integer):
        leaked = np.flatnonzero(final.sum(axis=1) != initial.sum(axis=1))
    else:
        s0 = initial.sum(axis=1)
        leaked = np.flatnonzero(np.abs(final.sum(axis=1) - s0) > 1e-9 * np.maximum(np.abs(s0), 1.0))
    if leaked.size:
        errors.append(f"load not conserved in replica(s) {leaked[:5].tolist()}")
    B = initial.shape[0]
    pots = result.potentials
    if result.rounds.shape != (B,) or pots.ndim != 2 or pots.shape[1] != B:
        return errors + ["result shapes do not match the replica count"]
    phi = potential_of(final)
    for b in range(B):
        r = int(result.rounds[b])
        thr = float(result.threshold[b])
        if not 0 <= r < pots.shape[0]:
            errors.append(f"replica {b}: rounds {r} outside the recorded series")
            continue
        recorded = float(pots[r, b])
        if abs(phi[b] - recorded) > 1e-9 * max(recorded, 1.0):
            errors.append(f"replica {b}: final potential {phi[b]:.12g} != recorded {recorded:.12g}")
        if phi[b] > thr * (1 + 1e-9):
            errors.append(f"replica {b}: criterion fails at the final state ({phi[b]:.6g} > {thr:.6g})")
        hits = np.flatnonzero(pots[: r + 1, b] <= thr)
        if hits.size == 0 or hits[0] != r:
            first = int(hits[0]) if hits.size else None
            errors.append(f"replica {b}: stopped after {r} rounds, criterion first held at {first}")
    bound = workload.round_bound(inputs, result)
    if bound is not None:
        over = np.flatnonzero(result.rounds > bound)
        if over.size:
            errors.append(f"{workload.bound_name} bound exceeded in replica(s) {over[:5].tolist()}")
    return errors


def reference_errors(reference, final_digest: str, rounds: int) -> list[str]:
    """Compare one replica of a run with the untimed serial reference run."""
    k, final, ref_rounds = reference
    errors = []
    if rounds != ref_rounds:
        errors.append(f"replica {k}: {rounds} rounds, serial reference ran {ref_rounds}")
    if final_digest != digest(final):
        errors.append(f"replica {k}: final loads differ from the serial reference run")
    return errors


def process_rss_peak_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
