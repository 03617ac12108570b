"""Cybenko's first-order diffusion scheme (FOS) and its discretizations.

The classic diffusion model ([Cybenko '89], [Boillat '90], paper Section
2.1): with diffusion matrix ``M = I - alpha L`` and ``alpha = 1/(delta+1)``,

    L_{t+1} = M L_t,

i.e. every edge ``(i, j)`` carries flow ``alpha (l_i - l_j)``.  The error
contracts by ``gamma`` (second-largest |eigenvalue| of ``M``) per round:
``||e(t)||_2 <= gamma^t ||e(0)||_2``.

Discretizations:

- *floor* — ship ``floor(alpha |l_i - l_j|)`` whole tokens (the
  discretization analyzed in [MGS98] with the quadratic-in-n threshold the
  paper improves on);
- *randomized rounding* — ship ``floor(f)`` tokens plus one more with
  probability ``frac(f)``, the unbiased scheme of Elsässer–Monien
  (SPAA'03): the *expected* motion equals the continuous flow, which kills
  the systematic rounding bias of the floor scheme at the price of extra
  variance.

The continuous round literally *is* ``M @ loads``: the per-topology
:class:`~repro.core.operators.EdgeOperator` caches ``M`` per ``alpha``
(sparse, O(m) nonzeros) so one round is one cached sparse matvec — and a
batched round over ``(B, n)`` replicas is one sparse matmat.  The
discrete variants share the same flow formulation through the operator's
cached edge arrays and incidence scatter.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.diffusion import apply_edge_flows
from repro.core.operators import edge_operator, replica_major
from repro.core.protocols import CONTINUOUS, DISCRETE, Balancer, register_balancer
from repro.graphs.topology import Topology

__all__ = [
    "fos_flows",
    "fos_round_node_major",
    "fos_round_continuous",
    "fos_round_discrete_floor",
    "fos_round_discrete_randomized",
    "cap_extra_tokens",
    "FirstOrderBalancer",
]


def fos_alpha(topo: Topology) -> float:
    """The standard diffusion parameter ``alpha = 1 / (delta + 1)``."""
    return 1.0 / (topo.max_degree + 1)


def fos_flows(loads: np.ndarray, topo: Topology, alpha: float | None = None) -> np.ndarray:
    """Continuous per-edge flows ``alpha (l_u - l_v)`` (canonical direction).

    ``loads`` may be ``(n,)`` or replica-major ``(B, n)``; reuses the
    operator's cached edge endpoint arrays.
    """
    if alpha is None:
        alpha = fos_alpha(topo)
    op = edge_operator(topo)
    l = np.asarray(loads, dtype=np.float64)
    return alpha * (l[..., op.u] - l[..., op.v])


def fos_round_node_major(
    loads: np.ndarray, topo: Topology, alpha: float | None = None, backend: str | None = None
) -> np.ndarray:
    """One continuous FOS round on node-major ``(n,)`` / ``(n, B)`` loads.

    The single implementation both :class:`FirstOrderBalancer` and the
    second-order scheme's momentum recurrence build on — keeping them on
    one code path is what guarantees SOS with ``beta = 1`` degenerates to
    FOS bit-for-bit.  Dispatches to the backend's FOS round: a fused
    adjacency matvec on numba, the cached ``I - alpha L`` CSR elsewhere.
    """
    if alpha is None:
        alpha = fos_alpha(topo)
    op = edge_operator(topo, backend)
    return op.fos_round(alpha, loads)


def fos_round_continuous(
    loads: np.ndarray, topo: Topology, alpha: float | None = None, backend: str | None = None
) -> np.ndarray:
    """One continuous FOS round: equivalent to ``M @ loads`` (batch-aware)."""
    l = np.asarray(loads, dtype=np.float64)
    if l.ndim == 1:
        return fos_round_node_major(l, topo, alpha, backend)
    return replica_major(lambda x: fos_round_node_major(x, topo, alpha, backend), l)


def fos_round_discrete_floor(loads: np.ndarray, topo: Topology, alpha: float | None = None) -> np.ndarray:
    """One discrete FOS round shipping ``sign * floor(alpha |diff|)`` tokens."""
    l = np.asarray(loads, dtype=np.int64)
    f = fos_flows(l, topo, alpha)
    tokens = np.sign(f) * np.floor(np.abs(f))
    return apply_edge_flows(l, topo, tokens.astype(np.int64))


def fos_round_discrete_randomized(
    loads: np.ndarray, topo: Topology, rng, alpha: float | None = None
) -> np.ndarray:
    """One Elsässer–Monien randomized-rounding round.

    For continuous flow ``f`` the edge ships ``floor(|f|) + Bernoulli(frac(|f|))``
    tokens in the direction of ``f``; expectation equals the continuous flow
    except where a node would ship more tokens than it holds (see
    :func:`cap_extra_tokens`).  For a replica-major ``(B, n)`` batch pass
    a sequence of ``B`` generators — each replica consumes its stream
    exactly as a serial call would.
    """
    l = np.asarray(loads, dtype=np.int64)
    f = fos_flows(l, topo, alpha)
    mag = np.abs(f)
    base = np.floor(mag)
    op = edge_operator(topo)
    if l.ndim == 1:
        extra = rng.random(mag.shape[-1]) < (mag - base)
        cap_extra_tokens(l, f, base, extra, op.u, op.v)
    else:
        extra = np.empty(mag.shape, dtype=bool)
        for b, gen in enumerate(rng):
            extra[b] = gen.random(mag.shape[-1]) < (mag[b] - base[b])
            cap_extra_tokens(l[b], f[b], base[b], extra[b], op.u, op.v)
    tokens = (np.sign(f) * (base + extra)).astype(np.int64)
    return apply_edge_flows(l, topo, tokens)


def cap_extra_tokens(loads, f, base, extra, u, v) -> None:
    """Drop rounded-up tokens a node cannot pay for, in place.

    A node sends every edge's ``base`` tokens plus one ``extra`` token on
    the edges whose coin came up, all before anything arrives.  With
    ``alpha <= 1/delta`` the base tokens alone never exceed its load, but
    the extras can: on a sparse graph a node holding one token may owe
    two.  Such a node keeps its first extras in edge order up to its
    load and drops the rest.  One replica's ``(n,)`` loads and ``(m,)``
    edge arrays (views into a batch are fine); a round where no node
    overdraws is left untouched, so its bits are unchanged.
    """
    sender = np.where(f > 0, u, v)
    owed = np.bincount(sender, weights=base + extra, minlength=loads.size)
    for i in np.flatnonzero(owed > loads):
        mine = np.flatnonzero(extra & (sender == i))
        extra[mine[max(mine.size - int(owed[i] - loads[i]), 0) :]] = False


class FirstOrderBalancer(Balancer):
    """FOS adapted to the :class:`Balancer` interface.

    Parameters
    ----------
    topology:
        The fixed network.
    variant:
        ``"continuous"``, ``"floor"`` (discrete) or ``"randomized"``
        (discrete, Elsässer–Monien rounding).
    alpha:
        Diffusion parameter; defaults to ``1 / (delta + 1)``.
    backend:
        Kernel backend name (None = ambient default); bit-for-bit
        interchangeable, speed only.
    """

    VARIANTS = ("continuous", "floor", "randomized")
    supports_batch = True

    def __init__(
        self,
        topology: Topology,
        variant: str = "continuous",
        alpha: float | None = None,
        backend: str | None = None,
    ):
        super().__init__()
        if variant not in self.VARIANTS:
            raise ValueError(f"variant must be one of {self.VARIANTS}, got {variant!r}")
        self.topology = topology
        self.variant = variant
        self.backend = backend
        self.alpha = fos_alpha(topology) if alpha is None else float(alpha)
        if not 0.0 < self.alpha <= 1.0 / max(topology.max_degree, 1):
            # alpha > 1/delta can make M have negative diagonal => divergence risk.
            raise ValueError(f"alpha={self.alpha} outside the stable range (0, 1/delta]")
        self.mode = CONTINUOUS if variant == "continuous" else DISCRETE
        self.name = f"fos[{variant}]@{topology.name}"
        # Only the linear continuous round is a pure function of the
        # extended (owned + ghost) loads; the discretized variants draw
        # per-edge randomness from a global stream a block cannot
        # reproduce for its cut edges alone.
        self.supports_partition = variant == "continuous"

    def step(self, loads: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        loads = self.validate_loads(loads)
        self.advance_round()
        if self.variant == "continuous":
            return fos_round_continuous(loads, self.topology, self.alpha, self.backend)
        if self.variant == "floor":
            return fos_round_discrete_floor(loads, self.topology, self.alpha)
        return fos_round_discrete_randomized(loads, self.topology, rng, self.alpha)

    def step_batch(self, loads: np.ndarray, rngs: Sequence[np.random.Generator], out: np.ndarray | None = None) -> np.ndarray:
        """One lockstep round for a node-major ``(n, B)`` replica batch."""
        self.advance_round()
        op = edge_operator(self.topology, self.backend)
        if self.variant == "continuous":
            return op.fos_round(self.alpha, loads, out)
        f = self.alpha * (loads[op.u] - loads[op.v]).astype(np.float64)
        mag = np.abs(f)
        base = np.floor(mag)
        if self.variant == "randomized":
            extra = np.empty(mag.shape, dtype=bool)
            for b, gen in enumerate(rngs):
                extra[:, b] = gen.random(mag.shape[0]) < (mag[:, b] - base[:, b])
                cap_extra_tokens(loads[:, b], f[:, b], base[:, b], extra[:, b], op.u, op.v)
            tokens = (np.sign(f) * (base + extra)).astype(np.int64)
        else:
            tokens = (np.sign(f) * base).astype(np.int64)
        return op.apply_flows(loads, tokens)

    def partition_topology(self, k: int) -> Topology:
        """FOS runs on a fixed graph; every partitioned round uses it."""
        return self.topology

    def block_step(
        self,
        local,
        ext_loads: np.ndarray,
        out: np.ndarray | None = None,
        rows: str | None = None,
    ) -> np.ndarray:
        """One continuous FOS round on one partition block (``I - alpha L`` rows)."""
        return local.fos_round(self.alpha, ext_loads, out, rows=rows)


@register_balancer("fos")
def _make_fos(topology: Topology, **kwargs) -> FirstOrderBalancer:
    return FirstOrderBalancer(topology, variant="continuous", **kwargs)


@register_balancer("fos-floor")
def _make_fos_floor(topology: Topology, **kwargs) -> FirstOrderBalancer:
    return FirstOrderBalancer(topology, variant="floor", **kwargs)


@register_balancer("fos-randomized")
def _make_fos_randomized(topology: Topology, **kwargs) -> FirstOrderBalancer:
    return FirstOrderBalancer(topology, variant="randomized", **kwargs)
