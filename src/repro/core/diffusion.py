"""Algorithm 1 of the paper: ``diff-balancing(G)``.

Every round, **concurrently** for every edge ``(i, j)``, the more loaded
endpoint sends

    continuous:  (l_i - l_j) / (4 max(d_i, d_j))
    discrete:    floor( |l_i - l_j| / (4 max(d_i, d_j)) )   tokens

to the other endpoint.  The unusual ``4 max(d_i, d_j)`` damping (rather
than Cybenko's ``delta + 1``) is what makes the sequentialization argument
work: a node can lose at most a quarter of its surplus to *all* neighbours
combined before any given edge activates (Lemma 1's inequalities).

Implementation notes:

- All heavy lifting is delegated to the per-topology cached
  :class:`~repro.core.operators.EdgeOperator`: denominators are computed
  once per topology, the scatter is a CSR incidence product, and the
  whole continuous round is a single cached sparse matrix ``M`` (one
  matvec per round, one matmat per *ensemble* round).
- Every kernel accepts either a single ``(n,)`` load vector or a
  replica-major ``(B, n)`` batch; flows broadcast along the batch axis
  and batched results are bit-for-bit identical to ``B`` serial calls.
- Discrete arithmetic stays in ``int64`` end-to-end; conservation is then
  *exact*, which the property tests assert.

``DiffusionBalancer`` adapts the kernels to the :class:`Balancer`
interface and accepts either a fixed :class:`Topology` or a
:class:`~repro.graphs.dynamic.DynamicNetwork` (Section 5: the graph used
in round ``k`` is ``topology_at(k)``).  It implements the ``step_batch``
contract (node-major ``(n, B)``) so :class:`EnsembleSimulator` can run
replica ensembles in lockstep.
"""

from __future__ import annotations

import numpy as np

from repro.core.operators import EdgeOperator, edge_operator, replica_major
from repro.core.protocols import CONTINUOUS, DISCRETE, Balancer, register_balancer
from repro.graphs.dynamic import DynamicNetwork
from repro.graphs.topology import Topology

__all__ = [
    "edge_denominators",
    "diffusion_flows",
    "diffusion_round_continuous",
    "diffusion_round_discrete",
    "apply_edge_flows",
    "DiffusionBalancer",
]


def edge_denominators(topo: Topology) -> np.ndarray:
    """Per-edge damping ``4 * max(d_u, d_v)`` as float64, shape ``(m,)``.

    Cached on the topology (:attr:`Topology.edge_denominators`); this
    wrapper survives for API compatibility.
    """
    return topo.edge_denominators


def diffusion_flows(loads: np.ndarray, topo: Topology, discrete: bool = False) -> np.ndarray:
    """Signed per-edge flow for one round, along canonical direction u -> v.

    ``loads`` may be ``(n,)`` or replica-major ``(B, n)``; the result is
    ``(m,)`` / ``(B, m)`` accordingly.  ``flow[..., e] > 0`` means the
    canonical tail ``u`` sends to head ``v``.  In discrete mode the
    magnitude is floored and the result is int64.
    """
    u, v = topo.edges[:, 0], topo.edges[:, 1]
    if discrete:
        l = np.asarray(loads, dtype=np.int64)
        diff = l[..., u] - l[..., v]
        mag = np.abs(diff) // topo.edge_denominators_int
        return np.sign(diff) * mag
    l = np.asarray(loads, dtype=np.float64)
    diff = l[..., u] - l[..., v]
    return diff / topo.edge_denominators


def apply_edge_flows(
    loads: np.ndarray,
    topo: Topology,
    flows: np.ndarray,
    out: np.ndarray | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Apply signed per-edge flows; returns the new load vector(s).

    Accepts ``(n,)`` loads with ``(m,)`` flows or replica-major ``(B, n)``
    loads with ``(B, m)`` flows.  ``out`` may alias a preallocated buffer
    (not the input) to avoid the allocation in hot loops; ``backend``
    selects the kernel backend (None = ambient default).
    """
    if out is not None and out is loads:
        raise ValueError("out must not alias the input vector")
    op = edge_operator(topo, backend)
    arr = np.asarray(loads)
    if arr.ndim == 1:
        return op.apply_flows(arr, flows, out)
    flows_nm = np.ascontiguousarray(np.asarray(flows).T)
    return replica_major(lambda l: op.apply_flows(l, flows_nm), arr, out)


def diffusion_round_continuous(
    loads: np.ndarray, topo: Topology, out: np.ndarray | None = None, backend: str | None = None
) -> np.ndarray:
    """One concurrent continuous round of Algorithm 1 (``(n,)`` or ``(B, n)``)."""
    l = np.asarray(loads, dtype=np.float64)
    op = edge_operator(topo, backend)
    if l.ndim == 1:
        return op.round_continuous(l, out)
    return replica_major(op.round_continuous, l, out)


def diffusion_round_discrete(
    loads: np.ndarray, topo: Topology, out: np.ndarray | None = None, backend: str | None = None
) -> np.ndarray:
    """One concurrent discrete round of Algorithm 1 (integer tokens)."""
    l = np.asarray(loads, dtype=np.int64)
    op = edge_operator(topo, backend)
    if l.ndim == 1:
        return op.round_discrete(l, out)
    return replica_major(op.round_discrete, l, out)


class DiffusionBalancer(Balancer):
    """Algorithm 1 adapted to the :class:`Balancer` interface.

    Parameters
    ----------
    network:
        A fixed :class:`Topology`, or a :class:`DynamicNetwork` whose
        ``topology_at(k)`` provides round ``k``'s graph (Section 5).
    mode:
        ``"continuous"`` or ``"discrete"``.
    backend:
        Kernel backend name (``"numpy"``/``"scipy"``/``"numba"``/
        ``"auto"``; None = ambient default).  Results are bit-for-bit
        identical across backends.
    """

    supports_batch = True
    supports_partition = True
    #: the operator resolved this run, and the ``backend`` it was resolved for
    _op: EdgeOperator | None = None
    _op_backend: str | None = None

    def __init__(
        self,
        network: Topology | DynamicNetwork,
        mode: str = CONTINUOUS,
        backend: str | None = None,
    ):
        super().__init__()
        if mode not in (CONTINUOUS, DISCRETE):
            raise ValueError(f"unknown mode {mode!r}")
        self.network = network
        self.mode = mode
        self.backend = backend
        self.dynamic = isinstance(network, DynamicNetwork)
        label = network.name if isinstance(network, Topology) else type(network).__name__
        self.name = f"diffusion[{mode}]@{label}"

    def __getstate__(self) -> dict:
        """Pickle without the resolved operator: the topology pickles its
        structure only, so the operator would be rebuilt anyway, and a
        shipped balancer stays the same bytes as a fresh one."""
        state = self.__dict__.copy()
        state.pop("_op", None)
        state.pop("_op_backend", None)
        return state

    def reset(self) -> None:
        """Forget per-run state, the resolved operator included."""
        super().reset()
        self._op = None

    def topology_for_round(self, k: int) -> Topology:
        """Graph used in round ``k``."""
        if self.dynamic:
            return self.network.topology_at(k)  # type: ignore[union-attr]
        return self.network  # type: ignore[return-value]

    def _round_operator(self, n: int) -> EdgeOperator:
        """The operator for the next round, over ``n`` nodes.

        A static topology resolves it once per run — on first use after
        :meth:`reset`, and again whenever ``backend`` changes; a dynamic
        network looks up each round's graph.
        """
        topo = self.topology_for_round(self.advance_round())
        if topo.n != n:
            raise ValueError(f"topology has {topo.n} nodes but loads has {n}")
        if self.dynamic:
            return edge_operator(topo, self.backend)
        if self._op is None or self._op_backend != self.backend:
            self._op = edge_operator(topo, self.backend)
            self._op_backend = self.backend
        return self._op

    def step(self, loads: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        loads = self.validate_loads(loads)
        op = self._round_operator(loads.size)
        if self.mode == DISCRETE:
            return op.round_discrete(loads)
        return op.round_continuous(loads)

    def step_batch(self, loads: np.ndarray, rngs, out: np.ndarray | None = None) -> np.ndarray:
        """One lockstep round for a node-major ``(n, B)`` replica batch."""
        op = self._round_operator(loads.shape[0])
        if self.mode == DISCRETE:
            return op.round_discrete(loads, out)
        return op.round_continuous(loads, out)

    def partition_topology(self, k: int) -> Topology:
        """Round ``k``'s graph for the partitioned runtime (dynamic-aware)."""
        return self.topology_for_round(k)

    def block_step(
        self,
        local,
        ext_loads: np.ndarray,
        out: np.ndarray | None = None,
        rows: str | None = None,
    ) -> np.ndarray:
        """One Algorithm-1 round on one partition block's extended loads."""
        if self.mode == DISCRETE:
            return local.round_discrete(ext_loads, out, rows=rows)
        return local.round_continuous(ext_loads, out, rows=rows)


@register_balancer("diffusion")
def _make_diffusion(topology: Topology | DynamicNetwork, **kwargs) -> DiffusionBalancer:
    return DiffusionBalancer(topology, mode=CONTINUOUS, **kwargs)


@register_balancer("diffusion-discrete")
def _make_diffusion_discrete(topology: Topology | DynamicNetwork, **kwargs) -> DiffusionBalancer:
    return DiffusionBalancer(topology, mode=DISCRETE, **kwargs)
