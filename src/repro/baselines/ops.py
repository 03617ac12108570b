"""The Optimal Polynomial Scheme (OPS) of Diekmann, Frommer & Monien.

[DFM99] observe that any "local" iterative scheme computes
``L_t = p_t(L_lap) L_0`` for a degree-``t`` polynomial ``p_t`` with
``p_t(0) = 1``, and that choosing

    p(x) = prod_{k=2..m} (1 - x / lambda_k)

— one factor per *distinct non-zero* Laplacian eigenvalue — annihilates
every error eigencomponent.  Executed as the iteration

    L_{t+1} = L_t - (1 / lambda_{k_t}) * Lap @ L_t,

the scheme balances **exactly** after ``m - 1`` rounds (``m`` = number of
distinct Laplacian eigenvalues, counting 0).  Each round is still a
nearest-neighbour operation: node ``i`` moves ``(l_i - l_j)/lambda_{k_t}``
along each incident edge.

Numerics: the factors applied in ascending eigenvalue order amplify
intermediate error components by up to ``prod (lambda_max/lambda_k - 1)``,
which overflows for graphs with tiny ``lambda_2`` (long paths).  The
standard fix is **Leja ordering** of the eigenvalues, implemented in
:func:`leja_order` and used by default.

OPS requires global spectral knowledge, so it is not a distributed
protocol in the paper's sense — it serves as the "how fast could any
polynomial scheme possibly be" yardstick in E12.
"""

from __future__ import annotations

import numpy as np

from repro.core.operators import edge_operator
from repro.core.protocols import CONTINUOUS, Balancer, register_balancer
from repro.graphs.spectral import distinct_laplacian_eigenvalues
from repro.graphs.topology import Topology

__all__ = ["leja_order", "OptimalPolynomialBalancer"]


def leja_order(values: np.ndarray) -> np.ndarray:
    """Order values for numerically stable polynomial product application.

    Leja ordering greedily picks the value maximizing the product of
    distances to the already-picked ones (starting from the largest
    magnitude).  For Richardson-type iterations this keeps intermediate
    polynomial values bounded.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        return vals
    remaining = list(range(vals.size))
    order: list[int] = []
    start = int(np.argmax(np.abs(vals)))
    order.append(start)
    remaining.remove(start)
    while remaining:
        picked_vals = vals[order]
        # log-distance products to avoid under/overflow in the selection
        best_idx, best_score = remaining[0], -np.inf
        for idx in remaining:
            dists = np.abs(vals[idx] - picked_vals)
            score = float(np.sum(np.log(np.maximum(dists, 1e-300))))
            if score > best_score:
                best_idx, best_score = idx, score
        order.append(best_idx)
        remaining.remove(best_idx)
    return vals[np.asarray(order)]


class OptimalPolynomialBalancer(Balancer):
    """OPS adapted to the :class:`Balancer` interface (continuous only).

    After the schedule of ``m - 1`` eigenvalue rounds is exhausted the
    scheme idles (identity steps): it has already balanced exactly, up to
    floating-point error.

    Parameters
    ----------
    topology:
        The fixed network (connected; spectral factorization is computed
        once at construction).
    use_leja:
        Apply Leja ordering to the eigenvalue schedule (default True; the
        ascending order is kept available for the numerics ablation).
    backend:
        Kernel backend name (None = ambient default).  The numba backend
        runs each Richardson step as a fused adjacency matvec and never
        materializes a round matrix, so long schedules cost no memory.
    """

    supports_batch = True
    #: the polynomial's overshoot can leave a node transiently negative
    allows_negative = True

    #: Round-matrix data arrays are cached per eigenvalue only for
    #: schedules up to this length — one ``n x n`` CSR data array per
    #: *distinct eigenvalue* grows linearly with the spectrum, so long
    #: schedules refill per round (an O(m) data fill over the shared
    #: sparsity pattern, comparable to the matvec it feeds).
    MATRIX_CACHE_LIMIT = 128

    def __init__(self, topology: Topology, use_leja: bool = True, backend: str | None = None):
        super().__init__()
        self.topology = topology
        self.backend = backend
        eigs = distinct_laplacian_eigenvalues(topology)
        nonzero = eigs[eigs > 1e-9]
        if nonzero.size == 0:
            raise ValueError("OPS needs a graph with at least one edge")
        self.schedule = leja_order(nonzero) if use_leja else nonzero
        self.mode = CONTINUOUS
        self.name = f"ops[{'leja' if use_leja else 'asc'}]@{topology.name}"

    @property
    def rounds_to_exact(self) -> int:
        """Rounds after which OPS has balanced exactly (``m - 1``)."""
        return int(self.schedule.size)

    def _apply_round(self, loads: np.ndarray, r: int, out: np.ndarray | None) -> np.ndarray:
        """Round ``r``'s Richardson step ``(I - L / lambda_r) @ loads``.

        ``I - alpha L`` with ``alpha = 1 / lambda_r`` is exactly the FOS
        round, so this dispatches to the operator's backend FOS kernel: a
        serial round is one matvec, an ensemble round one matmat — and
        serial/batched columns agree bit-for-bit (every backend
        accumulates a row's stored entries in the same order regardless
        of layout).  Short schedules cache the per-eigenvalue matrix data
        on the operator; longer ones refill the shared pattern per round.
        """
        if r >= self.schedule.size:  # already exact; idle
            if out is None:
                return loads.copy()
            np.copyto(out, loads)
            return out
        lam = self.schedule[r]
        op = edge_operator(self.topology, self.backend)
        cache = self.schedule.size <= self.MATRIX_CACHE_LIMIT
        return op.fos_round(1.0 / lam, loads, out, cache=cache)

    def step(self, loads: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        loads = self.validate_loads(loads)
        return self._apply_round(loads, self.advance_round(), None)

    def step_batch(self, loads: np.ndarray, rngs, out: np.ndarray | None = None) -> np.ndarray:
        """One lockstep Richardson round for a node-major ``(n, B)`` batch."""
        return self._apply_round(loads, self.advance_round(), out)


@register_balancer("ops")
def _make_ops(topology: Topology, **kwargs) -> OptimalPolynomialBalancer:
    return OptimalPolynomialBalancer(topology, **kwargs)
