"""Cached per-topology edge operators: the hot-path engine of every scheme.

Every balancing round is built from the same three primitives over a
topology's canonical ``(m, 2)`` edge array:

1. per-edge *differences* ``l_u - l_v`` (one sparse product with the
   cached ``(m, n)`` difference operator ``D``),
2. per-edge *flows* (differences damped by ``4 max(d_u, d_v)``), and
3. the *scatter* that applies signed flows back onto the endpoints.

An :class:`EdgeOperator` precomputes, once per
:class:`~repro.graphs.topology.Topology` *and kernel backend*:

- the edge endpoint arrays ``u``/``v`` and the cached damping
  denominators (float64 and int64 views, shared with
  ``Topology.edge_denominators``), plus biased reciprocal multipliers
  that replace the discrete kernels' int64 floor division with an exact
  float multiply + truncating cast (see
  :attr:`EdgeOperator.denominators_recip`);
- a **signed incidence matrix** ``A`` of shape ``(n, m)`` with
  ``A[u_e, e] = -1`` and ``A[v_e, e] = +1``, so applying flows becomes
  the sparse product ``loads + A @ flows`` (an int64 twin keeps the
  discrete algorithms integer-exact);
- its negated transpose, the **difference operator** ``D = -A^T``
  of shape ``(m, n)`` (``+1`` at ``(e, u_e)``, ``-1`` at ``(e, v_e)``),
  so the staged discrete round's edge differences are ``D @ loads`` —
  built lazily on the first discrete round, float64 for the
  reciprocal fast path and int64 beyond it;
- for the *linear* continuous schemes (Algorithm 1 and FOS), the full
  **round matrix** ``M`` with ``M @ loads`` equal to one concurrent
  round, so a round is a single cached sparse matvec — and a whole
  *ensemble* of replicas is a single sparse matmat;
- the sorted CSR **adjacency** with edge-aligned reciprocals that the
  fused whole-round kernels traverse.

All sparse index arrays are downcast to int32 when ``max(n, m) < 2**31``
(:func:`~repro.core.backends.index_dtype`), halving index bandwidth.

Kernel backends
---------------
*How* the products execute is delegated to a pluggable
:class:`~repro.core.backends.KernelBackend`.  Capability matrix:

=========================  =======  =======  =======
primitive                  numpy    scipy    numba
=========================  =======  =======  =======
CSR matvec / matmat        ELL fold C kernel prange JIT
signed incidence scatter   ELL fold C kernel prange JIT
continuous round           cached M cached M cached M
discrete round             D, A     D, A     **fused** (one traversal,
                           products products no ``(m, B)`` temporaries)
FOS / Richardson round     cached M cached M **fused** (no matrix built;
                                             per-round ``alpha`` free)
availability               always   optional optional (JIT)
=========================  =======  =======  =======

All backends are **bit-for-bit identical** — the numpy reference fold,
SciPy's C kernels and the numba JIT loops accumulate each output in the
same stored order (and every discrete value is an exact integer), so
serial, batched and sharded trajectories agree exactly across backends
(property-tested).  Pick one with ``EdgeOperator(topo, backend=...)``,
``Balancer.backend``, engine/CLI ``--backend`` flags, or the
``REPRO_BACKEND`` environment variable; the default ``auto`` picks the
fastest available (numba > scipy > numpy).

Batching convention
-------------------
All batched operator methods take **node-major** ``(n, B)`` matrices:
column ``b`` is replica ``b``'s load vector.  Node-major keeps the
sparse kernels transpose-free and row-gathers contiguous; the public
round kernels in :mod:`repro.core.diffusion` accept the user-facing
replica-major ``(B, n)`` layout and transpose at the boundary.  Every
backend accumulates a CSR row's stored entries in the same order for
matvec and matmat, so serial ``(n,)`` and batched ``(n, B)`` results
agree **bit-for-bit** per replica — the property tests rely on this.

Operators are cached on the topology instance itself (topologies are
immutable), one per backend, so dynamic networks that cycle through a
fixed set of graphs pay the construction cost once per distinct graph —
and scratch buffers are never shared across backends.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends import (
    HAVE_SCIPY,
    KernelBackend,
    PlainCSR,
    get_backend,
    index_dtype,
    resolve_backend,
)
from repro.graphs.topology import Topology

__all__ = [
    "EdgeOperator",
    "edge_operator",
    "truncated_half",
    "HAVE_SCIPY",
]

_CACHE_ATTR = "_edge_operators"

#: Loads below this bound take the reciprocal-multiply floor-division fast
#: path in the discrete kernels (see :attr:`EdgeOperator.denominators_recip`).
RECIP_DIV_LIMIT = 1 << 46

#: Differences below this magnitude convert to float64 exactly, making the
#: multiply-by-0.5 truncation in :func:`truncated_half` exact.
_HALF_EXACT_LIMIT = 1 << 52


def biased_reciprocal(d) -> np.ndarray:
    """Upward-biased reciprocals ``(1/d) * (1 + 2^-48)`` of positive ``d``.

    ``trunc(x * biased_reciprocal(d))`` equals ``sign(x) * (|x| // d)``
    *exactly* for integer ``|x| < RECIP_DIV_LIMIT``: the computed
    quotient is ``q (1 + delta)`` with ``delta in (2^-49, 2^-47)`` — the
    bias dominates the two rounding errors — so exact multiples of ``d``
    land strictly above their integer (never truncating one short) while
    the ``1/d`` gap to the next representable quotient is far too wide
    for the bias to cross.  The discrete rounds of both algorithms use
    it in place of int64 floor division.
    """
    return (1.0 / np.asarray(d, dtype=np.float64)) * (1.0 + 2.0**-48)


class EdgeOperator:
    """Precomputed sparse kernels for one (immutable) topology.

    Use :func:`edge_operator` (or :meth:`for_topology`) rather than the
    constructor so instances are shared through the per-topology,
    per-backend cache.
    """

    def __init__(self, topo: Topology, backend: str | KernelBackend | None = None):
        # No reference back to ``topo``: the operator is cached on it, and
        # a cycle would keep a dropped topology's CSR and edge arrays alive
        # until a full garbage collection.  Keep what the kernels read.
        self.n = topo.n
        self.m = topo.m
        edges = topo.edges
        self.u = edges[:, 0]
        self.v = edges[:, 1]
        self.degrees = topo.degrees
        if isinstance(backend, KernelBackend):
            self.kernels = backend
            self.backend = backend.name
        else:
            self.backend = resolve_backend(backend)
            self.kernels = get_backend(self.backend)
        #: narrowest safe dtype for every sparse index array of this graph
        #: (indices < max(n, m); indptr totals reach n + 2m for the round
        #: matrices and 2m for incidence/adjacency)
        self.idx_dtype = index_dtype(self.n, self.m, self.n + 2 * self.m)
        #: float64 ``4 max(d_u, d_v)``, shared with the topology cache
        self.denominators = topo.edge_denominators
        #: int64 twin for the discrete (floor-division) algorithms
        self.denominators_int = topo.edge_denominators_int
        #: :func:`biased_reciprocal` of every edge denominator, replacing
        #: the int64 floor division in the discrete kernels (~2.5x faster:
        #: one float multiply + truncating cast instead of abs/divide/
        #: sign/multiply passes).
        self.denominators_recip = biased_reciprocal(self.denominators)
        self.denominators_recip.setflags(write=False)
        self._incidence_plain: dict[str, PlainCSR] = {}
        self._difference_plain: dict[str, PlainCSR] = {}
        self._round_plain: PlainCSR | None = None
        self._fos_plain: dict[float, PlainCSR] = {}
        self._linear_pattern = None
        self._adjacency = None
        self._adj_recip: np.ndarray | None = None
        self._adj_denom_int: np.ndarray | None = None
        self._scratch: dict[tuple, np.ndarray] = {}

    def scratch(self, key: str, shape: tuple, dtype) -> np.ndarray:
        """A reusable work buffer (the operator is a per-topology singleton).

        Callers own the buffer only until their next call into the
        operator; returned *results* are never scratch-backed.  Scratch
        buffers belong to one ``(topology, backend)`` operator — distinct
        backends never share them.  One buffer is kept per ``(key,
        dtype)``: a request with a new shape replaces it, so a sweep over
        replica counts does not pin one buffer per batch width.
        """
        return _scratch_buffer(self._scratch, key, shape, dtype)

    # ------------------------------------------------------------------
    # Construction / caching
    # ------------------------------------------------------------------
    @classmethod
    def for_topology(cls, topo: Topology, backend: str | None = None) -> "EdgeOperator":
        """The operator for ``topo`` on ``backend``, cached on the instance."""
        cache = topo.__dict__.get(_CACHE_ATTR)
        if cache is None:
            cache = topo.__dict__[_CACHE_ATTR] = {}
        resolved = resolve_backend(backend)
        op = cache.get(resolved)
        if op is None:
            op = cache[resolved] = cls(topo, resolved)
        return op

    def _sorted_csr(self, heads, cols, vals, shape) -> PlainCSR:
        """Rows grouped by ``heads`` with stored entries in sorted-column
        order — exactly the layout ``scipy`` produces via ``sum_duplicates``
        + ``sort_indices``, so every backend sees the same stored order."""
        order = np.lexsort((cols, heads))
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=shape[0]), out=indptr[1:])
        csr = PlainCSR(
            indptr.astype(self.idx_dtype),
            cols[order].astype(self.idx_dtype),
            np.ascontiguousarray(vals[order]),
            shape,
        )
        csr.indptr.setflags(write=False)
        csr.indices.setflags(write=False)
        return csr

    def incidence_csr(self, dtype=np.float64) -> PlainCSR:
        """Signed incidence ``(n, m)``: ``-1`` at ``(u, e)``, ``+1`` at ``(v, e)``."""
        key = np.dtype(dtype).char
        A = self._incidence_plain.get(key)
        if A is None:
            ones = np.ones(self.m, dtype=dtype)
            heads = np.concatenate([self.u, self.v])
            cols = np.concatenate([np.arange(self.m)] * 2)
            vals = np.concatenate([-ones, ones])
            A = self._sorted_csr(heads, cols, vals, (self.n, self.m))
            self._incidence_plain[key] = A
        return A

    def difference_csr(self, dtype=np.float64) -> PlainCSR:
        """Edge difference operator ``(m, n)``: ``+1`` at ``(e, u_e)``, ``-1``
        at ``(e, v_e)``, so ``D @ loads`` is every edge's ``l_u - l_v``.

        Each row holds two stored entries, so the product is one exact
        subtraction per edge on every backend (float64 while the loads
        stay below ``2**53``, int64 always).
        """
        key = np.dtype(dtype).char
        D = self._difference_plain.get(key)
        if D is None:
            ones = np.ones(self.m, dtype=dtype)
            heads = np.concatenate([np.arange(self.m)] * 2)
            cols = np.concatenate([self.u, self.v])
            vals = np.concatenate([ones, -ones])
            D = self._sorted_csr(heads, cols, vals, (self.m, self.n))
            self._difference_plain[key] = D
        return D

    def round_csr(self) -> PlainCSR:
        """Algorithm 1's continuous round matrix as a backend-neutral CSR.

        ``M = I - sum_e w_e (e_u - e_v)(e_u - e_v)^T`` with
        ``w_e = 1 / (4 max(d_u, d_v))``, so ``M @ loads`` is one
        concurrent continuous round.
        """
        if self._round_plain is None:
            self._round_plain = self._laplacian_style(1.0 / self.denominators)
        return self._round_plain

    def fos_csr(self, alpha: float, cache: bool = True) -> PlainCSR:
        """FOS round matrix ``M = I - alpha L`` (cached per ``alpha``).

        The sparsity pattern (adjacency plus diagonal) is shared across
        all ``alpha`` values; only the data array is rebuilt — off-diagonal
        entries are ``alpha`` and the diagonal is the same sequential
        subtraction fold ``_laplacian_style`` performs, so the values are
        bitwise those of a from-scratch build.  Pass ``cache=False`` when
        ``alpha`` is drawn from a large or one-shot set (e.g. OPS's
        per-eigenvalue schedule): the operator is a topology-lifetime
        singleton, so an unbounded per-alpha dict would pin one ``n x n``
        data array per distinct value forever.
        """
        key = float(alpha)
        M = self._fos_plain.get(key)
        if M is None:
            pattern, diag_pos = self._fos_pattern()
            data = np.full(pattern.nnz, key, dtype=np.float64)
            deg = self.degrees
            # Subtraction ladder: ladder[d] is the d-step sequential fold
            # 1 - alpha - ... - alpha, the exact value np.subtract.at
            # accumulates for a degree-d node — O(max_degree + n) instead
            # of a boolean-mask pass per degree level.
            max_deg = int(deg.max()) if self.m else 0
            ladder = np.empty(max_deg + 1, dtype=np.float64)
            ladder[0] = 1.0
            for t in range(max_deg):
                ladder[t + 1] = ladder[t] - key
            data[diag_pos] = ladder[deg]
            M = pattern.with_data(data)
            if cache:
                self._fos_plain[key] = M
        return M

    def _fos_pattern(self):
        """The shared ``I - alpha L`` sparsity pattern and diagonal slots."""
        if self._linear_pattern is None:
            template = self._laplacian_style(np.zeros(self.m, dtype=np.float64))
            diag_pos = np.flatnonzero(
                template.indices
                == np.repeat(np.arange(self.n), np.diff(template.indptr)).astype(
                    template.indices.dtype
                )
            )
            self._linear_pattern = (template, diag_pos)
        return self._linear_pattern

    def _laplacian_style(self, w: np.ndarray) -> PlainCSR:
        """``I - sum_e w_e (e_u - e_v)(e_u - e_v)^T`` as sorted CSR."""
        diag = np.ones(self.n, dtype=np.float64)
        np.subtract.at(diag, self.u, w)
        np.subtract.at(diag, self.v, w)
        heads = np.concatenate([np.arange(self.n), self.u, self.v])
        cols = np.concatenate([np.arange(self.n), self.v, self.u])
        vals = np.concatenate([diag, w, w])
        return self._sorted_csr(heads, cols, vals, (self.n, self.n))

    def adjacency(self):
        """Sorted directed adjacency ``(indptr, neighbours, edge_ids)``.

        Entry order within a node is ascending neighbour id — the stored
        order of the round matrices minus the diagonal — which is what
        lets the fused numba kernels reproduce the matrix products
        bit-for-bit.  ``edge_ids`` maps each directed entry back to its
        undirected edge (for the per-edge reciprocals/denominators).
        """
        if self._adjacency is None:
            heads = np.concatenate([self.u, self.v])
            tails = np.concatenate([self.v, self.u])
            eids = np.concatenate([np.arange(self.m)] * 2)
            order = np.lexsort((tails, heads))
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(heads, minlength=self.n), out=indptr[1:])
            self._adjacency = (
                indptr.astype(self.idx_dtype),
                tails[order].astype(self.idx_dtype),
                eids[order].astype(self.idx_dtype),
            )
        return self._adjacency

    @property
    def adj_recip(self) -> np.ndarray:
        """Per-directed-entry biased reciprocals aligned with :meth:`adjacency`."""
        if self._adj_recip is None:
            _, _, eids = self.adjacency()
            self._adj_recip = np.ascontiguousarray(self.denominators_recip[eids])
        return self._adj_recip

    @property
    def adj_denom_int(self) -> np.ndarray:
        """Per-directed-entry int64 denominators aligned with :meth:`adjacency`."""
        if self._adj_denom_int is None:
            _, _, eids = self.adjacency()
            self._adj_denom_int = np.ascontiguousarray(self.denominators_int[eids])
        return self._adj_denom_int

    # ------------------------------------------------------------------
    # SciPy views (back-compat; None when SciPy is unavailable)
    # ------------------------------------------------------------------
    def incidence(self, dtype=np.float64):
        """Signed incidence as a ``scipy.sparse.csr_array`` (or None)."""
        if not HAVE_SCIPY:
            return None
        return self.incidence_csr(dtype).as_scipy()

    def round_matrix(self):
        """The continuous round matrix as ``csr_array`` (or None)."""
        if not HAVE_SCIPY:
            return None
        return self.round_csr().as_scipy()

    def fos_round_matrix(self, alpha: float, cache: bool = True):
        """FOS round matrix ``I - alpha L`` as ``csr_array`` (or None)."""
        if not HAVE_SCIPY:
            return None
        return self.fos_csr(alpha, cache=cache).as_scipy()

    # ------------------------------------------------------------------
    # Primitives (node-major: loads are (n,) or (n, B))
    # ------------------------------------------------------------------
    def differences(self, loads: np.ndarray) -> np.ndarray:
        """Per-edge ``l_u - l_v`` along the canonical direction, ``(m,)`` or ``(m, B)``."""
        return loads[self.u] - loads[self.v]

    def apply_flows(
        self, loads: np.ndarray, flows: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``loads`` plus the signed scatter of ``flows`` onto edge endpoints.

        ``loads`` is ``(n,)`` or node-major ``(n, B)`` with ``flows``
        shaped ``(m,)`` / ``(m, B)`` to match; ``out`` may supply a
        preallocated result buffer (must not alias ``loads``).
        """
        if out is loads and out is not None:
            raise ValueError("out must not alias the input vector")
        A = self.incidence_csr(dtype=loads.dtype if loads.dtype == np.int64 else np.float64)
        if out is None:
            out = np.empty_like(loads)
        return self.kernels.add_matvec(A, loads, flows, out)

    # ------------------------------------------------------------------
    # Full rounds for Algorithm 1 (diffusion) and FOS/Richardson
    # ------------------------------------------------------------------
    def round_continuous(self, loads: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One continuous Algorithm-1 round (node-major batched or serial)."""
        if out is loads and out is not None:
            raise ValueError("out must not alias the input vector")
        if out is None:
            out = np.empty_like(loads)
        return self.kernels.matvec(self.round_csr(), loads, out)

    def fos_round(
        self,
        alpha: float,
        loads: np.ndarray,
        out: np.ndarray | None = None,
        cache: bool = True,
    ) -> np.ndarray:
        """One FOS/Richardson round ``(I - alpha L) @ loads``.

        Backends with a fused parameterized matvec (numba) compute it
        straight from the adjacency structure — no round matrix is ever
        built, which is what makes OPS's fresh-``alpha``-per-round
        schedule cheap; the rest run the cached per-``alpha`` CSR.
        """
        if out is loads and out is not None:
            raise ValueError("out must not alias the input vector")
        if out is None:
            out = np.empty_like(loads)
        fused = self.kernels.fused_fos_round(self, float(alpha), loads, out)
        if fused is not None:
            return fused
        return self.kernels.matvec(self.fos_csr(alpha, cache=cache), loads, out)

    def floor_divide_denominators(
        self, diff: np.ndarray, out: np.ndarray, bound: int | None = None
    ) -> np.ndarray:
        """``sign(diff) * (|diff| // denominators)`` into int64 ``out``.

        ``diff`` is ``(m,)`` or node-major-aligned ``(m, B)``; ``out`` may
        alias ``diff``.  Uses the cached biased reciprocals (exact, see
        :attr:`denominators_recip`) when ``|diff|`` is provably below
        :data:`RECIP_DIV_LIMIT`, else the plain int64 floor division.
        ``bound`` lets callers supply a known cheap bound on ``|diff|``
        (e.g. ``loads.max()`` for non-negative loads); without it one
        abs-max reduction pass decides the path.
        """
        if diff.size == 0:
            return out
        if bound is None:
            mag = self.scratch("disc-mag", diff.shape, np.int64)
            np.abs(diff, out=mag)
            bound = int(mag.max())
        if bound < RECIP_DIV_LIMIT:
            recip = self.denominators_recip if diff.ndim == 1 else self.denominators_recip[:, None]
            qf = self.scratch("disc-qf", diff.shape, np.float64)
            np.multiply(diff, recip, out=qf)
            np.copyto(out, qf, casting="unsafe")  # trunc toward zero
            return out
        mag = self.scratch("disc-mag", diff.shape, np.int64)
        return _signed_floor_divide(diff, self.denominators_int, mag, out)

    def discrete_flows(
        self,
        loads: np.ndarray,
        bound: int,
        difference=None,
        recip: np.ndarray | None = None,
        denom_int: np.ndarray | None = None,
        scratch=None,
        tag: str = "disc",
    ) -> np.ndarray:
        """Discrete Algorithm-1 flows ``sign(diff) * (|diff| // d_e)`` per edge.

        ``diff`` is the edge difference ``l_u - l_v``; ``bound`` must
        bound every ``|l|`` and every ``|diff|`` (``max - min(min, 0)``
        does).  The remaining arguments default to this operator's whole
        edge set: ``difference(dtype)`` returns the edge rows' difference
        operator (:meth:`difference_csr`), ``recip``/``denom_int`` their
        biased reciprocals and int64 denominators, and
        ``scratch(name, shape, dtype)`` the work buffers.  A partition block passes its row slices instead, so
        both discrete rounds run this one flow step.  The returned int64
        ``(m,)`` / ``(m, B)`` flows live in scratch (``tag + "-flows"``).

        Fast branch (``bound < RECIP_DIV_LIMIT = 2**46``): the loads are
        copied to float64 and the differences come from the float64
        product ``D @ loads``, multiplied in place by the reciprocals and
        truncated.  This is bit-exact: every load and every difference
        is below ``2**46`` and so exactly representable in float64, each
        row of ``D`` folds ``0 + l_u - l_v`` (or ``0 - l_v + l_u``)
        without rounding, and the product therefore equals
        ``float(l_u - l_v)`` — after which the reciprocal multiply is the
        same single rounding the int64-times-float64 formulation made
        (exactness of that step: :attr:`denominators_recip`).
        Exact branch (larger loads): the int64 product ``D @ loads`` and
        an int64 floor division.
        """
        difference = difference or self.difference_csr
        recip = self.denominators_recip if recip is None else recip
        denom_int = self.denominators_int if denom_int is None else denom_int
        scratch = scratch or self.scratch
        shape = recip.shape + loads.shape[1:]
        flows = scratch(tag + "-flows", shape, np.int64)
        if bound < RECIP_DIV_LIMIT:
            lf = scratch(tag + "-lf", loads.shape, np.float64)
            np.copyto(lf, loads)
            qf = scratch(tag + "-qf", shape, np.float64)
            self.kernels.matvec(difference(np.float64), lf, qf)
            np.multiply(qf, recip if qf.ndim == 1 else recip[:, None], out=qf)
            np.copyto(flows, qf, casting="unsafe")  # trunc toward zero
            return flows
        self.kernels.matvec(difference(np.int64), loads, flows)
        mag = scratch(tag + "-mag", shape, np.int64)
        return _signed_floor_divide(flows, denom_int, mag, flows)

    def round_discrete(self, loads: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One discrete Algorithm-1 round; int64 in, int64 out, exact.

        Backends with a fused kernel (numba) run the whole round —
        adjacency gather, reciprocal floor-divide, signed scatter — as a
        single node-parallel traversal with no ``(m, B)`` intermediates.
        The staged path is two cached sparse products: the difference
        operator gives the edge differences, :meth:`discrete_flows`
        turns them into flows, and the signed incidence scatters the
        flows back — in reusable scratch buffers, allocation-free in
        steady state.  Either way the values are identical to the serial
        expressions (integer arithmetic; the float64 fast path is
        bit-exact, see :meth:`discrete_flows`).
        """
        # The fused kernels read neighbour values while writing out, so an
        # aliased buffer would corrupt silently — reject it loudly here,
        # matching the staged path's apply_flows guard.
        if out is loads and out is not None:
            raise ValueError("out must not alias the input vector")
        # max - min bounds every |l_u - l_v| (the engines only pass
        # non-negative loads, but this public kernel must not let a
        # negative-load caller slip past the reciprocal exactness guard):
        # two reductions over (n, B) instead of an abs pass over (m, B).
        bound = int(loads.max(initial=0)) - min(int(loads.min(initial=0)), 0)
        if out is None:
            out = np.empty_like(loads)
        fused = self.kernels.fused_discrete_round(
            self, loads, out, use_recip=bound < RECIP_DIV_LIMIT
        )
        if fused is not None:
            return fused
        return self.apply_flows(loads, self.discrete_flows(loads, bound), out)


def _scratch_buffer(cache: dict, key: str, shape: tuple, dtype) -> np.ndarray:
    """The ``(key, dtype)`` buffer of ``cache``, reallocated on a new shape."""
    full_key = (key, np.dtype(dtype).char)
    buf = cache.get(full_key)
    if buf is None or buf.shape != shape:
        buf = cache[full_key] = np.empty(shape, dtype=dtype)
    return buf


def _signed_floor_divide(
    diff: np.ndarray, denom: np.ndarray, mag: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``sign(diff) * (|diff| // denom)`` in int64 (``out`` may alias ``diff``)."""
    if diff.ndim > 1:
        denom = denom[:, None]
    np.abs(diff, out=mag)
    np.floor_divide(mag, denom, out=mag)
    np.multiply(np.sign(diff), mag, out=out)
    return out


def edge_operator(topo: Topology, backend: str | None = None) -> EdgeOperator:
    """The cached :class:`EdgeOperator` for ``topo`` on ``backend``.

    ``backend`` is ``"numpy"``, ``"scipy"``, ``"numba"``, ``"auto"`` or
    None (the ambient default — ``REPRO_BACKEND`` or ``auto``).
    """
    return EdgeOperator.for_topology(topo, backend)


def truncated_half(diff: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``sign(diff) * (|diff| // 2)`` for int64 ``diff`` — the half-surplus
    a dimension-exchange pair ships.

    Reuses the discrete kernels' fused-divide trick: ``diff * 0.5`` is an
    exact power-of-two scaling whenever ``diff`` converts to float64
    exactly (``|diff| < 2**52``), so a single multiply + truncating cast
    replaces the abs/floor-divide/sign/multiply pass chain.  Larger
    magnitudes take the exact integer path.
    """
    if out is None:
        out = np.empty_like(diff)
    if diff.size == 0:
        return out
    if int(np.abs(diff).max()) < _HALF_EXACT_LIMIT:
        np.copyto(out, diff * 0.5, casting="unsafe")  # trunc toward zero
        return out
    mag = np.abs(diff) // 2
    np.multiply(np.sign(diff), mag, out=out)
    return out


def replica_major(kernel, loads: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Adapt a node-major operator kernel to replica-major ``(B, n)`` loads.

    Transposes in, runs ``kernel`` on the contiguous node-major view,
    transposes back; honours an optional preallocated ``out``.  The shared
    boundary between the user-facing ``(B, n)`` round functions and the
    node-major engine primitives.
    """
    result = np.ascontiguousarray(kernel(np.ascontiguousarray(loads.T)).T)
    if out is None:
        return result
    np.copyto(out, result)
    return out
