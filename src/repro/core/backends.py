"""Pluggable kernel backends for the hot round primitives.

:class:`~repro.core.operators.EdgeOperator` owns *what* a round computes
(cached sparse structures, damping denominators, reciprocal multipliers);
this module owns *how* the resulting products are executed.  Three
backends implement the same primitive set:

``numpy``
    The reference oracle.  Pure NumPy, no optional dependencies.  CSR
    products run as an ELL-style fold over stored-entry slots — strictly
    sequential left-to-right accumulation per row, which is exactly the
    order SciPy's C kernels use — so the reference is **bit-for-bit**
    comparable with the accelerated backends, not merely close.
``scipy``
    The production default on ordinary hosts: SciPy's compiled CSR
    matvec/matmat kernels (through the reusable-output private entry
    points when available).
``numba``
    Optional JIT backend (:mod:`repro.core._numba_kernels`).  Adds
    *fused* rounds on top of the CSR products: the whole discrete
    Algorithm-1 round (adjacency gather, reciprocal floor-divide, signed
    scatter) as one prange-parallel traversal with no ``(m, B)``
    intermediates, and a parameterized FOS/Richardson matvec that never
    materializes a round matrix.  Only selectable by ``auto`` when numba
    imports; forcing ``backend="numba"`` without numba raises.

Every backend consumes the same :class:`PlainCSR` structures (built once
per topology by the operator, index arrays downcast to int32 when
``max(n, m) < 2**31`` — see :func:`index_dtype`), and every backend is
property-tested bit-for-bit identical to the ``numpy`` reference on the
serial, batched and sharded execution paths.

Backend selection: ``resolve_backend(None)`` honours the
``REPRO_BACKEND`` environment variable and defaults to ``"auto"``, which
picks the fastest available backend (numba > scipy > numpy).
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

from ..observability.recorder import get_recorder

__all__ = [
    "HAVE_SCIPY",
    "PlainCSR",
    "index_dtype",
    "KernelBackend",
    "NumpyBackend",
    "ScipyBackend",
    "NumbaBackend",
    "BACKEND_CHOICES",
    "available_backends",
    "backend_summaries",
    "resolve_backend",
    "get_backend",
]

try:  # SciPy is optional; the numpy reference backend covers its absence.
    import scipy.sparse as _sp

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised via forced-backend tests
    _sp = None
    HAVE_SCIPY = False

# scipy.sparse keeps its C kernels in a private module; using them lets the
# engines reuse preallocated output buffers (A @ x always allocates).  The
# public product is the fallback whenever the private entry point is absent
# or rejects a dtype combination — both paths run the same C loops, so
# results are identical.
_matvec_fns = None
if HAVE_SCIPY:
    try:
        from scipy.sparse import _sparsetools

        _matvec_fns = (_sparsetools.csr_matvec, _sparsetools.csr_matvecs)
    except (ImportError, AttributeError):  # pragma: no cover
        _matvec_fns = None

_INT32_MAX = np.iinfo(np.int32).max


def index_dtype(*maxvals: int):
    """The narrowest index dtype that can hold every value in ``maxvals``.

    int32 halves the index bandwidth of every sparse kernel; the
    overflow guard keeps graphs at or beyond ``2**31`` nodes/edges
    correct on int64 (the boundary is tested).
    """
    if all(int(v) <= _INT32_MAX for v in maxvals):
        return np.int32
    return np.int64


class PlainCSR:
    """A backend-neutral CSR matrix: bare ``(indptr, indices, data)`` arrays.

    Built once per topology by the operator and shared by every backend:
    the scipy backend wraps the arrays zero-copy, the numba kernels
    consume them directly, and the numpy reference folds over the cached
    ELL slot decomposition.  ``with_data`` reuses the sparsity pattern
    (and its ELL cache) under fresh values — the per-``alpha`` FOS round
    matrices differ only in ``data``.
    """

    __slots__ = ("indptr", "indices", "data", "shape", "_ell", "_scipy")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, shape: tuple):
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = shape
        self._ell = None
        self._scipy = None

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def with_data(self, data: np.ndarray) -> "PlainCSR":
        """A view of the same pattern carrying different values."""
        other = PlainCSR(self.indptr, self.indices, data, self.shape)
        other._ell = self._ell if self._ell is not None else self.ell
        return other

    @property
    def ell(self):
        """Stored-slot decomposition ``[(rows_k, flat_positions_k), ...]``.

        Pass ``k`` selects, for every row with more than ``k`` stored
        entries, that row's ``k``-th entry.  Folding the passes in order
        accumulates each row's entries strictly left to right — the same
        sequence SciPy's C matvec performs — which is what makes the
        pure-NumPy product bit-for-bit equal to the compiled ones.
        """
        if self._ell is None:
            counts = np.diff(self.indptr).astype(np.int64)
            passes = []
            width = int(counts.max()) if counts.size else 0
            for k in range(width):
                rows = np.flatnonzero(counts > k)
                passes.append((rows, self.indptr[rows].astype(np.int64) + k))
            self._ell = passes
        return self._ell

    def as_scipy(self):
        """The same matrix as a ``scipy.sparse.csr_array`` (zero-copy)."""
        if not HAVE_SCIPY:
            raise RuntimeError("scipy is not installed")
        if self._scipy is None:
            self._scipy = _sp.csr_array(
                (self.data, self.indices, self.indptr), shape=self.shape
            )
        return self._scipy


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class KernelBackend:
    """Interface the operator's round kernels dispatch through.

    ``matvec``/``add_matvec`` are mandatory.  ``accumulate_matvec``
    (``out += csr @ x``) has a default built on ``matvec``; backends
    whose kernels can fold straight into ``out`` override it.  It is the
    staged discrete round's scatter and is only called on exact-integer
    data, where every fold order gives the same bits — float callers
    keep ``add_matvec``'s ``base + (csr @ x)``.  The ``fused_*`` hooks
    may return None, in which case the operator runs its staged
    formulation (difference product → divide → scatter, see
    :meth:`~repro.core.operators.EdgeOperator.discrete_step`) on this
    backend's products.
    """

    name = "abstract"
    priority = 0  # higher wins under "auto"

    @classmethod
    def available(cls) -> bool:
        raise NotImplementedError

    @classmethod
    def detail(cls) -> str:
        """One-line availability note for the diagnostic command."""
        raise NotImplementedError

    def matvec(self, csr: PlainCSR, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = csr @ x`` for ``(n,)`` or node-major ``(n, B)`` x."""
        raise NotImplementedError

    def add_matvec(
        self, csr: PlainCSR, base: np.ndarray, x: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """``out = base + csr @ x`` (the signed-scatter application)."""
        raise NotImplementedError

    def accumulate_matvec(self, csr: PlainCSR, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out += csr @ x`` (exact-integer data only; see the class notes)."""
        np.add(out, self.matvec(csr, x, np.empty_like(out)), out=out)
        return out

    def fused_discrete_round(self, op, loads, out, use_recip: bool):
        """Whole discrete round, or None to use the staged formulation."""
        return None

    def fused_fos_round(self, op, alpha: float, loads, out):
        """Whole ``(I - alpha L) @ loads`` round, or None."""
        return None


class NumpyBackend(KernelBackend):
    """Pure-NumPy reference backend (the bit-exactness oracle)."""

    name = "numpy"
    priority = 10

    @classmethod
    def available(cls) -> bool:
        return True

    @classmethod
    def detail(cls) -> str:
        return f"numpy {np.__version__} (always available; reference oracle)"

    def matvec(self, csr: PlainCSR, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        out.fill(0)
        return self.accumulate_matvec(csr, x, out)

    def accumulate_matvec(self, csr: PlainCSR, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        data, idx = csr.data, csr.indices
        if x.ndim == 1:
            for rows, pos in csr.ell:
                out[rows] += data[pos] * x[idx[pos]]
        else:
            for rows, pos in csr.ell:
                out[rows] += data[pos, None] * x[idx[pos]]
        return out

    def add_matvec(
        self, csr: PlainCSR, base: np.ndarray, x: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        self.matvec(csr, x, out)
        np.add(base, out, out=out)
        return out


class ScipyBackend(KernelBackend):
    """SciPy compiled CSR kernels (the default on scipy-equipped hosts)."""

    name = "scipy"
    priority = 20

    @classmethod
    def available(cls) -> bool:
        return HAVE_SCIPY

    @classmethod
    def detail(cls) -> str:
        if not HAVE_SCIPY:
            return "scipy not installed"
        import scipy

        fast = "reusable-output C kernels" if _matvec_fns else "public csr product"
        return f"scipy {scipy.__version__} ({fast})"

    @staticmethod
    def _fold_into(csr: PlainCSR, x: np.ndarray, out: np.ndarray) -> bool:
        """``out += csr @ x`` through the reusable-output C kernels.

        SciPy's ``csr_matvec(s)`` accumulate into ``y`` (``y += A x``);
        returns False when they cannot run on these arrays.
        """
        if _matvec_fns is None or not (out.flags.c_contiguous and x.flags.c_contiguous):
            return False
        n_row, n_col = csr.shape
        try:
            # A one-column matmat is a matvec: same per-row stored-order
            # fold, without csr_matvecs' per-entry inner loop.
            if x.ndim == 1 or x.shape[1] == 1:
                _matvec_fns[0](
                    n_row, n_col, csr.indptr, csr.indices, csr.data, x.ravel(), out.ravel()
                )
            else:
                _matvec_fns[1](
                    n_row,
                    n_col,
                    x.shape[1],
                    csr.indptr,
                    csr.indices,
                    csr.data,
                    x.ravel(),
                    out.ravel(),
                )
        except (TypeError, ValueError):  # pragma: no cover - dtype edge cases
            return False
        return True

    def matvec(self, csr: PlainCSR, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        out.fill(0)
        if not self._fold_into(csr, x, out):
            out[...] = csr.as_scipy() @ x
        return out

    def accumulate_matvec(self, csr: PlainCSR, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        if not self._fold_into(csr, x, out):
            out += csr.as_scipy() @ x
        return out

    def add_matvec(
        self, csr: PlainCSR, base: np.ndarray, x: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        self.matvec(csr, np.ascontiguousarray(x), out)
        np.add(base, out, out=out)
        return out


class NumbaBackend(KernelBackend):
    """JIT backend with fused whole-round kernels (optional)."""

    name = "numba"
    priority = 30

    @classmethod
    def _kernels(cls):
        from repro.core import _numba_kernels as nk

        return nk

    @classmethod
    def available(cls) -> bool:
        return cls._kernels().HAVE_NUMBA

    @classmethod
    def detail(cls) -> str:
        nk = cls._kernels()
        if nk.HAVE_NUMBA:
            return f"numba {nk.NUMBA_VERSION} (fused JIT round kernels)"
        return "numba not installed"

    def matvec(self, csr: PlainCSR, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        nk = self._kernels()
        if x.ndim == 1:
            nk.csr_matvec(csr.indptr, csr.indices, csr.data, x, out)
        else:
            nk.csr_matmat(csr.indptr, csr.indices, csr.data, np.ascontiguousarray(x), out)
        return out

    def add_matvec(
        self, csr: PlainCSR, base: np.ndarray, x: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        nk = self._kernels()
        if x.ndim == 1:
            nk.add_csr_matvec(csr.indptr, csr.indices, csr.data, base, x, out)
        else:
            nk.add_csr_matmat(
                csr.indptr, csr.indices, csr.data, base, np.ascontiguousarray(x), out
            )
        return out

    def fused_discrete_round(self, op, loads, out, use_recip: bool):
        nk = self._kernels()
        indptr, indices, _eids = op.adjacency()
        if use_recip:
            vals = op.adj_recip
            kernel = nk.fused_discrete_recip if loads.ndim == 1 else nk.fused_discrete_recip_batch
        else:
            vals = op.adj_denom_int
            kernel = nk.fused_discrete_div if loads.ndim == 1 else nk.fused_discrete_div_batch
        kernel(indptr, indices, vals, np.ascontiguousarray(loads), out)
        return out

    def fused_fos_round(self, op, alpha: float, loads, out):
        nk = self._kernels()
        indptr, indices, _eids = op.adjacency()
        kernel = nk.fused_fos if loads.ndim == 1 else nk.fused_fos_batch
        kernel(indptr, indices, float(alpha), np.ascontiguousarray(loads), out)
        return out


# ----------------------------------------------------------------------
# Registry / selection
# ----------------------------------------------------------------------
_BACKEND_CLASSES: dict[str, type[KernelBackend]] = {
    NumpyBackend.name: NumpyBackend,
    ScipyBackend.name: ScipyBackend,
    NumbaBackend.name: NumbaBackend,
}
_INSTANCES: dict[str, KernelBackend] = {}

#: CLI-facing choice list (``auto`` resolves to the fastest available).
BACKEND_CHOICES = ("auto", "numpy", "scipy", "numba")


def available_backends() -> list[str]:
    """Names of the backends usable on this host, fastest first."""
    names = [
        cls.name
        for cls in sorted(_BACKEND_CLASSES.values(), key=lambda c: -c.priority)
        if cls.available()
    ]
    return names


def backend_summaries() -> list[dict]:
    """Availability matrix for the ``repro-lb backends`` diagnostic."""
    default = resolve_backend(None)
    rows = []
    for cls in sorted(_BACKEND_CLASSES.values(), key=lambda c: -c.priority):
        rows.append(
            {
                "name": cls.name,
                "available": cls.available(),
                "default": cls.name == default,
                "detail": cls.detail(),
            }
        )
    return rows


def resolve_backend(name: str | None) -> str:
    """Normalize a backend spec to a concrete, available backend name.

    ``None`` consults the ``REPRO_BACKEND`` environment variable, then
    defaults to ``auto``; ``auto`` picks the highest-priority available
    backend.  Forcing an unavailable backend raises ``RuntimeError``.
    """
    if name is None:
        name = os.environ.get("REPRO_BACKEND", "auto") or "auto"
    name = str(name).lower()
    if name == "auto":
        return available_backends()[0]
    cls = _BACKEND_CLASSES.get(name)
    if cls is None:
        raise ValueError(f"unknown backend {name!r}; choose from {BACKEND_CHOICES}")
    if not cls.available():
        raise RuntimeError(f"backend {name!r} is not available: {cls.detail()}")
    return name


class _TimedBackend:
    """Metric-recording delegate around a real backend instance.

    Returned by :func:`get_backend` only while the process recorder is
    enabled; times each kernel entry point into ``kernel.<name>.*_s``
    metrics (aggregation only — per-call events would swamp a trace).
    Fused kernels may return ``None`` to decline (staged fallback);
    those calls are not recorded, so metric counts match executed work.
    """

    __slots__ = ("_inner", "_rec", "name", "priority", "_metric")

    def __init__(self, inner: KernelBackend, rec) -> None:
        self._inner = inner
        self._rec = rec
        self.name = inner.name
        self.priority = inner.priority
        #: entry point -> its metric name, formatted once
        self._metric = {kernel: f"kernel.{self.name}.{kernel}_s" for kernel in
                        ("matvec", "add_matvec", "accumulate_matvec", "fused_discrete",
                         "fused_fos")}

    def matvec(self, csr, x, out):
        t0 = perf_counter()
        result = self._inner.matvec(csr, x, out)
        self._rec.observe(self._metric["matvec"], perf_counter() - t0)
        return result

    def add_matvec(self, csr, base, x, out):
        t0 = perf_counter()
        result = self._inner.add_matvec(csr, base, x, out)
        self._rec.observe(self._metric["add_matvec"], perf_counter() - t0)
        return result

    def accumulate_matvec(self, csr, x, out):
        t0 = perf_counter()
        result = self._inner.accumulate_matvec(csr, x, out)
        self._rec.observe(self._metric["accumulate_matvec"], perf_counter() - t0)
        return result

    def fused_discrete_round(self, op, loads, out, use_recip):
        t0 = perf_counter()
        result = self._inner.fused_discrete_round(op, loads, out, use_recip)
        if result is not None:
            self._rec.observe(self._metric["fused_discrete"], perf_counter() - t0)
        return result

    def fused_fos_round(self, op, alpha, loads, out):
        t0 = perf_counter()
        result = self._inner.fused_fos_round(op, alpha, loads, out)
        if result is not None:
            self._rec.observe(self._metric["fused_fos"], perf_counter() - t0)
        return result


_TIMED_INSTANCES: dict[str, _TimedBackend] = {}


def get_backend(name: str | None) -> KernelBackend:
    """The (singleton) backend instance for ``name`` (or the default).

    While the process recorder is enabled the instance arrives wrapped
    in a :class:`_TimedBackend` so kernel timings land in the metric
    registry; with telemetry off (the default) the raw singleton is
    returned and the hot path carries zero instrumentation.
    """
    resolved = resolve_backend(name)
    inst = _INSTANCES.get(resolved)
    if inst is None:
        inst = _INSTANCES[resolved] = _BACKEND_CLASSES[resolved]()
    rec = get_recorder()
    if rec.enabled:
        timed = _TIMED_INSTANCES.get(resolved)
        if timed is None or timed._rec is not rec:
            timed = _TIMED_INSTANCES[resolved] = _TimedBackend(inst, rec)
        return timed
    return inst
