"""The common interface every balancing scheme implements.

A :class:`Balancer` maps a load vector to the next round's load vector.
Schemes differ in

- *mode*: ``"continuous"`` (arbitrarily divisible load, float64) versus
  ``"discrete"`` (indivisible unit tokens, int64);
- *statefulness*: the second-order scheme needs the previous two load
  vectors, OPS and round-robin dimension exchange track a round index,
  Algorithm 2 draws fresh random partners each round.

The engine contract is:

1. ``reset()`` before a run (clears history/round counters);
2. ``step(loads, rng)`` once per round — validates its input
   (:meth:`Balancer.validate_loads`), must **not** mutate it and must
   conserve total load exactly (integer-exact in discrete mode,
   float-exact up to accumulation error in continuous mode);
3. deterministic given the ``rng`` stream.

Loads are non-negative unless a scheme sets ``allows_negative`` (the
overshoot of SOS and OPS); :meth:`Balancer.validate_loads` and the
engines' per-round guard both read that one attribute.

Schemes that can run many replicas in lockstep additionally set
``supports_batch = True`` and implement ``step_batch(loads, rngs)`` over
an ``(n, B)`` load matrix (column ``b`` is replica ``b``) with one
independent generator per replica.  The matrix is usually C-ordered
(node-major), but it may be the transposed view of C-contiguous
``(B, n)`` replica rows (see ``replica_major_batch``), so a kernel must
not assume either memory order.  The contract mirrors
``step``: no input mutation, per-replica conservation, and column ``b``
of the result must be **bit-for-bit** what ``step`` would produce for
replica ``b``'s loads and generator — :class:`EnsembleSimulator` and the
property tests rely on that equivalence.  Every built-in scheme —
diffusion, random partner, FOS/SOS, dimension exchange, OPS,
asynchronous and heterogeneous diffusion — implements the batched
contract, so the ensemble engine (and the sharded execution layer on top
of it) covers the whole zoo.  ``step_batch`` does not validate: the
engines check the initial state once and then call it every round, one
replica included (as an ``(n, 1)`` batch); ``step`` remains the public,
validated round and the fallback for schemes without a batched kernel.

A string registry maps scheme names to factories so the CLI and the
experiment configs can construct balancers declaratively.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from repro.graphs.topology import Topology

__all__ = [
    "Balancer",
    "BalancerState",
    "register_balancer",
    "get_balancer",
    "registered_balancers",
    "CONTINUOUS",
    "DISCRETE",
]

CONTINUOUS = "continuous"
DISCRETE = "discrete"

_INT64_MAX = int(np.iinfo(np.int64).max)


class BalancerState:
    """Mutable per-run state shared by stateful balancers.

    Keeps the round index and an optional history dict.  Factored out so
    `reset` semantics are uniform and tests can inspect scheme internals
    without reaching into private attributes.
    """

    def __init__(self) -> None:
        self.round: int = 0
        self.history: dict[str, np.ndarray] = {}

    def clear(self) -> None:
        self.round = 0
        self.history.clear()


class Balancer(ABC):
    """Abstract balancing scheme; see module docstring for the contract."""

    #: scheme name used in reports (subclasses override)
    name: str = "balancer"
    #: CONTINUOUS or DISCRETE
    mode: str = CONTINUOUS
    #: True when :meth:`step_batch` is implemented (lockstep ensembles)
    supports_batch: bool = False
    #: True when the scheme's loads may dip below zero in transit (the
    #: momentum of SOS, the polynomial overshoot of OPS); read by
    #: :meth:`validate_loads` and by the engines' per-round guard
    allows_negative: bool = False
    #: True when :meth:`step_batch` works on replica rows, so an ensemble
    #: may hold its batch as C-contiguous ``(B, n)`` rows and pass their
    #: ``(n, B)`` transposed view (see
    #: :func:`~repro.simulation.ensemble.initial_batch`)
    replica_major_batch: bool = False
    #: True when :meth:`block_step` is implemented (node-axis partitioned
    #: execution with halo exchange; see :mod:`repro.simulation.partitioned`).
    #: May be set per instance — e.g. FOS supports it only in its linear
    #: continuous variant.
    supports_partition: bool = False
    #: Kernel backend the scheme's operator kernels run on
    #: (``"numpy"``/``"scipy"``/``"numba"``/``"auto"``; None = ambient
    #: default).  Backends are bit-for-bit interchangeable, so this only
    #: affects speed; the engines, ``sweep`` and the CLI set it via their
    #: ``backend`` pass-through.  Schemes that never touch an
    #: :class:`~repro.core.operators.EdgeOperator` simply ignore it.
    backend: str | None = None

    def __init__(self) -> None:
        self.state = BalancerState()

    # -- engine contract ------------------------------------------------
    def reset(self) -> None:
        """Forget all per-run state (round counter, history)."""
        self.state.clear()

    @abstractmethod
    def step(self, loads: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return the next round's loads; must not mutate the input."""

    def step_batch(self, loads: np.ndarray, rngs, out: np.ndarray | None = None) -> np.ndarray:
        """One lockstep round over an ``(n, B)`` replica batch.

        ``rngs`` is a sequence of ``B`` independent generators (one per
        replica); column ``b`` of the result must equal what ``step``
        would return for column ``b`` and ``rngs[b]``, bit for bit.
        ``loads`` and ``out`` may be C-ordered or the transposed views of
        C-contiguous ``(B, n)`` rows; a kernel must handle either order.
        ``out`` optionally supplies a preallocated result buffer (never
        aliasing ``loads``) that implementations *may* fill and return —
        the ensemble engine ping-pongs two buffers through it to keep
        the hot loop allocation-free.  Ignoring ``out`` and returning a
        fresh array is always correct.  Schemes opt in by overriding
        this and setting ``supports_batch``.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support batched stepping")

    # -- partitioned (node-axis) contract --------------------------------
    def partition_topology(self, k: int) -> Topology:
        """The graph round ``k`` runs on, for the partitioned runtime.

        The partitioned engine owns the round counter (each worker holds
        its own balancer copy, so ``advance_round`` bookkeeping cannot be
        shared); schemes that support partitioning override this to
        expose their — possibly dynamic — per-round topology.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support partitioned stepping")

    def block_step(
        self,
        local,
        ext_loads: np.ndarray,
        out: np.ndarray | None = None,
        rows: str | None = None,
    ) -> np.ndarray:
        """One round of this scheme on one partition block.

        ``local`` is a :class:`~repro.simulation.partitioned.BlockLocal`
        — the block's row slice of the per-topology operators — and
        ``ext_loads`` is the node-major ``(n_owned + n_ghost, B)``
        extended load matrix (owned rows first, then halo-refreshed ghost
        rows).  Returns the block's next ``(n_owned, B)`` owned loads;
        row ``i`` must be **bit-for-bit** what a global :meth:`step_batch`
        would put at the corresponding global node.  Schemes opt in by
        overriding this and setting ``supports_partition``.

        ``rows`` selects a row subset for split-phase execution:
        ``None`` computes every owned row, ``"interior"`` only rows whose
        operator support lies on owned columns (computable before the
        halo arrives), ``"boundary"`` only rows touching ghost columns.
        Subset calls update exactly those rows of ``out`` and must
        produce the same per-row values as a full call — row updates are
        independent given the extended vector, which is what makes the
        communication/computation overlap bit-for-bit safe.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support partitioned stepping")

    # -- helpers ----------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        """The dtype load vectors must have in this mode."""
        return np.dtype(np.int64) if self.mode == DISCRETE else np.dtype(np.float64)

    def validate_loads(self, loads: np.ndarray) -> np.ndarray:
        """Coerce/validate a load vector for this scheme's mode.

        Discrete schemes require an integer-valued vector (float inputs
        holding integers are accepted and cast); continuous schemes cast
        to float64.  Negative loads are rejected — the model has tokens,
        not debts — unless the scheme ``allows_negative``, and so are
        unsigned loads past the int64 range, which the discrete cast would
        wrap.
        """
        arr = np.asarray(loads)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"loads must be a non-empty 1-D vector, got shape {arr.shape}")
        return self._checked_loads(arr)

    def validate_rows(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`validate_loads` for every row of a ``(B, n)`` batch at once.

        The batch is checked and cast as one matrix: one ``min``/``max``,
        one cast and one equality check in place of ``B`` vector calls,
        with the same errors.
        """
        arr = np.asarray(rows)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError(f"loads must be (B, n) rows with B >= 1, got shape {arr.shape}")
        if arr.shape[1] == 0:
            raise ValueError(f"loads must be a non-empty 1-D vector, got shape {arr.shape[1:]}")
        return self._checked_loads(arr)

    def _checked_loads(self, arr: np.ndarray) -> np.ndarray:
        """The checks and cast of :meth:`validate_loads`, on any non-empty shape."""
        # min and max propagate NaN, and an inf is one of them.
        lo, hi = arr.min(), arr.max()
        if arr.dtype.kind == "f" and not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("loads must be finite (no NaN/inf)")
        if lo < 0 and not self.allows_negative:
            raise ValueError("loads must be non-negative")
        if self.mode == DISCRETE:
            if arr.dtype.kind == "u" and int(hi) > _INT64_MAX:
                raise ValueError(f"discrete loads must fit in int64, got {int(hi)}")
            cast = arr.astype(np.int64)
            if arr.dtype != cast.dtype and not np.array_equal(cast.astype(arr.dtype, copy=False), arr):
                raise ValueError("discrete balancer requires integer loads")
            return cast
        return arr.astype(np.float64)

    def advance_round(self) -> int:
        """Bump and return the 0-based index of the round being computed."""
        r = self.state.round
        self.state.round += 1
        return r

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, mode={self.mode!r})"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

BalancerFactory = Callable[..., Balancer]
_REGISTRY: dict[str, BalancerFactory] = {}


def register_balancer(name: str) -> Callable[[BalancerFactory], BalancerFactory]:
    """Class decorator registering a factory under ``name`` (unique)."""

    def deco(factory: BalancerFactory) -> BalancerFactory:
        if name in _REGISTRY:
            raise ValueError(f"balancer {name!r} already registered")
        _REGISTRY[name] = factory
        return factory

    return deco


def registered_balancers() -> list[str]:
    """Sorted names of all registered schemes (imports the providers)."""
    _ensure_providers_loaded()
    return sorted(_REGISTRY)


def get_balancer(name: str, topology: Topology | None = None, **kwargs) -> Balancer:
    """Instantiate a registered scheme by name.

    Schemes that need a topology (everything except Algorithm 2) receive
    it as the first argument; Algorithm 2 factories ignore ``topology``.
    """
    _ensure_providers_loaded()
    if name not in _REGISTRY:
        raise KeyError(f"unknown balancer {name!r}; known: {registered_balancers()}")
    factory = _REGISTRY[name]
    if topology is not None:
        return factory(topology, **kwargs)
    return factory(**kwargs)


def _ensure_providers_loaded() -> None:
    """Import the modules whose import side-effect registers factories."""
    import repro.core.diffusion  # noqa: F401
    import repro.core.random_partner  # noqa: F401
    import repro.baselines.first_order  # noqa: F401
    import repro.baselines.second_order  # noqa: F401
    import repro.baselines.dimension_exchange  # noqa: F401
    import repro.baselines.ops  # noqa: F401
    import repro.extensions.asynchronous  # noqa: F401
    import repro.extensions.heterogeneous  # noqa: F401
