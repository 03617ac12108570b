"""Spectral quantities of a topology.

Every convergence bound in the paper is spectral:

- Theorems 4/6 (fixed network) depend on ``lambda_2``, the second-smallest
  eigenvalue of the Laplacian ``L = D - A`` (algebraic connectivity), and
  on the maximum degree ``delta``.
- The first-order-scheme literature (Cybenko '89, Subramanian–Scherson '94,
  Muthukrishnan–Ghosh–Schultz '98) works with the *diffusion matrix*
  ``M = I - alpha L`` and its second-largest eigenvalue modulus ``gamma``;
  the *eigenvalue gap* is ``mu = 1 - gamma``.
- The Optimal Polynomial Scheme (Diekmann–Frommer–Monien '99) needs the
  full list of distinct Laplacian eigenvalues.

Eigen-decompositions are computed densely (``scipy.linalg.eigh`` on the
symmetric Laplacian) and memoized on each topology instance: the graphs in this
reproduction are laptop-scale (``n <= 4096``) and dense solves are both
exact and fast at that size.  For larger graphs ``lambda_2`` falls back to
a sparse Lanczos solve.  SciPy is imported inside the functions that use
it, so importing the package does not load its linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.topology import Topology

__all__ = [
    "adjacency_matrix",
    "laplacian_matrix",
    "diffusion_matrix",
    "laplacian_eigenvalues",
    "distinct_laplacian_eigenvalues",
    "fiedler_vector",
    "lambda_2",
    "gamma",
    "eigenvalue_gap",
    "spectral_profile",
    "SpectralProfile",
]

_DENSE_LIMIT = 4096


def adjacency_matrix(topo: Topology, sparse: bool = False):
    """Symmetric 0/1 adjacency matrix ``A`` (dense ndarray or CSR)."""
    u, v = topo.edges[:, 0], topo.edges[:, 1]
    if sparse:
        import scipy.sparse

        data = np.ones(2 * topo.m)
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(topo.n, topo.n))
    a = np.zeros((topo.n, topo.n))
    a[u, v] = 1.0
    a[v, u] = 1.0
    return a


def laplacian_matrix(topo: Topology, sparse: bool = False):
    """Graph Laplacian ``L = D - A``."""
    if sparse:
        import scipy.sparse

        a = adjacency_matrix(topo, sparse=True)
        d = scipy.sparse.diags(topo.degrees.astype(float))
        return (d - a).tocsr()
    a = adjacency_matrix(topo)
    return np.diag(topo.degrees.astype(float)) - a


def diffusion_matrix(topo: Topology, alpha: float | None = None) -> np.ndarray:
    """Cybenko's diffusion matrix ``M = I - alpha L``.

    With the standard choice ``alpha = 1 / (delta + 1)`` the matrix is
    symmetric, doubly stochastic, and has all eigenvalues in ``(-1, 1]``
    for a connected graph, so the first-order scheme ``L_{t+1} = M L_t``
    converges on *every* connected topology (including bipartite ones).
    """
    if alpha is None:
        alpha = 1.0 / (topo.max_degree + 1)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return np.eye(topo.n) - alpha * laplacian_matrix(topo)


def _cached_on(topo: Topology, attr: str, build) -> np.ndarray:
    """``build(topo)``, memoized in the topology's own ``__dict__``.

    The result lives and dies with the instance (like its
    :class:`~repro.core.operators.EdgeOperator`), so a module-level cache
    never keeps a dropped topology alive.
    """
    value = topo.__dict__.get(attr)
    if value is None:
        value = topo.__dict__[attr] = build(topo)
    return value


def _laplacian_spectrum(topo: Topology) -> np.ndarray:
    import scipy.linalg

    lap = laplacian_matrix(topo)
    vals = scipy.linalg.eigvalsh(lap)
    vals = np.clip(vals, 0.0, None)  # symmetric PSD; clip fp noise at zero
    vals.setflags(write=False)
    return vals


def laplacian_eigenvalues(topo: Topology) -> np.ndarray:
    """All Laplacian eigenvalues in ascending order (read-only)."""
    if topo.n > _DENSE_LIMIT:
        raise ValueError(
            f"full spectrum requested for n={topo.n} > {_DENSE_LIMIT}; "
            "use lambda_2() which falls back to a sparse solver"
        )
    return _cached_on(topo, "_laplacian_spectrum", _laplacian_spectrum)


def distinct_laplacian_eigenvalues(topo: Topology, tol: float = 1e-8) -> np.ndarray:
    """Distinct Laplacian eigenvalues (ascending), merged within ``tol``.

    The Optimal Polynomial Scheme terminates in ``m - 1`` rounds where
    ``m`` is the length of this list.
    """
    vals = laplacian_eigenvalues(topo)
    out: list[float] = []
    for v in vals:
        if not out or v - out[-1] > tol:
            out.append(float(v))
    return np.asarray(out)


def fiedler_vector(topo: Topology) -> np.ndarray:
    """Unit eigenvector of the Laplacian for ``lambda_2`` (read-only).

    The Fiedler vector is the *slowest-mixing* load pattern: an initial
    imbalance aligned with it contracts at exactly the rate the
    ``lambda_2`` bounds describe, making it the worst-case workload for
    probing bound tightness (experiment E16).  Sign convention: the
    first nonzero component is positive, so the vector is deterministic.
    """
    if topo.n < 2:
        raise ValueError("Fiedler vector needs n >= 2")
    return _cached_on(topo, "_fiedler_vector", _fiedler_vector)


def _fiedler_vector(topo: Topology) -> np.ndarray:
    import scipy.linalg

    lap = laplacian_matrix(topo)
    vals, vecs = scipy.linalg.eigh(lap)
    vec = vecs[:, 1].copy()
    nonzero = np.flatnonzero(np.abs(vec) > 1e-12)
    if nonzero.size and vec[nonzero[0]] < 0:
        vec = -vec
    vec.setflags(write=False)
    return vec


def lambda_2(topo: Topology) -> float:
    """Algebraic connectivity: second-smallest Laplacian eigenvalue.

    Zero iff the graph is disconnected — which is why disconnected rounds
    of a dynamic network contribute nothing to Theorem 7's average
    ``A_K``; the formulas handle that case without special-casing.
    """
    if topo.n == 1:
        return 0.0
    if topo.n <= _DENSE_LIMIT:
        return float(laplacian_eigenvalues(topo)[1])
    import scipy.sparse.linalg

    lap = laplacian_matrix(topo, sparse=True).asfptype()
    vals = scipy.sparse.linalg.eigsh(lap, k=2, sigma=0, which="LM", return_eigenvectors=False)
    return float(np.sort(np.clip(vals, 0.0, None))[1])


def lambda_max(topo: Topology) -> float:
    """Largest Laplacian eigenvalue (``<= 2 delta``)."""
    if topo.n == 1:
        return 0.0
    return float(laplacian_eigenvalues(topo)[-1])


def gamma(topo: Topology, alpha: float | None = None) -> float:
    """Second-largest eigenvalue *modulus* of the diffusion matrix ``M``.

    For ``M = I - alpha L`` the eigenvalues are ``1 - alpha lambda_i``, so
    ``gamma = max(|1 - alpha lambda_2|, |1 - alpha lambda_max|)`` — no
    second decomposition is needed.
    """
    if alpha is None:
        alpha = 1.0 / (topo.max_degree + 1)
    vals = laplacian_eigenvalues(topo)
    if topo.n == 1:
        return 0.0
    mapped = 1.0 - alpha * vals
    return float(max(abs(mapped[1]), abs(mapped[-1])))


def eigenvalue_gap(topo: Topology, alpha: float | None = None) -> float:
    """Eigenvalue gap ``mu = 1 - gamma`` of the diffusion matrix."""
    return 1.0 - gamma(topo, alpha)


@dataclass(frozen=True)
class SpectralProfile:
    """Summary of every spectral quantity the bounds consume."""

    name: str
    n: int
    m: int
    delta: int
    lambda2: float
    lambda_max: float
    gamma: float
    mu: float
    distinct_eigenvalues: int

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: n={self.n} m={self.m} delta={self.delta} "
            f"lambda2={self.lambda2:.4g} gamma={self.gamma:.4g} mu={self.mu:.4g}"
        )


def spectral_profile(topo: Topology, alpha: float | None = None) -> SpectralProfile:
    """Compute the full :class:`SpectralProfile` of a topology."""
    vals = laplacian_eigenvalues(topo)
    lam2 = float(vals[1]) if topo.n > 1 else 0.0
    lmax = float(vals[-1])
    g = gamma(topo, alpha)
    return SpectralProfile(
        name=topo.name,
        n=topo.n,
        m=topo.m,
        delta=topo.max_degree,
        lambda2=lam2,
        lambda_max=lmax,
        gamma=g,
        mu=1.0 - g,
        distinct_eigenvalues=int(distinct_laplacian_eigenvalues(topo).shape[0]),
    )


# ----------------------------------------------------------------------
# Closed forms for the standard families (used as test oracles)
# ----------------------------------------------------------------------

def lambda2_cycle(n: int) -> float:
    """``lambda_2`` of the n-cycle: ``2 (1 - cos(2 pi / n))``."""
    return 2.0 * (1.0 - np.cos(2.0 * np.pi / n))


def lambda2_path(n: int) -> float:
    """``lambda_2`` of the n-path: ``2 (1 - cos(pi / n))``."""
    return 2.0 * (1.0 - np.cos(np.pi / n))


def lambda2_complete(n: int) -> float:
    """``lambda_2`` of ``K_n``: ``n``."""
    return float(n)


def lambda2_star(n: int) -> float:
    """``lambda_2`` of the n-star: ``1``."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return 1.0


def lambda2_hypercube(dim: int) -> float:
    """``lambda_2`` of the hypercube: ``2`` for any dimension >= 1."""
    if dim < 1:
        raise ValueError("dim >= 1")
    return 2.0


def lambda2_torus(rows: int, cols: int) -> float:
    """``lambda_2`` of the 2-D torus (Cartesian product of two cycles)."""
    return min(lambda2_cycle(rows), lambda2_cycle(cols))
