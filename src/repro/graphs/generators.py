"""Generators for the graph families of the diffusion load-balancing literature.

The convergence theorems of the paper are parameterized by the maximum
degree ``delta`` and the algebraic connectivity ``lambda_2``; the standard
way to exercise them (e.g. Rabani–Sinclair–Wanka, FOCS'98) is across
families whose spectra span the extremes:

========================  =============  ==========================
family                     delta          lambda_2
========================  =============  ==========================
path / cycle               2              Theta(1/n^2)
2-D grid / torus           4              Theta(1/n)
hypercube                  log2(n)        2
de Bruijn                  4              Theta(1/log n)  (expander-ish)
random regular             d              Theta(1)   (expander, whp)
complete                   n - 1          n
star                       n - 1          1
========================  =============  ==========================

All generators return :class:`~repro.graphs.topology.Topology` instances
named so reports are self-describing.  ``by_name`` resolves a string spec
like ``"torus:8x8"`` — used by the CLI and the experiment configs.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.topology import Topology

__all__ = [
    "path",
    "cycle",
    "complete",
    "star",
    "wheel",
    "grid_2d",
    "torus_2d",
    "hypercube",
    "de_bruijn",
    "binary_tree",
    "k_ary_tree",
    "random_regular",
    "erdos_renyi",
    "barbell",
    "lollipop",
    "petersen",
    "by_name",
    "FAMILIES",
]


def _pairs(u, v) -> np.ndarray:
    """Stack two endpoint sequences into an ``(m, 2)`` int64 edge array."""
    return np.stack([np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)], axis=1)


def _clique_edges(k: int, offset: int = 0) -> np.ndarray:
    """Every pair of the ``k`` nodes ``offset .. offset + k - 1``."""
    iu, ju = np.triu_indices(k, k=1)
    return _pairs(iu + offset, ju + offset)


def path(n: int) -> Topology:
    """Path ``0 - 1 - ... - (n-1)``; the paper's worst-case discrete example."""
    i = np.arange(n - 1)
    return Topology(n, _pairs(i, i + 1), name=f"path:{n}")


def cycle(n: int) -> Topology:
    """Cycle on ``n >= 3`` nodes."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    i = np.arange(n)
    return Topology(n, _pairs(i, (i + 1) % n), name=f"cycle:{n}")


def complete(n: int) -> Topology:
    """Complete graph ``K_n``."""
    return Topology(n, _clique_edges(n), name=f"complete:{n}")


def star(n: int) -> Topology:
    """Star: hub ``0`` connected to ``1 .. n-1``."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    rim = np.arange(1, n)
    return Topology(n, _pairs(np.zeros_like(rim), rim), name=f"star:{n}")


def wheel(n: int) -> Topology:
    """Wheel: hub ``0`` plus a cycle on ``1 .. n-1``."""
    if n < 4:
        raise ValueError("wheel needs n >= 4")
    rim = np.arange(1, n)
    spokes = _pairs(np.zeros_like(rim), rim)
    return Topology(n, np.concatenate([spokes, _pairs(rim, np.roll(rim, -1))]), name=f"wheel:{n}")


def grid_2d(rows: int, cols: int) -> Topology:
    """Open 2-D grid (no wraparound)."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    ids = np.arange(rows * cols).reshape(rows, cols)
    right = _pairs(ids[:, :-1].ravel(), ids[:, 1:].ravel())
    down = _pairs(ids[:-1, :].ravel(), ids[1:, :].ravel())
    return Topology(rows * cols, np.concatenate([right, down]), name=f"grid:{rows}x{cols}")


def torus_2d(rows: int, cols: int) -> Topology:
    """2-D torus (grid with wraparound); 4-regular when both dims >= 3."""
    if rows < 3 or cols < 3:
        raise ValueError("torus needs both dimensions >= 3")
    ids = np.arange(rows * cols).reshape(rows, cols)
    right = _pairs(ids.ravel(), np.roll(ids, -1, axis=1).ravel())
    down = _pairs(ids.ravel(), np.roll(ids, -1, axis=0).ravel())
    return Topology(rows * cols, np.concatenate([right, down]), name=f"torus:{rows}x{cols}")


def hypercube(dim: int) -> Topology:
    """``dim``-dimensional hypercube on ``2**dim`` nodes; ``lambda_2 = 2``."""
    if dim < 1:
        raise ValueError("hypercube needs dim >= 1")
    n = 1 << dim
    v = np.arange(n)
    low = [v[((v >> b) & 1) == 0] for b in range(dim)]
    edges = np.concatenate([_pairs(lo, lo | (1 << b)) for b, lo in enumerate(low)])
    return Topology(n, edges, name=f"hypercube:{dim}")


def de_bruijn(dim: int) -> Topology:
    """Undirected de Bruijn graph ``DB(2, dim)`` on ``2**dim`` nodes.

    The directed de Bruijn graph has arcs ``v -> (2v mod n)`` and
    ``v -> (2v + 1 mod n)``; we take the undirected simple version, a
    constant-degree graph with logarithmic diameter — one of the topologies
    Rabani–Sinclair–Wanka evaluate on.
    """
    if dim < 1:
        raise ValueError("de Bruijn needs dim >= 1")
    n = 1 << dim
    v = np.arange(n)
    arcs = np.concatenate([_pairs(v, (2 * v) % n), _pairs(v, (2 * v + 1) % n)])
    return Topology(n, arcs[arcs[:, 0] != arcs[:, 1]], name=f"debruijn:{dim}")


def binary_tree(depth: int) -> Topology:
    """Complete binary tree of given depth (``2**(depth+1) - 1`` nodes)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = (1 << (depth + 1)) - 1
    child = np.arange(1, n)
    return Topology(n, _pairs((child - 1) // 2, child), name=f"bintree:{depth}")


def k_ary_tree(k: int, depth: int) -> Topology:
    """Complete ``k``-ary tree of given depth."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = (k ** (depth + 1) - 1) // (k - 1)
    child = np.arange(1, n)
    return Topology(n, _pairs((child - 1) // k, child), name=f"{k}arytree:{depth}")


def _circulant_regular(n: int, d: int) -> set[tuple[int, int]]:
    """Deterministic connected ``d``-regular circulant edge set.

    Node ``i`` connects to ``i +- k`` for ``k = 1 .. d//2``; when ``d`` is
    odd, also to the antipode ``i + n/2`` (``n`` must then be even, which
    the ``n*d`` parity check guarantees).
    """
    edges: set[tuple[int, int]] = set()
    for i in range(n):
        for k in range(1, d // 2 + 1):
            j = (i + k) % n
            edges.add((min(i, j), max(i, j)))
        if d % 2 == 1:
            j = (i + n // 2) % n
            edges.add((min(i, j), max(i, j)))
    return edges


def random_regular(n: int, d: int, rng: np.random.Generator | None = None, swaps_per_edge: int = 10) -> Topology:
    """Random ``d``-regular simple connected graph.

    With high probability a random ``d``-regular graph is an expander
    (``lambda_2 = Theta(1)``), the favourable regime for diffusion.

    Construction: start from the deterministic connected circulant and
    randomize with double-edge swaps — replace ``(a, b), (c, e)`` with
    ``(a, c), (b, e)`` whenever the result stays simple.  Swaps preserve
    degrees exactly; unlike configuration-model rejection this never
    fails, even for small ``n`` where a random pairing is almost never
    simple.  Connectivity is restored by re-swapping if a batch
    disconnects the graph (rare for ``d >= 3``).
    """
    if n * d % 2 != 0:
        raise ValueError("n * d must be even")
    if d >= n:
        raise ValueError("need d < n")
    if d < 1:
        raise ValueError("need d >= 1")
    rng = np.random.default_rng() if rng is None else rng
    if d == 1:
        # Perfect matching: pair up a random permutation.
        perm = rng.permutation(n)
        pairs = [(int(perm[2 * i]), int(perm[2 * i + 1])) for i in range(n // 2)]
        return Topology(n, pairs, name=f"regular:{n}x{d}")

    edges = _circulant_regular(n, d)

    def do_swaps(edge_set: set[tuple[int, int]], count: int) -> None:
        edge_list = list(edge_set)
        for _ in range(count):
            i1, i2 = rng.integers(0, len(edge_list), size=2)
            if i1 == i2:
                continue
            old1, old2 = edge_list[i1], edge_list[i2]
            a, b = old1
            c, e = old2
            if rng.random() < 0.5:
                c, e = e, c
            if len({a, b, c, e}) < 4:
                continue
            new1 = (min(a, c), max(a, c))
            new2 = (min(b, e), max(b, e))
            if new1 in edge_set or new2 in edge_set:
                continue
            edge_set.discard(old1)
            edge_set.discard(old2)
            edge_set.add(new1)
            edge_set.add(new2)
            edge_list[i1] = new1
            edge_list[i2] = new2

    do_swaps(edges, swaps_per_edge * len(edges))
    topo = Topology(n, list(edges), name=f"regular:{n}x{d}")
    retries = 0
    while not topo.is_connected and retries < 50:
        do_swaps(edges, len(edges))
        topo = Topology(n, list(edges), name=f"regular:{n}x{d}")
        retries += 1
    if not topo.is_connected:  # pragma: no cover - d>=2 swaps reconnect fast
        raise RuntimeError(f"failed to connect a {d}-regular graph on {n} nodes")
    return topo


def erdos_renyi(n: int, p: float, rng: np.random.Generator | None = None) -> Topology:
    """Erdős–Rényi ``G(n, p)``; not guaranteed connected."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = np.random.default_rng() if rng is None else rng
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < p
    edges = np.stack([iu[keep], ju[keep]], axis=1)
    return Topology(n, edges, name=f"gnp:{n},{p:g}")


def barbell(k: int) -> Topology:
    """Two ``K_k`` cliques joined by a single bridge edge — tiny ``lambda_2``.

    A classic stress case: diffusion across the bridge is the bottleneck,
    so convergence is slow exactly as Theorem 4's ``1/lambda_2`` predicts.
    """
    if k < 2:
        raise ValueError("barbell needs k >= 2")
    edges = np.concatenate([_clique_edges(k), _clique_edges(k, offset=k), _pairs([k - 1], [k])])
    return Topology(2 * k, edges, name=f"barbell:{k}")


def lollipop(k: int, tail: int) -> Topology:
    """``K_k`` clique with a path of ``tail`` extra nodes attached."""
    if k < 2 or tail < 1:
        raise ValueError("lollipop needs k >= 2 and tail >= 1")
    t = np.arange(k - 1, k + tail - 1)
    edges = np.concatenate([_clique_edges(k), _pairs(t, t + 1)])
    return Topology(k + tail, edges, name=f"lollipop:{k}+{tail}")


def petersen() -> Topology:
    """The Petersen graph: 3-regular, 10 nodes, ``lambda_2 = 2``."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Topology(10, outer + inner + spokes, name="petersen")


# ----------------------------------------------------------------------
# Name-based construction (CLI / experiment configs)
# ----------------------------------------------------------------------

def _parse_dims(spec: str, count: int) -> list[int]:
    parts = [p for p in spec.replace("x", ",").split(",") if p]
    if len(parts) != count:
        raise ValueError(f"expected {count} integer parameter(s), got {spec!r}")
    return [int(p) for p in parts]


FAMILIES: dict[str, str] = {
    "path": "path:<n>",
    "cycle": "cycle:<n>",
    "complete": "complete:<n>",
    "star": "star:<n>",
    "wheel": "wheel:<n>",
    "grid": "grid:<rows>x<cols>",
    "torus": "torus:<rows>x<cols>",
    "hypercube": "hypercube:<dim>",
    "debruijn": "debruijn:<dim>",
    "bintree": "bintree:<depth>",
    "regular": "regular:<n>x<d>   (seeded: regular:<n>x<d>@<seed>)",
    "barbell": "barbell:<k>",
    "lollipop": "lollipop:<k>+<tail>",
    "petersen": "petersen",
}


def by_name(spec: str, rng: np.random.Generator | None = None) -> Topology:
    """Resolve a string spec such as ``"torus:8x8"`` into a topology.

    Randomized families accept an ``@seed`` suffix (``"regular:64x4@7"``)
    so experiment configs stay reproducible without passing generators
    around.
    """
    spec = spec.strip()
    if spec == "petersen":
        return petersen()
    if ":" not in spec:
        raise ValueError(f"malformed topology spec {spec!r}; known: {sorted(FAMILIES)}")
    family, _, params = spec.partition(":")
    seed: int | None = None
    if "@" in params:
        params, _, seed_text = params.partition("@")
        seed = int(seed_text)
        rng = np.random.default_rng(seed)
    if family == "path":
        return path(_parse_dims(params, 1)[0])
    if family == "cycle":
        return cycle(_parse_dims(params, 1)[0])
    if family == "complete":
        return complete(_parse_dims(params, 1)[0])
    if family == "star":
        return star(_parse_dims(params, 1)[0])
    if family == "wheel":
        return wheel(_parse_dims(params, 1)[0])
    if family == "grid":
        r, c = _parse_dims(params, 2)
        return grid_2d(r, c)
    if family == "torus":
        r, c = _parse_dims(params, 2)
        return torus_2d(r, c)
    if family == "hypercube":
        return hypercube(_parse_dims(params, 1)[0])
    if family == "debruijn":
        return de_bruijn(_parse_dims(params, 1)[0])
    if family == "bintree":
        return binary_tree(_parse_dims(params, 1)[0])
    if family == "regular":
        n, d = _parse_dims(params, 2)
        return random_regular(n, d, rng=rng)
    if family == "barbell":
        return barbell(_parse_dims(params, 1)[0])
    if family == "lollipop":
        k_text, _, tail_text = params.partition("+")
        return lollipop(int(k_text), int(tail_text))
    raise ValueError(f"unknown topology family {family!r}; known: {sorted(FAMILIES)}")
