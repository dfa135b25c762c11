"""2-D lattice social networks with optional small-world rewiring.

Agents sit on a rows x cols grid (node index = row * cols + col) joined to
their first-order neighbors: orthogonal only (von Neumann, interior degree 4)
or orthogonal plus diagonal (Moore, interior degree 8). Boundaries are not
periodic, so edge and corner nodes have fewer neighbors. Rewiring detaches a
Bernoulli-selected subset of lattice edges at one endpoint and reattaches
them to uniformly random nodes, preserving the total edge count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra


class Neighborhood(enum.Enum):
    VON_NEUMANN = "von_neumann"
    MOORE = "moore"

    @property
    def k(self) -> int:
        """Interior degree: 4 for von Neumann, 8 for Moore."""
        return 8 if self is Neighborhood.MOORE else 4

    @classmethod
    def for_k(cls, k: int) -> Neighborhood:
        """The neighborhood of interior degree k.

        Raises:
            ValueError: k is neither 4 nor 8.
        """
        for neighborhood in cls:
            if neighborhood.k == k:
                return neighborhood
        raise ValueError(f"k must be 4 or 8, got {k}")


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice geometry: rows x cols grid with a neighborhood rule."""

    rows: int
    cols: int
    neighborhood: Neighborhood

    def __post_init__(self) -> None:
        if self.rows < 2 or self.cols < 2:
            raise ValueError(
                f"lattice must be at least 2x2, got {self.rows}x{self.cols}"
            )
        if not isinstance(self.neighborhood, Neighborhood):
            raise ValueError(f"invalid neighborhood: {self.neighborhood!r}")

    @property
    def node_count(self) -> int:
        return self.rows * self.cols


_LOW_WORD = 0xFFFFFFFF


def _edge_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """int64 keys of node pairs (a, b): a in the high word, b in the low
    one, so keys sort as the pairs do lexicographically. Node indices are
    int32, so both fit."""
    return (a.astype(np.int64, copy=False) << 32) | b


class SocialNetwork:
    """Immutable undirected network over lattice nodes.

    Stores edges canonically (smaller index first, sorted lexicographically)
    plus a CSR neighbor table for fast per-node queries. All arrays are
    read-only; rewiring produces a new instance.

    Raises:
        ValueError: edges not an (E, 2) array, an endpoint outside
            [0, node_count), a self-loop, or an edge listed twice (in
            either orientation).

    Attributes:
        node_count: number of agents.
        base_spec: lattice geometry the network was built from.
        rewire_prob: probability used when this network was rewired (0 for a
            pure lattice).
        indptr, indices: CSR neighbor table; neighbors of node i are
            indices[indptr[i]:indptr[i+1]], sorted ascending.
    """

    def __init__(self, edges: np.ndarray, base_spec: LatticeSpec, rewire_prob: float):
        n = base_spec.node_count
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must be an (E, 2) array")
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError(f"edge endpoint out of range [0, {n})")
        # canonical storage: smaller endpoint first, sorted by (lo, hi)
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        if np.any(lo == hi):
            raise ValueError("edges contain a self-loop")
        keys = _edge_keys(lo, hi)
        keys.sort()
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("edges contain a duplicate")
        lo, hi = keys >> 32, keys & _LOW_WORD
        self._edges = np.empty((len(keys), 2), dtype=np.int32)
        self._edges[:, 0] = lo
        self._edges[:, 1] = hi
        self._edges.setflags(write=False)

        # both directions keyed (src, dst); sorted, their dst values are the
        # concatenated neighbor lists, each ascending
        directed = np.concatenate((keys, _edge_keys(hi, lo)))
        directed.sort()
        directed &= _LOW_WORD
        self.indices = directed.astype(np.int32)
        self.indices.setflags(write=False)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(edges.ravel(), minlength=n), out=self.indptr[1:])
        self.indptr.setflags(write=False)

        self.node_count = n
        self.base_spec = base_spec
        self.rewire_prob = float(rewire_prob)

    @property
    def edge_count(self) -> int:
        return self._edges.shape[0]

    @property
    def edges(self) -> np.ndarray:
        """(E, 2) array, smaller index first, lexicographically sorted."""
        return self._edges

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor indices of one node (read-only view)."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]


@dataclass(frozen=True)
class NetworkStats:
    """Diagnostic summary; unreached_pairs counts sampled (source, target)
    pairs with no connecting path (excluded from the mean)."""

    mean_degree: float
    mean_path_length: float
    clustering_coefficient: float
    unreached_pairs: int


def _lattice_edges(rows: int, cols: int, neighborhood: Neighborhood) -> np.ndarray:
    idx = np.arange(rows * cols, dtype=np.int32).reshape(rows, cols)
    pairs = [
        np.column_stack((idx[:, :-1].ravel(), idx[:, 1:].ravel())),  # east
        np.column_stack((idx[:-1, :].ravel(), idx[1:, :].ravel())),  # south
    ]
    if neighborhood is Neighborhood.MOORE:
        pairs.append(
            np.column_stack((idx[:-1, :-1].ravel(), idx[1:, 1:].ravel()))  # southeast
        )
        pairs.append(
            np.column_stack((idx[:-1, 1:].ravel(), idx[1:, :-1].ravel()))  # southwest
        )
    return np.concatenate(pairs)


@lru_cache(maxsize=8)
def build_lattice(spec: LatticeSpec) -> SocialNetwork:
    """Regular (non-toroidal) lattice for the given geometry.

    Cached: lattices are immutable and shared freely across runs.
    """
    edges = _lattice_edges(spec.rows, spec.cols, spec.neighborhood)
    return SocialNetwork(edges, spec, rewire_prob=0.0)


def rewire(net: SocialNetwork, p_r: float, rng: np.random.Generator) -> SocialNetwork:
    """Small-world rewiring of a pure lattice.

    Each lattice edge is independently selected with probability p_r, in
    canonical edge order. A selected edge keeps its smaller endpoint and moves
    the other to a node drawn uniformly from all nodes; draws producing a
    self-loop or duplicating an existing edge are rejected and resampled, so
    the edge count is exactly preserved (degrees are not).

    Draw contract, the order in which `rng` is consumed (nothing is drawn
    when p_r = 0):

    1. `rng.random(E)`: one value per lattice edge, in canonical order; an
       edge is selected when its value is below p_r.
    2. `rng.integers(n)` values, one per attempt. The selected edges take
       turns in canonical order. At its turn, an edge (u, v) draws until it
       gets a node w != u such that (u, w) is not present. The edges present
       then are every lattice edge except this one and the selected edges
       before it, plus the new edges those earlier ones became. In all,
       (selected edges + rejected draws) values are drawn.

    The step-2 values are drawn in batches, `rng.integers(n, size=k)` with k
    the number of selected edges still without a new endpoint, so no value
    is drawn that the one-at-a-time loop would not draw. numpy's Generator
    gives the same values and end state for one batch of k as for k scalar
    draws; the tests check this against the scalar loop.

    Args:
        net: a pure lattice (rewire_prob == 0); rewiring is applied once.
        p_r: rewiring probability in [0, 1].
        rng: random stream; a fixed seed yields a fixed network.

    Returns:
        A new immutable network with rewire_prob = p_r.
    """
    if not 0.0 <= p_r <= 1.0:
        raise ValueError(f"p_r must be in [0, 1], got {p_r}")
    if net.rewire_prob != 0.0:
        raise ValueError("network was already rewired; start from a pure lattice")
    edges = net.edges.astype(np.int64)
    if p_r > 0.0:
        selected = np.flatnonzero(rng.random(len(edges)) < p_r)
        edges[selected, 1] = _draw_targets(edges, selected, net.node_count, rng)
    return SocialNetwork(edges, net.base_spec, rewire_prob=p_r)


# draws are checked this many at a time, so that a rejection re-checks at
# most one chunk rather than the whole rest of a batch
_DRAW_CHUNK = 2048


def _draw_targets(
    edges: np.ndarray, selected: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """New far endpoint of each selected edge, drawn as `rewire` documents.

    Equivalent to the scalar loop (draw, reject, redraw, one edge at a
    time) but checks a chunk of draws at once: every draw before the
    chunk's first rejection is accepted, the rejected value is dropped, and
    checking resumes at the next value for the same edge.
    """
    m = len(selected)
    keys = _edge_keys(edges[:, 0], edges[:, 1])  # sorted: edges are canonical
    kept = edges[selected, 0]
    # the turn at which each lattice edge is removed; m (after every turn)
    # for edges never selected
    removed_at = np.full(len(keys), m)
    removed_at[selected] = np.arange(m)
    targets = np.empty(m, dtype=np.int64)
    added = np.empty(0, dtype=np.int64)  # sorted keys of the accepted new edges
    turn = 0
    while turn < m:
        draws = rng.integers(n, size=m - turn)
        at = 0
        while at < len(draws):
            w = draws[at : at + _DRAW_CHUNK]
            turns = np.arange(turn, turn + len(w))
            u = kept[turn : turn + len(w)]
            cand = _edge_keys(np.minimum(u, w), np.maximum(u, w))
            pos = np.minimum(np.searchsorted(keys, cand), len(keys) - 1)
            # a lattice edge is present until its own turn
            rejected = (w == u) | ((keys[pos] == cand) & (removed_at[pos] > turns))
            if len(added):
                pos = np.minimum(np.searchsorted(added, cand), len(added) - 1)
                rejected |= added[pos] == cand
            # a repeat of an earlier candidate in this chunk
            order = np.argsort(cand, kind="stable")
            ranked = cand[order]
            rejected[order[1:]] |= ranked[1:] == ranked[:-1]
            accepted = int(np.argmax(rejected)) if rejected.any() else len(w)
            targets[turn : turn + accepted] = w[:accepted]
            new = np.sort(cand[:accepted])
            added = np.insert(added, np.searchsorted(added, new), new)
            turn += accepted
            at += accepted + (accepted < len(w))
    return targets


def network_stats(
    net: SocialNetwork,
    sample_size: int,
    rng: np.random.Generator | None = None,
) -> NetworkStats:
    """Mean degree, BFS-sampled mean path length, mean local clustering.

    Path lengths are averaged over all (source, target) pairs reachable from
    `sample_size` uniformly sampled sources (every node when sample_size >=
    node_count, in which case no rng is needed). Clustering is the mean local
    coefficient over all nodes; nodes with degree < 2 contribute 0.
    """
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    n = net.node_count
    mean_degree = 2.0 * net.edge_count / n

    adj = csr_matrix(
        (np.ones(len(net.indices), dtype=np.int8), net.indices, net.indptr),
        shape=(n, n),
    )
    # triangles per node: (A @ A) restricted to existing edges counts, for
    # each i, paths i->j->k with k adjacent to i; each triangle twice
    paths2 = (adj @ adj).multiply(adj)
    triangles = np.asarray(paths2.sum(axis=1)).ravel() / 2.0
    deg = net.degrees.astype(float)
    possible = deg * (deg - 1.0) / 2.0
    with np.errstate(invalid="ignore", divide="ignore"):
        local = np.where(possible > 0, triangles / np.maximum(possible, 1e-300), 0.0)
    clustering = float(local.mean())

    if sample_size >= n:
        sources = np.arange(n)
    else:
        if rng is None:
            raise ValueError("rng is required when sampling fewer sources than nodes")
        sources = np.sort(rng.choice(n, size=sample_size, replace=False))
    dist = dijkstra(adj, unweighted=True, indices=sources)
    finite = np.isfinite(dist)
    unreached = int((~finite).sum())
    total = dist[finite].sum()  # self-distances contribute 0
    pair_count = finite.sum() - len(sources)  # exclude source-to-self pairs
    mean_path = float(total / pair_count) if pair_count > 0 else float("nan")

    return NetworkStats(
        mean_degree=mean_degree,
        mean_path_length=mean_path,
        clustering_coefficient=clustering,
        unreached_pairs=unreached,
    )

