"""2-D lattice social networks with optional small-world rewiring.

Agents sit on a rows x cols grid (node index = row * cols + col) joined to
the first-order neighbors that `Neighborhood.offsets` steps to: orthogonal
only (von Neumann, interior degree 4) or with the diagonals (Moore, 8).
Boundaries are not periodic, so edge and corner nodes have fewer neighbors.
Rewiring detaches a Bernoulli-selected subset of lattice edges at one
endpoint and reattaches them to uniformly random nodes, preserving the
total edge count.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class Neighborhood(enum.Enum):
    VON_NEUMANN = "von_neumann"
    MOORE = "moore"

    @property
    def offsets(self) -> tuple[tuple[int, int], ...]:
        """(row, col) steps to a node's neighbors, in ascending index offset:
        all 8 around it (Moore) or the 4 orthogonal ones (von Neumann)."""
        return tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                     if (dr or dc) and (self is Neighborhood.MOORE or not (dr and dc)))

    @property
    def k(self) -> int:
        """Interior degree, the number of offsets: 4 or 8."""
        return len(self.offsets)

    @classmethod
    def for_k(cls, k: int) -> Neighborhood:
        """The neighborhood of interior degree k.

        Raises:
            ValueError: k is not an integer, or is neither 4 nor 8.
        """
        _check_integer("k", k, 0)
        for neighborhood in cls:
            if neighborhood.k == k:
                return neighborhood
        raise ValueError(f"k must be {' or '.join(str(n.k) for n in cls)}, got {k}")


def _check_integer(name: str, value, low: int, high: int | None = None) -> None:
    """Reject a count that is not a Python or numpy integer in [low, high]
    (no upper bound when high is None); a bool is not a count."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value > high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _check_real(name: str, value, low: float = -math.inf,
                high: float = math.inf) -> None:
    """Reject a value that is not a Python or numpy integer or float whose
    float is finite (not inf, NaN or an int past a float's range) and in
    [low, high] (unbounded by default); a bool is not a number."""
    if not isinstance(value, bool) and isinstance(
            value, (int, float, np.integer, np.floating)):
        try:
            if math.isfinite(value) and low <= value <= high:
                return
        except OverflowError:
            pass
    if high == math.inf:
        bound = "" if low == -math.inf else f" >= {low}"
    else:
        bound = f" in [{low}, {high}]"
    raise ValueError(f"{name} must be a real number{bound}, finite as a float, "
                     f"got {value!r}")


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice geometry: rows x cols grid with a neighborhood rule."""

    rows: int
    cols: int
    neighborhood: Neighborhood

    def __post_init__(self) -> None:
        _check_integer("rows", self.rows, 2)
        _check_integer("cols", self.cols, 2)
        if not isinstance(self.neighborhood, Neighborhood):
            raise ValueError(
                f"neighborhood must be a Neighborhood, got {self.neighborhood!r}")

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

    The stored form is the padded neighbor table (`neighbor_table`) and the
    `degrees`; the canonical edge list is derived from them on first use.
    All arrays are read-only; rewiring produces a new instance.

    Raises:
        ValueError: edges not an (E, 2) integer array, an endpoint outside
            [0, node_count), a self-loop, or an edge listed twice (in
            either orientation).

    Attributes:
        node_count: number of agents.
        base_spec: lattice geometry the network was built from.
        neighbor_table: (node_count, max degree) int32 array (ELLPACK
            layout): row i holds node i's neighbors, sorted ascending, then
            node_count as padding.
        degrees: number of neighbors of each node.
    """

    def __init__(self, edges: np.ndarray, base_spec: LatticeSpec):
        n = base_spec.node_count
        edges = np.asarray(edges)
        # a float array would be truncated, a bool one read as 0s and 1s
        if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
            raise ValueError(f"edges must be an (E, 2) integer array, "
                             f"got {edges.dtype} of shape {edges.shape}")
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError(f"edge endpoint out of range [0, {n})")
        edges = edges.astype(np.int64, copy=False)
        if np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("edges contain a self-loop")
        # both directions keyed (src, dst); sorted, their dst values are the
        # concatenated neighbor lists, each ascending. An edge listed twice,
        # in either orientation, shows as two equal adjacent keys.
        directed = np.concatenate(
            (_edge_keys(edges[:, 0], edges[:, 1]), _edge_keys(edges[:, 1], edges[:, 0]))
        )
        directed.sort()
        if np.any(directed[1:] == directed[:-1]):
            raise ValueError("edges contain a duplicate")
        degrees = np.bincount(edges.ravel(), minlength=n)
        table = np.full((n, degrees.max(initial=0)), n, dtype=np.int32)
        table[np.arange(table.shape[1]) < degrees[:, None]] = directed & _LOW_WORD
        self._set(table, degrees, base_spec)

    @classmethod
    def _from_table(
        cls, table: np.ndarray, degrees: np.ndarray, base_spec: LatticeSpec,
    ) -> SocialNetwork:
        """A network from a padded table that is valid by construction:
        symmetric, each row sorted, no self-loop or repeat, and exactly as
        wide as its largest degree. Nothing is checked."""
        net = cls.__new__(cls)
        net._set(table, degrees, base_spec)
        return net

    def _set(self, table, degrees, base_spec) -> None:
        table.setflags(write=False)
        degrees.setflags(write=False)
        self.neighbor_table = table
        self.degrees = degrees
        self.node_count = base_spec.node_count
        self.base_spec = base_spec

    @property
    def edge_count(self) -> int:
        return int(self.degrees.sum()) // 2

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor indices of one node (read-only view)."""
        return self.neighbor_table[node, : self.degrees[node]]

    @cached_property
    def edges(self) -> np.ndarray:
        """(E, 2) int32 array, smaller index first, lexicographically sorted:
        the table's entries (i, j) with i < j, read row by row. The padding
        (node_count) is above every row index, so it is masked out by value.
        `rewire` reads it, so a lattice that is rewired holds it."""
        table = self.neighbor_table
        rows = np.arange(self.node_count, dtype=np.int32)[:, None]
        at = np.flatnonzero((table > rows) & (table < self.node_count))
        edges = np.column_stack(
            ((at // table.shape[1]).astype(np.int32), table.ravel()[at]))
        edges.setflags(write=False)
        return edges


@dataclass(frozen=True)
class NetworkStats:
    """Diagnostic summary; unreached_pairs counts sampled (source, target)
    pairs with no connecting path (excluded from the mean)."""

    mean_degree: float
    mean_path_length: float
    clustering_coefficient: float
    unreached_pairs: int


@lru_cache(maxsize=8)
def build_lattice(spec: LatticeSpec) -> SocialNetwork:
    """Regular (non-toroidal) lattice for the given geometry.

    The padded table is written straight from the grid; no edge list is
    built. Column j holds each node's neighbor at the j-th of
    `spec.neighborhood.offsets`, read from the row-major index grid padded
    with node_count; the offsets ascend by index, so sorting each row then
    only moves the padding to the right. A 2-row or 2-col lattice has no
    node of full degree, so its table is trimmed to its largest degree.

    Cached: lattices are immutable and shared freely across runs.
    """
    rows, cols, n = spec.rows, spec.cols, spec.node_count
    grid = np.full((rows + 2, cols + 2), n, dtype=np.int32)
    grid[1:-1, 1:-1] = np.arange(n, dtype=np.int32).reshape(rows, cols)
    offsets = spec.neighborhood.offsets
    table = np.empty((rows, cols, len(offsets)), dtype=np.int32)
    for j, (dr, dc) in enumerate(offsets):
        table[:, :, j] = grid[1 + dr : 1 + dr + rows, 1 + dc : 1 + dc + cols]
    table = table.reshape(n, len(offsets))
    table.sort(axis=1)
    degrees = np.count_nonzero(table < n, axis=1)
    table = np.ascontiguousarray(table[:, : degrees.max()])
    return SocialNetwork._from_table(table, degrees, spec)


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

    The result's padded table is patched from the lattice's rather than
    built by sorting every edge again: only the rows of the moved edges'
    endpoints (u, v, w) change, and they are rebuilt apart, then written
    into a copy of the lattice's table sized to the new largest degree.
    The lattice's canonical `edges` give the selected edges' endpoints; they
    are read from the cached lattice, computed once, and it is never written.
    The few draws that land on a pair in the lattice's table look that pair
    up among the moved edges only, by key (see `_draw_targets`).

    Args:
        net: its spec's lattice (equal to `build_lattice(net.base_spec)`),
            whose pairs `_draw_targets` takes as present unless moved; any
            other network, a rewired one say, is a ValueError.
        p_r: rewiring probability in [0, 1].
        rng: random stream; a fixed seed yields a fixed network.

    Returns:
        A new immutable network.
    """
    _check_real("p_r", p_r, 0, 1)
    lattice = build_lattice(net.base_spec)
    table, degrees = lattice.neighbor_table, lattice.degrees
    if not (net is lattice or np.array_equal(net.neighbor_table, table)):
        raise ValueError("rewire starts from a lattice, build_lattice(net.base_spec)")
    n = lattice.node_count
    edges = lattice.edges
    selected = np.empty(0, dtype=np.intp)
    if p_r > 0.0:
        selected = np.flatnonzero(rng.random(len(edges)) < p_r)
    u, v = edges[selected, 0], edges[selected, 1]
    w = _draw_targets(_edge_keys(u, v), u, lattice, rng)

    degrees = degrees + np.bincount(w, minlength=n) - np.bincount(v, minlength=n)
    width = int(degrees.max(initial=0))
    old_width = table.shape[1]
    # the rows of the endpoints u, v, w are rebuilt in `block`: each removed
    # entry blanked to the padding value, each new one appended past the
    # old width in any order, then each row sorted
    touched = np.zeros(n, dtype=bool)
    touched[u] = touched[v] = touched[w] = True
    rows = np.flatnonzero(touched)
    slot = np.empty(n, dtype=np.intp)  # a touched node's row in block
    slot[rows] = np.arange(len(rows))
    to = slot[np.concatenate((u, w))]
    order = np.argsort(to)
    to, new = to[order], np.concatenate((w, u))[order]
    added = np.bincount(to, minlength=len(rows))
    rank = np.arange(len(to)) - (np.cumsum(added) - added)[to]
    block = np.full((len(rows), old_width + added.max(initial=0)), n, dtype=np.int32)
    block[:, :old_width] = table.take(rows, axis=0)
    ends, gone = np.concatenate((u, v)), np.concatenate((v, u))
    # each removed entry sits once in its lattice row
    col = np.flatnonzero(table.take(ends, axis=0) == gone[:, None]) % old_width
    block[slot[ends], col] = n
    block[to, old_width + rank] = new
    block.sort(axis=1)

    out = np.full((n, width), n, dtype=np.int32)
    kept = min(width, old_width)
    out[:, :kept] = table[:, :kept]
    out[rows] = block[:, :width]
    return SocialNetwork._from_table(out, degrees, lattice.base_spec)


# draws are checked this many at a time, so that a rejection re-checks at
# most one chunk rather than the whole rest of a batch
_DRAW_CHUNK = 2048


def _draw_targets(moved: np.ndarray, kept: np.ndarray, lattice: SocialNetwork,
                  rng: np.random.Generator) -> np.ndarray:
    """New far endpoint of each selected edge, drawn as `rewire` documents.

    `moved` are the selected edges' int64 keys and `kept` their smaller
    endpoints, both in turn order. Canonical order is key order, so `moved`
    is ascending and a key's index in it is its edge's turn. Equivalent to
    the scalar loop (draw, reject, redraw, one edge at a time) but checks a
    chunk of draws at once: every draw before the chunk's first rejection
    is accepted, the rejected value is dropped, and checking resumes at the
    next value for the same edge.

    A draw w at turn i, for an edge kept at u, is rejected when (u, w) is
    - a lattice pair still present: w is in u's row of the `lattice`'s
      `neighbor_table`, looked at only for draws within cols + 1 of u by
      index, as nodes are row * cols + col. Only for these few draws, and
      for w == u (whose key is never in `moved`, so it is always rejected),
      is the pair's key looked up in `moved`, with one search: the pair is
      absent exactly when it is found there at a turn at or before i. At i
      itself the edge draws its own far endpoint back, which is accepted.
    - a new edge that an earlier turn accepted, or
    - the pair of an earlier draw in the same chunk.
    """
    m = len(moved)
    table, cols = lattice.neighbor_table, lattice.base_spec.cols
    targets = np.empty(m, dtype=np.int64)
    # sorted keys of the accepted new edges, then a sentinel above every
    # key, so that a search never lands past the end
    added = np.array([np.iinfo(np.int64).max])
    turn = 0
    while turn < m:
        draws = rng.integers(lattice.node_count, size=m - turn)
        at = 0
        while at < len(draws):
            w = draws[at : at + _DRAW_CHUNK]
            u = kept[turn : turn + len(w)]
            cand = _edge_keys(np.minimum(u, w), np.maximum(u, w))
            accepted = len(w)
            # a lattice pair is at most cols + 1 apart by index
            near = np.flatnonzero(np.abs(w - u) <= cols + 1)
            if len(near):
                hit = table.take(u[near], axis=0) == w[near, None]
                near = near[hit.any(axis=1) | (w[near] == u[near])]
                key = cand[near]
                gone = np.searchsorted(moved, key)  # its turn, if it is moved
                absent = (gone <= turn + near) & (moved[np.minimum(gone, m - 1)] == key)
                if not absent.all():  # stop at the first lattice pair present
                    accepted = int(near[np.argmin(absent)])
            ranked = np.sort(cand[:accepted])
            present = added[np.searchsorted(added, ranked)] == ranked
            present[1:] |= ranked[1:] == ranked[:-1]
            if present.any():
                # rare: the first present draw, in draw order
                order = np.argsort(cand[:accepted], kind="stable")
                accepted = int(order[present].min())
                ranked = np.sort(cand[:accepted])
            targets[turn : turn + accepted] = w[:accepted]
            # two sorted runs, which a stable sort merges in one pass
            added = np.sort(np.concatenate((added, ranked)), kind="stable")
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

    scipy is imported here, not at module level: nothing else in the
    package uses it, so simulating, fitting and sweeping never load it.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    _check_integer("sample_size", sample_size, 1)
    n = net.node_count
    mean_degree = 2.0 * net.edge_count / n

    # the CSR form of the table: its entries without the padding, row by row;
    # int32, since A @ A counts common neighbours, past int8's 127 on dense graphs
    table = net.neighbor_table
    adj = csr_matrix(
        (np.ones(2 * net.edge_count, dtype=np.int32), table[table < n],
         np.concatenate(([0], np.cumsum(net.degrees)))),
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

