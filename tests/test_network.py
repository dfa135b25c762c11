"""Tests for lattice construction, rewiring, and network statistics."""

from __future__ import annotations

import collections
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffusim.network import (
    LatticeSpec,
    Neighborhood,
    SocialNetwork,
    build_lattice,
    network_stats,
    rewire,
)

MOORE_200 = LatticeSpec(200, 200, Neighborhood.MOORE)
VN_200 = LatticeSpec(200, 200, Neighborhood.VON_NEUMANN)


def _rewire_scalar(net: SocialNetwork, p_r: float, rng: np.random.Generator) -> SocialNetwork:
    """Reference rewiring: one draw at a time against a set of edge keys.

    The one-at-a-time form of rewire's draw contract; rewire must give the
    same network and leave the generator in the same state.
    """
    edges = np.array(net.edges, dtype=np.int64)
    if p_r > 0.0:
        n = net.node_count
        selected = np.flatnonzero(rng.random(len(edges)) < p_r)
        keys = set((edges[:, 0] * n + edges[:, 1]).tolist())
        for i in selected:
            u, v = int(edges[i, 0]), int(edges[i, 1])
            keys.discard(u * n + v)
            while True:
                w = int(rng.integers(n))
                if w == u:
                    continue
                a, b = (u, w) if u < w else (w, u)
                key = a * n + b
                if key not in keys:
                    break
            keys.add(key)
            edges[i, 0], edges[i, 1] = a, b
    return SocialNetwork(edges, net.base_spec)


def assert_same_network(a: SocialNetwork, b: SocialNetwork) -> None:
    """Equal stored form (table, degrees) and equal derived views, dtypes
    included."""
    for name in ("neighbor_table", "degrees", "edges"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


def assert_same_rewiring(base: SocialNetwork, p_r: float, seed: int) -> None:
    """rewire against the scalar reference, which builds its result through
    the validating constructor."""
    fast_rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    fast = rewire(base, p_r, fast_rng)
    ref = _rewire_scalar(base, p_r, ref_rng)
    assert_same_network(fast, ref)
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


def geometric_edge_set(rows: int, cols: int, neighborhood: Neighborhood) -> set:
    """Independent oracle: enumerate adjacent cell pairs by geometry."""
    if neighborhood is Neighborhood.MOORE:
        offsets = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    else:
        offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    edges = set()
    for r in range(rows):
        for c in range(cols):
            for dr, dc in offsets:
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < rows and 0 <= c2 < cols:
                    a, b = r * cols + c, r2 * cols + c2
                    edges.add((min(a, b), max(a, b)))
    return edges


# --- lattice construction ---------------------------------------------------

def test_spec_rejects_degenerate_lattice():
    with pytest.raises(ValueError):
        LatticeSpec(1, 5, Neighborhood.MOORE)
    with pytest.raises(ValueError):
        LatticeSpec(5, 1, Neighborhood.VON_NEUMANN)


def test_spec_rejects_a_neighborhood_that_is_not_one():
    with pytest.raises(ValueError,
                       match="^neighborhood must be a Neighborhood, got 'moore'$"):
        LatticeSpec(5, 5, "moore")


@pytest.mark.parametrize("k", [4, 8])
def test_neighborhood_for_k_is_the_interior_degree(k):
    neighborhood = Neighborhood.for_k(k)
    assert neighborhood.k == k == len(neighborhood.offsets)
    assert len(build_lattice(LatticeSpec(3, 3, neighborhood)).neighbors(4)) == k


@pytest.mark.parametrize("neighborhood", list(Neighborhood))
def test_offsets_ascend_by_index_and_step_to_the_neighbors(neighborhood):
    # on a 5x5 lattice the centre (2, 2) = 12 has every offset in range
    steps = [dr * 5 + dc for dr, dc in neighborhood.offsets]
    assert steps == sorted(steps)
    assert build_lattice(LatticeSpec(5, 5, neighborhood)).neighbors(12).tolist() == [
        12 + step for step in steps]


def test_neighborhood_for_k_rejects_other_degrees():
    for k in (0, 6, 24):
        with pytest.raises(ValueError, match="k must be 4 or 8"):
            Neighborhood.for_k(k)


def test_3x3_moore_degrees():
    net = build_lattice(LatticeSpec(3, 3, Neighborhood.MOORE))
    for corner in (0, 2, 6, 8):
        assert len(net.neighbors(corner)) == 3
    assert len(net.neighbors(4)) == 8


def test_200x200_edge_counts():
    assert build_lattice(MOORE_200).edge_count == 2 * 200 * 199 + 2 * 199 * 199
    assert build_lattice(VN_200).edge_count == 2 * 200 * 199
    # against the geometric enumeration oracle
    assert build_lattice(MOORE_200).edge_count == len(
        geometric_edge_set(200, 200, Neighborhood.MOORE)
    )
    assert build_lattice(VN_200).edge_count == len(
        geometric_edge_set(200, 200, Neighborhood.VON_NEUMANN)
    )


@pytest.mark.parametrize("neighborhood", list(Neighborhood))
@pytest.mark.parametrize(
    "rows,cols", [(2, 2), (2, 3), (3, 2), (3, 5), (7, 4), (20, 20)]
)
def test_lattice_matches_geometric_oracle(rows, cols, neighborhood):
    # the whole stored form (table width and padding, degrees and their
    # dtypes) against the validating constructor fed the oracle's edges;
    # 2-row and 2-col lattices have a table narrower than k
    spec = LatticeSpec(rows, cols, neighborhood)
    edges = sorted(geometric_edge_set(rows, cols, neighborhood))
    assert_same_network(build_lattice(spec), SocialNetwork(edges, spec))


def test_symmetry_exhaustive_small():
    net = build_lattice(LatticeSpec(6, 7, Neighborhood.MOORE))
    for i in range(net.node_count):
        for j in net.neighbors(i):
            assert i in net.neighbors(int(j))


def test_symmetry_sampled_large():
    net = rewire(build_lattice(MOORE_200), 0.04, np.random.default_rng(5))
    rng = np.random.default_rng(0)
    for i in rng.choice(net.node_count, 200, replace=False):
        for j in net.neighbors(int(i)):
            assert int(i) in net.neighbors(int(j))


def test_node_indexing_row_major():
    net = build_lattice(LatticeSpec(4, 6, Neighborhood.VON_NEUMANN))
    # node (1, 2) = 8; orthogonal neighbors (0,2)=2, (1,1)=7, (1,3)=9, (2,2)=14
    assert net.neighbors(8).tolist() == [2, 7, 9, 14]


# --- construction from an edge list --------------------------------------------

SPEC_3x3 = LatticeSpec(3, 3, Neighborhood.VON_NEUMANN)


@pytest.mark.parametrize(
    "edges,match",
    [
        ([(0, 1), (4, 4)], "self-loop"),
        ([(0, 1), (2, 3), (0, 1)], "duplicate"),
        ([(0, 1), (3, 2), (2, 3)], "duplicate"),
        ([(0, 1), (2, 9)], "range"),
        ([(0, 1), (-1, 2)], "range"),
        ([0, 1, 2], r"\(E, 2\)"),
        # truncation would make these (0, 1), (2, 5) and (0, 1)
        ([(0, 1.7), (2.9, 5)], r"\(E, 2\) integer array, got float64"),
        ([(False, True)], r"\(E, 2\) integer array, got bool"),
    ],
)
def test_constructor_rejects_malformed_edges(edges, match):
    with pytest.raises(ValueError, match=match):
        SocialNetwork(np.array(edges), SPEC_3x3)


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.sets(
        st.tuples(st.integers(0, 19), st.integers(0, 19)).filter(lambda e: e[0] != e[1])
        .map(lambda e: (min(e), max(e))),
        max_size=60,
    ),
    flip=st.randoms(use_true_random=False),
)
def test_constructor_matches_set_oracle(pairs, flip):
    spec = LatticeSpec(4, 5, Neighborhood.MOORE)
    listed = [(b, a) if flip.random() < 0.5 else (a, b) for a, b in pairs]
    flip.shuffle(listed)
    net = SocialNetwork(np.array(listed, dtype=np.int64).reshape(-1, 2), spec)
    assert net.edges.tolist() == sorted(map(list, pairs))
    for i in range(spec.node_count):
        expected = sorted({b for a, b in pairs if a == i} | {a for a, b in pairs if b == i})
        assert net.neighbors(i).tolist() == expected


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 41), st.integers(0, 41)).filter(lambda e: e[0] != e[1]),
        max_size=120,
        unique_by=lambda e: (min(e), max(e)),
    ),
)
def test_derived_edges_are_the_sorted_canonical_input(pairs):
    spec = LatticeSpec(6, 7, Neighborhood.VON_NEUMANN)
    net = SocialNetwork(np.array(pairs, dtype=np.int64).reshape(-1, 2), spec)
    expected = sorted((min(a, b), max(a, b)) for a, b in pairs)
    assert net.edges.shape == (len(pairs), 2)
    assert list(map(tuple, net.edges.tolist())) == expected
    assert net.edge_count == len(pairs)
    assert not net.edges.flags.writeable


# --- rewiring ----------------------------------------------------------------

def test_rewire_zero_is_identity():
    net = build_lattice(MOORE_200)
    out = rewire(net, 0.0, np.random.default_rng(3))
    assert np.array_equal(out.edges, net.edges)


def test_rewire_full_preserves_edge_count():
    net = build_lattice(MOORE_200)
    out = rewire(net, 1.0, np.random.default_rng(11))
    assert out.edge_count == 158802
    assert int(out.degrees.sum()) == 2 * 158802


def test_rewire_count_binomial():
    net = build_lattice(MOORE_200)
    out = rewire(net, 0.04, np.random.default_rng(42))
    before = set(map(tuple, net.edges.tolist()))
    after = set(map(tuple, out.edges.tolist()))
    changed = len(before - after)
    mean = 158802 * 0.04
    sd = (158802 * 0.04 * 0.96) ** 0.5
    assert abs(changed - mean) < 4 * sd


def test_rewire_no_self_loops_or_duplicates():
    out = rewire(build_lattice(MOORE_200), 0.08, np.random.default_rng(9))
    assert np.all(out.edges[:, 0] < out.edges[:, 1])
    keys = out.edges[:, 0].astype(np.int64) * out.node_count + out.edges[:, 1]
    assert len(np.unique(keys)) == out.edge_count


def test_rewire_deterministic():
    net = build_lattice(VN_200)
    a = rewire(net, 0.02, np.random.default_rng(123))
    b = rewire(net, 0.02, np.random.default_rng(123))
    assert np.array_equal(a.edges, b.edges)
    c = rewire(net, 0.02, np.random.default_rng(124))
    assert not np.array_equal(a.edges, c.edges)


def test_rewire_validation():
    net = build_lattice(LatticeSpec(5, 5, Neighborhood.MOORE))
    with pytest.raises(ValueError):
        rewire(net, -0.1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        rewire(net, 1.5, np.random.default_rng(0))
    once = rewire(net, 0.5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        rewire(once, 0.5, np.random.default_rng(0))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(2, 20),
    cols=st.integers(2, 20),
    p_r=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
    seed=st.integers(0, 2**64 - 1),
    moore=st.booleans(),
)
def test_rewire_matches_scalar_reference(rows, cols, p_r, seed, moore):
    nbhd = Neighborhood.MOORE if moore else Neighborhood.VON_NEUMANN
    assert_same_rewiring(build_lattice(LatticeSpec(rows, cols, nbhd)), p_r, seed)


@pytest.mark.parametrize(
    "spec,p_r", [(MOORE_200, 0.04), (VN_200, 0.0025)], ids=["moore", "von_neumann"]
)
def test_rewire_matches_scalar_reference_200x200(spec, p_r):
    assert_same_rewiring(build_lattice(spec), p_r, 20240)


@pytest.mark.parametrize("p_r", [0.0025, 0.005, 0.01, 0.02, 0.04])
def test_rewire_matches_scalar_reference_200x200_moore_grid_levels(p_r):
    assert_same_rewiring(build_lattice(MOORE_200), p_r, 7)


@pytest.mark.parametrize("p_r", [0.0025, 0.005, 0.01, 0.02, 0.04])
def test_rewire_matches_scalar_reference_200x200_von_neumann_grid_levels(p_r):
    assert_same_rewiring(build_lattice(VN_200), p_r, 7)


@pytest.mark.parametrize("neighborhood", list(Neighborhood))
@pytest.mark.parametrize("rows,cols", [(2, 9), (9, 2), (3, 17), (17, 3)])
@pytest.mark.parametrize("p_r", [0.3, 1.0])
def test_rewire_matches_scalar_reference_on_narrow_lattices(rows, cols, neighborhood, p_r):
    # the draws tell lattice pairs by row and col gap: on these shapes a
    # row's last node and the next row's first are adjacent by index but
    # not on the lattice. At p_r = 1 most draws land on lattice pairs
    # removed before or after their own turn; at p_r = 0.3 many land on
    # unselected lattice pairs, which stay present
    base = build_lattice(LatticeSpec(rows, cols, neighborhood))
    for seed in range(50):
        assert_same_rewiring(base, p_r, seed)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(2, 12),
    cols=st.integers(2, 12),
    neighborhood=st.sampled_from(list(Neighborhood)),
    p_r=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**64 - 1),
)
# K4 at p_r = 1: every moved edge draws its removed endpoint back
@example(rows=2, cols=2, neighborhood=Neighborhood.MOORE, p_r=1.0, seed=3)
def test_rewire_table_matches_the_validating_constructor(
    rows, cols, neighborhood, p_r, seed,
):
    spec = LatticeSpec(rows, cols, neighborhood)
    out = rewire(build_lattice(spec), p_r, np.random.default_rng(seed))
    assert_same_network(out, SocialNetwork(out.edges, spec))


def test_rewire_can_recreate_a_removed_lattice_edge():
    # on K4 (the 2x2 Moore lattice) every other node is already a neighbor,
    # so each selected edge can only draw its own far endpoint back
    base = build_lattice(LatticeSpec(2, 2, Neighborhood.MOORE))
    out = rewire(base, 1.0, np.random.default_rng(3))
    assert_same_network(out, base)
    assert_same_rewiring(base, 1.0, 3)


def test_rewire_never_writes_into_the_cached_lattice():
    base = build_lattice(LatticeSpec(30, 30, Neighborhood.MOORE))
    names = ("neighbor_table", "degrees", "edges")
    before = {name: getattr(base, name).copy() for name in names}
    outs = [rewire(base, p_r, np.random.default_rng(seed))
            for seed, p_r in enumerate([0.0, 0.04, 0.3, 1.0, 0.04])]
    assert build_lattice(LatticeSpec(30, 30, Neighborhood.MOORE)) is base
    for name, copy in before.items():
        array = getattr(base, name)
        assert np.array_equal(array, copy), name
        assert not array.flags.writeable, name
    for out in outs:
        for name in names:
            assert not getattr(out, name).flags.writeable, name
            # the rewired network owns its arrays
            assert not np.shares_memory(getattr(out, name), getattr(base, name)), name
    # the lattice still rewires to what a fresh copy of it does
    fresh = SocialNetwork(np.array(before["edges"]), base.base_spec)
    a = rewire(base, 0.04, np.random.default_rng(99))
    b = rewire(fresh, 0.04, np.random.default_rng(99))
    assert_same_network(a, b)


def test_rewire_refuses_the_lattice_plus_edges_it_once_duplicated():
    # rewiring this at p_r 0.8, seed 1998, once gave the edge (0, 4) twice
    edges = np.vstack((build_lattice(SPEC_3x3).edges, [(0, 8), (0, 4)]))
    with pytest.raises(ValueError, match="^rewire starts from a lattice"):
        rewire(SocialNetwork(edges, SPEC_3x3), 0.8, np.random.default_rng(1998))


@pytest.mark.parametrize("neighborhood", list(Neighborhood))
@pytest.mark.parametrize("change", ["rewired", "minus an edge", "plus an edge"])
def test_rewire_refuses_a_network_that_is_not_its_spec_s_lattice(change, neighborhood):
    spec = LatticeSpec(4, 4, neighborhood)
    lattice = build_lattice(spec)
    if change == "rewired":
        net = rewire(lattice, 0.5, np.random.default_rng(0))
    elif change == "minus an edge":
        net = SocialNetwork(lattice.edges[1:], spec)
    else:  # opposite corners are no lattice pair
        net = SocialNetwork(np.vstack((lattice.edges, [(0, 15)])), spec)
    assert not np.array_equal(net.edges, lattice.edges)
    with pytest.raises(ValueError, match="^rewire starts from a lattice"):
        rewire(net, 0.5, np.random.default_rng(1))


def test_rewire_accepts_its_own_p_r_zero_output():
    base = build_lattice(SPEC_3x3)
    same = rewire(base, 0.0, np.random.default_rng(0))
    assert same is not base
    assert_same_network(rewire(same, 0.8, np.random.default_rng(1998)),
                        rewire(base, 0.8, np.random.default_rng(1998)))


def test_rewire_reads_the_cached_lattice_s_edges():
    # an equal copy is rewired from the cached lattice, so it never builds
    # its own edge list
    base = build_lattice(SPEC_3x3)
    copy = SocialNetwork(base.edges, SPEC_3x3)
    assert_same_network(rewire(copy, 0.5, np.random.default_rng(4)),
                        rewire(base, 0.5, np.random.default_rng(4)))
    assert "edges" not in vars(copy)


def assert_neighbor_table(net: SocialNetwork, nodes: np.ndarray) -> None:
    """Row i of the table is node i's sorted neighbor list padded with
    node_count, and one `take` of the rows of `nodes`, padding dropped, is
    their neighbor lists concatenated."""
    n = net.node_count
    table = net.neighbor_table
    assert table.dtype == np.int32
    assert not table.flags.writeable
    assert table.shape == (n, net.degrees.max(initial=0))
    for i in range(n):
        degree = len(net.neighbors(i))
        assert table[i, :degree].tolist() == net.neighbors(i).tolist()
        assert table[i, degree:].tolist() == [n] * (table.shape[1] - degree)
    gathered = table.take(nodes, axis=0)
    assert gathered.shape == (len(nodes), table.shape[1])
    expected = [int(j) for v in nodes for j in net.neighbors(int(v))]
    assert gathered[gathered < n].tolist() == expected


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(2, 12),
    cols=st.integers(2, 12),
    neighborhood=st.sampled_from(list(Neighborhood)),
    p_r=st.sampled_from([0.0, 0.3, 1.0]),
    dtype=st.sampled_from([np.int32, np.int64]),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_neighbor_table_matches_neighbor_lists(
    rows, cols, neighborhood, p_r, dtype, seed, data,
):
    spec = LatticeSpec(rows, cols, neighborhood)
    net = rewire(build_lattice(spec), p_r, np.random.default_rng(seed))
    # repeated nodes allowed; an empty list is drawn too
    nodes = np.asarray(
        data.draw(st.lists(st.integers(0, spec.node_count - 1), max_size=30)),
        dtype=dtype,
    )
    assert_neighbor_table(net, nodes)


def test_neighbor_table_with_isolated_empty_and_repeated_nodes():
    spec = LatticeSpec(4, 4, Neighborhood.MOORE)
    edges = build_lattice(spec).edges
    net = SocialNetwork(edges[~np.isin(edges, [5, 10]).any(axis=1)], spec)
    assert net.degrees[[5, 10]].tolist() == [0, 0]
    for nodes in ([], [5], [5, 10], [0, 5, 0, 10, 15, 15], [10, 3, 3]):
        for dtype in (np.int32, np.int64):
            assert_neighbor_table(net, np.asarray(nodes, dtype=dtype))


def test_neighbor_table_is_cached_with_the_lattice():
    spec = LatticeSpec(6, 7, Neighborhood.VON_NEUMANN)
    table = build_lattice(spec).neighbor_table
    assert build_lattice(spec).neighbor_table is table
    # corners have degree 2, so the table is padded to the interior's 4
    assert table.shape == (42, 4)
    assert table[0].tolist() == [1, 7, 42, 42]


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(2, 10),
    cols=st.integers(2, 10),
    p_r=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    moore=st.booleans(),
)
def test_rewire_invariants_property(rows, cols, p_r, seed, moore):
    nbhd = Neighborhood.MOORE if moore else Neighborhood.VON_NEUMANN
    base = build_lattice(LatticeSpec(rows, cols, nbhd))
    net = rewire(base, p_r, np.random.default_rng(seed))
    # edge conservation
    assert net.edge_count == base.edge_count
    # no self-loops, no duplicates
    assert np.all(net.edges[:, 0] < net.edges[:, 1])
    keys = net.edges[:, 0].astype(np.int64) * net.node_count + net.edges[:, 1]
    assert len(np.unique(keys)) == net.edge_count
    # symmetry
    for i in range(net.node_count):
        for j in net.neighbors(i):
            assert i in net.neighbors(int(j))


# --- statistics ---------------------------------------------------------------

def test_stats_3x3_von_neumann_mean_degree():
    stats = network_stats(build_lattice(LatticeSpec(3, 3, Neighborhood.VON_NEUMANN)), 9)
    assert stats.mean_degree == pytest.approx(24 / 9)
    assert stats.unreached_pairs == 0


def test_stats_complete_graph():
    # the 2x2 Moore lattice is K4
    stats = network_stats(build_lattice(LatticeSpec(2, 2, Neighborhood.MOORE)), 4)
    assert stats.clustering_coefficient == pytest.approx(1.0)
    assert stats.mean_path_length == pytest.approx(1.0)


def test_stats_clustering_on_a_dense_complete_graph():
    # K_130: every pair of nodes shares 128 neighbours, more than int8 holds
    spec = LatticeSpec(10, 13, Neighborhood.MOORE)
    edges = np.array(list(itertools.combinations(range(spec.node_count), 2)))
    stats = network_stats(SocialNetwork(edges, spec), spec.node_count)
    assert stats.clustering_coefficient == pytest.approx(1.0)
    assert stats.mean_path_length == pytest.approx(1.0)


def test_stats_mean_degree_identity():
    net = rewire(build_lattice(LatticeSpec(30, 30, Neighborhood.MOORE)), 0.3,
                 np.random.default_rng(2))
    stats = network_stats(net, net.node_count)
    assert stats.mean_degree * net.node_count == pytest.approx(2 * net.edge_count)


def _adjacency_sets(net: SocialNetwork) -> list[set[int]]:
    return [set(net.neighbors(i).tolist()) for i in range(net.node_count)]


def _bfs_path_stats(adj: list[set[int]]) -> tuple[float, int]:
    """Brute-force oracle: mean shortest-path length over every reachable
    ordered pair of distinct nodes, and the count of unreached pairs, by
    one BFS from each node."""
    total = pairs = unreached = 0
    for s in range(len(adj)):
        dist = {s: 0}
        dq = collections.deque([s])
        while dq:
            u = dq.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    dq.append(v)
        total += sum(dist.values())
        pairs += len(dist) - 1
        unreached += len(adj) - len(dist)
    return total / pairs, unreached


def _triangle_clustering(adj: list[set[int]]) -> float:
    """Brute-force oracle: mean local clustering from each node's count of
    linked neighbor pairs; nodes of degree < 2 count 0."""
    local = []
    for nbrs in adj:
        d = len(nbrs)
        linked = sum(len(adj[j] & nbrs) for j in nbrs) / 2
        local.append(linked / (d * (d - 1) / 2) if d >= 2 else 0.0)
    return sum(local) / len(local)


def test_stats_path_length_exact_on_path_graph():
    # 2xN von Neumann ladder has known structure; check against brute force
    net = build_lattice(LatticeSpec(2, 5, Neighborhood.VON_NEUMANN))
    stats = network_stats(net, net.node_count)
    mean_path, _ = _bfs_path_stats(_adjacency_sets(net))
    assert stats.mean_path_length == pytest.approx(mean_path)


@pytest.mark.parametrize("neighborhood", list(Neighborhood))
@pytest.mark.parametrize("p_r", [0.04, 1.0])
def test_stats_match_brute_force_on_rewired_networks(neighborhood, p_r):
    # every node a source, so the path length is exact, not sampled
    net = rewire(build_lattice(LatticeSpec(20, 20, neighborhood)), p_r,
                 np.random.default_rng(11))
    stats = network_stats(net, net.node_count)
    adj = _adjacency_sets(net)
    mean_path, unreached = _bfs_path_stats(adj)
    assert stats.mean_path_length == pytest.approx(mean_path, rel=1e-12)
    assert stats.unreached_pairs == unreached
    assert stats.clustering_coefficient == pytest.approx(
        _triangle_clustering(adj), rel=1e-12
    )


def test_stats_requires_rng_when_sampling():
    net = build_lattice(LatticeSpec(10, 10, Neighborhood.MOORE))
    with pytest.raises(ValueError):
        network_stats(net, 5)


def test_stats_disconnected_pairs_reported():
    # two K4 components: custom edge list over a 2x4 spec (8 nodes)
    spec = LatticeSpec(2, 4, Neighborhood.VON_NEUMANN)
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(a + 4, b + 4) for a, b in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]]
    net = SocialNetwork(np.array(edges), spec)
    stats = network_stats(net, net.node_count)
    assert stats.unreached_pairs == 8 * 4  # each node misses the other component
    assert stats.mean_path_length == pytest.approx(1.0)


def test_rewiring_shortens_paths_200x200():
    base = build_lattice(MOORE_200)
    rewired = rewire(base, 0.04, np.random.default_rng(77))
    s_base = network_stats(base, 100, np.random.default_rng(5))
    s_rew = network_stats(rewired, 100, np.random.default_rng(5))
    assert s_rew.mean_path_length < s_base.mean_path_length


def test_path_length_monotone_in_rewiring():
    spec = LatticeSpec(100, 100, Neighborhood.MOORE)
    base = build_lattice(spec)
    p_r_levels = [0.0, 0.0025, 0.005, 0.01, 0.02, 0.04]
    medians = []
    for p_r in p_r_levels:
        lengths = []
        for seed in range(5):
            net = rewire(base, p_r, np.random.default_rng(1000 + seed))
            st_ = network_stats(net, 64, np.random.default_rng(seed))
            lengths.append(st_.mean_path_length)
        medians.append(float(np.median(lengths)))
    assert all(a >= b for a, b in zip(medians, medians[1:])), medians
