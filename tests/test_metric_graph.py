import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtlab import (MetricGraph, graph_from_ids, bottleneck_constant,
                   cycle_graph, ends_profile, enumerate_geodesics,
                   four_point_defect2, grid_graph, hyperbolicity_delta,
                   is_quasitree, path_graph, star_graph)
from qtlab.errors import (CenterNotFound, DisconnectedGraph, EmptyGraph,
                          FormatError, RadiusTooLarge, SizeLimitExceeded,
                          VertexNotFound)

from qtlab.cli import _build_fixture
from qtlab.io import graph_from_dict, graph_to_dict
from qtlab.metric_graph import DELTA_DEFAULT_CAP

from _oracles import (all_distances, brute_bottleneck, brute_bottleneck_witness,
                      brute_boundary_components, brute_delta_witness, brute_two_delta,
                      lattice_geodesic_count, random_connected_graph, random_tree_edges)


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraph):
        graph_from_ids([], [])


def test_duplicate_edge_rejected():
    with pytest.raises(FormatError):
        graph_from_ids(["a", "b"], [("a", "b"), ("b", "a")])


def test_edge_endpoint_must_exist():
    with pytest.raises((FormatError, VertexNotFound)):
        graph_from_ids(["a", "b"], [("a", "c")])


def test_disconnected_needs_flag():
    with pytest.raises(DisconnectedGraph):
        graph_from_ids(["a", "b", "c"], [("a", "b")])
    g = graph_from_ids(["a", "b", "c"], [("a", "b")], allow_disconnected=True)
    assert g.dist[g.index("a"), g.index("c")] == -1
    assert not g.connected


def test_vertex_lookup():
    g = path_graph(3)
    assert g.has_vertex("v1")
    assert not g.has_vertex("zz")
    with pytest.raises(VertexNotFound):
        g.index("zz")


def test_path_distances():
    g = path_graph(6)
    for i in range(6):
        for j in range(6):
            assert g.d(f"v{i}", f"v{j}") == abs(i - j)


def test_cycle_distances():
    g = cycle_graph(7)
    for i in range(7):
        for j in range(7):
            k = abs(i - j)
            assert g.d(f"v{i}", f"v{j}") == min(k, 7 - k)


def test_grid_distances_are_l1():
    g = grid_graph(4, 5)
    assert g.d("0,0", "3,4") == 7
    assert g.d("1,2", "3,0") == 4


def test_distance_matrix_symmetric_zero_diag():
    g = grid_graph(3, 4)
    assert (g.dist == g.dist.T).all()
    assert (np.diag(g.dist) == 0).all()


# frozen against the brute-force oracle in _oracles.py
FROZEN = [
    (lambda: cycle_graph(6), 2, None),
    (lambda: cycle_graph(12), 6, 3),
    (lambda: grid_graph(3, 3), 4, 2),
    (lambda: grid_graph(4, 4), 6, 3),
    (lambda: grid_graph(5, 5), 8, 4),
    (lambda: grid_graph(6, 6), 10, 5),
    (lambda: grid_graph(6, 2), 2, 1),
    (lambda: grid_graph(5, 3), None, 2),
]


@pytest.mark.parametrize("make,two_delta,constant", FROZEN)
def test_frozen_delta_and_bottleneck(make, two_delta, constant):
    g = make()
    if two_delta is not None:
        rep = hyperbolicity_delta(g)
        assert rep.two_delta == two_delta
        assert four_point_defect2(g, *rep.witness) == two_delta
    if constant is not None:
        assert bottleneck_constant(g).constant == constant


# constant and (x, y, z) as the level-by-level scan found them before the
# scan bisected; on each graph the bisection spans several levels
PINNED_WITNESSES = [
    ("horoball-line-d7", 6, ("-43|0", "54|0", "-10|6")),
    ("farey-Q20", 1, ("-1/10", "-10/11", "-1")),
    ("grid15x15", 14, ("00,14", "14,00", "00,00")),
]


@pytest.mark.parametrize("name,constant,witness", PINNED_WITNESSES)
def test_pinned_bottleneck_witnesses(name, constant, witness):
    g = grid_graph(15, 15) if name == "grid15x15" else _build_fixture(name).graph
    rep = bottleneck_constant(g, max_vertices=2000)
    w = rep.witness
    assert (rep.constant, (w.x, w.y, w.z)) == (constant, witness)
    path = w.avoiding_path
    assert (path[0], path[-1]) == (w.x, w.y)
    assert all(g.d(u, v) == 1 for u, v in zip(path, path[1:]))
    assert all(g.d(w.z, v) > constant - 1 for v in path)


# 2*delta and witness as the exhaustive scan over all ordered quadruples
# found them, before the scan was pruned
PINNED_DELTA_WITNESSES = [
    ("doubleline-n16", 2, ("(-1,1)", "(-1,2)", "(-10,1)", "(0,1)")),
    ("cone-z-r10", 1, ("-1", "-10", "-2", "0")),
    ("grid6x12", 10, ("0,00", "5,05", "0,05", "5,00")),
    ("cycle61", 29, ("v00", "v30", "v15", "v45")),
]


@pytest.mark.parametrize("name,two_delta,witness", PINNED_DELTA_WITNESSES)
def test_pinned_delta_witnesses(name, two_delta, witness):
    if name == "grid6x12":
        g = grid_graph(6, 12)
    elif name == "cycle61":
        g = cycle_graph(61)
    else:
        g = _build_fixture(name).graph
    rep = hyperbolicity_delta(g)
    assert (rep.two_delta, rep.witness) == (two_delta, witness)
    assert four_point_defect2(g, *witness) == two_delta


@pytest.mark.parametrize("name", ["f2-r5", "bs12-r8"])
def test_trees_are_answered_before_the_size_cap(name):
    g = _build_fixture(name).graph
    assert g.is_tree() and g.n > DELTA_DEFAULT_CAP
    rep = hyperbolicity_delta(g)
    assert (rep.two_delta, rep.witness) == (0, (g.vertex_ids[0],) * 4)
    rep = bottleneck_constant(g, max_vertices=10)
    assert (rep.constant, rep.witness) == (0, None)


def test_c6_witness_is_lex_first():
    rep = hyperbolicity_delta(cycle_graph(6))
    assert rep.witness == ("v0", "v2", "v1", "v4")
    assert rep.delta == 1


def test_bottleneck_witness_path_avoids_ball():
    g = grid_graph(5, 5)
    rep = bottleneck_constant(g)
    w = rep.witness
    assert w is not None
    path = w.avoiding_path
    assert path[0] == w.x and path[-1] == w.y
    for u, v in zip(path, path[1:]):
        assert g.d(u, v) == 1
    for v in path:
        assert g.d(w.z, v) > rep.constant - 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(4, 9), st.integers(0, 3))
def test_delta_matches_oracle(seed, n, extra):
    rng = random.Random(seed)
    ids, edges = random_connected_graph(rng, n, extra)
    g = graph_from_ids(ids, edges)
    rep = hyperbolicity_delta(g)
    dist = all_distances(ids, edges)
    assert rep.two_delta == brute_two_delta(ids, dist)
    assert four_point_defect2(g, *rep.witness) == rep.two_delta
    assert (rep.two_delta, rep.witness) == brute_delta_witness(ids, dist)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(4, 10), st.integers(0, 3))
def test_bottleneck_matches_oracle(seed, n, extra):
    rng = random.Random(seed)
    ids, edges = random_connected_graph(rng, n, extra)
    g = graph_from_ids(ids, edges)
    rep = bottleneck_constant(g)
    assert rep.constant == brute_bottleneck(ids, edges)
    w = rep.witness
    assert (None if w is None else (w.x, w.y, w.z)) == brute_bottleneck_witness(ids, edges)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 16))
def test_trees_have_delta_and_bottleneck_zero(seed, n):
    rng = random.Random(seed)
    edges = [(str(a), str(b)) for a, b in random_tree_edges(rng, n)]
    g = graph_from_ids([str(i) for i in range(n)], edges)
    assert g.is_tree()
    assert hyperbolicity_delta(g).two_delta == 0
    assert bottleneck_constant(g).constant == 0
    assert bottleneck_constant(g).witness is None


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(4, 9), st.integers(0, 3))
def test_triangle_inequality(seed, n, extra):
    rng = random.Random(seed)
    ids, edges = random_connected_graph(rng, n, extra)
    g = graph_from_ids(ids, edges)
    D = g.dist
    for i in range(g.n):
        assert (D[i][None, :] <= D[i][:, None] + D).all()


def test_geodesic_counts_on_grids():
    for m, n in ((3, 3), (4, 4), (5, 5), (4, 6)):
        g = grid_graph(m, n)
        lo = sorted(g.vertex_ids)[0]
        hi = f"{m - 1},{n - 1}"
        res = enumerate_geodesics(g, lo, hi)
        assert res.count == lattice_geodesic_count(m - 1, n - 1)
        assert not res.overflow


def test_geodesics_lexicographic_and_valid():
    g = grid_graph(3, 3)
    res = enumerate_geodesics(g, "0,0", "2,2")
    assert list(res.sequences) == sorted(res.sequences)
    for seq in res.sequences:
        assert len(seq) == g.d("0,0", "2,2") + 1
        for u, v in zip(seq, seq[1:]):
            assert g.d(u, v) == 1


def test_geodesics_overflow_flag():
    g = grid_graph(5, 5)
    res = enumerate_geodesics(g, "0,0", "4,4", cap=3)
    assert res.overflow
    assert res.count == 3


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 12))
def test_tree_geodesics_unique(seed, n):
    rng = random.Random(seed)
    edges = [(str(a), str(b)) for a, b in random_tree_edges(rng, n)]
    g = graph_from_ids([str(i) for i in range(n)], edges)
    u, v = str(rng.randrange(n)), str(rng.randrange(n))
    assert enumerate_geodesics(g, u, v).count == 1


def test_disconnected_pair_raises_in_geodesics():
    g = graph_from_ids(["a", "b", "c"], [("a", "b")], allow_disconnected=True)
    with pytest.raises(DisconnectedGraph):
        enumerate_geodesics(g, "a", "c")


def test_quasitree_threshold():
    g = grid_graph(4, 4)   # constant 3
    assert not is_quasitree(g, 2).passed
    assert is_quasitree(g, 3).passed
    assert is_quasitree(g, 3).report.constant == 3


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 14), st.integers(0, 6))
def test_ends_profile_matches_oracle(seed, n, extra):
    rng = random.Random(seed)
    ids, edges = random_connected_graph(rng, n, extra)
    g = graph_from_ids(ids, edges)
    boundary = rng.sample(ids, rng.randrange(1, n + 1))
    center = rng.choice(ids)
    radius = max(all_distances(ids, edges)[center][b] for b in boundary) - 1
    if radius < 0:
        return
    prof = ends_profile(g, center, radius, boundary=boundary)
    assert prof.counts_by_radius == tuple(
        brute_boundary_components(ids, edges, center, rad, boundary) for rad in range(radius + 1))


def test_ends_profile_star():
    g = star_graph(4)
    prof = ends_profile(g, "c", 0, boundary=["l0", "l1", "l2", "l3"])
    assert prof.component_count == 4


def test_ends_profile_path_two_ends():
    g = path_graph(9)
    prof = ends_profile(g, "v4", 2, boundary=["v0", "v8"])
    assert prof.component_count == 2
    assert prof.counts_by_radius == (2, 2, 2)


def test_ends_profile_radius_too_large():
    g = path_graph(5)
    with pytest.raises(RadiusTooLarge):
        ends_profile(g, "v2", 4, boundary=["v0", "v4"])


def test_ends_profile_center_missing():
    with pytest.raises(CenterNotFound):
        ends_profile(path_graph(3), "zz", 1)


def test_size_cap_param_and_env(monkeypatch):
    g = grid_graph(4, 4)
    with pytest.raises(SizeLimitExceeded):
        hyperbolicity_delta(g, max_vertices=8)
    monkeypatch.setenv("QTLAB_MAX_VERTICES", "8")
    with pytest.raises(SizeLimitExceeded):
        bottleneck_constant(g)
    monkeypatch.delenv("QTLAB_MAX_VERTICES")
    assert bottleneck_constant(g).constant == 3


def test_env_cap_must_be_a_non_negative_integer(monkeypatch):
    g = grid_graph(3, 3)
    for bad in ("abc", "-4", "2.5"):
        monkeypatch.setenv("QTLAB_MAX_VERTICES", bad)
        with pytest.raises(FormatError, match="QTLAB_MAX_VERTICES"):
            hyperbolicity_delta(g)
    monkeypatch.setenv("QTLAB_MAX_VERTICES", "0")
    with pytest.raises(SizeLimitExceeded):
        bottleneck_constant(g)


def test_index_order_is_id_order():
    g = graph_from_ids(["b", "a", "c"], [("c", "a"), ("b", "a")])
    assert g.vertex_ids == ("a", "b", "c")
    assert [g.index(v) for v in ("a", "b", "c")] == [0, 1, 2]
    assert g.edge_array().tolist() == [[0, 1], [0, 2]]
    assert g.neighbors("a") == ("b", "c")
    assert g.dist.tolist() == [[0, 1, 1], [1, 0, 2], [1, 2, 0]]
    d = graph_to_dict(g)
    assert d["vertices"] == ["a", "b", "c"]
    assert d["edges"] == [["a", "b"], ["a", "c"]]
    h = graph_from_dict(d)
    assert h.vertex_ids == g.vertex_ids and h.edge_array().tolist() == g.edge_array().tolist()
    assert (h.dist == g.dist).all()


def test_edges_and_boundary_are_positions_into_the_given_ids():
    g = MetricGraph(["b", "a", "c"], np.array([[2, 1], [0, 1]]), boundary=[2, 0])
    assert g.vertex_ids == ("a", "b", "c") and g.boundary == ("c", "b")
    assert graph_to_dict(g)["edges"] == [["a", "b"], ["a", "c"]]
    for edges, boundary in (([[0, 3]], []), ([[0, -1]], []), ([], [3])):
        with pytest.raises(VertexNotFound):
            MetricGraph(["b", "a", "c"], edges, boundary=boundary, allow_disconnected=True)


def test_shuffled_ids_give_sorted_indices_and_oracle_distances():
    rng = random.Random(5)
    for _ in range(10):
        ids, edges = random_connected_graph(rng, rng.randrange(2, 25), rng.randrange(0, 6))
        rng.shuffle(ids)
        g = graph_from_ids(ids, edges)
        assert list(g.vertex_ids) == sorted(ids)
        for i in range(g.n):
            nb = g.neighbor_indices(i).tolist()
            assert nb == sorted(nb)
        oracle = all_distances(ids, edges)
        for u in ids:
            for v in ids:
                assert g.d(u, v) == oracle[u][v]
