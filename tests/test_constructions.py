"""Tests for the graph and action builders."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtlab import (
    FormatError,
    InvalidChain,
    UnknownFamily,
    bottleneck_constant,
    hyperbolicity_delta,
)
from qtlab.constructions import (
    FiniteGroupTable,
    bass_serre_tree_bs12,
    c6_chain,
    c30_chain,
    cayley_graph,
    cone_graph,
    coset_tree,
    cycle_graph,
    double_line_graph,
    farey_graph,
    grid_graph,
    horoball,
    path_graph,
    regular_tree,
    rips_graph,
    star_graph,
)
from qtlab.group_action import Word, evaluate_word, rips_orbit_graph, word_map
from qtlab.io import graph_to_dict

from _oracles import brute_bs12, brute_farey


# ---------------------------------------------------------------------------
# simple families


def id_edges(g):
    """Edge set as vertex-id pairs; edge_array() holds index pairs."""
    return sorted((g.vertex_ids[i], g.vertex_ids[j]) for i, j in g.edge_array().tolist())


def test_path_and_cycle_shapes():
    p = path_graph(7)
    assert p.n == 7 and p.n_edges == 6
    assert p.is_tree()
    c = cycle_graph(7)
    assert c.n == 7 and c.n_edges == 7
    assert not c.is_tree()


def test_grid_shape():
    g = grid_graph(4, 5)
    assert g.n == 20
    assert g.n_edges == 4 * 4 + 5 * 3  # horizontal + vertical runs


def test_star_center_degree():
    s = star_graph(5)
    assert s.n == 6
    degs = sorted(s.degree(v) for v in s.vertex_ids)
    assert degs == [1, 1, 1, 1, 1, 5]


def test_regular_tree_counts():
    t = regular_tree(3, 3)
    # 1 + 3 + 6 + 12
    assert t.n == 22
    assert t.is_tree()
    interior = [v for v in t.vertex_ids if v not in t.boundary]
    assert all(t.degree(v) == 3 for v in interior)


def test_rips_graph_thickens_edges():
    p = path_graph(6)
    r1 = rips_graph(p, 1)
    assert id_edges(r1) == id_edges(p)
    r2 = rips_graph(p, 2)
    # 5 unit edges plus 4 distance-two chords
    assert r2.n_edges == 9
    assert all(p.d(u, v) <= 2 for u, v in id_edges(r2))


# ---------------------------------------------------------------------------
# finite group tables


def test_cyclic_table_arithmetic():
    t = FiniteGroupTable.cyclic(6)
    assert t.order == 6
    assert t.elements == ("g0", "g1", "g2", "g3", "g4", "g5")
    assert t.mul("g1", "g2") == "g3"
    assert t.inv("g1") == "g5"
    assert t.inv("g0") == "g0"


def element_order(t, e):
    x, k = e, 1
    while x != t.identity:
        x = t.mul(x, e)
        k += 1
    return k


def test_direct_product_is_cyclic_of_order_six():
    a = FiniteGroupTable.cyclic(2)
    b = FiniteGroupTable.cyclic(3)
    p = FiniteGroupTable.direct_product(a, b)
    assert p.order == 6
    assert sorted(element_order(p, e) for e in p.elements) == [1, 2, 3, 3, 6, 6]
    assert p.is_subgroup(set(p.elements))


C3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


@pytest.mark.parametrize("elements,table,message", [
    (("a", "b", "c"), [[0, 1, 2], [1, 2, 0], [2, 0, 3]], "range(3)"),
    (("a", "b", "c"), [[0, 1, 2], [1, 2, 0], [2, 0, -1]], "range(3)"),
    (("a", "b", "c"), [[0, 1, 2], [1, 2, 0]], "(3, 3)"),
    (("a", "b", "c"), [[0, 1, 2], [1, 2, 0], [2, 0]], "(3, 3)"),
    (("a", "b", "c"), [[0.0, 1.0, 2.0], [1.0, 2.0, 0.0], [2.0, 0.0, 1.0]], "integer"),
    # every product is the right factor: each element is a left identity,
    # none a right one
    (("a", "b", "c"), [[0, 1, 2]] * 3, "no identity"),
    # a magma with identity a where c has no two-sided inverse
    (("a", "b", "c"), [[0, 1, 2], [1, 0, 0], [2, 1, 1]], "'c' has no inverse"),
    # a Latin square with identity a and every element its own inverse, but
    # (bb)c = c while b(bc) = bd = e
    (("a", "b", "c", "d", "e"),
     [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
     "not associative at ('b','b','c')"),
    (("a", "b", "a"), C3, "duplicate element names"),
    ((), [], "at least one element"),
])
def test_group_table_refusals(elements, table, message):
    with pytest.raises(FormatError) as err:
        FiniteGroupTable(elements, table)
    assert message in str(err.value)


def test_group_table_is_an_integer_index_table():
    t = FiniteGroupTable(("a", "b", "c"), C3)
    assert t.table.tolist() == C3 and t.table.dtype == np.int64
    assert t.identity == "a" and t.inv("b") == "c" and t.mul("c", "c") == "b"
    p = FiniteGroupTable.direct_product(t, FiniteGroupTable.cyclic(2))
    # (x, y) has position 2 x + y: (b, g1) (c, g1) = (a, g0)
    assert p.elements[3] == "b|g1" and p.elements[5] == "c|g1"
    assert p.table[3, 5] == 0 and p.mul("b|g1", "c|g1") == "a|g0"


def test_c30_table_is_componentwise_addition():
    # the loop the broadcast direct product replaced: (x, y, z)(x', y', z')
    # is (x + x' mod 2, y + y' mod 3, z + z' mod 5)
    table, _ = c30_chain()
    for a in table.elements:
        for b in table.elements:
            want = [(int(x[1:]) + int(y[1:])) % m
                    for x, y, m in zip(a.split("|"), b.split("|"), (2, 3, 5))]
            assert table.mul(a, b) == "|".join(f"g{v}" for v in want)


def test_is_subgroup_rejects_non_closed_subset():
    t = FiniteGroupTable.cyclic(6)
    assert t.is_subgroup({"g0", "g3"})
    assert not t.is_subgroup({"g0", "g1"})


# ---------------------------------------------------------------------------
# coset trees


def test_c6_coset_tree_structure():
    con = coset_tree(*c6_chain())
    g = con.graph
    assert g.n == 11
    assert g.is_tree()
    assert [len(level) for level in con.extras["levels"]] == [6, 3, 1]
    assert con.extras["valences"] == [1, 3, 4]
    assert con.extras["stabilizer_sizes"] == [1, 2, 6]
    assert con.extras["index_ratios"] == [2, 3]
    # apex hangs above the top coset
    apex = con.extras["apex"]
    assert g.degree(apex) == 1
    assert g.has_edge(apex, con.extras["levels"][-1][0])


def test_c30_coset_tree_structure():
    con = coset_tree(*c30_chain())
    g = con.graph
    assert g.n == 52
    assert g.is_tree()
    assert [len(level) for level in con.extras["levels"]] == [30, 15, 5, 1]
    assert con.extras["valences"] == [1, 3, 4, 6]
    assert con.extras["stabilizer_sizes"] == [1, 2, 6, 30]


def test_coset_tree_rejects_non_subgroup_level():
    t = FiniteGroupTable.cyclic(6)
    with pytest.raises(InvalidChain):
        coset_tree(t, chain=[{"g0"}, {"g0", "g1"}, set(t.elements)])


def test_coset_tree_rejects_an_empty_chain():
    with pytest.raises(InvalidChain):
        coset_tree(FiniteGroupTable.cyclic(6), [])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=12))
def test_trivial_chain_gives_star(n):
    t = FiniteGroupTable.cyclic(n)
    con = coset_tree(t, chain=[{t.identity}, set(t.elements)])
    g = con.graph
    assert g.n == n + 2
    assert g.is_tree()
    # n leaves below a single coset, apex on top
    top = con.extras["levels"][-1][0]
    assert g.degree(top) == n + 1


# ---------------------------------------------------------------------------
# Cayley graphs


def test_cayley_line():
    con = cayley_graph("Z", 10)
    g = con.graph
    assert g.n == 21
    assert g.d("-10", "10") == 20
    assert con.basepoint == "0"
    assert con.action.mode == "automorphism"


def test_cayley_plane_ball_size():
    con = cayley_graph("Z2", 4)
    # l1 ball: 2r^2 + 2r + 1
    assert con.graph.n == 41


def test_cayley_free_group_sphere_sizes():
    con = cayley_graph("F2", 3)
    g = con.graph
    # 1 + 4 + 12 + 36
    assert g.n == 53
    assert g.is_tree()
    dist_from_e = [g.d("e", v) for v in g.vertex_ids]
    counts = [dist_from_e.count(k) for k in range(4)]
    assert counts == [1, 4, 12, 36]


def test_cayley_unknown_family():
    with pytest.raises(UnknownFamily):
        cayley_graph("Q8", 3)


# ---------------------------------------------------------------------------
# Farey graphs


def test_farey_q5_size():
    con = farey_graph(5)
    g = con.graph
    assert g.n == 108
    assert g.n_edges == 213
    assert con.basepoint == "inf"
    assert con.extras["Q"] == 5


FAREY_MOVES = [
    # vertex, S image, T image
    ("inf", "0", "inf"),
    ("0", None, "1"),
    ("1", "-1", "2"),
    ("1/2", "-2", "3/2"),
    ("2", "-1/2", "3"),
]


@pytest.mark.parametrize("v,s_img,t_img", FAREY_MOVES)
def test_farey_generator_values(v, s_img, t_img):
    con = farey_graph(5)
    a = con.action
    g = con.graph
    idx = g.index(v)
    j = a.apply_letter("S", 1, idx)
    assert (g.vertex_ids[j] if j is not None else None) == s_img
    j = a.apply_letter("T", 1, idx)
    assert (g.vertex_ids[j] if j is not None else None) == t_img


def test_farey_s_is_an_involution_where_defined():
    con = farey_graph(5)
    a = con.action
    m = word_map(a, Word.parse("S S"))
    defined = np.nonzero(m >= 0)[0]
    assert len(defined) > 10
    assert np.all(m[defined] == defined)


@pytest.mark.parametrize("Q", [5, 12])
def test_farey_bottleneck_constant(monkeypatch, Q):
    con = farey_graph(Q)
    monkeypatch.setenv("QTLAB_MAX_VERTICES", "2000")
    rep = bottleneck_constant(con.graph)
    assert rep.constant == 1


# ---------------------------------------------------------------------------
# Bass-Serre tree for BS(1,2)


def test_bs12_ball_sizes():
    assert bass_serre_tree_bs12(6).graph.n == 190
    assert bass_serre_tree_bs12(8).graph.n == 766


def test_bs12_is_a_trivalent_tree():
    con = bass_serre_tree_bs12(6)
    g = con.graph
    assert g.is_tree()
    interior = [v for v in g.vertex_ids if v not in g.boundary]
    assert interior
    assert all(g.degree(v) == 3 for v in interior)


def test_bs12_conjugation_relation():
    con = bass_serre_tree_bs12(6)
    a = con.action
    lhs = word_map(a, Word.parse("t^-1 a t"))
    rhs = word_map(a, Word.parse("a a"))
    mask = (lhs >= 0) & (rhs >= 0)
    assert int(mask.sum()) > 100
    assert np.all(lhs[mask] == rhs[mask])
    # same relation read the other way around
    lhs2 = word_map(a, Word.parse("t a a t^-1"))
    rhs2 = word_map(a, Word.parse("a"))
    mask2 = (lhs2 >= 0) & (rhs2 >= 0)
    assert np.all(lhs2[mask2] == rhs2[mask2])


def test_bs12_elliptic_generator_moves_deep_vertices_far():
    con = bass_serre_tree_bs12(6)
    assert evaluate_word(con.action, Word.parse("a"), "m0:0/1") == "m0:0/1"
    img = evaluate_word(con.action, Word.parse("a"), "m3:0/1")
    assert img == "m3:1/1"
    assert con.graph.d("m3:0/1", img) == 6


def test_bs12_ray_is_a_geodesic():
    con = bass_serre_tree_bs12(6)
    ray = con.extras["ray"]
    g = con.graph
    assert ray[0] == con.basepoint
    for u, v in zip(ray, ray[1:]):
        assert g.has_edge(u, v)
    assert g.d(ray[0], ray[-1]) == len(ray) - 1



def built(con):
    """(ids, edges, boundary, generator maps) of a construction as id data."""
    g = con.graph
    ids = g.vertex_ids
    maps = {gm.name: {ids[s]: ids[d] for s, d in zip(*gm.pairs())}
            for gm in con.action.generators}
    return list(ids), [tuple(e) for e in graph_to_dict(g)["edges"]], list(g.boundary), maps


FAREY_SIZES = sorted({(Q, P) for Q in range(1, 9) for P in (1, 2, Q, None, 3 * Q + 1)},
                     key=lambda qp: (qp[0], qp[1] or 3 * qp[0]))


@pytest.mark.parametrize("Q,P", FAREY_SIZES)
def test_farey_matches_the_all_pairs_oracle(Q, P):
    con = farey_graph(Q, P)
    P = 3 * Q if P is None else P
    ids, edges, boundary, maps = brute_farey(Q, P)
    assert built(con) == (sorted(ids), edges, boundary, maps)
    assert con.basepoint == "inf"
    assert con.extras == {"Q": Q, "P": P}


@pytest.mark.parametrize("radius", range(1, 11))
def test_bs12_matches_the_fraction_oracle(radius):
    con = bass_serre_tree_bs12(radius)
    ids, edges, boundary, maps = brute_bs12(radius)
    assert built(con) == (sorted(ids), edges, boundary, maps)
    assert con.basepoint == "m0:0/1" == ids[0]
    assert con.extras == {"radius": radius, "ray": [f"m{-j}:0/1" for j in range(radius + 1)]}
    assert set(con.extras["ray"]) <= set(ids)


@pytest.mark.parametrize("build,message", [
    (lambda: bass_serre_tree_bs12(0), "radius must be >= 1"),
    (lambda: farey_graph(0), "Q must be >= 1"),
    (lambda: farey_graph(3, 0), "P must be >= 1"),
])
def test_truncation_size_errors(build, message):
    with pytest.raises(FormatError) as err:
        build()
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# cones, doubled lines, horoballs


def test_cone_has_diameter_two():
    base = cayley_graph("Z", 10)
    con = cone_graph(base.graph, base.action, basepoint="0")
    g = con.graph
    assert g.n == 22
    apex = con.extras["apex"]
    assert g.degree(apex) == 21
    assert int(g.dist.max()) == 2


def test_cone_action_fixes_apex():
    base = cayley_graph("Z", 10)
    con = cone_graph(base.graph, base.action, basepoint="0")
    apex = con.extras["apex"]
    assert evaluate_word(con.action, Word.parse("s"), apex) == apex


def test_cone_orbit_graph_recovers_base_line():
    base = cayley_graph("Z", 10)
    con = cone_graph(base.graph, base.action, basepoint="0")
    gamma1 = rips_orbit_graph(con.action, "0", r=1, horizon=12).graph
    assert sorted(gamma1.vertex_ids) == sorted(base.graph.vertex_ids)
    assert id_edges(gamma1) == id_edges(base.graph)


def test_double_line_twins_share_neighbors():
    con = double_line_graph(8)
    g = con.graph
    assert g.n == 34
    for k in range(-8, 9):
        a, b = "({0},1)".format(k), "({0},2)".format(k)
        assert not g.has_edge(a, b)
        na = set(g.neighbors(a)) - {b}
        nb = set(g.neighbors(b)) - {a}
        assert na == nb


def test_double_line_swap_is_an_involution():
    con = double_line_graph(8)
    assert con.extras["swaps"] == [0, 3]
    m = word_map(con.action, Word.parse("sigma0 sigma0"))
    defined = np.nonzero(m >= 0)[0]
    assert len(defined) == con.graph.n
    assert np.all(m[defined] == defined)
    assert evaluate_word(con.action, Word.parse("sigma0"), "(0,1)") == "(0,2)"
    assert evaluate_word(con.action, Word.parse("sigma0"), "(1,1)") == "(1,1)"


def test_double_line_shift():
    con = double_line_graph(8)
    assert evaluate_word(con.action, Word.parse("s"), "(0,1)") == "(1,1)"
    assert evaluate_word(con.action, Word.parse("s^-1"), "(0,2)") == "(-1,2)"


def test_double_line_is_thin():
    con = double_line_graph(16)
    rep = hyperbolicity_delta(con.graph)
    assert rep.two_delta == 2
    assert bottleneck_constant(con.graph).constant == 1


def test_horoball_shortcut_distances():
    base = cayley_graph("Z", 8)
    con = horoball(base.graph, base.action, depth=5, basepoint="0|0")
    g = con.graph
    assert con.basepoint == "0|0"
    # along the boundary line the metric is the plain difference ...
    assert g.d("0|0", "2|0") == 2
    # ... until dropping into the horoball wins
    assert g.d("0|0", "8|0") == 6
    assert g.d("0|0", "0|3") == 3


@pytest.mark.parametrize("depth", [3, 4, 5, 6, 7])
def test_horoball_hyperbolicity_is_depth_independent(depth):
    base = cayley_graph("Z", 8)
    con = horoball(base.graph, base.action, depth=depth)
    assert hyperbolicity_delta(con.graph).two_delta == 3


def test_horoball_matches_wide_base():
    base = cayley_graph("Z", 64)
    con = horoball(base.graph, base.action, depth=7, basepoint="0|0")
    assert con.graph.n == 1032
    assert con.graph.d("0|0", "64|0") == 12
