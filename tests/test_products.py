"""Tests for product spaces, product isometries, and distortion profiles."""

import math
import unittest
from fractions import Fraction
from itertools import combinations, permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtlab import DimensionMismatch, FactorMismatch, FormatError, NormMismatch
from qtlab.cli import _build_fixture
from qtlab.constructions import cayley_graph, cycle_graph, grid_graph, path_graph
from qtlab.group_action import Word, action_from_maps, evaluate_word
from qtlab.metric_graph import MetricGraph, graph_from_ids
from qtlab.products import (
    ProductIsometry,
    ProductSpace,
    distortion_profile,
    factor_preservation_check,
    l1_geodesic_uniqueness,
    point_id,
    point_of,
    product_action,
    product_distance,
    product_skeleton,
    _skeleton_rank,
)

from _oracles import brute_factor_check


@given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_point_id_round_trip(coords):
    assert point_of(point_id(coords)) == tuple(coords)


def test_point_id_survives_commas_and_quotes():
    tricky = ['a,b', 'c"d', "(0,1)"]
    assert point_of(point_id(tricky)) == tuple(tricky)


def _assert_ids_are_point_ids(sp):
    sk = product_skeleton(sp)
    assert sk.vertex_ids == tuple(sorted(point_id(x) for x in sp.points()))
    for i, f in enumerate(sp.factors):
        for x in sp.points():
            for nb in f.neighbors(x[i]):
                y = x[:i] + (nb,) + x[i + 1:]
                assert sk.has_edge(point_id(x), point_id(y))
    assert sk.n_edges == sum(f.n_edges * sp.n_points // f.n for f in sp.factors)


def test_skeleton_ids_are_point_ids_on_fixture_products():
    small = [_build_fixture(name).graph for name in ("cone-z-r10", "coset-c30")]
    for factors in (small, small[::-1], small[:1] * 3):
        _assert_ids_are_point_ids(ProductSpace(factors))


def test_skeleton_ids_are_point_ids_on_escaped_characters():
    odd = ['a"b', "c\\d", "\u00e9", "\u221ax", "x,y", "[1]", "tab\t", "\U0001d53d"]
    g = graph_from_ids(odd, list(zip(odd, odd[1:])), boundary=[odd[2]])
    sp = ProductSpace([g, path_graph(3), g])
    _assert_ids_are_point_ids(sp)
    sk = product_skeleton(sp)
    assert sk.boundary == tuple(point_id(x) for x in sp.points()
                                if odd[2] in (x[0], x[2]))


@given(st.lists(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True),
                min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_skeleton_rank_is_the_skeleton_index_of_each_point(id_lists):
    # ids such as "a" and "a b" sort one way raw and the other way JSON-encoded
    factors = [MetricGraph(ids, [(k, k + 1) for k in range(len(ids) - 1)]) for ids in id_lists]
    sp = ProductSpace(factors)
    sk = product_skeleton(sp)
    assert _skeleton_rank(sp).tolist() == sk.indices([point_id(x) for x in sp.points()]).tolist()


def test_product_action_generators_use_point_ids():
    c = _build_fixture("coset-c30").action
    pa = product_action([c, c], perm=[1, 0])
    ids = pa.skeleton.vertex_ids
    for i in range(2):
        for gm in c.generators:
            fwd = pa.action.gen(f"f{i}_{gm.name}").forward
            for s, t in zip(*gm.pairs()):
                for other in c.space.vertex_ids:
                    x = [other, other]
                    y = [other, other]
                    x[i], y[i] = c.space.vertex_ids[s], c.space.vertex_ids[t]
                    assert ids[fwd[pa.skeleton.index(point_id(x))]] == point_id(y)
    _assert_perm_moves_coordinates(pa, (1, 0))


def _assert_perm_moves_coordinates(pa, perm):
    ids, fwd = pa.skeleton.vertex_ids, pa.action.gen("perm").forward
    for x in pa.product.points():
        y = [None] * len(perm)
        for i, j in enumerate(perm):
            y[j] = x[i]
        assert ids[fwd[pa.skeleton.index(point_id(x))]] == point_id(y)


def test_product_action_cyclic_coordinate_permutation():
    cz = cayley_graph("Z", 2)
    pa = product_action([cz.action] * 3, perm=[2, 0, 1])
    _assert_perm_moves_coordinates(pa, (2, 0, 1))
    img = evaluate_word(pa.action, Word.parse("perm"), point_id(["0", "1", "2"]))
    assert img == point_id(["1", "2", "0"])


# ---------------------------------------------------------------------------
# distances


def test_l1_distance():
    sp = ProductSpace([path_graph(5), path_graph(5)])
    d = product_distance(sp, ["v0", "v0"], ["v2", "v3"])
    assert d.norm == "l1"
    assert d.exact == 5
    assert d.approx == 5.0


def test_l2_distance_keeps_the_exact_square():
    sp = ProductSpace([path_graph(5), path_graph(5)], norm="l2")
    d = product_distance(sp, ["v0", "v0"], ["v2", "v3"])
    assert d.exact is None
    assert d.squared == 13
    assert d.approx == pytest.approx(math.sqrt(13))


def test_linf_distance():
    sp = ProductSpace([path_graph(5), path_graph(5)], norm="linf")
    d = product_distance(sp, ["v0", "v0"], ["v2", "v3"])
    assert d.exact == 3


def test_point_validation():
    sp = ProductSpace([path_graph(5), path_graph(5)])
    with pytest.raises(DimensionMismatch):
        sp.check_point(["v0"])
    with pytest.raises(DimensionMismatch):
        product_distance(sp, ["v0"], ["v1", "v1"])


def test_point_coordinates_must_be_id_strings():
    sp = ProductSpace([cayley_graph("Z", 2).graph] * 2)
    assert sp.check_point(["1", "-1"]) == ("1", "-1")
    for point in ([1, "-1"], ["1", None]):
        with pytest.raises(FormatError):
            sp.check_point(point)


def test_skeleton_metric_agrees_with_coordinate_sums():
    sp = ProductSpace([path_graph(4), path_graph(3), path_graph(2)])
    sk = product_skeleton(sp)
    assert sk.n == 24
    for x, y in combinations(sp.points(), 2):
        assert sk.d(point_id(x), point_id(y)) == product_distance(sp, x, y).exact


def test_skeleton_shape():
    sp = ProductSpace([path_graph(5), path_graph(5)])
    sk = product_skeleton(sp)
    assert sk.n == 25
    assert sk.n_edges == 40
    # finite path factors are not truncations, so nothing is marked
    assert sk.boundary == ()


def test_skeleton_boundary_tracks_factor_truncation():
    cz = cayley_graph("Z", 3).graph
    sk = product_skeleton(ProductSpace([cz, cz]))
    assert sk.n == 49
    # any point with a coordinate on the truncation sphere is marked
    assert len(sk.boundary) == 24


def test_skeleton_matches_grid_graph():
    sp = ProductSpace([path_graph(4), path_graph(6)])
    sk = product_skeleton(sp)
    g = grid_graph(4, 6)
    assert sk.n == g.n
    assert sk.n_edges == g.n_edges


# ---------------------------------------------------------------------------
# geodesic uniqueness in l1 products


def test_unique_geodesic_when_one_coordinate_moves():
    sp = ProductSpace([path_graph(5), path_graph(5)])
    rep = l1_geodesic_uniqueness(sp, ["v0", "v2"], ["v3", "v2"])
    assert rep.differing == (0,)
    assert rep.count == 1
    assert rep.passed
    assert rep.witness is None


def test_many_geodesics_when_two_coordinates_move():
    sp = ProductSpace([path_graph(5), path_graph(5)])
    rep = l1_geodesic_uniqueness(sp, ["v0", "v0"], ["v2", "v2"])
    assert rep.differing == (0, 1)
    assert rep.count == 6  # C(4, 2) staircase paths
    assert rep.passed


def test_equal_endpoints_have_one_trivial_geodesic():
    sp = ProductSpace([path_graph(5), path_graph(5)])
    rep = l1_geodesic_uniqueness(sp, ["v1", "v1"], ["v1", "v1"])
    assert rep.differing == ()
    assert rep.count == 1
    assert rep.passed


def test_geodesic_enumeration_cap_sets_overflow():
    sp = ProductSpace([path_graph(5), path_graph(5)])
    rep = l1_geodesic_uniqueness(sp, ["v0", "v0"], ["v2", "v2"], cap=3)
    assert rep.overflow
    assert rep.count == 3
    assert rep.passed


def test_uniqueness_requires_l1():
    sp = ProductSpace([path_graph(5), path_graph(5)], norm="l2")
    with pytest.raises(NormMismatch):
        l1_geodesic_uniqueness(sp, ["v0", "v0"], ["v1", "v1"])


# ---------------------------------------------------------------------------
# product isometries


class ProductIsometryTest(unittest.TestCase):
    def setUp(self):
        self.sq = ProductSpace([path_graph(4), path_graph(4)])
        self.points = list(self.sq.points())

    def test_identity_verifies(self):
        f = ProductIsometry.identity(self.sq)
        self.assertTrue(f.verified)
        self.assertEqual(f.apply(("v1", "v2")), ("v1", "v2"))

    def test_swap_verifies_and_squares_to_identity(self):
        swap = {x: (x[1], x[0]) for x in self.points}
        f = ProductIsometry(self.sq, swap)
        self.assertTrue(f.verified)
        rep = factor_preservation_check(self.sq, f)
        self.assertTrue(rep.preserves)
        self.assertEqual(rep.perm, (1, 0))
        sq2 = f.compose(f)
        self.assertEqual(factor_preservation_check(self.sq, sq2).perm, (0, 1))

    def test_rejects_non_bijection(self):
        bad = {x: self.points[0] for x in self.points}
        with self.assertRaises(FormatError):
            ProductIsometry(self.sq, bad)

    def test_rejects_distance_breaking_map(self):
        bad = {x: x for x in self.points}
        a, b = self.points[0], self.points[1]
        bad[a], bad[b] = b, a
        with self.assertRaisesRegex(FormatError, "not an isometry"):
            ProductIsometry(self.sq, bad)


def test_identity_factor_check_reports_coordinate_maps():
    sp = ProductSpace([path_graph(4), path_graph(3)])
    rep = factor_preservation_check(sp, ProductIsometry.identity(sp))
    assert rep.preserves
    assert rep.perm == (0, 1)
    assert rep.coordinate_maps is not None
    for cmap in rep.coordinate_maps:
        assert all(k == v for k, v in cmap.items())


def test_factor_check_flags_a_diagonal_transposition():
    # swapping two off-diagonal points is a self-map that moves both
    # coordinates along one skeleton edge, so no factor structure survives
    # (v0, v1) and (v1, v0) sit at grid positions 1 and 3
    sq = ProductSpace([path_graph(3), path_graph(3)])
    image = np.arange(9)
    image[[1, 3]] = [3, 1]
    rep = factor_preservation_check(sq, SimpleNamespace(image=image))
    assert not rep.preserves
    assert rep.witness is not None
    assert rep.perm is None


@pytest.mark.parametrize("shape", [("p", 3, "p", 3), ("c", 4, "c", 4), ("p", 1, "c", 4, "p", 3),
                                   ("p", 2, "p", 3, "p", 2), ("e", 2, "p", 2)],
                         ids=lambda shape: "".join(map(str, shape)))
def test_factor_check_matches_the_walk(shape):
    """The array check against the walk over id tuples in tests/_oracles.py,
    on seeded maps of four kinds: any permutation of the points, one
    transposition of two points, a product map that may swap equal-sized
    factors, and such a product map spoiled by a transposition.  An edgeless
    factor ("e") has no moves of its own, so its coordinate can be claimed
    by another factor or its coordinate map can depend on the others."""
    build = {"p": path_graph, "c": cycle_graph,
             "e": lambda n: MetricGraph([f"v{i}" for i in range(n)], [], allow_disconnected=True)}
    graphs = [build[kind](n) for kind, n in zip(shape[::2], shape[1::2])]
    sp = ProductSpace(graphs)
    factors = [(list(g.vertex_ids), [(g.vertex_ids[a], g.vertex_ids[b])
                                     for a, b in g.edge_array().tolist()]) for g in graphs]
    grid = np.arange(sp.n_points).reshape(sp.shape)
    rng = np.random.default_rng(20)
    for kind in ("shuffle", "transposition", "product", "spoiled") * 40:
        image = np.arange(sp.n_points)
        if kind == "shuffle":
            image = rng.permutation(sp.n_points)
        if kind in ("product", "spoiled"):
            # factor i moves onto slot sigma[i] of the same size, through a
            # random vertex permutation
            sigma = list(range(len(graphs)))
            for i, j in combinations(range(len(graphs)), 2):
                if graphs[i].n == graphs[j].n and rng.random() < 0.5:
                    sigma[i], sigma[j] = sigma[j], sigma[i]
            moved = np.transpose(grid, np.argsort(sigma))
            image = moved[np.ix_(*[rng.permutation(n) for n in moved.shape])].ravel()
        if kind in ("transposition", "spoiled") and sp.n_points > 1:
            a, b = rng.choice(sp.n_points, 2, replace=False)
            image[[a, b]] = image[[b, a]]
        points = sp.points()
        mapping = {x: points[image[a]] for a, x in enumerate(points)}
        rep = factor_preservation_check(sp, SimpleNamespace(image=image))
        want = brute_factor_check(factors, mapping)
        assert (rep.preserves, rep.perm, rep.witness, rep.coordinate_maps) == want, kind


def test_factor_check_agrees_on_verified_isometries():
    # the 4-cycle is the square, so c4 x c4 is the 4-cube: every permutation
    # of its four bits is an isometry, and most of them mix the factors
    c4 = cycle_graph(4)
    sp = ProductSpace([c4, c4])
    bits = {"v0": (0, 0), "v1": (0, 1), "v2": (1, 1), "v3": (1, 0)}
    vertex = {b: v for v, b in bits.items()}
    factors = [(list(c4.vertex_ids), [tuple(c4.vertex_ids[i] for i in e)
                                      for e in c4.edge_array().tolist()])] * 2
    seen = set()
    for order in permutations(range(4)):
        def f(x):
            b = bits[x[0]] + bits[x[1]]
            b = tuple(b[i] for i in order)
            return vertex[b[:2]], vertex[b[2:]]
        mapping = {x: f(x) for x in sp.points()}
        iso = ProductIsometry(sp, mapping)
        rep = factor_preservation_check(sp, iso)
        assert (rep.preserves, rep.perm, rep.witness, rep.coordinate_maps) == \
            brute_factor_check(factors, mapping)
        assert all(iso.apply(x) == y for x, y in mapping.items())
        seen.add(rep.preserves)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# product actions


def test_product_action_acts_componentwise():
    cz = cayley_graph("Z", 6)
    pa = product_action([cz.action, cz.action])
    assert sorted(g.name for g in pa.action.generators) == ["f0_s", "f1_s"]
    assert pa.skeleton.n == 13 * 13
    img = evaluate_word(pa.action, Word.parse("f0_s"), point_id(["0", "0"]))
    assert img == point_id(["1", "0"])
    img = evaluate_word(pa.action, Word.parse("f1_s^-1 f0_s"), point_id(["2", "0"]))
    assert img == point_id(["3", "-1"])


def test_product_action_coordinate_permutation():
    cz = cayley_graph("Z", 4)
    pa = product_action([cz.action, cz.action], perm=[1, 0])
    img = evaluate_word(pa.action, Word.parse("perm"), point_id(["1", "-2"]))
    assert img == point_id(["-2", "1"])
    # perm twice is the identity
    img = evaluate_word(pa.action, Word.parse("perm perm"), point_id(["1", "-2"]))
    assert img == point_id(["1", "-2"])


def test_permutation_requires_identical_factors():
    cz = cayley_graph("Z", 4)
    c5 = cycle_graph(5)
    rot = action_from_maps(c5, [("r", {f"v{i}": f"v{(i + 1) % 5}" for i in range(5)})])
    with pytest.raises(FactorMismatch):
        product_action([cz.action, rot], perm=[1, 0])
    # without a permutation the factors may differ freely
    pa = product_action([cz.action, rot])
    assert pa.skeleton.n == 9 * 5


# ---------------------------------------------------------------------------
# distortion profiles


def test_flat_product_action_has_distortion_one():
    cz = cayley_graph("Z", 6)
    pa = product_action([cz.action, cz.action])
    dp = distortion_profile(pa.action, point_id(["0", "0"]), 6)
    assert dp.raw == [Fraction(1)] * 6
    assert dp.envelope == [Fraction(1)] * 6
    assert dp.final == Fraction(1)


def test_trivial_action_has_distortion_zero():
    g = path_graph(3)
    triv = action_from_maps(g, [("e", {v: v for v in g.vertex_ids})])
    dp = distortion_profile(triv, "v0", 4)
    assert dp.raw == [Fraction(0)] * 4
    assert dp.final == Fraction(0)


def test_involution_profile_carries_its_last_value():
    g = path_graph(3)
    refl = action_from_maps(g, [("m", {"v0": "v2", "v1": "v1", "v2": "v0"})])
    dp = distortion_profile(refl, "v0", 4)
    # only depth 1 realizes a new element; later depths repeat it
    assert dp.raw == [Fraction(2)] * 4
    assert dp.witnesses[0] == "m"
    assert dp.witnesses[1] is None


def test_distortion_rejects_empty_horizon():
    g = path_graph(3)
    triv = action_from_maps(g, [("e", {v: v for v in g.vertex_ids})])
    with pytest.raises(FormatError):
        distortion_profile(triv, "v0", 0)


def test_distortion_refuses_a_non_string_basepoint():
    # the vertex "0" exists; the integer 0 is not read as it
    with pytest.raises(FormatError, match="basepoint must be a vertex id string"):
        distortion_profile(cayley_graph("Z", 2).action, 0, 1)
