import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtlab import (GroupAction, Word, action_from_maps, graph_from_ids, busemann_homomorphism,
                   check_locally_finite_orbit, classify_action_type,
                   classify_isometry, connectivity_radius, evaluate_word,
                   orbit, orbit_quasiconvexity, properness_profiles,
                   realized_elements, rips_orbit_graph, serre_elliptic_test,
                   stable_translation_length, tree_translation_length,
                   word_map)
from qtlab.constructions import (FiniteGroupTable, bass_serre_tree_bs12, c6_chain,
                                 cayley_graph, coset_tree, cycle_graph, double_line_graph,
                                 farey_graph, horoball, path_graph)
from qtlab.errors import (EndNotInvariant, FormatError, NotATree,
                          OutOfTruncation)
import qtlab.group_action as group_action
from qtlab.cli import FIXTURES, _build_fixture, main
from qtlab.io import action_to_dict, graph_to_dict, save_action

from _oracles import (brute_acylindricity, brute_orbit, brute_realized_elements, dense_mode_check,
                      index_distances, random_connected_graph)


def rotation_action(n):
    g = cycle_graph(n)
    ids = g.vertex_ids
    fwd = {ids[i]: ids[(i + 1) % n] for i in range(n)}
    return action_from_maps(g, [("r", fwd)])


# --- words -----------------------------------------------------------------


def test_word_parse_display_round_trip():
    w = Word.parse("a b^-2 a^3")
    assert w.display() == "a b^-2 a^3"
    assert Word.parse(w.display()) == w


def test_word_inverse_and_reduce():
    w = Word.parse("a b")
    assert (w * w.inverse()).reduced() == Word()
    assert w.inverse().display() == "b^-1 a^-1"
    assert Word.parse("a a^-1 b").reduced() == Word.parse("b")


def test_word_power():
    assert Word.parse("a").power(3) == Word.parse("a^3")
    assert Word.parse("a b").power(-1) == Word.parse("b^-1 a^-1")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from((1, -1))),
                min_size=1, max_size=8))
def test_word_round_trip_any(letters):
    w = Word(letters)
    assert Word.parse(w.display()) == w
    assert w.inverse().inverse() == w


@pytest.mark.parametrize("letter", [(1, 1), ("a", True), ("a", 1.0), ("a", 2), ["a", 1],
                                    ("a",), ("a", 1, 1)])
def test_word_refuses_malformed_letters(letter):
    # a name that is not a str, a sign that is a bool, a float or not +-1,
    # and a letter that is not a pair tuple are refused, not converted
    with pytest.raises(FormatError, match="letter must be"):
        Word([("b", -1), letter])


def test_word_keeps_its_letter_tuples():
    letters = [("a", 1), ("b", -1)]
    assert all(x is y for x, y in zip(Word(letters).letters, letters))


# --- actions and evaluation ------------------------------------------------


def test_mode_validation_difference():
    g = path_graph(5)
    # distance 2 pair mapped to distance 3: fine for adjacency, not isometry
    partial = {"v0": "v0", "v2": "v3"}
    action_from_maps(g, [("f", partial)], mode="automorphism")
    with pytest.raises(FormatError):
        action_from_maps(g, [("f", partial)], mode="isometry")


def test_adjacency_violation_rejected():
    g = path_graph(4)
    with pytest.raises(FormatError):
        action_from_maps(g, [("f", {"v0": "v0", "v1": "v3"})])


def test_mode_witness_follows_id_order():
    # the map lists v3 first; the first broken pair in id order is (v0, v3)
    with pytest.raises(FormatError, match=r"at pair \('v0', 'v3'\)"):
        action_from_maps(path_graph(4), [("f", {"v3": "v3", "v2": "v0", "v0": "v2"})])


def _mode_check_cases(rng):
    """(graph, mapping) pairs: rotations and reflections of cycles
    restricted to random domains, the same with two images swapped, and
    random injective partial maps on random graphs, some of them
    disconnected."""
    cases = []
    for _ in range(30):
        n = rng.randrange(3, 14)
        g = cycle_graph(n)
        ids = g.vertex_ids     # id order is the order around the cycle
        k, flip = rng.randrange(n), rng.random() < 0.5
        image = {ids[i]: ids[(k - i if flip else k + i) % n] for i in range(n)}
        cases.append((g, image))
    for _ in range(60):
        n = rng.randrange(2, 16)
        vs, es = random_connected_graph(rng, n, rng.randrange(0, 6))
        if rng.random() < 0.3:
            # drop a few edges, so the graph may fall apart
            es = [e for e in es if rng.random() < 0.7]
        g = graph_from_ids(vs, es, allow_disconnected=True)
        dom = rng.sample(vs, rng.randrange(1, n + 1))
        cases.append((g, dict(zip(dom, rng.sample(vs, len(dom))))))
    out = []
    for g, image in cases:
        items = list(image.items())
        rng.shuffle(items)
        keep = rng.randrange(1, len(items) + 1)
        mapping = dict(items[:keep])
        out.append((g, mapping))
        if keep >= 2:
            broken = dict(mapping)
            a, b = rng.sample(list(broken), 2)
            broken[a], broken[b] = broken[b], broken[a]
            out.append((g, broken))
    return out


@pytest.mark.parametrize("mode", ["automorphism", "isometry"])
def test_mode_check_matches_the_dense_check(mode):
    rng = random.Random(5)
    raised = passed = 0
    for g, mapping in _mode_check_cases(rng):
        D = index_distances(list(g.vertex_ids), graph_to_dict(g)["edges"])
        # generators are index arrays, so the first broken pair is the first
        # in id order, whatever order the map lists its sources in
        src, dst = np.array(sorted((g.index(s), g.index(t)) for s, t in mapping.items())).T
        expected = dense_mode_check(D, g.vertex_ids, "f", mode, src, dst)
        if expected is None:
            action_from_maps(g, [("f", mapping)], mode=mode)
            passed += 1
        else:
            with pytest.raises(FormatError) as exc:
                action_from_maps(g, [("f", mapping)], mode=mode)
            assert str(exc.value) == expected
            raised += 1
    assert raised > 20 and passed > 20


def test_non_injective_rejected():
    g = path_graph(3)
    with pytest.raises(FormatError):
        action_from_maps(g, [("f", {"v0": "v1", "v2": "v1"})])


def test_generators_are_index_arrays():
    g = path_graph(3)
    assert GroupAction(g, [("s", [1, 2, -1])]).gen("s").backward.tolist() == [-1, 0, 1]
    for bad in ([1, 2], [1, 2, 3], [-2, 0, 1], [0, 0, -1]):
        with pytest.raises(FormatError):
            GroupAction(g, [("s", bad)])
    with pytest.raises(FormatError, match="strings"):
        GroupAction(g, [(["s"], [0, 1, 2])])


def test_duplicate_generator_names_rejected():
    g = path_graph(3)
    ident = {v: v for v in g.vertex_ids}
    with pytest.raises(FormatError):
        action_from_maps(g, [("f", ident), ("f", ident)])


def test_evaluate_word_and_truncation():
    con = cayley_graph("Z", 3)
    a = con.action
    assert evaluate_word(a, Word.parse("s^2"), "0") == "2"
    assert evaluate_word(a, Word.parse("s s^-1"), "1") == "1"
    with pytest.raises(OutOfTruncation):
        evaluate_word(a, Word.parse("s^4"), "0")


def test_word_map_composition():
    a = rotation_action(6)
    w1, w2 = Word.parse("r^2"), Word.parse("r^-1")
    m12 = word_map(a, w1 * w2)
    m1, m2 = word_map(a, w1), word_map(a, w2)
    for i in range(6):
        assert m12[i] == m1[m2[i]]  # right-to-left application


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.just("s"), st.integers(-9, 9)), max_size=4))
def test_word_map_matches_evaluate_word(powers):
    # on the ball of radius 4 in Z a power past 8 leaves the truncation from
    # every vertex, after which word_map stops walking
    a = cayley_graph("Z", 4).action
    w = Word.parse(" ".join(f"{name}^{k}" for name, k in powers))
    ids = a.space.vertex_ids
    for i, v in enumerate(ids):
        try:
            want = a.space.index(evaluate_word(a, w, v))
        except OutOfTruncation:
            want = -1
        assert word_map(a, w)[i] == want


def test_word_map_refuses_an_unknown_letter_past_the_truncation():
    a = cayley_graph("Z", 4).action
    assert (word_map(a, Word.parse("s^9 s^-9")) == -1).all()
    with pytest.raises(FormatError, match="no generator named 'zz'"):
        word_map(a, Word.parse("s^9 zz s yy"))


# --- orbits ----------------------------------------------------------------


def test_orbit_order_and_witnesses():
    con = cayley_graph("Z", 10)
    res = orbit(con.action, "0", 3)
    assert res.vertices[:5] == ("0", "1", "-1", "2", "-2")
    assert res.witnesses["3"].display() == "s^3"
    assert res.witnesses["-2"].display() == "s^-2"
    assert not res.exhausted and res.complete


def test_orbit_truncation_clears_complete():
    con = cayley_graph("Z", 4)
    res = orbit(con.action, "0", 6)
    assert not res.complete
    assert res.size == 9


def test_orbit_exhausts_finite():
    a = rotation_action(6)
    res = orbit(a, "v0", 10)
    assert res.exhausted and res.complete and res.size == 6


def test_letters_run_by_generator_then_sign():
    assert double_line_graph(3).action.letters() == [
        ("s", 1), ("s", -1), ("sigma0", 1), ("sigma0", -1), ("sigma3", 1), ("sigma3", -1)]


def _orbit_matches(a, x0, horizon):
    gens = [(g["name"], dict(map(tuple, g["map"])))
            for g in action_to_dict(a)["generators"]]
    vertices, witnesses, complete, exhausted = brute_orbit(gens, x0, horizon)
    res = orbit(a, x0, horizon)
    assert res.vertices == tuple(vertices)
    assert {v: w.letters for v, w in res.witnesses.items()} == witnesses
    assert list(res.witnesses) == vertices
    assert (res.complete, res.exhausted) == (complete, exhausted)


def test_orbit_matches_the_loop_on_partial_maps_of_a_complete_graph():
    """Every injective partial map of K_n is an automorphism-mode generator,
    so seeded random ones cover orbits that stop, escape and close."""
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randrange(1, 9)
        ids = [f"v{i}" for i in range(n)]
        g = graph_from_ids(ids, [(u, v) for k, u in enumerate(ids) for v in ids[k + 1:]])
        gens = []
        for k in range(rng.randrange(0, 4)):
            src = rng.sample(ids, rng.randrange(0, n + 1))
            gens.append((f"g{k}", dict(zip(src, rng.sample(ids, len(src))))))
        a = action_from_maps(g, gens)
        for horizon in (0, 1, 2, 3, 6):
            _orbit_matches(a, rng.choice(ids), horizon)


def test_orbit_with_no_generators_or_no_horizon():
    """The coset tree of the trivial group has no generators: the orbit is
    the basepoint, closed at once.  At horizon 0 no letter is applied."""
    table = FiniteGroupTable.cyclic(1)
    trivial = coset_tree(table, [(table.identity,), table.elements]).action
    assert trivial.generators == ()
    for horizon in (0, 1, 4):
        _orbit_matches(trivial, trivial.space.vertex_ids[0], horizon)
        res = orbit(trivial, trivial.space.vertex_ids[0], horizon)
        assert (res.size, res.complete, res.exhausted) == (1, True, horizon > 0)
    for a, x0 in ((cayley_graph("F2", 2).action, "e"), (farey_graph(4).action, "inf"),
                  (rotation_action(5), "v0")):
        _orbit_matches(a, x0, 0)
        assert orbit(a, x0, 0).vertices == (x0,)


def test_local_finiteness_walks_the_orbit_once(monkeypatch, tmp_path, capsys):
    """Both count tuples and the orbit come from one walk and equal the
    counts of separate orbits at the full and the half horizon and the orbit
    at the full one; one `qtlab orbit` run walks the orbit once."""
    import qtlab.group_action as ga

    # the swap of two disjoint edges takes a into the other component, at
    # distance -1, which no ball counts
    two_edges = graph_from_ids(list("abcd"), [("a", "b"), ("c", "d")], allow_disconnected=True)
    cases = [(cayley_graph("Z", 12).action, "0"), (cayley_graph("F2", 3).action, "e"),
             (farey_graph(4).action, "inf"), (double_line_graph(5).action, "(0,1)"),
             (bass_serre_tree_bs12(4).action, "m0:0/1"),
             (action_from_maps(two_edges, [("s", dict(zip("abcd", "cdab")))]), "a")]
    walks = []
    walk = ga._orbit_walk

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(ga, "_orbit_walk", counted)
    for a, x0 in cases:
        drow = a.space.rows([a.space.index(x0)])[0]
        for horizon in range(7):
            for rho_max in (0, 2, horizon, 8):
                expected = []
                for h in (horizon, max(1, horizon // 2)):
                    ds = [int(drow[a.space.index(v)]) for v in orbit(a, x0, h).vertices]
                    expected.append(tuple(sum(1 for d in ds if 0 <= d <= rho)
                                          for rho in range(rho_max + 1)))
                res = orbit(a, x0, horizon)
                walks.clear()
                fin = check_locally_finite_orbit(a, x0, rho_max, horizon)
                assert len(walks) == 1
                assert (fin.counts, fin.counts_half_horizon) == tuple(expected)
                assert fin.growth_warning == any(
                    f > h for f, h in zip(*expected))
                assert fin.orbit == res
    path = tmp_path / "f2.action.json"
    save_action(cayley_graph("F2", 3).action, str(path))
    for horizon in (0, 1, 4):
        walks.clear()
        assert main(["orbit", "--action", str(path), "--basepoint", "e",
                     "--horizon", str(horizon)]) == 0
        assert len(walks) == 1
    capsys.readouterr()


def test_local_finiteness_flags():
    fin = check_locally_finite_orbit(rotation_action(6), "v0", 3, 10)
    assert not fin.growth_warning
    assert fin.verdict == "locally-finite-at-horizon"
    con = cayley_graph("Z", 30)
    warn = check_locally_finite_orbit(con.action, "0", 8, 8)
    assert warn.growth_warning


def test_rips_orbit_connectivity():
    con = farey_graph(5)
    a = con.action
    assert connectivity_radius(a, "inf") == 1
    rg = rips_orbit_graph(a, "inf", 1, 6)
    assert rg.graph.connected
    assert rg.orbit.size == rg.graph.n


# --- translation lengths ---------------------------------------------------


def test_stable_translation_length_line():
    con = cayley_graph("Z", 16)
    est = stable_translation_length(con.action, Word.parse("s"), "0", 8)
    assert est.sequence == tuple(Fraction(1) for _ in range(8))
    assert est.tau_upper == 1


def test_stable_translation_length_elliptic():
    est = stable_translation_length(rotation_action(6), Word.parse("r"), "v0", 12)
    assert est.tau_upper == 0
    assert est.sequence[5] == 0


def test_tree_translation_length():
    con = bass_serre_tree_bs12(6)
    a = con.action
    assert tree_translation_length(a, Word.parse("t")) == 1
    assert tree_translation_length(a, Word.parse("a")) == 0
    assert tree_translation_length(a, Word.parse("t^2")) == 2
    # conjugates keep translation length
    assert tree_translation_length(a, Word.parse("a t a^-1")) == 1


def test_tree_translation_length_needs_tree():
    with pytest.raises(NotATree):
        tree_translation_length(rotation_action(6), Word.parse("r"))


# --- isometry classification ----------------------------------------------


def test_classify_line_shift_loxodromic():
    con = cayley_graph("Z", 16)
    rep = classify_isometry(con.action, Word.parse("s"), "0")
    assert rep.verdict == "Loxodromic"
    assert rep.confidence == "certified"
    assert rep.tau_lower == 1 == rep.tau_upper


def test_classify_rotation_elliptic():
    rep = classify_isometry(rotation_action(8), Word.parse("r"), "v0")
    assert rep.verdict == "Elliptic"
    assert rep.confidence == "certified"


def test_classify_reflection_elliptic():
    g = path_graph(5)
    ids = g.vertex_ids
    refl = {ids[i]: ids[4 - i] for i in range(5)}
    a = action_from_maps(g, [("f", refl)])
    rep = classify_isometry(a, Word.parse("f"), "v0")
    assert rep.verdict == "Elliptic"
    assert rep.confidence == "certified"


def test_classify_horoball_shift_parabolic_candidate():
    base = cayley_graph("Z", 64)
    con = horoball(base.graph, base.action, depth=6, basepoint="0|0")
    # horizon must be long enough for log-shaped displacement growth to break
    # the doubling gate; short horizons look loxodromic within the slack
    rep = classify_isometry(con.action, Word.parse("s"), "0|0", horizon=32)
    assert rep.verdict == "ParabolicCandidate"
    assert rep.confidence == "heuristic"
    demoted = classify_isometry(con.action, Word.parse("s"), "0|0", horizon=32,
                                space_is_quasitree=True)
    assert demoted.verdict == "Unknown"


def test_classify_reads_the_cap_in_force_at_each_call(monkeypatch):
    """The ball of radius 10 in Z^2 has 221 vertices, over the four-point
    cap of 200.  A call under a raised cap scans delta; a later call under
    the default cap must not reuse that scan, and reads as a fresh one."""
    a = cayley_graph("Z2", 10).action
    assert a.space.n == 221
    sx = Word.parse("sx")
    fresh = classify_isometry(cayley_graph("Z2", 10).action, sx, "0,0", horizon=8)
    assert (fresh.verdict, fresh.certificate["slack"]) == ("Loxodromic", "4")
    assert fresh.notes == ("ambient delta not computed (graph over cap); using slack 4",)
    monkeypatch.setenv("QTLAB_MAX_VERTICES", "300")
    classify_isometry(a, sx, "0,0", horizon=8)
    monkeypatch.delenv("QTLAB_MAX_VERTICES")
    assert classify_isometry(a, sx, "0,0", horizon=8) == fresh


# --- serre test ------------------------------------------------------------


def test_serre_returns_apex():
    table, chain = c6_chain()
    con = coset_tree(table, chain)
    res = serre_elliptic_test(con.action)
    assert res.all_elliptic
    assert res.fixed_vertex == "apex"


def test_serre_detects_loxodromic():
    con = cayley_graph("Z", 8)
    res = serre_elliptic_test(con.action)
    assert not res.all_elliptic
    assert res.culprit is not None


# --- busemann --------------------------------------------------------------


def test_busemann_on_line():
    con = cayley_graph("Z", 12)
    ray = [str(k) for k in range(0, 13)]
    a = con.action
    assert busemann_homomorphism(a, ray, Word.parse("s")) == -1
    assert busemann_homomorphism(a, ray, Word.parse("s^-1")) == 1
    assert busemann_homomorphism(a, ray, Word.parse("s^3")) == -3


def test_busemann_bs12_values():
    con = bass_serre_tree_bs12(8)
    ray = con.extras["ray"]
    a = con.action
    assert busemann_homomorphism(a, ray, Word.parse("t")) == 1
    assert busemann_homomorphism(a, ray, Word.parse("a")) == 0
    assert busemann_homomorphism(a, ray, Word.parse("t a")) == 1
    assert busemann_homomorphism(a, ray, Word.parse("a t^-1 a")) == -1


def test_busemann_additive_on_random_words():
    con = bass_serre_tree_bs12(8)
    ray = con.extras["ray"]
    a = con.action
    rng = random.Random(5)
    letters = [("a", 1), ("a", -1), ("t", 1), ("t", -1)]
    for _ in range(20):
        w1 = Word([rng.choice(letters) for _ in range(rng.randrange(1, 4))])
        w2 = Word([rng.choice(letters) for _ in range(rng.randrange(1, 4))])
        th1 = busemann_homomorphism(a, ray, w1)
        th2 = busemann_homomorphism(a, ray, w2)
        assert busemann_homomorphism(a, ray, w1 * w2) == th1 + th2


def test_busemann_end_not_invariant():
    con = bass_serre_tree_bs12(8)
    a = con.action
    up_ray = [f"m{k}:0/1" for k in range(0, 9)]
    with pytest.raises(EndNotInvariant):
        busemann_homomorphism(a, up_ray, Word.parse("a"))


def test_busemann_rejects_non_geodesic_ray():
    con = cayley_graph("Z", 8)
    with pytest.raises(FormatError):
        busemann_homomorphism(con.action, ["0", "1", "0", "1"], Word.parse("s"))


# --- realized elements and properness --------------------------------------


def test_realized_elements_free_group_counts():
    con = cayley_graph("F2", 5)
    els = realized_elements(con.action, 2)
    assert len(els) == 17  # 1 + 4 + 12
    depths = sorted(el.depth for el in els)
    assert depths.count(0) == 1 and depths.count(1) == 4 and depths.count(2) == 12


def test_realized_elements_merge_inverse_pairs():
    a = rotation_action(4)
    els = realized_elements(a, 4)
    assert len(els) == 4  # rotations only


def test_properness_trivial_stabilizers_on_free_group():
    con = cayley_graph("F2", 5)
    rep = properness_profiles(con.action, epsilons=(0,), radii=(4,), rs=(0,),
                              horizon=2)
    assert rep.max_stabilizer == 1
    assert not rep.stabilizer_growth_warning
    acyl = dict(((e, R), N) for e, R, N in rep.acylindricity)
    assert acyl[(0, 4)] == 1


def test_properness_rows_and_flags_follow_the_radii():
    # the rotation of a 6-cycle: diameter 3, so no pair is 4 or more apart
    rep = properness_profiles(rotation_action(6), epsilons=(0, 1), radii=(8, 2, 4, 8),
                              rs=(0,), horizon=3)
    assert [row[:2] for row in rep.acylindricity] == [
        (e, R) for e in (0, 1) for R in (8, 2, 4, 8)]
    assert [N for _, R, N in rep.acylindricity if R != 2] == [0] * 6
    assert rep.no_pair_flags == (8, 4, 8)


def _fresh_max_stabilizer(a, horizon):
    S = np.stack([el.image for el in realized_elements(a, horizon)])
    return int((S == np.arange(a.space.n)).sum(axis=0).max())


@pytest.mark.parametrize("build, horizons", [
    (lambda: bass_serre_tree_bs12(8).action, (0, 1, 3, 5)),
    (lambda: cayley_graph("F2", 5).action, (0, 2, 4)),
    # partial maps whose deeper merges fill in fixed points of half-horizon
    # rows, which flips the warning unless those rows are copied first
    (lambda: _partial_cycle_action(random.Random(20), 10), (6,)),
    (lambda: _partial_cycle_action(random.Random(32), 5), (3,)),
], ids=["bs12-r8", "f2-r5", "partial-c10", "partial-c5"])
def test_properness_half_horizon_matches_a_fresh_walk(build, horizons):
    # one walk serves both horizons; its half-horizon rows must be those of
    # a fresh realized_elements call, untouched by the deeper merges
    a = build()
    for h in horizons:
        rep = properness_profiles(a, epsilons=(0,), radii=(2,), rs=(0,), horizon=h)
        full = _fresh_max_stabilizer(a, h)
        half = _fresh_max_stabilizer(a, max(1, h // 2))
        assert rep.n_elements == len(realized_elements(a, h))
        assert (rep.max_stabilizer, rep.stabilizer_growth_warning) == (full, full > half), h


# --- quasiconvexity --------------------------------------------------------


def test_orbit_quasiconvexity_farey():
    con = farey_graph(5)
    rep = orbit_quasiconvexity(con.action, "inf", 1, horizon=8)
    assert rep.C == 1 and rep.M == 1
    assert 2 * rep.K - 2 * rep.C >= rep.M
    assert rep.passed


def test_orbit_quasiconvexity_doubleline():
    con = double_line_graph(8)
    rep = orbit_quasiconvexity(con.action, "(0,1)", 1, horizon=10)
    assert rep.M == connectivity_radius(con.action, "(0,1)")
    assert rep.passed


# --- action types ----------------------------------------------------------


def test_action_type_bounded_trivial():
    g = path_graph(3)
    a = action_from_maps(g, [("e", {v: v for v in g.vertex_ids})])
    rep = classify_action_type(a, "v0")
    assert rep.verdict == "Bounded"
    assert rep.confidence == "certified"


def test_action_type_bounded_coset():
    table, chain = c6_chain()
    con = coset_tree(table, chain)
    rep = classify_action_type(con.action, con.basepoint)
    assert rep.verdict == "Bounded"
    assert rep.confidence == "certified"


def test_action_type_lineal_line():
    con = cayley_graph("Z", 12)
    rep = classify_action_type(con.action, "0")
    assert rep.verdict == "Lineal"


def test_action_type_general_free():
    con = cayley_graph("F2", 5)
    rep = classify_action_type(con.action, "e")
    assert rep.verdict == "General"
    assert rep.confidence == "certified"


def test_action_type_quasiparabolic_bs12():
    con = bass_serre_tree_bs12(8)
    rep = classify_action_type(con.action, "m0:0/1", horizon=6)
    assert rep.verdict == "QuasiParabolic"


# --- one vertex order --------------------------------------------------------


def test_tree_classify_names_least_id_at_minimal_displacement():
    """Insertion order differs from id order: the swap of leaves p and q
    fixes m, r and s, and the certificate names the least of those ids."""
    from qtlab import graph_from_ids
    g = graph_from_ids(["s", "r", "p", "q", "m"],
                    [("m", "s"), ("m", "r"), ("m", "p"), ("m", "q")])
    swap = {"p": "q", "q": "p", "m": "m", "r": "r", "s": "s"}
    a = action_from_maps(g, [("f", swap)])
    # horizon 1 stops the power orbit before it closes, so the tree method runs
    rep = classify_isometry(a, Word.parse("f"), "p", horizon=1)
    assert rep.method == "tree-min-displacement"
    assert rep.certificate == {"kind": "fixed-vertex", "vertex": "m"}


def test_generator_maps_are_index_arrays():
    a = rotation_action(5)
    gm = a.gen("r")
    assert gm.forward.tolist() == [1, 2, 3, 4, 0]
    assert gm.backward.tolist() == [4, 0, 1, 2, 3]
    src, dst = gm.pairs()
    assert src.tolist() == [0, 1, 2, 3, 4] and dst.tolist() == [1, 2, 3, 4, 0]
    partial = action_from_maps(path_graph(3), [("s", {"v0": "v1", "v1": "v2"})])
    assert partial.gen("s").forward.tolist() == [1, 2, -1]
    assert partial.apply_letter("s", 1, 2) is None
    assert partial.apply_letter("s", -1, 2) == 1


BS12_H4_WORDS = (
    "1,a,a^-1,t,t^-1,a^2,a t,a t^-1,a^-2,a^-1 t,a^-1 t^-1,t a,t a^-1,t^2,t^-1 a,"
    "t^-1 a^-1,t^-2,a^3,a^2 t,a t a,a t^2,a t^-1 a,a t^-2,a^-3,a^-2 t,a^-1 t a^-1,"
    "a^-1 t^2,a^-1 t^-1 a^-1,a^-1 t^-2,t a t,t a t^-1,t a^-1 t,t a^-1 t^-1,t^2 a,"
    "t^2 a^-1,t^3,t^-1 a^2,t^-1 a t^-1,t^-1 a^-2,t^-1 a^-1 t^-1,t^-2 a,t^-2 a^-1,"
    "t^-3,a^4,a^3 t,a^2 t a,a^2 t^2,a t a t,a t a t^-1,a t^2 a,a t^2 a^-1,a t^3,"
    "a t^-1 a^2,a t^-1 a t^-1,a t^-2 a,a t^-2 a^-1,a t^-3,a^-4,a^-3 t,a^-2 t a^-1,"
    "a^-2 t^2,a^-1 t a^-1 t,a^-1 t a^-1 t^-1,a^-1 t^2 a,a^-1 t^2 a^-1,a^-1 t^3,"
    "a^-1 t^-1 a^-2,a^-1 t^-2 a^-1,a^-1 t^-3,t a t^2,t a t^-2,t a^-1 t^2,"
    "t a^-1 t^-2,t^2 a t,t^2 a t^-1,t^2 a^-1 t,t^2 a^-1 t^-1,t^3 a,t^3 a^-1,t^4,"
    "t^-1 a^3,t^-1 a t^-1 a,t^-1 a t^-2,t^-1 a^-3,t^-1 a^-1 t^-1 a^-1,"
    "t^-1 a^-1 t^-2,t^-2 a^2,t^-2 a t^-1,t^-2 a^-2,t^-2 a^-1 t^-1,t^-3 a,"
    "t^-3 a^-1,t^-4"
).split(",")

F2_H3_WORDS = (
    "1,x,x^-1,y,y^-1,x^2,x y,x y^-1,x^-2,x^-1 y,x^-1 y^-1,y x,y x^-1,y^2,y^-1 x,"
    "y^-1 x^-1,y^-2,x^3,x^2 y,x^2 y^-1,x y x,x y x^-1,x y^2,x y^-1 x,x y^-1 x^-1,"
    "x y^-2,x^-3,x^-2 y,x^-2 y^-1,x^-1 y x,x^-1 y x^-1,x^-1 y^2,x^-1 y^-1 x,"
    "x^-1 y^-1 x^-1,x^-1 y^-2,y x^2,y x y,y x y^-1,y x^-2,y x^-1 y,y x^-1 y^-1,"
    "y^2 x,y^2 x^-1,y^3,y^-1 x^2,y^-1 x y,y^-1 x y^-1,y^-1 x^-2,y^-1 x^-1 y,"
    "y^-1 x^-1 y^-1,y^-2 x,y^-2 x^-1,y^-3"
).split(",")


@pytest.mark.parametrize("build, horizon, count, words", [
    (lambda: bass_serre_tree_bs12(8), 4, 93, BS12_H4_WORDS),
    (lambda: cayley_graph("F2", 5), 3, 53, F2_H3_WORDS),
], ids=["bs12-r8", "f2-r5"])
def test_realized_elements_pinned_merge_order(build, horizon, count, words):
    els = realized_elements(build().action, horizon)
    assert len(els) == count
    assert [el.word.display() for el in els] == words


def _partial_cycle_action(rng, n):
    """Rotation and reflection of an n-cycle, each restricted to a random
    domain, so words have partial images that overlap in varied ways."""
    g = cycle_graph(n)
    ids = g.vertex_ids
    gens = []
    for name, f in (("r", lambda i: (i + 1) % n), ("f", lambda i: (-i) % n)):
        dom = [i for i in range(n) if rng.random() < 0.7]
        gens.append((name, {ids[i]: ids[f(i)] for i in dom}))
    return action_from_maps(g, gens)


def test_realized_elements_match_the_dict_reference():
    rng = random.Random(17)
    z = cayley_graph("Z", 4)
    cases = [
        (double_line_graph(4).action, 3),
        (coset_tree(*c6_chain()).action, 3),
        (cayley_graph("Z2", 2).action, 3),
        (farey_graph(3).action, 3),
        (horoball(z.graph, z.action, depth=2).action, 3),
    ] + [(_partial_cycle_action(rng, rng.randrange(5, 10)), 4) for _ in range(6)]
    for a, horizon in cases:
        _assert_matches_reference(a, horizon)


def _assert_matches_reference(a, horizon):
    ids = a.space.vertex_ids
    gens = [(g["name"], dict(map(tuple, g["map"]))) for g in action_to_dict(a)["generators"]]
    want = brute_realized_elements(ids, gens, horizon)
    got = realized_elements(a, horizon)
    assert [(el.word.letters, el.depth) for el in got] == [(w, d) for w, d, _ in want]
    for el, (_, _, img) in zip(got, want):
        assert {ids[i]: ids[t] for i, t in enumerate(el.image) if t >= 0} == img


def _complete_graph(n):
    ids = [str(i) for i in range(n)]
    return graph_from_ids(ids, [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)])


@st.composite
def _partial_injections(draw):
    """A complete graph on at most 9 vertices and up to three random partial
    injections of it, every one of which preserves adjacency."""
    n = draw(st.integers(1, 9))
    gens = []
    for q in range(draw(st.integers(1, 3))):
        dom = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        img = draw(st.permutations(range(n)))[:len(dom)]
        gens.append((f"g{q}", {str(v): str(t) for v, t in zip(dom, img)}))
    return n, gens


@settings(max_examples=60, deadline=None)
@given(_partial_injections())
def test_realized_elements_match_the_reference_on_complete_graphs(case):
    n, gens = case
    _assert_matches_reference(action_from_maps(_complete_graph(n), gens), 4)


def _spy(monkeypatch, name):
    """Record (arguments, result) of every call of a group_action function."""
    calls = []
    real = getattr(group_action, name)

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(group_action, name, spy)
    return calls


def test_realized_elements_merge_into_their_own_frontier_row_mid_batch(monkeypatch):
    # s is the identity, so the candidate of frontier row t and letter s is t
    # again and merges into its own row, with the row's other letters still
    # to come in the same batch
    calls = _spy(monkeypatch, "_settle_batch")
    gens = [("s", {"0": "0", "1": "1", "2": "2"}), ("t", {"0": "1", "1": "2"})]
    _assert_matches_reference(action_from_maps(_complete_graph(3), gens), 3)
    t_row = 1                   # depth 1 adds t (row 1) and t^-1 (row 2)
    (batch, out), = [(args[2], out) for args, out in calls if (t_row, 0) in args[2]]
    settled, added = out
    assert batch.index((t_row, 0)) < min(settled, batch.index((t_row, 1)))
    assert (t_row, 0) not in added
    assert not any(name == "s" for el in realized_elements(action_from_maps(
        _complete_graph(3), gens), 3) for name, _ in el.word.letters)


def test_realized_elements_merge_that_fills_a_later_frontier_row(monkeypatch):
    # g g = {2: 1} merges into the frontier row g^-1 = {0: 2, 1: 0} (row 2)
    # and fills its entry at 2, so the batch stops there and the candidates
    # of g^-1 are composed again from the filled row
    calls = _spy(monkeypatch, "_settle_batch")
    gens = [("g", {"0": "1", "2": "0"})]
    _assert_matches_reference(action_from_maps(_complete_graph(3), gens), 4)
    assert ([(1, 0), (1, 1), (2, 0), (2, 1)], (1, [])) in [(args[2], out)
                                                            for args, out in calls]
    els = realized_elements(action_from_maps(_complete_graph(3), gens), 2)
    assert els[2].image.tolist() == [2, 0, 1]


def test_realized_elements_recheck_a_row_filled_after_the_screen(monkeypatch):
    # at depth 1, a = {1: 0} becomes a new element (column 1), a^-1 = {0: 1}
    # merges into it and fills its entry at 0, and b = {0: 1}, candidate 2
    # of the batch, had agreed with column 1 before the fill, so it is
    # checked again on the filled row and merges into it
    calls = _spy(monkeypatch, "_first_agreeing")
    gens = [("a", {"1": "0"}), ("b", {"0": "1"})]
    _assert_matches_reference(action_from_maps(_complete_graph(2), gens), 3)
    args, out = calls[0]
    assert (args[5], args[6][0], out) == (2, 1, (1, False))


def _acylindricity_matches(a, horizon):
    S = np.stack([el.image for el in realized_elements(a, horizon)])
    epsilons, radii = (0, 1, 2, 3), (0, 1, 2, 4, 8, 100)
    rep = properness_profiles(a, epsilons, radii, rs=(0,), horizon=horizon)
    assert (rep.acylindricity, rep.no_pair_flags) == brute_acylindricity(
        S, a.space.dist, epsilons, radii)


@pytest.mark.parametrize("name", list(FIXTURES))
def test_acylindricity_table_matches_the_dense_product_on_fixtures(name):
    _acylindricity_matches(_build_fixture(name).action, 3)


def test_acylindricity_table_matches_the_dense_product_on_partial_actions():
    rng = random.Random(5)
    for _ in range(8):
        _acylindricity_matches(_partial_cycle_action(rng, rng.randrange(4, 12)), 4)


def test_acylindricity_table_matches_the_dense_product_when_disconnected():
    # two 5-cycles, rotated together where the rotation is defined: the -1
    # of pairs in different components never counts, however small R
    ids = [f"{c}{i}" for c in "pq" for i in range(5)]
    edges = [(f"{c}{i}", f"{c}{(i + 1) % 5}") for c in "pq" for i in range(5)]
    g = graph_from_ids(ids, edges, allow_disconnected=True)
    rot = {f"{c}{i}": f"{c}{(i + 1) % 5}" for c in "pq" for i in range(5) if (c, i) != ("q", 4)}
    flip = {f"p{i}": f"p{(-i) % 5}" for i in range(5)}
    a = action_from_maps(g, [("r", rot), ("f", flip)])
    for h in (1, 2, 4):
        _acylindricity_matches(a, h)


def test_busemann_refuses_non_string_ray_vertices():
    # "0", "1", "2" is a geodesic ray of the Z ball; the integer 1 is not read as "1"
    z = cayley_graph("Z", 3)
    with pytest.raises(FormatError, match="ray vertex must be a vertex id string"):
        busemann_homomorphism(z.action, ["0", 1, "2"], Word.parse("s"))
