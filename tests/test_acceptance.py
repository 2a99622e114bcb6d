"""Acceptance checks for the whole toolkit.

Each test covers one numbered claim about the library and finishes by
printing a single PASS line (visible with pytest -s or in captured output).
A failing assertion before the print is the corresponding FAIL signal.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import _oracles
from qtlab.cli import FIXTURES, _build_fixture
from qtlab.constructions import (
    c30_chain,
    cayley_graph,
    cone_graph,
    coset_tree,
    cycle_graph,
    double_line_graph,
    grid_graph,
    path_graph,
)
from qtlab.group_action import (
    Word,
    busemann_homomorphism,
    classify_action_type,
    classify_isometry,
    connectivity_radius,
    orbit_quasiconvexity,
    realized_elements,
    rips_orbit_graph,
    serre_elliptic_test,
    stable_translation_length,
    tree_translation_length,
)
from qtlab.leary_minasyan import (
    GaussianInt,
    conjugation_exponents,
    fit_translation_homomorphism,
    gaussian_power_check,
    lm_obstruction_check,
    seminorm_audit,
)
from qtlab.metric_graph import (
    graph_from_ids,
    bottleneck_constant,
    hyperbolicity_delta,
    is_quasitree,
)
from qtlab.products import (
    ProductSpace,
    distortion_profile,
    l1_geodesic_uniqueness,
    point_id,
    product_action,
    product_skeleton,
)


@pytest.fixture(scope="module")
def bs12():
    return _build_fixture("bs12-r8")


@pytest.fixture(scope="module")
def farey20():
    return _build_fixture("farey-Q20")


def test_criterion_01_random_trees_are_degenerate():
    """Trees have vanishing four-point defect and vanishing bottleneck."""
    rng = random.Random(101)
    for trial in range(50):
        n = rng.randint(2, 16)
        edges = [(str(a), str(b)) for a, b in _oracles.random_tree_edges(rng, n)]
        g = graph_from_ids([str(i) for i in range(n)], edges)
        assert hyperbolicity_delta(g).two_delta == 0, trial
        assert bottleneck_constant(g).constant == 0, trial
    print("PASS criterion-1 50 random trees: two_delta == 0 and C == 0")


def test_criterion_02_bottleneck_matches_oracle_and_grows_on_grids():
    ladder = grid_graph(6, 2)
    c12 = cycle_graph(12)
    got_ladder = bottleneck_constant(ladder).constant
    got_c12 = bottleneck_constant(c12).constant
    assert got_ladder == 1
    assert got_c12 == 3
    # independent recomputation straight from the definition
    ids, edges = _oracles.grid_ids_edges(6, 2)
    assert got_ladder == _oracles.brute_bottleneck(ids, edges)
    ids, edges = _oracles.cycle_ids_edges(12)
    assert got_c12 == _oracles.brute_bottleneck(ids, edges)
    grid_consts = [bottleneck_constant(grid_graph(n, n)).constant for n in range(3, 7)]
    assert grid_consts == [2, 3, 4, 5]
    assert all(a < b for a, b in zip(grid_consts, grid_consts[1:]))
    print("PASS criterion-2 ladder C=1, C12 C=3 (oracle-checked), "
          "square grids give strictly increasing C = 2,3,4,5")


def test_criterion_03_finite_chain_action_fixes_the_apex():
    con = coset_tree(*c30_chain())
    assert con.extras["valences"] == [1, 3, 4, 6]
    assert con.extras["stabilizer_sizes"] == [1, 2, 6, 30]
    els = realized_elements(con.action, horizon=4)
    assert len(els) > 0
    for el in els:
        rep = classify_isometry(con.action, el.word, con.basepoint)
        assert rep.verdict == "Elliptic", el.word.display()
    sr = serre_elliptic_test(con.action)
    assert sr.all_elliptic
    assert sr.fixed_vertex == con.extras["apex"]
    print("PASS criterion-3 c30 chain: valences [1,3,4,6], stabilizers "
          "[1,2,6,30], every element elliptic, common fixed vertex = apex")


def test_criterion_04_orbit_graphs_recover_geometry():
    # a cone kills the base geometry, but the orbit Rips graph at r=1
    # rebuilds the base line exactly
    base = cayley_graph("Z", 10)
    con = cone_graph(base.graph, base.action, basepoint="0")
    gamma1 = rips_orbit_graph(con.action, "0", r=1, horizon=12).graph
    assert sorted(gamma1.vertex_ids) == sorted(base.graph.vertex_ids)
    base_edges = sorted((base.graph.vertex_ids[i], base.graph.vertex_ids[j])
                        for i, j in base.graph.edge_array().tolist())
    got_edges = sorted((gamma1.vertex_ids[i], gamma1.vertex_ids[j])
                       for i, j in gamma1.edge_array().tolist())
    assert got_edges == base_edges
    # every shipped fixture is connected at its connectivity radius,
    # whatever the truncation horizon
    for name in FIXTURES:
        fx = _build_fixture(name)
        if fx.action is None:
            continue
        r = connectivity_radius(fx.action, fx.basepoint)
        for horizon in range(1, 13):
            g = rips_orbit_graph(fx.action, fx.basepoint, r=r, horizon=horizon).graph
            assert g.connected, (name, horizon)
    print("PASS criterion-4 cone orbit graph == base line; all fixtures "
          "connected at their connectivity radius for horizons 1..12")


def test_criterion_05_orbit_quasiconvexity_bound(farey20):
    for con, x0 in [(farey20, "inf"), (double_line_graph(16), "(0,1)")]:
        rep = orbit_quasiconvexity(con.action, x0, 1, horizon=12)
        assert rep.passed
        # K is the least value with 2K - 2C >= M
        assert 2 * rep.K - 2 * rep.C >= rep.M
        assert 2 * (rep.K - 1) - 2 * rep.C < rep.M
    print("PASS criterion-5 farey-Q20 and doubled-line orbits are "
          "K-quasiconvex with the minimal K from 2K - 2C >= M")


def test_criterion_06_translation_length_discipline(bs12, monkeypatch):
    # exact values on the tree
    for text, want in [("t", 1), ("a", 0), ("t t", 2), ("a t a^-1", 1)]:
        assert tree_translation_length(bs12.action, Word.parse(text)) == want
    # homogeneity of the exact length under powers
    for text in ("t", "a t a^-1"):
        w = Word.parse(text)
        tau1 = tree_translation_length(bs12.action, w)
        for k in range(1, 5):
            assert tree_translation_length(bs12.action, w.power(k)) == k * tau1
    # the horoball shift looks shorter and shorter without stabilizing
    hb = _build_fixture("horoball-line-d7")
    est = stable_translation_length(hb.action, Word.parse("s"), "0|0", horizon=64)
    assert est.sequence[63] <= Fraction(1, 2)
    assert est.tau_upper <= Fraction(1, 2)
    # on quasitree fixtures the parabolic gate must never fire
    quasitree_names = []
    for name in FIXTURES:
        fx = _build_fixture(name)
        if fx.action is None:
            continue
        # the raised cap holds for the bottleneck test alone, not for the
        # four-point scan of classify_isometry's slack below
        with monkeypatch.context() as mp:
            mp.setenv("QTLAB_MAX_VERTICES", "2000")
            passed = is_quasitree(fx.graph, c_max=3).passed
        if not passed:
            continue
        quasitree_names.append(name)
        gen_names = [gm.name for gm in fx.action.generators]
        words = [Word([(n, 1)]) for n in gen_names[:4]]
        words += [Word([(n1, 1), (n2, 1)]) for n1 in gen_names[:2] for n2 in gen_names[:2]]
        for w in words:
            rep = classify_isometry(fx.action, w, fx.basepoint,
                                    space_is_quasitree=True)
            assert rep.verdict != "ParabolicCandidate", (name, w.display())
    assert "horoball-line-d7" not in quasitree_names
    assert "bs12-r8" in quasitree_names and "farey-Q20" in quasitree_names
    print("PASS criterion-6 tree lengths exact and homogeneous, horoball "
          "shift decays below 1/2 by n=64, no parabolic verdicts on "
          "quasitree fixtures")


def test_criterion_07_busemann_additivity(bs12):
    ray = bs12.extras["ray"]
    rng = random.Random(107)
    letters = [("a", 1), ("a", -1), ("t", 1), ("t", -1)]
    for _ in range(100):
        w1 = Word([rng.choice(letters) for _ in range(rng.randint(1, 4))]).reduced()
        w2 = Word([rng.choice(letters) for _ in range(rng.randint(1, 4))]).reduced()
        th1 = busemann_homomorphism(bs12.action, ray, w1)
        th2 = busemann_homomorphism(bs12.action, ray, w2)
        assert busemann_homomorphism(bs12.action, ray, w1 * w2) == th1 + th2
        # the kernel is exactly the words with zero t-exponent sum
        t_sum = sum(s for (name, s) in w1.letters if name == "t")
        assert (th1 == 0) == (t_sum == 0), w1.display()
    print("PASS criterion-7 busemann cocycle additive on 100 random pairs; "
          "kernel = zero t-exponent words")


def test_criterion_08_action_type_certificates(bs12):
    rep = classify_action_type(coset_tree(*c30_chain()).action, "lv0_g0|g0|g0")
    assert rep.verdict == "Bounded" and rep.confidence == "certified"
    rep = classify_action_type(bs12.action, "m0:0/1", horizon=6)
    assert rep.verdict == "QuasiParabolic"
    rep = classify_action_type(_build_fixture("f2-r5").action, "e")
    assert rep.verdict == "General" and rep.confidence == "certified"
    print("PASS criterion-8 verdicts: coset-c30 Bounded (certified), "
          "bs12 QuasiParabolic, f2-r5 General (certified)")


def test_criterion_09_product_geodesic_uniqueness():
    for m in range(2, 7):
        for n in range(2, 7):
            sp = ProductSpace([path_graph(m), path_graph(n)])
            sk = product_skeleton(sp)
            for x, y in combinations(list(sp.points()), 2):
                rep = l1_geodesic_uniqueness(sp, x, y, skeleton=sk)
                assert rep.passed, (m, n, x, y)
                if len(rep.differing) <= 1:
                    assert rep.count == 1, (m, n, x, y)
                else:
                    assert rep.count >= 2, (m, n, x, y)
    print("PASS criterion-9 geodesics in path products (sides 2..6): unique "
          "iff at most one coordinate moves, all 3850 pairs checked")


def test_criterion_10_conjugation_exponent_algebra():
    assert conjugation_exponents(1) == (3, 4, -4, 3)
    # congruence mod 5 is stable for every power up to 1000
    z = GaussianInt(3, 4)
    acc = GaussianInt(1, 0)
    for k in range(1, 1001):
        acc = acc * z
        assert acc.re % 5 == 3 and acc.im % 5 == 4, k
    for k in (1, 10, 100, 1000):
        assert gaussian_power_check(k).congruent
    for n in range(1, 61):
        a, b, _, _ = conjugation_exponents(n)
        assert a * a + b * b == 25 ** n
    for k in range(1, 201):
        assert lm_obstruction_check(k).obstructed, k
    control = lm_obstruction_check(1, matrix_override=((5, 0), (0, 5)))
    assert not control.obstructed
    assert control.witness == (1, 0, 1)
    print("PASS criterion-10 exponents (3,4,-4,3); congruence to K=1000; "
          "norm identity to K=60; obstructed through K=200; scalar control "
          "not obstructed")


def test_criterion_11_translation_length_fitting():
    rng = random.Random(111)
    directions = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 1)]
    for trial in range(20):
        x = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        y = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        samples = [((m, n), abs(m * x + n * y)) for m, n in directions]
        fit = fit_translation_homomorphism(samples)
        assert fit.residual == 0, trial
        for (m, n), tau in samples:
            assert fit.evaluate(m, n) == tau, trial
        # audit a table that includes integer multiples
        table = samples + [((2 * m, 2 * n), abs(2 * m * x + 2 * n * y))
                           for m, n in directions[:3]]
        aud = seminorm_audit(table)
        assert aud.passed and not aud.homogeneity_violations, trial
        # one corrupted entry must be flagged
        bad = [(d, tau) for d, tau in table]
        d0, tau0 = bad[6]
        bad[6] = (d0, tau0 + 1)
        aud2 = seminorm_audit(bad)
        assert not aud2.passed, trial
        assert aud2.homogeneity_violations or aud2.subadditivity_violations, trial
    print("PASS criterion-11 20 synthetic translation tables fit with "
          "residual 0; audits clean, corrupted entries flagged")


def test_criterion_12_distortion_profiles(bs12):
    dp = distortion_profile(bs12.action, "m4:0/1", 8)
    # nothing sublinear shows up through length 4 ...
    assert dp.envelope[3] == 1
    # ... but by length 8 the distortion has dropped below 1/2
    assert dp.envelope[7] <= Fraction(1, 2)
    cz = cayley_graph("Z", 10)
    pa = product_action([cz.action, cz.action])
    dz = distortion_profile(pa.action, point_id(["0", "0"]), 8)
    assert dz.raw == [Fraction(1)] * 8
    print("PASS criterion-12 bs12 distortion falls below 1/2 by length 8; "
          "flat plane product stays at 1")
