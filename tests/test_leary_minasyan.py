"""Tests for the exact planar algebra: matrices, the rotation representation,
Gaussian integer powers, obstruction determinants, and translation-length fits."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtlab import DegenerateSamples, FormatError, NegativeExponent
from qtlab.leary_minasyan import (
    CONJUGATING_MATRIX,
    ExactMat2,
    GaussianInt,
    PlanarIsometry,
    _canonical_sign,
    conjugation_exponents,
    fit_translation_homomorphism,
    gaussian_power_check,
    lm_linear_rep,
    lm_obstruction_check,
    matrix_power,
    parse_samples,
    seminorm_audit,
)

from _oracles import brute_chebyshev

M = ExactMat2(CONJUGATING_MATRIX)


# ---------------------------------------------------------------------------
# exact 2x2 matrices


def test_matmul_against_hand_product():
    a = ExactMat2(((1, 2), (3, 4)))
    b = ExactMat2(((5, 6), (7, 8)))
    assert (a @ b).rows == ExactMat2(((19, 22), (43, 50))).rows


def test_det_transpose_apply():
    a = ExactMat2(((1, 2), (3, 4)))
    assert a.det == -2
    assert a.transpose().rows == ExactMat2(((1, 3), (2, 4))).rows
    assert a.apply((1, 1)) == (Fraction(3), Fraction(7))


def test_inverse_round_trip():
    a = ExactMat2(((2, 1), (1, 1)))
    assert (a @ a.inverse()) == ExactMat2.identity()
    assert (a.inverse() @ a) == ExactMat2.identity()


@pytest.mark.parametrize("rows", [
    5, None, "ab", [[1, 2]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]], [[1, 2], 5],
    [[1, 2], [3, "a"]], [[1, 2], [3, "1/0"]], [[1, 2], [3, 1.5]], [[1, 2], [3, None]],
])
def test_malformed_matrices_are_format_errors(rows):
    with pytest.raises(FormatError):
        ExactMat2(rows)


def test_singular_matrix_has_no_inverse():
    with pytest.raises(FormatError):
        ExactMat2(((1, 2), (2, 4))).inverse()


def test_matrix_power_basics():
    assert matrix_power(M, 0) == ExactMat2.identity()
    assert matrix_power(M, 1) == M
    assert matrix_power(M, 3) == M @ M @ M


def test_matrix_power_negative_exponent():
    a = ExactMat2(((2, 1), (1, 1)))
    assert matrix_power(a, -2) @ matrix_power(a, 2) == ExactMat2.identity()
    with pytest.raises(NegativeExponent):
        matrix_power(ExactMat2(((1, 2), (2, 4))), -1)


@given(st.integers(min_value=0, max_value=12))
@settings(max_examples=13, deadline=None)
def test_power_matches_repeated_product(n):
    acc = ExactMat2.identity()
    for _ in range(n):
        acc = acc @ M
    assert matrix_power(M, n) == acc


# ---------------------------------------------------------------------------
# Gaussian integer bookkeeping


def test_gaussian_powers_track_the_matrix():
    z = GaussianInt(3, 4)
    for k in range(1, 7):
        w = z.power(k)
        a, b, c, d = conjugation_exponents(k)
        assert (w.re, w.im) == (a, b)
        assert (c, d) == (-b, a)


def test_gaussian_power_check_frozen_values():
    rep = gaussian_power_check(3)
    assert (rep.re, rep.im) == (-117, 44)
    assert (rep.re_mod5, rep.im_mod5) == (3, 4)
    assert rep.congruent
    assert rep.nonreal


def test_residue_mod_five_is_idempotent():
    # (3 + 4i)^k == 3 + 4i mod 5 for every k >= 1
    for k in range(1, 41):
        rep = gaussian_power_check(k)
        assert rep.congruent, k
        assert rep.nonreal, k


def test_norm_identity():
    for n in range(1, 13):
        a, b, _, _ = conjugation_exponents(n)
        assert a * a + b * b == 25 ** n


def test_conjugation_exponent_values():
    assert conjugation_exponents(1) == (3, 4, -4, 3)
    assert conjugation_exponents(3) == (-117, 44, -44, -117)
    with pytest.raises(FormatError):
        conjugation_exponents(-1)


# ---------------------------------------------------------------------------
# planar isometries


def test_rejects_non_rotation_linear_part():
    with pytest.raises(FormatError):
        PlanarIsometry(ExactMat2(((1, 1), (0, 1))))
    # orthogonal but orientation reversing
    with pytest.raises(FormatError):
        PlanarIsometry(ExactMat2(((1, 0), (0, -1))))


def test_translation_composition_adds():
    f = PlanarIsometry.translation_by((1, 2))
    g = f.power(3)
    assert g.translation == (Fraction(3), Fraction(6))
    assert f.compose(f.inverse()) == PlanarIsometry.identity()


def test_compose_applies_right_factor_first():
    rot = lm_linear_rep().t
    shift = PlanarIsometry.translation_by((5, 0))
    # (rot . shift)(0) = rot(5, 0) = (3, 4)
    assert rot.compose(shift).apply((0, 0)) == (Fraction(3), Fraction(4))
    assert shift.compose(rot).apply((0, 0)) == (Fraction(5), Fraction(0))


def test_linear_rep_relations():
    rep = lm_linear_rep()
    assert rep.relations_verified
    assert rep.a.translation == (Fraction(1), Fraction(0))
    assert rep.b.translation == (Fraction(0), Fraction(1))
    assert rep.t.linear.det == 1


def test_conjugating_powers_of_t_realizes_the_exponents():
    rep = lm_linear_rep()
    for n in range(1, 13):
        tau = PlanarIsometry.translation_by((5 ** n, 0))
        tn = rep.t.power(n)
        conj = tn.compose(tau).compose(tn.inverse())
        a, b, _, _ = conjugation_exponents(n)
        assert conj.translation == (Fraction(a), Fraction(b))


# ---------------------------------------------------------------------------
# obstruction determinants


def test_obstruction_at_k_one():
    rep = lm_obstruction_check(1)
    assert rep.det_plus == 20
    assert rep.det_minus == 80
    assert rep.obstructed
    assert rep.witness is None


def test_obstruction_holds_for_small_k():
    for k in range(1, 61):
        assert lm_obstruction_check(k).obstructed, k


def test_scalar_matrix_is_not_obstructed():
    rep = lm_obstruction_check(1, matrix_override=((5, 0), (0, 5)))
    assert not rep.obstructed
    assert rep.det_plus == 0
    assert rep.det_minus == 100
    assert rep.witness == (1, 0, 1)


# ---------------------------------------------------------------------------
# fitting translation lengths


def test_exact_fit_with_mixed_signs():
    true = (Fraction(3, 2), Fraction(-2))
    dirs = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]
    samples = [((m, n), abs(m * true[0] + n * true[1])) for m, n in dirs]
    fit = fit_translation_homomorphism(samples)
    assert (fit.x, fit.y) == true
    assert fit.residual == 0
    assert fit.method == "exact"
    assert fit.evaluate(2, -1) == Fraction(5)


def test_sign_canonicalisation():
    # data from (-3/2, 2) is identical, so the reported pair leads with +
    dirs = [(1, 0), (0, 1), (1, 1), (2, 1)]
    samples = [((m, n), abs(m * Fraction(-3, 2) + n * 2)) for m, n in dirs]
    fit = fit_translation_homomorphism(samples)
    assert fit.x > 0
    assert (fit.x, fit.y) == (Fraction(3, 2), Fraction(-2))


def test_all_zero_samples():
    fit = fit_translation_homomorphism([((1, 0), Fraction(0)), ((0, 1), Fraction(0))])
    assert (fit.x, fit.y) == (0, 0)
    assert fit.method == "exact"


def test_collinear_directions_are_degenerate():
    with pytest.raises(DegenerateSamples):
        fit_translation_homomorphism([((1, 0), Fraction(3)), ((2, 0), Fraction(6))])


def test_chebyshev_fallback_finds_the_minimax_point():
    # |x| must balance samples 1 and 4 around x = 5/3 with residual 2/3
    samples = [
        ((1, 0), Fraction(1)),
        ((2, 0), Fraction(4)),
        ((0, 1), Fraction(0)),
        ((1, 1), Fraction(5, 3)),
    ]
    fit = fit_translation_homomorphism(samples)
    assert fit.method == "chebyshev"
    assert fit.residual == Fraction(2, 3)
    assert fit.x == Fraction(5, 3)
    # every y in [-2/3, 2/3] is optimal; the tie goes to the lex-least vertex
    assert fit.y == Fraction(-2, 3)
    # the reported residual really is the worst error of the reported pair
    worst = max(abs(abs(m * fit.x + n * fit.y) - tau) for (m, n), tau in samples)
    assert worst == fit.residual


def _noisy_table(rng, k):
    """k samples |m x + n y| + noise, clipped at 0, for a random rational
    (x, y), directions in [-6, 6]^2 and noise in [-12, 12] / [1, 8]."""
    x = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
    y = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
    table = []
    for _ in range(k):
        m, n = rng.randint(-6, 6), rng.randint(-6, 6)
        noise = Fraction(rng.randint(-12, 12), rng.randint(1, 8))
        table.append(((m, n), max(Fraction(0), abs(m * x + n * y) + noise)))
    return table


def test_chebyshev_fit_matches_the_vertex_oracle():
    rng = random.Random(20261019)
    checked = 0
    while checked < 200:
        samples = _noisy_table(rng, rng.randint(3, 8))
        try:
            fit = fit_translation_homomorphism(samples)
        except DegenerateSamples:
            continue
        if fit.method != "chebyshev":
            assert fit.residual == 0
            continue
        eps, (x, y) = brute_chebyshev(samples)
        assert fit.residual == eps, samples
        assert (fit.x, fit.y) == _canonical_sign(x, y), samples
        checked += 1


def test_parse_samples_accepts_payload_dict():
    parsed = parse_samples({"samples": [[[1, 0], "3/2"], [[0, 1], 2]]})
    assert parsed == [((1, 0), Fraction(3, 2)), ((0, 1), Fraction(2))]


def test_parse_samples_rejects_bad_entries():
    with pytest.raises(FormatError):
        parse_samples([((1, 0), -2)])
    with pytest.raises(FormatError):
        parse_samples([((1, 0), 1.5)])


@pytest.mark.parametrize("payload", [
    {"samples": 7}, {"samples": "abc"}, {"samples": [7]}, {"samples": [[[1, 0]]]},
    {"samples": [[[1, 0, 2], 1]]}, {"samples": [[["a", 0], 1]]},
    {"samples": [[[1.5, 0], 1]]}, {"samples": [[[1, None], 1]]},
    {"samples": [[[1, 0], "x"]]}, {"samples": [[[1, 0], "1/0"]]},
    {"samples": [[[1, 0], None]]}, {"samples": [[[1, 0], [1]]]}, {},
])
def test_parse_samples_rejects_malformed_payloads(payload):
    with pytest.raises(FormatError):
        parse_samples(payload)


def test_parse_samples_reads_integer_strings_as_directions():
    assert parse_samples([[["2", "-3"], "1/2"]]) == [((2, -3), Fraction(1, 2))]


# ---------------------------------------------------------------------------
# seminorm audits


def test_audit_passes_consistent_data():
    aud = seminorm_audit([
        ((1, 0), Fraction(3)),
        ((2, 0), Fraction(6)),
        ((0, 1), Fraction(2)),
        ((1, 1), Fraction(5)),
    ])
    assert aud.passed
    assert aud.checked_homogeneity == 1
    assert aud.checked_subadditivity == 2


def test_audit_reports_violations():
    aud = seminorm_audit([
        ((1, 0), Fraction(3)),
        ((2, 0), Fraction(7)),   # breaks 2 * tau(1,0)
        ((0, 1), Fraction(2)),
        ((1, 1), Fraction(6)),   # breaks tau(1,0) + tau(0,1)
    ])
    assert not aud.passed
    assert ((1, 0), (2, 0), 2, Fraction(6), Fraction(7)) in aud.homogeneity_violations
    assert any(v[2] == (1, 1) for v in aud.subadditivity_violations)


def test_audit_rejects_contradictory_table():
    with pytest.raises(FormatError):
        seminorm_audit([((1, 0), Fraction(3)), ((1, 0), Fraction(4))])
