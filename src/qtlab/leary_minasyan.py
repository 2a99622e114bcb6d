"""Exact 2x2 rational matrix arithmetic and the algebra of a commensurating
HNN extension of Z^2: powers of the conjugating matrix, Gaussian-integer
congruences, the affine planar representation, the integrality obstruction
for matched powers, and fitting of translation-length samples by a linear
seminorm.

Everything here is exact over Fraction; floats only appear in reports as
convenience approximations.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

from .errors import (DegenerateSamples, DimensionMismatch, FormatError,
                     NegativeExponent, as_int)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        # Fraction expands "1e10000000" in full, for seconds and 400 MB
        if "e" in x or "E" in x:
            raise FormatError(f"refusing exponent notation in {x!r}; write the rational out")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"cannot read {x!r} as an exact rational") from None
    if isinstance(x, float):
        raise FormatError(f"refusing float entry {x!r}; pass int, Fraction or string")
    raise FormatError(f"cannot read {x!r} as an exact rational")


def _integer(x) -> int:
    """A sample direction coordinate, read by the integer rule of the
    integer --params; floats and bools are refused, as for tau."""
    try:
        return as_int(x)
    except (TypeError, ValueError):
        raise FormatError(f"direction entry {x!r} is not an integer") from None


class ExactMat2:
    """2x2 matrix over Fraction with exact arithmetic."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, rows):
        try:
            (a, b), (c, d) = rows
        except (TypeError, ValueError):
            raise FormatError("need a 2x2 array of entries") from None
        self.a, self.b, self.c, self.d = _frac(a), _frac(b), _frac(c), _frac(d)

    @classmethod
    def identity(cls) -> "ExactMat2":
        return cls([[1, 0], [0, 1]])

    @property
    def rows(self) -> Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]:
        return ((self.a, self.b), (self.c, self.d))

    @property
    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "ExactMat2") -> "ExactMat2":
        return ExactMat2([
            [self.a * other.a + self.b * other.c, self.a * other.b + self.b * other.d],
            [self.c * other.a + self.d * other.c, self.c * other.b + self.d * other.d]])

    def apply(self, v) -> Tuple[Fraction, Fraction]:
        v = list(v)
        if len(v) != 2:
            raise DimensionMismatch(f"expected a 2-vector, got {len(v)} entries")
        x, y = _frac(v[0]), _frac(v[1])
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def scale(self, k) -> "ExactMat2":
        k = _frac(k)
        return ExactMat2([[self.a * k, self.b * k], [self.c * k, self.d * k]])

    def add(self, other: "ExactMat2") -> "ExactMat2":
        return ExactMat2([[self.a + other.a, self.b + other.b],
                          [self.c + other.c, self.d + other.d]])

    def transpose(self) -> "ExactMat2":
        return ExactMat2([[self.a, self.c], [self.b, self.d]])

    def inverse(self) -> "ExactMat2":
        dt = self.det
        if dt == 0:
            raise FormatError("matrix is singular")
        return ExactMat2([[self.d / dt, -self.b / dt], [-self.c / dt, self.a / dt]])

    def __eq__(self, other):
        return isinstance(other, ExactMat2) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"ExactMat2({[[str(self.a), str(self.b)], [str(self.c), str(self.d)]]})"


def matrix_power(M: ExactMat2, n: int) -> ExactMat2:
    """M^n by repeated squaring; negative powers go through the exact
    inverse and need det != 0."""
    if not isinstance(n, int):
        raise FormatError("exponent must be an integer")
    if n < 0:
        if M.det == 0:
            raise NegativeExponent(f"M^{n} undefined: matrix is singular")
        M, n = M.inverse(), -n
    out = ExactMat2.identity()
    base = M
    while n:
        if n & 1:
            out = out @ base
        n >>= 1
        if n:
            base = base @ base
    return out


# ---------------------------------------------------------------------------
# Gaussian integer congruences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianInt:
    re: int
    im: int

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re * other.re - self.im * other.im,
                           self.re * other.im + self.im * other.re)

    def power(self, k: int) -> "GaussianInt":
        if k < 0:
            raise FormatError("negative Gaussian powers are not integral")
        out = GaussianInt(1, 0)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out


@dataclass(frozen=True)
class GaussianPowerReport:
    k: int
    re: int
    im: int
    nonreal: bool          # im != 0
    re_mod5: int
    im_mod5: int
    congruent: bool        # (re, im) == (3, 4) mod 5


def gaussian_power_check(K: int) -> GaussianPowerReport:
    """(3+4i)^K stays off the real axis and keeps its residue (3, 4) mod 5
    for every K >= 1; both facts drive the matched-power obstruction."""
    if K < 0:
        raise FormatError("K must be >= 0")
    z = GaussianInt(3, 4).power(K)
    congruent = K >= 1 and (z.re % 5, z.im % 5) == (3, 4)
    return GaussianPowerReport(K, z.re, z.im, z.im != 0, z.re % 5, z.im % 5, congruent)


# ---------------------------------------------------------------------------
# the affine planar representation
# ---------------------------------------------------------------------------


class PlanarIsometry:
    """Orientation-preserving affine isometry of the plane with exact
    rational entries: x -> Rx + v with R a rotation (orthogonal, det 1)."""

    __slots__ = ("linear", "translation")

    def __init__(self, linear: ExactMat2, translation=(0, 0)):
        rt = linear.transpose() @ linear
        if rt != ExactMat2.identity() or linear.det != 1:
            raise FormatError("linear part must be orthogonal with determinant 1")
        t = list(translation)
        if len(t) != 2:
            raise DimensionMismatch("translation must be a 2-vector")
        self.linear = linear
        self.translation = (_frac(t[0]), _frac(t[1]))

    @classmethod
    def identity(cls) -> "PlanarIsometry":
        return cls(ExactMat2.identity())

    @classmethod
    def translation_by(cls, v) -> "PlanarIsometry":
        return cls(ExactMat2.identity(), v)

    def apply(self, p) -> Tuple[Fraction, Fraction]:
        x, y = self.linear.apply(p)
        return (x + self.translation[0], y + self.translation[1])

    def compose(self, other: "PlanarIsometry") -> "PlanarIsometry":
        """self after other."""
        v = self.linear.apply(other.translation)
        return PlanarIsometry(self.linear @ other.linear,
                              (v[0] + self.translation[0], v[1] + self.translation[1]))

    def inverse(self) -> "PlanarIsometry":
        inv = self.linear.transpose()     # orthogonal
        v = inv.apply(self.translation)
        return PlanarIsometry(inv, (-v[0], -v[1]))

    def power(self, n: int) -> "PlanarIsometry":
        base = self if n >= 0 else self.inverse()
        out = PlanarIsometry.identity()
        for _ in range(abs(n)):
            out = base.compose(out)
        return out

    def __eq__(self, other):
        return (isinstance(other, PlanarIsometry)
                and self.linear == other.linear
                and self.translation == other.translation)

    def __repr__(self):
        return f"PlanarIsometry(R={self.linear!r}, v=({self.translation[0]}, {self.translation[1]}))"


CONJUGATING_MATRIX = ((3, 4), (-4, 3))
ROTATION_MATRIX = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))


@dataclass(frozen=True)
class LinearRep:
    a: PlanarIsometry
    b: PlanarIsometry
    t: PlanarIsometry
    conjugating_matrix: ExactMat2     # integral matrix M, det 25
    rotation: ExactMat2               # M^T / 5, the linear part of t
    relations_verified: bool


def lm_linear_rep() -> LinearRep:
    """Affine representation: a, b translate by the standard basis, t rotates
    by the (3,4,5) angle.  The three defining relations

        ab = ba,   t a^5 t^-1 = a^3 b^4,   t b^5 t^-1 = a^-4 b^3

    are verified exactly; conjugation by t multiplies translation vectors by
    the rotation, which carries 5 Z^2 into Z^2 but not Z^2 itself."""
    a = PlanarIsometry.translation_by((1, 0))
    b = PlanarIsometry.translation_by((0, 1))
    M = ExactMat2(CONJUGATING_MATRIX)
    L = ExactMat2(ROTATION_MATRIX)
    t = PlanarIsometry(L)
    checks = [
        a.compose(b) == b.compose(a),
        t.compose(a.power(5)).compose(t.inverse()) == a.power(3).compose(b.power(4)),
        t.compose(b.power(5)).compose(t.inverse()) == a.power(-4).compose(b.power(3)),
    ]
    if not all(checks):
        raise FormatError(f"defining relations failed: {checks}")
    return LinearRep(a, b, t, M, L, True)


def conjugation_exponents(n: int) -> Tuple[int, int, int, int]:
    """Entries (row major) of M^n for M = [[3,4],[-4,3]]: conjugating the
    translation subgroup by t^n rewrites a^(5^n) as a^alpha b^beta with
    (alpha, beta) the first row, and b^(5^n) with the second."""
    if n < 0:
        raise FormatError("n must be >= 0")
    P = matrix_power(ExactMat2(CONJUGATING_MATRIX), n)
    vals = (P.a, P.b, P.c, P.d)
    if any(v.denominator != 1 for v in vals):
        raise FormatError("integer matrix power produced non-integers")
    return tuple(int(v) for v in vals)


# ---------------------------------------------------------------------------
# the matched-power obstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObstructionReport:
    k: int
    det_plus: int              # det(M^k - 5^k I)
    det_minus: int             # det(M^k + 5^k I)
    obstructed: bool           # both nonzero: only the trivial integer solution
    witness: Optional[Tuple[int, int, int]]  # (x, y, sign) with (M^k - sign 5^k I)(x,y) = 0


def _kernel_vector(A: ExactMat2) -> Tuple[int, int]:
    """A primitive integer vector in the kernel of a singular 2x2 integer
    matrix (the zero matrix gets (1, 0))."""
    rows = [(int(A.a), int(A.b)), (int(A.c), int(A.d))]
    for p, q in rows:
        if (p, q) != (0, 0):
            g = gcd(abs(p), abs(q))
            x, y = -q // g, p // g
            if x < 0 or (x == 0 and y < 0):
                x, y = -x, -y
            return (x, y)
    return (1, 0)


def lm_obstruction_check(K: int, matrix_override=None) -> ObstructionReport:
    """Whether a^x b^y can match the image of a 5^K-divisible translation
    power under t^K: integer solutions of M^K v = +-5^K v beyond v = 0 exist
    exactly when det(M^K -+ 5^K I) vanishes for one of the signs.  For the
    rotation-scaling M = [[3,4],[-4,3]] both determinants stay nonzero at
    every K >= 1 (the Gaussian power never lands on the real axis); scalar
    matrices like [[5,0],[0,5]] are the unobstructed comparison point."""
    if K < 1:
        raise FormatError("K must be >= 1")
    M = ExactMat2(matrix_override) if matrix_override is not None else ExactMat2(CONJUGATING_MATRIX)
    if any(v.denominator != 1 for v in (M.a, M.b, M.c, M.d)):
        raise FormatError("obstruction check needs an integer matrix")
    P = matrix_power(M, K)
    s = 5 ** K
    dets = {}
    mats = {}
    for sign in (1, -1):
        A = P.add(ExactMat2.identity().scale(-sign * s))
        mats[sign] = A
        dets[sign] = int(A.det)
    witness = None
    for sign in (1, -1):
        if dets[sign] == 0:
            x, y = _kernel_vector(mats[sign])
            witness = (x, y, sign)
            break
    return ObstructionReport(K, dets[1], dets[-1],
                             dets[1] != 0 and dets[-1] != 0, witness)


# ---------------------------------------------------------------------------
# fitting translation lengths by |m x + n y|
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    x: Fraction
    y: Fraction
    residual: Fraction         # max over samples of | |m x + n y| - tau |
    method: str                # "exact" or "chebyshev"
    n_samples: int

    def evaluate(self, m: int, n: int) -> Fraction:
        return abs(m * self.x + n * self.y)


def parse_samples(obj) -> List[Tuple[Tuple[int, int], Fraction]]:
    """Accept [((m,n), tau), ...] or the file payload {"samples": [...]},
    with tau as int, string fraction or Fraction."""
    if isinstance(obj, dict):
        obj = obj.get("samples")
    if obj is None:
        raise FormatError("no samples found")
    if not isinstance(obj, (list, tuple)):
        raise FormatError(f"samples must be an array of [[m, n], tau], got {obj!r}")
    out = []
    for item in obj:
        try:
            (m, n), tau = item
        except (TypeError, ValueError):
            raise FormatError(f"bad sample {item!r}; want [[m, n], tau]") from None
        m, n, tau = _integer(m), _integer(n), _frac(tau)
        if tau < 0:
            raise FormatError(f"negative translation length {tau} at ({m}, {n})")
        out.append(((m, n), tau))
    return out


def _canonical_sign(x: Fraction, y: Fraction) -> Tuple[Fraction, Fraction]:
    if x < 0 or (x == 0 and y < 0):
        return (-x, -y)
    return (x, y)


def _residual(samples, x: Fraction, y: Fraction) -> Fraction:
    worst = Fraction(0)
    for (m, n), tau in samples:
        worst = max(worst, abs(abs(m * x + n * y) - tau))
    return worst


def fit_translation_homomorphism(samples) -> FitResult:
    """Fit tau(m, n) ~ |m x + n y|.  Two independent directions pin (x, y)
    up to the four sign choices, tried exactly over Fraction; when none is
    a perfect fit, the exact Chebyshev (minimax) fit with the signs of the
    best such candidate is returned.  The global sign is fixed by making the
    first nonzero coordinate positive."""
    samples = parse_samples(samples)
    if not samples:
        raise FormatError("need at least one sample")
    if all(tau == 0 for _, tau in samples):
        return FitResult(Fraction(0), Fraction(0), Fraction(0), "exact", len(samples))

    # rank of the sampled directions
    pairs = [v for v, _ in samples]
    rank2 = any(m1 * n2 - m2 * n1 != 0
                for (m1, n1), (m2, n2) in itertools.combinations(pairs, 2))
    if not rank2:
        raise DegenerateSamples(
            "sampled directions are collinear; |m x + n y| is underdetermined")

    best: Optional[Tuple[Fraction, Fraction, Fraction]] = None
    for (i, ((m1, n1), t1)), (j, ((m2, n2), t2)) in itertools.combinations(
            enumerate(samples), 2):
        det = m1 * n2 - m2 * n1
        if det == 0:
            continue
        for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            x = Fraction(s1 * t1 * n2 - s2 * t2 * n1, det)
            y = Fraction(m1 * s2 * t2 - m2 * s1 * t1, det)
            r = _residual(samples, x, y)
            if best is None or r < best[2]:
                best = (x, y, r)
            if r == 0:
                x, y = _canonical_sign(x, y)
                return FitResult(x, y, Fraction(0), "exact", len(samples))

    # no exact interpolant: the exact Chebyshev fit, signs frozen from the
    # best candidate.  With a_i = s_i (m_i, n_i), LP duality puts the least
    # eps with every |a_i . u - tau_i| <= eps at the largest |lam . tau| /
    # |lam|_1 over triples, lam = (det(a2, a3), det(a3, a1), det(a1, a2));
    # the fit is the lex-least feasible meet of lines a_i . u = tau_i +- eps.
    x0, y0, _ = best
    rows = [(m, n, tau) if m * x0 + n * y0 >= 0 else (-m, -n, tau)
            for (m, n), tau in samples]
    eps = Fraction(0)
    for (m1, n1, t1), (m2, n2, t2), (m3, n3, t3) in itertools.combinations(rows, 3):
        lam = (m2 * n3 - m3 * n2, m3 * n1 - m1 * n3, m1 * n2 - m2 * n1)
        if any(lam):
            eps = max(eps, abs(lam[0] * t1 + lam[1] * t2 + lam[2] * t3)
                      / sum(map(abs, lam)))
    vertices = []
    for (m1, n1, t1), (m2, n2, t2) in itertools.combinations(rows, 2):
        det = m1 * n2 - m2 * n1
        if det == 0:
            continue
        for c1, c2 in itertools.product((t1 - eps, t1 + eps), (t2 - eps, t2 + eps)):
            x, y = (c1 * n2 - c2 * n1) / det, (m1 * c2 - m2 * c1) / det
            if all(abs(m * x + n * y - t) <= eps for m, n, t in rows):
                vertices.append((x, y))
    x, y = min(vertices)
    r = _residual(samples, x, y)
    x, y = _canonical_sign(x, y)
    return FitResult(x, y, r, "chebyshev", len(samples))


# ---------------------------------------------------------------------------
# seminorm audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeminormAudit:
    homogeneity_violations: Tuple[tuple, ...]   # (g, h, k, expected, got)
    subadditivity_violations: Tuple[tuple, ...]  # (g, h, sum, tau_g, tau_h, tau_sum)
    checked_homogeneity: int
    checked_subadditivity: int
    passed: bool


def seminorm_audit(samples) -> SeminormAudit:
    """Check the sampled translation lengths against the seminorm axioms on
    every applicable pair: tau(k g) = |k| tau(g) whenever both g and kg are
    sampled, and tau(g + h) <= tau(g) + tau(h) whenever all three are."""
    samples = parse_samples(samples)
    table: Dict[Tuple[int, int], Fraction] = {}
    for v, tau in samples:
        if table.setdefault(v, tau) != tau:
            raise FormatError(f"conflicting samples at {v}: {table[v]} vs {tau}")
    keys = sorted(table)
    homog = []
    n_h = 0
    for g in keys:
        for h in keys:
            if g == h or g == (0, 0):
                continue
            # h = k g for an integer k?
            k = None
            if g[0] != 0 and h[0] % g[0] == 0:
                k = h[0] // g[0]
            elif g[0] == 0 and h[0] == 0 and g[1] != 0 and h[1] % g[1] == 0:
                k = h[1] // g[1]
            if k is None or (h[0], h[1]) != (k * g[0], k * g[1]):
                continue
            n_h += 1
            expected = abs(k) * table[g]
            if table[h] != expected:
                homog.append((g, h, k, expected, table[h]))
    subadd = []
    n_s = 0
    for g, h in itertools.combinations_with_replacement(keys, 2):
        s = (g[0] + h[0], g[1] + h[1])
        if s not in table:
            continue
        n_s += 1
        if table[s] > table[g] + table[h]:
            subadd.append((g, h, s, table[g], table[h], table[s]))
    return SeminormAudit(tuple(homog), tuple(subadd), n_h, n_s,
                         not homog and not subadd)
