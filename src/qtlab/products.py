"""Products of metric graphs: l1/l2/linf distances, the l1 1-skeleton,
geodesic uniqueness, factor-preserving isometries, componentwise actions and
orbit-map distortion profiles.

Product points are tuples of vertex ids, one per factor.  Where a point has
to become a graph vertex id (in the skeleton) it is serialized as a JSON
list, so '["0","2"]' is the point (0, 2); that keeps ids unambiguous even
when factor ids contain commas.

l2 is handled through exact squared distances only.  l2 geodesics cut
corners off the 1-skeleton, so nothing here enumerates them; l1 is the norm
with combinatorial content.
"""

import itertools
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (DimensionMismatch, FactorMismatch, FormatError,
                     NormMismatch, SizeLimitExceeded)
from .metric_graph import MetricGraph, enumerate_geodesics, resolve_cap
from .group_action import GroupAction, forward_map, realized_elements

NORMS = ("l1", "l2", "linf")
SKELETON_DEFAULT_CAP = 20000


def point_id(coords: Sequence[str]) -> str:
    return json.dumps(list(coords), separators=(",", ":"))


def point_of(vid: str) -> Tuple[str, ...]:
    return tuple(json.loads(vid))


class ProductSpace:
    """A finite product of metric graphs with a chosen norm."""

    def __init__(self, factors: Sequence[MetricGraph], norm: str = "l1"):
        self.factors = tuple(factors)
        if not self.factors:
            raise FormatError("product needs at least one factor")
        if norm not in NORMS:
            raise FormatError(f"norm must be one of {NORMS}, got {norm!r}")
        self.norm = norm

    @property
    def n_points(self) -> int:
        out = 1
        for f in self.factors:
            out *= f.n
        return out

    def check_point(self, x: Sequence[str]) -> Tuple[str, ...]:
        x = tuple(x)
        if not all(isinstance(c, str) for c in x):
            raise FormatError(f"point coordinates must be vertex id strings, got {x!r}")
        if len(x) != len(self.factors):
            raise DimensionMismatch(
                f"point has {len(x)} coordinates, product has {len(self.factors)}")
        for c, f in zip(x, self.factors):
            f.index(c)
        return x

    def factor_distances(self, x, y) -> Tuple[int, ...]:
        x, y = self.check_point(x), self.check_point(y)
        return tuple(f.d(a, b) for f, a, b in zip(self.factors, x, y))

    def points(self) -> List[Tuple[str, ...]]:
        return list(itertools.product(*(f.vertex_ids for f in self.factors)))


@dataclass(frozen=True)
class ProductDistance:
    norm: str
    exact: Optional[int]       # l1 / linf value; None for l2
    squared: Optional[int]     # exact squared value; l2 only
    approx: float

    def __float__(self):
        return self.approx


def product_distance(p: ProductSpace, x, y) -> ProductDistance:
    ds = p.factor_distances(x, y)
    if p.norm == "l1":
        s = sum(ds)
        return ProductDistance("l1", s, None, float(s))
    if p.norm == "linf":
        m = max(ds)
        return ProductDistance("linf", m, None, float(m))
    sq = sum(d * d for d in ds)
    return ProductDistance("l2", None, sq, math.sqrt(sq))


def _point_ids(p: ProductSpace) -> List[str]:
    """point_id of every point, in points() order: each factor vertex is
    encoded once, and a point's id joins its coordinates' encodings."""
    enc = [[json.dumps(v) for v in f.vertex_ids] for f in p.factors]
    return ["[" + ",".join(x) + "]" for x in itertools.product(*enc)]


def _point_grid(p: ProductSpace) -> np.ndarray:
    """Array of shape (n_1, ..., n_k): the points() position of each tuple
    of factor indices."""
    return np.arange(p.n_points).reshape([f.n for f in p.factors])


def _coordinate_moves(grid: np.ndarray, i: int, src: np.ndarray, dst: np.ndarray):
    """Positions (a, b) of the point pairs that differ in coordinate i
    only, moving it from src[t] to dst[t]."""
    g = np.moveaxis(grid, i, -1)
    return g[..., src].ravel(), g[..., dst].ravel()


def product_skeleton(p: ProductSpace) -> MetricGraph:
    """1-skeleton of the product: move along one factor edge at a time.
    BFS distance in it is the l1 product distance."""
    cap = resolve_cap(None, SKELETON_DEFAULT_CAP)
    if p.n_points > cap:
        raise SizeLimitExceeded(p.n_points, cap, "product_skeleton")
    grid = _point_grid(p)
    edges = [np.stack(_coordinate_moves(grid, i, *f.edge_array().T), axis=1)
             for i, f in enumerate(p.factors)]
    # the points with some coordinate on its factor's boundary, in order
    boundary = np.unique(np.concatenate([np.moveaxis(grid, i, -1)[..., f.indices(f.boundary)].ravel()
                                         for i, f in enumerate(p.factors)]))
    return MetricGraph(_point_ids(p), np.concatenate(edges), boundary=boundary)


@dataclass
class GeodesicUniquenessReport:
    x: Tuple[str, ...]
    y: Tuple[str, ...]
    differing: Tuple[int, ...]   # coordinates where x and y differ
    count: int                   # number of skeleton geodesics found
    passed: bool
    examples: List[Tuple[Tuple[str, ...], ...]]
    witness: Optional[Tuple[Tuple[str, ...], ...]]  # geodesic violating the claim
    overflow: bool


def l1_geodesic_uniqueness(p: ProductSpace, x, y,
                           skeleton: Optional[MetricGraph] = None,
                           cap: int = 10000) -> GeodesicUniquenessReport:
    """For endpoints differing in one coordinate: every skeleton geodesic
    must stay put in all other coordinates.  For endpoints differing in two
    or more: at least two distinct geodesics must show up (the coordinate
    moves can be interleaved)."""
    if p.norm != "l1":
        raise NormMismatch(f"geodesic analysis needs the l1 norm, space has {p.norm!r}")
    x, y = p.check_point(x), p.check_point(y)
    if skeleton is None:
        skeleton = product_skeleton(p)
    res = enumerate_geodesics(skeleton, point_id(x), point_id(y), cap=cap)
    paths = [tuple(point_of(v) for v in seq) for seq in res.sequences]
    differing = tuple(i for i, (a, b) in enumerate(zip(x, y)) if a != b)

    witness = None
    if len(differing) <= 1:
        moving = differing[0] if differing else None
        for path in paths:
            for i in range(len(x)):
                if i == moving:
                    continue
                if any(pt[i] != x[i] for pt in path):
                    witness = path
                    break
            if witness:
                break
        passed = witness is None
    else:
        passed = len(paths) >= 2
    return GeodesicUniquenessReport(
        x, y, differing, len(paths), passed, paths[:2], witness, res.overflow)


# ---------------------------------------------------------------------------
# isometries given extensionally
# ---------------------------------------------------------------------------


class ProductIsometry:
    """A vertex bijection of a product space, verified distance-preserving
    for the chosen norm on every pair at construction time."""

    def __init__(self, space: ProductSpace, mapping: Dict[Tuple[str, ...], Tuple[str, ...]]):
        self.space = space
        cap = resolve_cap(None, 2000)
        if space.n_points > cap:
            raise SizeLimitExceeded(space.n_points, cap, "ProductIsometry")
        pts = space.points()
        mapping = {space.check_point(k): space.check_point(v) for k, v in mapping.items()}
        if set(mapping) != set(pts):
            raise FormatError("mapping domain is not the full product vertex set")
        if set(mapping.values()) != set(pts):
            raise FormatError("mapping is not a bijection of product vertices")
        self.mapping = mapping

        # compare the full distance matrix with its image, factor by factor;
        # coordinate fi of pts[k] is the fi-th factor index of position k
        m = len(pts)
        coords = np.indices([f.n for f in space.factors]).reshape(len(space.factors), m)
        src = np.zeros((m, m), dtype=np.int64)
        dst = np.zeros((m, m), dtype=np.int64)
        for fi, f in enumerate(space.factors):
            ax = coords[fi]
            bx = f.indices([mapping[x][fi] for x in pts])
            da = f.dist[np.ix_(ax, ax)].astype(np.int64)
            db = f.dist[np.ix_(bx, bx)].astype(np.int64)
            if space.norm == "l1":
                src += da
                dst += db
            elif space.norm == "l2":
                src += da * da
                dst += db * db
            else:
                src = np.maximum(src, da)
                dst = np.maximum(dst, db)
        bad = np.argwhere(src != dst)
        if len(bad):
            i, j = bad[0]
            raise FormatError(
                f"not an isometry: d{pts[i], pts[j]} = {src[i, j]} but images give {dst[i, j]}")
        self.verified = True

    def apply(self, x) -> Tuple[str, ...]:
        return self.mapping[self.space.check_point(x)]

    def compose(self, other: "ProductIsometry") -> "ProductIsometry":
        """self after other."""
        if other.space is not self.space and other.space.factors != self.space.factors:
            raise FactorMismatch("composition needs isometries of the same product")
        return ProductIsometry(
            self.space, {x: self.mapping[y] for x, y in other.mapping.items()})

    @classmethod
    def identity(cls, space: ProductSpace) -> "ProductIsometry":
        return cls(space, {x: x for x in space.points()})


@dataclass
class FactorPreservationReport:
    preserves: bool
    perm: Optional[Tuple[int, ...]]   # perm[i] = coordinate the i-th factor maps onto
    witness: Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]]
    coordinate_maps: Optional[List[Dict[str, str]]]  # per source factor, when well defined


def factor_preservation_check(p: ProductSpace, f: ProductIsometry) -> FactorPreservationReport:
    """Walk every skeleton edge (a single-coordinate move) and see which
    coordinates its image moves in.  A factor-preserving isometry moves
    exactly one, always the same one per source factor, inducing a factor
    permutation; the first multi-coordinate or inconsistent image is
    returned as a witness pair."""
    k = len(p.factors)
    perm: List[Optional[int]] = [None] * k
    for x in p.points():
        for i, g in enumerate(p.factors):
            for nb in g.neighbors(x[i]):
                if nb <= x[i]:
                    continue
                y = x[:i] + (nb,) + x[i + 1:]
                fx, fy = f.mapping[x], f.mapping[y]
                moved = tuple(j for j in range(k) if fx[j] != fy[j])
                if len(moved) != 1 or (perm[i] is not None and perm[i] != moved[0]):
                    return FactorPreservationReport(False, None, (x, y), None)
                perm[i] = moved[0]
    out = tuple(j if j is not None else i for i, j in enumerate(perm))
    if sorted(out) != list(range(k)):
        return FactorPreservationReport(False, None, None, None)

    # the coordinate maps: factor i -> factor perm[i], when independent of
    # the remaining coordinates
    maps: Optional[List[Dict[str, str]]] = []
    for i in range(k):
        m: Dict[str, str] = {}
        ok = True
        for x in p.points():
            img = f.mapping[x][out[i]]
            if m.setdefault(x[i], img) != img:
                ok = False
                break
        maps.append(m if ok else None)
    return FactorPreservationReport(True, out, None, maps)


# ---------------------------------------------------------------------------
# componentwise actions and distortion
# ---------------------------------------------------------------------------


@dataclass
class ProductActionResult:
    product: ProductSpace
    skeleton: MetricGraph
    action: GroupAction


def product_action(actions: Sequence[GroupAction],
                   perm: Optional[Sequence[int]] = None) -> ProductActionResult:
    """Componentwise action on the l1 skeleton: generator f{i}_{name} moves
    coordinate i by the i-th action's generator and fixes the rest.  An
    optional coordinate permutation becomes one more generator named
    "perm"; it needs the permuted factors to be identical as labeled
    graphs."""
    if not actions:
        raise FormatError("need at least one action")
    space = ProductSpace([a.space for a in actions], "l1")
    skeleton = product_skeleton(space)
    rank = skeleton.indices(_point_ids(space))     # skeleton index of each position
    grid = _point_grid(space)
    n = skeleton.n
    gens = []
    for i, a in enumerate(actions):
        for gm in a.generators:
            src, dst = _coordinate_moves(grid, i, *gm.pairs())
            gens.append((f"f{i}_{gm.name}", forward_map(n, rank[src], rank[dst])))
    if perm is not None:
        perm = tuple(perm)
        k = len(space.factors)
        if sorted(perm) != list(range(k)):
            raise FormatError(f"{perm!r} is not a permutation of 0..{k - 1}")
        for i, j in enumerate(perm):
            a, b = space.factors[i], space.factors[j]
            if a.vertex_ids != b.vertex_ids or not np.array_equal(a.edge_array(), b.edge_array()):
                raise FactorMismatch(
                    f"perm sends factor {i} to factor {j} but they differ as labeled graphs")
        # coordinate i of x becomes coordinate perm[i] of its image
        image = np.transpose(grid, perm).ravel()
        gens.append(("perm", forward_map(n, rank, rank[image])))
    action = GroupAction(skeleton, gens, mode="automorphism")
    return ProductActionResult(space, skeleton, action)


@dataclass
class DistortionProfile:
    basepoint: str
    horizon: int
    raw: List[Fraction]                  # per word length n = 1..horizon
    envelope: List[Fraction]             # running minimum of raw
    witnesses: List[Optional[str]]       # word attaining raw[n], displayed

    @property
    def final(self) -> Fraction:
        return self.envelope[-1] if self.envelope else Fraction(0)


def distortion_profile(a: GroupAction, x0: str, N: int) -> DistortionProfile:
    """Lower envelope of d(w x0, x0) / n over realized elements first seen
    at word length n.  Bounded away from zero means no distortion showed up
    within the horizon; a profile sinking toward zero exhibits distortion
    and names the witness words.  Depths that realize no new element carry
    the previous value (a trivial action stays at 0: every word acts as the
    identity and moves nothing)."""
    if N < 1:
        raise FormatError("horizon must be >= 1")
    x0 = str(x0)
    xi = a.space.index(x0)
    drow = a.space.rows([xi])[0]
    per_depth = defaultdict(list)
    for el in realized_elements(a, N):
        per_depth[el.depth].append(el)
    raw: List[Fraction] = []
    wits: List[Optional[str]] = []
    last: Optional[Fraction] = None
    for n in range(1, N + 1):
        best = None
        wit = None
        for el in per_depth.get(n, ()):
            img = int(el.image[xi])
            if img < 0:
                continue
            val = Fraction(int(drow[img]), n)
            if best is None or val < best:
                best, wit = val, el.word.display()
        if best is None:
            best, wit = (last if last is not None else Fraction(0)), None
        raw.append(best)
        wits.append(wit)
        last = best
    env = []
    cur = None
    for v in raw:
        cur = v if cur is None else min(cur, v)
        env.append(cur)
    return DistortionProfile(x0, N, raw, env, wits)
