"""Products of metric graphs: l1/l2/linf distances, the l1 1-skeleton,
geodesic uniqueness, factor-preserving isometries, componentwise actions and
orbit-map distortion profiles.

Inside this module a product point is its grid position: the row-major
position of its tuple of factor indices, which is its place in points().
Tuples of vertex ids appear only where points come in (check_point, the map
given to a ProductIsometry) and in reports.  JSON point ids exist only as
skeleton vertex ids and in reports: '["0","2"]' is the point (0, 2), which
keeps ids unambiguous even when factor ids contain commas.

l2 is handled through exact squared distances only.  l2 geodesics cut
corners off the 1-skeleton, so nothing here enumerates them; l1 is the norm
with combinatorial content.
"""

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (DimensionMismatch, FactorMismatch, FormatError,
                     NormMismatch, SizeLimitExceeded)
from .metric_graph import MetricGraph, _geodesic_paths, resolve_cap
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
    def shape(self) -> Tuple[int, ...]:
        return tuple(f.n for f in self.factors)

    @property
    def n_points(self) -> int:
        return math.prod(self.shape)

    def check_point(self, x: Sequence[str]) -> Tuple[str, ...]:
        x = tuple(x)
        self._position(x)
        return x

    def _position(self, x: Sequence[str]) -> int:
        """Grid position of the point x, refusing what check_point refuses."""
        x = tuple(x)
        if not all(isinstance(c, str) for c in x):
            raise FormatError(f"point coordinates must be vertex id strings, got {x!r}")
        if len(x) != len(self.factors):
            raise DimensionMismatch(
                f"point has {len(x)} coordinates, product has {len(self.factors)}")
        return int(np.ravel_multi_index([f.index(c) for f, c in zip(self.factors, x)], self.shape))

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
    """Array of shape (n_1, ..., n_k): the grid position of each tuple of factor indices."""
    return np.arange(p.n_points).reshape(p.shape)


def _point_at(p: ProductSpace, pos) -> Tuple[str, ...]:
    """The vertex-id tuple of the point at grid position pos."""
    return tuple(f.vertex_ids[c] for f, c in zip(p.factors, np.unravel_index(pos, p.shape)))


def _check_size(p: ProductSpace, default: int, what: str):
    cap = resolve_cap(None, default)
    if p.n_points > cap:
        raise SizeLimitExceeded(p.n_points, cap, what)


def _skeleton_rank(p: ProductSpace) -> np.ndarray:
    """Skeleton index of each grid position.  A point id joins the JSON
    encodings of its coordinates, and no JSON string is a prefix of another,
    so point ids sort as the tuples of the ranks of those encodings."""
    ranks = [np.argsort(np.argsort([json.dumps(v) for v in f.vertex_ids])) for f in p.factors]
    return _point_grid(p)[np.ix_(*ranks)].ravel()


def _coordinate_moves(grid: np.ndarray, i: int, src: np.ndarray, dst: np.ndarray):
    """Positions (a, b) of the point pairs that differ in coordinate i
    only, moving it from src[t] to dst[t]."""
    g = np.moveaxis(grid, i, -1)
    return g[..., src].ravel(), g[..., dst].ravel()


def product_skeleton(p: ProductSpace) -> MetricGraph:
    """1-skeleton of the product: move along one factor edge at a time.
    BFS distance in it is the l1 product distance."""
    _check_size(p, SKELETON_DEFAULT_CAP, "product_skeleton")
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
    paths, overflow = _geodesic_paths(skeleton, point_id(x), point_id(y), cap)
    paths = np.argsort(_skeleton_rank(p))[paths]           # grid positions along each path
    differing = tuple(i for i, (a, b) in enumerate(zip(x, y)) if a != b)

    witness = None
    if len(differing) <= 1:
        # per coordinate and path: does the path leave x's value, the moving coordinate aside
        walks = np.array(np.unravel_index(paths, p.shape))
        strays = (walks != walks[:, :, :1]).any(axis=2)
        strays[list(differing)] = False
        bad = np.flatnonzero(strays.any(axis=0))
        witness = tuple(_point_at(p, a) for a in paths[bad[0]]) if len(bad) else None
    passed = witness is None if len(differing) <= 1 else len(paths) >= 2
    examples = [tuple(_point_at(p, a) for a in path) for path in paths[:2]]
    return GeodesicUniquenessReport(x, y, differing, len(paths), passed, examples, witness, overflow)


# ---------------------------------------------------------------------------
# isometries given extensionally
# ---------------------------------------------------------------------------


def _distances(p: ProductSpace, pos: np.ndarray) -> np.ndarray:
    """Product distance matrix (squared for l2) of the points at positions pos."""
    out = 0
    for f, c in zip(p.factors, np.unravel_index(pos, p.shape)):
        d = f.dist[np.ix_(c, c)].astype(np.int64)
        out = np.maximum(out, d) if p.norm == "linf" else out + (d * d if p.norm == "l2" else d)
    return out


class ProductIsometry:
    """A vertex bijection of a product space, verified distance-preserving
    for the chosen norm on every pair at construction time.  image[a] is the
    grid position of the image of grid position a."""

    def __init__(self, space: ProductSpace, mapping: Dict[Tuple[str, ...], Tuple[str, ...]]):
        _check_size(space, 2000, "ProductIsometry")
        src, dst = np.array([(space._position(k), space._position(v)) for k, v in mapping.items()],
                            dtype=np.int64).reshape(-1, 2).T
        if np.unique(src).size != space.n_points:
            raise FormatError("mapping domain is not the full product vertex set")
        if np.unique(dst).size != space.n_points:
            raise FormatError("mapping is not a bijection of product vertices")
        self._verify(space, dst[np.argsort(src)])     # src is a permutation of the positions

    def _verify(self, space: ProductSpace, image: np.ndarray) -> "ProductIsometry":
        """Compare the full distance matrix with its image, then keep image."""
        src, dst = _distances(space, np.arange(space.n_points)), _distances(space, image)
        bad = np.argwhere(src != dst)
        if len(bad):
            i, j = bad[0]
            raise FormatError(f"not an isometry: d{_point_at(space, i), _point_at(space, j)} = "
                              f"{src[i, j]} but images give {dst[i, j]}")
        self.space, self.image, self.verified = space, image, True
        return self

    def apply(self, x) -> Tuple[str, ...]:
        return _point_at(self.space, self.image[self.space._position(x)])

    def compose(self, other: "ProductIsometry") -> "ProductIsometry":
        """self after other."""
        if other.space is not self.space and other.space.factors != self.space.factors:
            raise FactorMismatch("composition needs isometries of the same product")
        return ProductIsometry.__new__(ProductIsometry)._verify(self.space, self.image[other.image])

    @classmethod
    def identity(cls, space: ProductSpace) -> "ProductIsometry":
        _check_size(space, 2000, "ProductIsometry")
        return cls.__new__(cls)._verify(space, np.arange(space.n_points))


@dataclass
class FactorPreservationReport:
    preserves: bool
    perm: Optional[Tuple[int, ...]]   # perm[i] = coordinate the i-th factor maps onto
    witness: Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]]
    coordinate_maps: Optional[List[Dict[str, str]]]  # per source factor, when well defined


def factor_preservation_check(p: ProductSpace, f: ProductIsometry) -> FactorPreservationReport:
    """Take every skeleton edge (a single-coordinate move) and see which
    coordinates its image moves in.  A factor-preserving isometry moves
    exactly one, always the same one per source factor, inducing a factor
    permutation; otherwise the witness is the first failing move in the order
    of source point, then factor, then target point."""
    k = len(p.factors)
    image = np.array(np.unravel_index(f.image, p.shape))    # factor indices of each image
    moves = []    # every skeleton edge as a move (source, factor, target)
    for i, g in enumerate(p.factors):
        a, b = _coordinate_moves(_point_grid(p), i, *g.edge_array().T)
        moves.append(np.stack((a, np.full(len(a), i), b), axis=1))
    src, factor, dst = np.unique(np.concatenate(moves), axis=0).T     # in walk order
    moved = image[:, src] != image[:, dst]
    onto = moved.argmax(axis=0)
    # the first move of each factor fixes the coordinate it has to map onto
    factors, first = np.unique(factor, return_index=True)
    perm = np.arange(k)
    perm[factors] = onto[first]
    bad = (moved.sum(axis=0) != 1) | (onto != perm[factor])
    if bad.any():
        t = bad.argmax()
        return FactorPreservationReport(False, None, (_point_at(p, src[t]), _point_at(p, dst[t])),
                                        None)
    out = tuple(perm.tolist())
    if sorted(out) != list(range(k)):
        return FactorPreservationReport(False, None, None, None)

    # the coordinate maps: factor i -> factor perm[i], when independent of
    # the remaining coordinates
    maps: List[Optional[Dict[str, str]]] = []
    for i, j in enumerate(out):
        table = np.moveaxis(image[j].reshape(p.shape), i, 0).reshape(p.shape[i], -1)
        onto_ids = np.array(p.factors[j].vertex_ids, dtype=object)[table[:, 0]]
        maps.append(dict(zip(p.factors[i].vertex_ids, onto_ids)) if (table == table[:, :1]).all()
                    else None)
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
    rank = _skeleton_rank(space)
    grid = _point_grid(space)
    gens = []
    for i, a in enumerate(actions):
        for gm in a.generators:
            src, dst = _coordinate_moves(grid, i, *gm.pairs())
            gens.append((f"f{i}_{gm.name}", forward_map(skeleton.n, rank[src], rank[dst])))
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
        gens.append(("perm", forward_map(skeleton.n, rank, rank[image])))
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
    xi = a.space.checked_index(x0, "basepoint")
    drow = a.space.rows([xi])[0]
    best = {}    # word length -> least d(w x0, x0) / n there, and the first word attaining it
    for el in realized_elements(a, N):
        img = int(el.image[xi])
        if el.depth >= 1 and img >= 0:
            val = Fraction(int(drow[img]), el.depth)
            if el.depth not in best or val < best[el.depth][0]:
                best[el.depth] = (val, el.word)
    raw, wits = [], []
    for n in range(1, N + 1):
        val, word = best.get(n, (raw[-1] if raw else Fraction(0), None))
        raw.append(val)
        wits.append(None if word is None else word.display())
    return DistortionProfile(x0, N, raw, list(itertools.accumulate(raw, min)), wits)
