"""Finite graphs as geodesic metric spaces.

A MetricGraph is a finite connected simple graph with its shortest-path
metric on demand: rows(sources) runs BFS from a few vertices, and dist, the
full integer matrix, is built on first use and cached.  On top of that sit
the two workhorse scans (four-point hyperbolicity, bottleneck constant),
which need all pairs, geodesic enumeration, and the ends profile of a
truncation with an explicit boundary set.

Conventions used by every scan in this module:

* index order is id order: a MetricGraph sorts its vertex ids once when it
  is built, so vertex i is the i-th id in lexicographic order, whatever
  order the ids came in;
* scan order, witnesses and tie-breaks therefore follow lexicographic order
  on vertex ids, never insertion order;
* hyperbolicity delta is stored exactly as the numerator of 2*delta;
* balls B(z, c) are closed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .errors import (
    CenterNotFound,
    DisconnectedGraph,
    EmptyGraph,
    FormatError,
    NotATree,
    RadiusTooLarge,
    SizeLimitExceeded,
    VertexNotFound,
)

DELTA_DEFAULT_CAP = 200
BOTTLENECK_DEFAULT_CAP = 500
GEODESIC_DEFAULT_CAP = 10000


def resolve_cap(cap: Optional[int], default: int) -> int:
    """Explicit argument beats QTLAB_MAX_VERTICES beats the built-in default.
    A QTLAB_MAX_VERTICES that is not a non-negative integer is a FormatError."""
    if cap is not None:
        return int(cap)
    env = os.environ.get("QTLAB_MAX_VERTICES")
    if env:
        try:
            value = int(env)
        except ValueError:
            value = -1
        if value < 0:
            raise FormatError(
                f"QTLAB_MAX_VERTICES must be a non-negative integer, got {env!r}")
        return value
    return default


class MetricGraph:
    """Finite simple graph with BFS distances on demand.

    Vertex ids are strings, stored sorted: vertex_ids[i] is the id of index i
    and the i-th smallest id.  The ids may come in any order; edges, a (k, 2)
    integer array, and boundary hold positions into vertex_ids as given
    (graph_from_ids takes ids instead).  Edges are unordered pairs; loops and
    duplicate edges are rejected.  Unless allow_disconnected is set, the
    graph must be connected; distances between components are -1.

    Building a graph computes its components only.  rows(sources) gives the
    BFS rows of a few vertices; dist, the full read-only int32 matrix, is
    built on first use and cached, and rows() reads from it once it exists.
    """

    def __init__(self, vertex_ids, edges, boundary=(), allow_disconnected=False):
        given = list(vertex_ids)
        n = len(given)
        if not n:
            raise EmptyGraph("graph has no vertices")
        self.vertex_ids = ids = tuple(sorted(given))
        self._index = {v: i for i, v in enumerate(ids)}
        if len(self._index) != n:
            raise FormatError("duplicate vertex ids")
        ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        bpos = np.asarray(boundary, dtype=np.int64).reshape(-1)
        for pos in (ends, bpos):
            if pos.size and (pos.min() < 0 or pos.max() >= n):
                raise VertexNotFound(f"edge or boundary position outside range({n})")
        # rank[position] = index
        rank = np.fromiter(map(self._index.__getitem__, given), dtype=np.int64, count=n)
        a, b = rank[ends].T
        self.boundary = tuple(ids[i] for i in rank[bpos].tolist())

        lo, hi = np.minimum(a, b), np.maximum(a, b)
        if (lo == hi).any():
            raise FormatError(f"self-loop at {ids[lo[np.argmax(lo == hi)]]!r}")
        # CSR adjacency with each neighbor list sorted by index (= by id), so
        # BFS layers come out deterministic: the ordered adjacent pairs as
        # keys i * n + j, sorted, are the CSR entries in order
        keys = lo * n + hi
        sorted_keys = np.sort(np.concatenate((keys, hi * n + lo)))
        # two equal sorted keys are a repeated edge; a stable sort of the
        # edge keys names the first one listed, the first position not first
        # among equal keys
        if (sorted_keys[1:] == sorted_keys[:-1]).any():
            by_key = np.argsort(keys, kind="stable")
            k = by_key[np.flatnonzero(np.diff(keys[by_key]) == 0) + 1].min()
            raise FormatError(f"duplicate edge {ids[a[k]]!r} - {ids[b[k]]!r}")
        self._keys = sorted_keys
        src, dst = np.divmod(self._keys, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        self._indptr = indptr
        self._indices = dst.astype(np.int32)
        self._entry_rows = src     # the row of each CSR entry

        self._component = _kernels.level_components(indptr, self._indices,
                                                     np.ones(n, dtype=bool))
        self.connected = bool((self._component == self._component[0]).all())
        if not self.connected and not allow_disconnected:
            raise DisconnectedGraph(*_disconnected_pair(self))
        self._dist = None
        self._tree = None

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertex_ids)

    @property
    def n_edges(self) -> int:
        return len(self._indices) // 2

    def index(self, v: str) -> int:
        return int(_lookup(self._index, (v,), "no vertex {!r}")[0])

    def checked_index(self, v, what: str) -> int:
        """index(v), and a FormatError naming what if v is not a string."""
        if not isinstance(v, str):
            raise FormatError(f"{what} must be a vertex id string, got {v!r}")
        return self.index(v)

    def indices(self, ids) -> np.ndarray:
        """Index array of the given vertex ids."""
        return _lookup(self._index, ids, "no vertex {!r}")

    def has_vertex(self, v: str) -> bool:
        return v in self._index

    @property
    def dist(self) -> np.ndarray:
        """All-pairs distance matrix (int32, -1 if unreachable), built by
        all-pairs BFS on first use."""
        if self._dist is None:
            dist = _kernels.apsp(self._indptr, self._indices, self.n)
            dist.setflags(write=False)
            self._dist = dist
        return self._dist

    def rows(self, sources) -> np.ndarray:
        """Distance rows of the given source indices, an int32 array of shape
        (len(sources), n) with -1 where unreachable; BFS from each source
        unless dist is already built."""
        sources = np.asarray(sources, dtype=np.int64).reshape(-1)
        if self._dist is not None:
            return self._dist[sources]
        return _kernels.rows(self._indptr, self._indices, self.n, sources)

    def d(self, u: str, v: str) -> int:
        """Shortest-path distance between two vertex ids (-1 if unreachable),
        from the BFS row of u unless dist is already built."""
        return int(self.rows([self.index(u)])[0, self.index(v)])

    def tree_distances(self, u, v) -> np.ndarray:
        """d(u[k], v[k]) for index arrays u and v on a tree (NotATree
        otherwise), without dist: depths are one BFS row from index 0, and
        each pair climbs parent links to its common ancestor."""
        if not self.is_tree():
            raise NotATree("tree distances need a tree")
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if self._tree is None:
            depth = self.rows([0])[0].astype(np.int64)
            src = self._entry_rows
            up = depth[self._indices] == depth[src] - 1
            parent = np.zeros(self.n, dtype=np.int64)
            parent[src[up]] = self._indices[up]
            self._tree = depth, parent
        depth, parent = self._tree
        # the deeper end of each pair that is still apart climbs, both ends
        # when they are level, until every pair meets at its common ancestor
        a, b = u, v
        while True:
            apart = a != b
            if not apart.any():
                break
            da, db = depth[a], depth[b]
            a, b = (np.where(apart & (da >= db), parent[a], a),
                    np.where(apart & (db >= da), parent[b], b))
        return depth[u] + depth[v] - 2 * depth[a]

    def adjacent(self, u, v) -> np.ndarray:
        """Elementwise adjacency of the index arrays u and v."""
        q = np.asarray(u, dtype=np.int64) * self.n + np.asarray(v, dtype=np.int64)
        keys = self._keys
        if not len(keys):
            return np.zeros(q.shape, dtype=bool)
        k = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
        return keys[k] == q

    def diameter(self) -> int:
        """Largest distance; on a tree, exact from a double sweep (the row of
        index 0, then the row of its farthest index), without dist."""
        if self.is_tree():
            far = int(np.argmax(self.rows([0])[0]))
            return int(self.rows([far])[0].max())
        return int(self.dist.max())

    def neighbors(self, v: str):
        i = self.index(v)
        return tuple(self.vertex_ids[j] for j in self._indices[self._indptr[i]:self._indptr[i + 1]])

    def neighbor_indices(self, i: int):
        return self._indices[self._indptr[i]:self._indptr[i + 1]]

    def degree(self, v: str) -> int:
        i = self.index(v)
        return int(self._indptr[i + 1] - self._indptr[i])

    def edge_array(self) -> np.ndarray:
        """Edges as a (k, 2) index array with i < j in each row, rows in
        lexicographic order."""
        up = self._entry_rows < self._indices
        return np.stack((self._entry_rows[up], self._indices[up].astype(np.int64)), axis=1)

    def has_edge(self, u: str, v: str) -> bool:
        return bool(self.adjacent(self.index(u), self.index(v)))

    def is_tree(self) -> bool:
        return self.connected and self.n_edges == self.n - 1

    def __repr__(self):
        return f"MetricGraph({self.n} vertices, {self.n_edges} edges)"


def graph_from_ids(vertex_ids, edges, boundary=(), allow_disconnected=False) -> MetricGraph:
    """MetricGraph from edges (id pairs) and boundary given as vertex ids.
    The endpoints are looked up in one pass over the flattened pairs."""
    ids = list(vertex_ids)
    pos = {v: k for k, v in enumerate(ids)}
    ends = _lookup(pos, chain.from_iterable(edges), "edge endpoint {!r} is not a vertex")
    return MetricGraph(ids, ends, boundary=_lookup(pos, boundary, "boundary vertex {!r} is not a vertex"),
                       allow_disconnected=allow_disconnected)


def _lookup(pos: dict, ids, message: str) -> np.ndarray:
    """pos[v] for each v in ids as an int64 array; VertexNotFound naming the
    first one missing."""
    try:
        return np.fromiter(map(pos.__getitem__, ids), dtype=np.int64)
    except KeyError as exc:
        raise VertexNotFound(message.format(exc.args[0])) from None


# ---------------------------------------------------------------------------
# hyperbolicity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperbolicityReport:
    """Exact four-point hyperbolicity constant of a finite graph.

    two_delta holds 2*delta as an integer; witness is the first ordered
    quadruple (x, y, z, w) in id-lexicographic order whose defect

        min((x.z)_w, (z.y)_w) - (x.y)_w

    attains delta.
    """

    two_delta: int
    witness: tuple
    n_vertices: int

    @property
    def delta(self) -> Fraction:
        return Fraction(self.two_delta, 2)


def hyperbolicity_delta(g: MetricGraph, max_vertices: Optional[int] = None) -> HyperbolicityReport:
    """Trees (2*delta = 0, witness (ids[0],) * 4) are answered without a
    scan, so the size cap applies to other graphs only."""
    cap = resolve_cap(max_vertices, DELTA_DEFAULT_CAP)
    ids = g.vertex_ids
    if g.is_tree():
        return HyperbolicityReport(0, (ids[0],) * 4, g.n)
    if g.n > cap:
        raise SizeLimitExceeded(g.n, cap, "hyperbolicity_delta")
    if not g.connected:
        raise DisconnectedGraph(*_disconnected_pair(g))
    two_delta, x, y, z, w = _kernels.delta_scan(g.dist)
    witness = (ids[x], ids[y], ids[z], ids[w])
    return HyperbolicityReport(int(two_delta), witness, g.n)


def four_point_defect2(g: MetricGraph, x: str, y: str, z: str, w: str) -> int:
    """2 * (min((x.z)_w, (z.y)_w) - (x.y)_w); recomputes a witness defect."""
    D = g.dist
    xi, yi, zi, wi = (g.index(v) for v in (x, y, z, w))
    s1 = int(D[xi, yi]) + int(D[zi, wi])
    s2 = int(D[xi, zi]) + int(D[yi, wi])
    s3 = int(D[xi, wi]) + int(D[yi, zi])
    return s1 - max(s2, s3)


def _disconnected_pair(g: MetricGraph):
    """Index 0 and the first index not reachable from it."""
    j = int(np.nonzero(g._component != g._component[0])[0][0])
    return g.vertex_ids[0], g.vertex_ids[j]


# ---------------------------------------------------------------------------
# bottleneck constant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BottleneckWitness:
    x: str
    y: str
    z: str
    avoiding_path: tuple  # x..y path missing B(z, constant - 1)


@dataclass(frozen=True)
class BottleneckReport:
    """Least C such that for every pair (x, y) and every z lying on a
    geodesic between them, deleting the closed ball B(z, C) disconnects x
    from y or swallows one of them.  witness is None iff constant == 0;
    otherwise avoiding_path shows that constant - 1 fails.
    """

    constant: int
    witness: Optional[BottleneckWitness]
    n_vertices: int


def bottleneck_constant(g: MetricGraph, max_vertices: Optional[int] = None) -> BottleneckReport:
    """Trees (C = 0) are answered without a scan, so the size cap applies
    to other graphs only."""
    cap = resolve_cap(max_vertices, BOTTLENECK_DEFAULT_CAP)
    n = g.n
    if g.is_tree():
        return BottleneckReport(0, None, n)
    if n > cap:
        raise SizeLimitExceeded(n, cap, "bottleneck_constant")
    if not g.connected:
        raise DisconnectedGraph(*_disconnected_pair(g))
    D, indptr, indices = g.dist, g._indptr, g._indices
    ecc = D.max(axis=1)
    c_hi = np.minimum(ecc - 1, int(ecc.max()) // 2)
    best = 0
    wit = None
    # the centers after the last raise that can still raise C, filtered
    # again at each raise; a center the filter drops would return -1
    start = 0
    while start < n:
        centers = np.flatnonzero(c_hi[start:] >= best) + start
        start = n
        for z in _kernels.bottleneck_centers(D, centers, best).tolist():
            t, x, y = _kernels.bottleneck_center(D, indptr, indices, z, best, int(c_hi[z]))
            if t > best:
                best = int(t)
                wit = (int(x), int(y), z)
                start = z + 1
                break
    if best == 0:
        return BottleneckReport(0, None, n)
    x, y, z = wit
    path = _avoiding_path(D, indptr, indices, x, y, z, best - 1)
    ids = g.vertex_ids
    witness = BottleneckWitness(ids[x], ids[y], ids[z], tuple(ids[v] for v in path))
    return BottleneckReport(best, witness, n)


def _avoiding_path(D, indptr, indices, x, y, z, radius):
    """BFS path x..y through vertices with d(z, .) > radius (must exist)."""
    n = D.shape[0]
    r = D[z]
    prev = np.full(n, -1, dtype=np.int64)
    prev[x] = x
    queue = [x]
    while queue:
        nxt = []
        for u in queue:
            if u == y:
                queue = []
                break
            for v in indices[indptr[u]:indptr[u + 1]]:
                v = int(v)
                if prev[v] < 0 and r[v] > radius:
                    prev[v] = u
                    nxt.append(v)
        else:
            queue = nxt
            continue
        break
    assert prev[y] >= 0, "witness path must exist at constant - 1"
    path = [y]
    while path[-1] != x:
        path.append(int(prev[path[-1]]))
    path.reverse()
    return path


@dataclass(frozen=True)
class QuasitreeResult:
    passed: bool
    c_max: int
    report: BottleneckReport


def is_quasitree(g: MetricGraph, c_max: int, max_vertices: Optional[int] = None) -> QuasitreeResult:
    """Bottleneck test: passes iff the exact constant is <= c_max."""
    report = bottleneck_constant(g, max_vertices=max_vertices)
    return QuasitreeResult(report.constant <= c_max, c_max, report)


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicsResult:
    sequences: tuple  # tuple of vertex-id tuples, lexicographic order
    overflow: bool    # True when the cap cut off the enumeration

    @property
    def count(self) -> int:
        return len(self.sequences)


def _geodesic_paths(g: MetricGraph, u: str, v: str, cap: int):
    """The index paths of enumerate_geodesics as the rows of an array, in
    the same order, and whether the cap cut them off."""
    ui, vi = g.index(u), g.index(v)
    target = g.rows([vi])[0]
    if target[ui] < 0:
        raise DisconnectedGraph(u, v)
    out, stack = [], [[ui]]
    while stack and len(out) <= cap:
        path = stack.pop()
        if path[-1] == vi:
            out.append(path)
        else:
            # neighbors come in id order; push in reverse so the smallest pops first
            nbrs = g.neighbor_indices(path[-1])
            closer = nbrs[target[nbrs] == target[path[-1]] - 1]
            stack.extend(path + [w] for w in closer[::-1].tolist())
    kept = out[:cap]
    return np.array(kept, dtype=np.int64).reshape(len(kept), int(target[ui]) + 1), len(out) > cap


def enumerate_geodesics(g: MetricGraph, u: str, v: str, cap: int = GEODESIC_DEFAULT_CAP) -> GeodesicsResult:
    """All geodesic vertex sequences from u to v in lexicographic id order.

    Walks the shortest-path DAG depth-first with neighbors in id order, so
    output order is the lexicographic order on sequences.  Stops after cap
    sequences and flags overflow.
    """
    paths, overflow = _geodesic_paths(g, u, v, cap)
    return GeodesicsResult(tuple(tuple(g.vertex_ids[i] for i in path) for path in paths.tolist()),
                           overflow)


# ---------------------------------------------------------------------------
# ends profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EndsProfile:
    """Component counts of g minus B(center, radius), restricted to
    components containing at least one designated boundary vertex."""

    center: str
    radius: int
    component_count: int
    counts_by_radius: tuple  # counts at radii 0..radius


def ends_profile(g: MetricGraph, center: str, radius: int, boundary: Optional[Sequence[str]] = None) -> EndsProfile:
    if not g.has_vertex(center):
        raise CenterNotFound(f"no vertex {center!r}")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if boundary is None:
        boundary = g.boundary
    bset = set(_lookup(g._index, boundary, "boundary vertex {!r} is not a vertex"))
    ci = g.index(center)
    ball = g.rows([ci])[0]
    if bset and all(ball[b] <= radius for b in bset):
        raise RadiusTooLarge(
            f"B({center!r}, {radius}) swallows every boundary vertex; profile uninformative"
        )
    counts = []
    for rad in range(radius + 1):
        counts.append(_boundary_components(g, ball, rad, bset))
    return EndsProfile(center, radius, counts[-1], tuple(counts))


def _boundary_components(g: MetricGraph, ball, rad, bset) -> int:
    alive = ball > rad
    labels = _kernels.level_components(g._indptr, g._indices, alive)
    return len({int(labels[b]) for b in bset if alive[b]})
