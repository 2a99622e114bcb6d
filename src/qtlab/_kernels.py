"""Hot numeric kernels over integer distance matrices.

BFS from a few sources (rows, bit-parallel: 64 sources to a machine word)
serves most callers; three scans dominate runtime on nontrivial
truncations:

* all-pairs BFS (apsp: rows from every source, the full distance matrix,
  built only for callers that need all pairs),
* the four-point hyperbolicity scan, pruned as Cohen, Coudert & Lancin
  do: far-apart pairs only (after the top level), by decreasing distance
  until the level drops to the best value (defect2 <= min(d(x,y), d(z,w))),
  then a search over all quadruples for the lex-first witness in its
  canonical form x < y, x < z < w,
* the bottleneck scan: one packed-bit filter of the centers
  (bottleneck_centers), then per center left a test-then-bisect over the
  levels d(z, .) > c, each test comparing pairs on one sphere and labelling
  the level set's components (level_components, min-label propagation).

Each kernel has one numpy implementation, with no other dependency;
backend() names it.  Scan order and tie-breaks are fixed and documented per
kernel, and the tests check values and witnesses against the brute-force
oracles.
"""

from __future__ import annotations

import math

import numpy as np


def backend() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# BFS distance rows, bit-parallel
#
# rows() returns an int32 (len(sources), n) array, -1 where unreachable.  It
# runs one BFS for a block of sources at once, each source one bit of a row
# of uint64 words (Akiba, Iwata & Yoshida, SIGMOD 2013), so 64 sources cost
# one word per vertex.  A level ORs the frontier words of each vertex's
# neighbours and keeps the bits not seen yet; those bits are at the level's
# distance, which is ORed into bit-planes of the distances (plane b holds
# bit b of every distance) and read out once at the end.
#
# Every level reduces every CSR row once: O(m) words per level, however
# small the frontier, and a fixed number of numpy calls per level.
#
# A block holds about ROW_BLOCK entries of the result, and a level gathers
# at most ROW_BLOCK bytes, but never fewer than one word of sources.
# apsp() is rows() from every source, the full matrix.
# ---------------------------------------------------------------------------

ROW_BLOCK = 1 << 21


def rows(indptr, indices, n, sources):
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    out = np.empty((len(sources), n), dtype=np.int32)
    if not len(sources):
        return out
    deg = np.diff(indptr)
    step = 64 * max(1, ROW_BLOCK // (64 * n + 8 * len(indices)))
    for start in range(0, len(sources), step):
        _bfs_block(indptr, indices, deg, sources[start:start + step],
                   out[start:start + step])
    return out


def apsp(indptr, indices, n):
    return rows(indptr, indices, n, np.arange(n))


def _bfs_block(indptr, indices, deg, src, out):
    """Fill out, a (len(src), n) int32 block, with the BFS rows of src."""
    n, k = len(deg), len(src)
    words = (k + 63) // 64
    j = np.arange(k)
    F = np.zeros((n, words), dtype=np.uint64)
    np.bitwise_or.at(F, (src, j // 64), np.left_shift(np.uint64(1), (j % 64).astype(np.uint64)))
    unseen = ~F
    if k % 64:
        unseen[:, -1] &= np.uint64((1 << (k % 64)) - 1)
    nz = np.flatnonzero(deg)
    starts = indptr[nz]
    planes = []
    d = 0
    while True:
        d += 1
        # reduceat over the rows with neighbours only, since an empty
        # segment would yield its next entry instead of 0
        if len(nz) < n:
            new = np.zeros((n, words), dtype=np.uint64)
            new[nz] = np.bitwise_or.reduceat(F[indices], starts, axis=0)
        else:
            new = np.bitwise_or.reduceat(F[indices], starts, axis=0)
        new &= unseen
        if not new.any():
            break
        unseen ^= new
        F = new
        for b in range(d.bit_length()):
            if b == len(planes):
                planes.append(np.zeros((n, words), dtype=np.uint64))
            if (d >> b) & 1:
                planes[b] |= new
    acc = np.zeros((n, k), dtype=np.uint8 if len(planes) <= 8 else np.int32)
    for b, plane in enumerate(planes):
        acc |= _unpack(plane, k).astype(acc.dtype, copy=False) << b
    out[...] = acc.T
    if unseen.any():
        out[_unpack(unseen, k).T.astype(bool)] = -1


def _unpack(words, k):
    """(n, words) uint64 -> (n, k) uint8 of bits, bit j of a row first."""
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=1,
                         count=k, bitorder="little")


# ---------------------------------------------------------------------------
# four-point hyperbolicity scan (Cohen, Coudert & Lancin pruning, ACM JEA
# 20, 2015)
#
# defect2(x,y,z,w) = d(x,y)+d(z,w) - max(d(x,z)+d(y,w), d(x,w)+d(y,z))
#                  = 2 * (min((x.z)_w, (z.y)_w) - (x.y)_w)
#
# Returns (max defect2, x, y, z, w) for the first maximizing ordered
# quadruple in lexicographic index order.
#
# Bound: defect2 <= min(d(x,y), d(z,w)), since by the triangle inequality
# d(x,z)+d(x,w) >= d(z,w) and d(y,w)+d(y,z) >= d(z,w), so the larger of the
# two other pairing sums is at least d(z,w) (and likewise d(x,y)).
#
# Far-apart pairs (Soto, PhD thesis, Paris Diderot 2011): (x, y) is
# far-apart when no neighbour of x is farther from y and no neighbour of y
# is farther from x.  Some quadruple of two far-apart pairs attains the
# maximum: moving x to a neighbour x' with d(x',y) = d(x,y)+1 raises
# d(x,y)+d(z,w) by 1 and each other pairing sum by at most 1, so defect2
# does not drop; repeat on both pairs until it stops (the sum grows and is
# bounded by twice the diameter).
#
# Phase 1 finds the value.  It visits the far-apart pairs i < j by
# decreasing distance, one distance level at a time, and scores each pair
# of a level against every far-apart pair at that distance or more (the
# level's own pairs as a triangle, below).  Every such quadruple whose
# smaller pair lies at level L is scored there, and it cannot beat L; so
# the scan stops at the first level <= best.  Every pair at the top level
# (the diameter) is far-apart, so the mask is built only when the scan goes
# past that level; cycles and square grids stop there.
#
# Phase 2 finds the witness.  When the value v is 0, (0,0,0,0) is the
# lex-first quadruple attaining it.  When v > 0 the four points are distinct
# (a repeated point makes the defect <= 0), and the defect is unchanged
# under x<->y, z<->w and (x,y)<->(z,w).  The lex-first ordered quadruple at
# v is therefore in the canonical form x < y, x < z < w, with d(x,y) >= v
# and d(z,w) >= v.  Phase 2 scans x upward; for each x it scores the
# candidates y, ascending, against the pairs (z, w), z > x, in lex order,
# and returns the first hit.  It scores all pairs, not only far-apart
# ones: the lex-first witness need not be made of far-apart pairs.
#
# Phase 1 scores each level's own block as a triangle: row block [a, b) of
# the level against the columns [0, b), the levels above and the level's
# rows up to b.  A quadruple of two pairs of one level is scored once, from
# its later pair, and the defect is symmetric under (x,y)<->(z,w), so the
# maximum is the one of the full square.
#
# Both phases score in tiles.  A tile gathers the distance rows of its row
# pairs, then takes their columns at the column pairs; rows x max(cols, n)
# stays about BLOCK entries, so the extra memory of a scan does not grow
# with n^4, and the row gathers count toward it.
# ---------------------------------------------------------------------------

BLOCK = 1 << 14


def _tiles(start, stop, n, cols=None):
    """(row slice, column slice) tiles of the rows [start, stop) of a table,
    each row block [a, b) against the columns [0, cols), or [0, b) when cols
    is None (the triangle).  A tile holds about BLOCK entries of rows x
    max(columns, n), and one row at least; a row of BLOCK columns or more
    is split into column blocks.  Read one after another, each in row-major
    order, the tiles cover the table in row-major order."""
    a = start
    while a < stop:
        if cols is None:
            # the most rows b - a with (b - a) * b <= BLOCK
            step = (math.isqrt(a * a + 4 * BLOCK) - a) // 2
        else:
            step = BLOCK // cols
        b = a + max(1, min(step, BLOCK // n, stop - a))
        width = b if cols is None else cols
        for c in range(0, width, BLOCK):
            yield slice(a, b), slice(c, min(c + BLOCK, width))
        a = b


def _defects(D, xa, ya, da, xb, yb, db):
    """defect2 of (xa[i], ya[i], xb[j], yb[j]) for every i, j; da and db are
    the pair distances, and xa may hold one vertex for every row.  The rows
    D[xa] and D[ya] are gathered once, then their columns at xb and yb."""
    Rx, Ry = D[xa], D[ya]
    s = np.take(Ry, yb, axis=1)
    t = np.take(Ry, xb, axis=1)
    u = np.take(Rx, xb, axis=1)
    s += u
    np.take(Rx, yb, axis=1, out=u)
    t += u
    np.maximum(s, t, out=s)
    np.subtract(db, s, out=s)
    s += da[:, None]
    return s


def delta_scan(D):
    v = _delta_value(D)
    if v == 0:
        return 0, 0, 0, 0, 0
    return (v,) + _lex_first_witness(D, v)


def _far_apart(D):
    """(n, n) bool: (x, y) is far-apart when no neighbour of x is farther
    from y and no neighbour of y is farther from x.  D is connected, n >= 2,
    so every vertex has a neighbour and no reduceat segment is empty.
    top[x, y], the largest d(x', y) over the neighbours x' of x, is one
    maximum.reduceat over the rows of D at the neighbours, taken in blocks
    of vertices that gather about ROW_BLOCK entries each."""
    n = D.shape[0]
    src, nb = np.nonzero(D == 1)
    starts = np.searchsorted(src, np.arange(n + 1))
    step = max(1, ROW_BLOCK // (n * int(np.diff(starts).max())))
    top = np.empty_like(D)
    for a in range(0, n, step):
        s = starts[a:a + step + 1]
        top[a:a + step] = np.maximum.reduceat(D[nb[s[0]:s[-1]]], s[:-1] - s[0], axis=0)
    stay = top <= D
    return stay & stay.T


def _delta_value(D):
    """Phase 1: the largest defect2, by levels of decreasing pair distance,
    over far-apart pairs only once the scan is past the top level."""
    n = D.shape[0]
    iu, ju = np.triu_indices(n, 1)
    d = D[iu, ju]
    order = np.argsort(-d, kind="stable")
    px, py, pd = iu[order], ju[order], d[order]
    best = 0
    start = 0
    pruned = False
    while start < len(pd) and pd[start] > best:
        if start and not pruned:
            # every pair at the top level is far-apart, so it keeps its place
            far = _far_apart(D)[px, py]
            px, py, pd = px[far], py[far], pd[far]
            pruned = True
            continue
        end = int(np.searchsorted(-pd, -pd[start], side="right"))
        for rs, cs in _tiles(start, end, n):
            best = max(best, int(_defects(D, px[rs], py[rs], pd[rs],
                                          px[cs], py[cs], pd[cs]).max()))
        start = end
    return best


def _lex_first_witness(D, v):
    """Phase 2: the lex-first (x, y, z, w) with defect2 v > 0, which has the
    canonical form x < y, x < z < w."""
    n = D.shape[0]
    iu, ju = np.triu_indices(n, 1)
    d = D[iu, ju]
    far = d >= v
    zs, ws, dzw = iu[far], ju[far], d[far]
    for x in range(n):
        ys = np.nonzero(D[x, x + 1:] >= v)[0] + (x + 1)
        k = int(np.searchsorted(zs, x, side="right"))
        z, w, dc = zs[k:], ws[k:], dzw[k:]
        if not len(ys) or not len(z):
            continue
        xs = np.array([x])
        dxy = D[x, ys]
        for rs, cs in _tiles(0, len(ys), n, len(z)):
            hit = _defects(D, xs, ys[rs], dxy[rs], z[cs], w[cs], dc[cs]) >= v
            if hit.any():
                i, j = divmod(int(np.argmax(hit)), hit.shape[1])
                return x, int(ys[rs][i]), int(z[cs][j]), int(w[cs][j])
    raise AssertionError(f"no quadruple attains defect2 {v}")


# ---------------------------------------------------------------------------
# level-set components
# ---------------------------------------------------------------------------

def level_components(indptr, indices, keep):
    """Connected-component labels of the subgraph induced on the vertices
    where the boolean mask keep holds.  Labels of vertices outside keep are
    meaningless (each is its own component); only label equality means
    anything.

    Min-label propagation with pointer jumping: f[u] is a vertex of u's
    component, never above u.  A round lowers f at u's parent f[u] to the
    least f over u's neighbours, then replaces f by f[f] three times.
    Everything only decreases, so a round that changes nothing leaves
    f[f[u]] = f[u] <= f[v] for every kept edge u-v: f is constant on each
    component, and distinct between components."""
    n = len(keep)
    src = np.repeat(np.arange(n), np.diff(indptr))
    live = keep[src] & keep[indices]
    src, dst = src[live], indices[live]
    f = np.arange(n)
    if not len(src):
        return f
    first = np.flatnonzero(np.concatenate(([True], src[1:] != src[:-1])))
    hub = src[first]
    while True:
        low = np.minimum.reduceat(f[dst], first)
        g = f.copy()
        np.minimum.at(g, f[hub], low)
        g = g[g]
        g = g[g]
        g = g[g]
        if (g == f).all():
            return f
        f = g


# ---------------------------------------------------------------------------
# bottleneck scan for one center z
#
# Level c keeps the vertices with d(z, v) > c.  A level is joined when it
# holds a pair (x, y) in one component with d(x,z)+d(z,y) = d(x,y); the top
# joined level c yields the least blocking radius c+1 for that pair, and that
# is the per-center maximum.  Components only split as c grows, so the joined
# levels form an initial segment of [c_lo, c_hi]: test c_lo, return
# (-1, -1, -1) when it is not joined, else bisect for the top joined level
# and take the lex-first pair (x < y) over its whole level set.
#
# Sphere lemma: level c is joined iff it holds such a pair on the sphere
# S(z, c+1).  Slide x and y along their geodesics to z until they reach
# distance c+1; they stay in their component, and the new pair is at
# distance exactly 2(c+1).  So each test compares |S|^2 pairs, not k^2, and
# takes the components only when some pair on S is at distance 2(c+1).
#
# Center filter: bottleneck_centers(D, centers, c) keeps, in order, the
# centers whose sphere S(z, c+1) holds a pair at distance 2(c+1), for all
# of them in one pass.  The spheres and the rows of D == 2(c+1) are packed
# into bits, and a center survives when one of its sphere points x has
# (row of x) AND (sphere of z) nonzero.  A center that fails is one whose
# test at level c fails, so bottleneck_center(D, ..., z, c, c_hi) would
# return (-1, -1, -1); the scan calls it only on the survivors, and filters
# again whenever its running maximum rises.
# ---------------------------------------------------------------------------

def bottleneck_centers(D, centers, c):
    centers = np.asarray(centers, dtype=np.int64)
    n = D.shape[0]
    far = np.packbits(D == 2 * (c + 1), axis=1)
    keep = np.zeros(len(centers), dtype=bool)
    # a block of k centers has at most k * n sphere points
    step = max(1, ROW_BLOCK // (n * far.shape[1]))
    for a in range(0, len(centers), step):
        sphere = D[centers[a:a + step]] == c + 1
        zi, xi = np.nonzero(sphere)
        hit = (far[xi] & np.packbits(sphere, axis=1)[zi]).any(axis=1)
        keep[a + zi[hit]] = True
    return centers[keep]


def _joined(D, indptr, indices, r, c):
    sphere = np.nonzero(r == c + 1)[0]
    geo = D[np.ix_(sphere, sphere)] == 2 * (c + 1)
    if not geo.any():
        return False
    labels = level_components(indptr, indices, r > c)[sphere]
    return bool((geo & (labels[:, None] == labels[None, :])).any())


def bottleneck_center(D, indptr, indices, z, c_lo, c_hi):
    r = D[z]
    if c_hi < c_lo or not _joined(D, indptr, indices, r, c_lo):
        return -1, -1, -1
    lo, hi = c_lo, c_hi
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _joined(D, indptr, indices, r, mid):
            lo = mid
        else:
            hi = mid - 1
    keep = r > lo
    idx = np.nonzero(keep)[0]
    labels = level_components(indptr, indices, keep)[idx]
    rk = r[idx]
    geo = (rk[:, None] + rk[None, :]) == D[np.ix_(idx, idx)]
    hit = np.triu(geo & (labels[:, None] == labels[None, :]), 1)
    i, j = np.argwhere(hit)[0]
    return lo + 1, int(idx[i]), int(idx[j])
