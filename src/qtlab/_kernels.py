"""Hot numeric kernels over integer distance matrices.

BFS from a few sources (rows) serves most callers; three scans dominate
runtime on nontrivial truncations:

* all-pairs BFS (apsp: rows from every source, the full distance matrix,
  built only for callers that need all pairs),
* the four-point hyperbolicity scan, pruned by the Cohen-Coudert-Lancin
  bound defect2 <= min(d(x,y), d(z,w)): pairs by decreasing distance until
  the level drops to the best value, then a search for the lex-first
  witness in its canonical form x < y, x < z < w,
* the bottleneck scan, per center a test-then-bisect over the levels
  d(z, .) > c, each test comparing pairs on one sphere.

Each kernel has one numpy/scipy implementation; backend() names it.  Scan
order and tie-breaks are fixed and documented per kernel, and the tests
check values and witnesses against the brute-force oracles.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# BFS distance rows
#
# rows() runs scipy's csgraph BFS from the given sources only and returns an
# int32 (len(sources), n) array; unreachable entries come back as inf and
# are mapped to -1.  It asks scipy for blocks of sources, so the float64
# array scipy returns stays near ROW_BLOCK entries however many rows are
# wanted.  apsp() is rows() from every source, the full matrix.
#
# The CSR holds every edge in both directions, so a directed search gives
# the undirected distances; directed=False would make scipy add the
# transpose on every call.  float64 data is the dtype csgraph works in, so
# it is not copied again.
# ---------------------------------------------------------------------------

ROW_BLOCK = 1 << 21


def rows(indptr, indices, n, sources):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    out = np.empty((len(sources), n), dtype=np.int32)
    if not len(sources):
        return out
    mat = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    step = max(1, ROW_BLOCK // n)
    for start in range(0, len(sources), step):
        block = shortest_path(mat, method="D", unweighted=True, directed=True,
                              indices=sources[start:start + step])
        block[np.isinf(block)] = -1
        out[start:start + step] = block
    return out


def apsp(indptr, indices, n):
    return rows(indptr, indices, n, np.arange(n))


# ---------------------------------------------------------------------------
# four-point hyperbolicity scan (Cohen, Coudert & Lancin pruning)
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
# Phase 1 finds the value.  It visits the pairs i < j by decreasing
# distance, one distance level at a time, and scores each pair of a level
# against every pair at that distance or more.  Every quadruple whose
# smaller pair lies at level L is scored there, and it cannot beat L; so the
# scan stops at the first level <= best.
#
# Phase 2 finds the witness.  When the value v is 0, (0,0,0,0) is the
# lex-first quadruple attaining it.  When v > 0 the four points are distinct
# (a repeated point makes the defect <= 0), and the defect is unchanged
# under x<->y, z<->w and (x,y)<->(z,w).  The lex-first ordered quadruple at
# v is therefore in the canonical form x < y, x < z < w, with d(x,y) >= v
# and d(z,w) >= v.  Phase 2 scans x upward; for each x it scores the
# candidates y, ascending, against the pairs (z, w), z > x, in lex order,
# and returns the first hit.
#
# Both phases score in tiles of about BLOCK entries, so the extra memory of
# a scan does not grow with n^4.
# ---------------------------------------------------------------------------

BLOCK = 1 << 14


def _tiles(rows, cols):
    """(row slice, column slice) tiles of a rows x cols table, each of about
    BLOCK entries; read one after another, each in row-major order, they
    cover the table in row-major order.  Slices may run past the table."""
    if cols >= BLOCK:
        for r in range(rows):
            for c in range(0, cols, BLOCK):
                yield slice(r, r + 1), slice(c, c + BLOCK)
    else:
        step = BLOCK // cols
        for r in range(0, rows, step):
            yield slice(r, r + step), slice(0, cols)


def _defects(D, xa, ya, da, xb, yb, db):
    """defect2 of (xa[i], ya[i], xb[j], yb[j]) for every i, j; da and db are
    the pair distances."""
    s2 = D[xa[:, None], xb] + D[ya[:, None], yb]
    s3 = D[xa[:, None], yb] + D[ya[:, None], xb]
    return da[:, None] + db - np.maximum(s2, s3)


def delta_scan(D):
    v = _delta_value(D)
    if v == 0:
        return 0, 0, 0, 0, 0
    return (v,) + _lex_first_witness(D, v)


def _delta_value(D):
    """Phase 1: the largest defect2, by levels of decreasing pair distance."""
    iu, ju = np.triu_indices(D.shape[0], 1)
    d = D[iu, ju]
    order = np.argsort(-d, kind="stable")
    px, py, pd = iu[order], ju[order], d[order]
    best = 0
    start = 0
    while start < len(pd) and pd[start] > best:
        end = int(np.searchsorted(-pd, -pd[start], side="right"))
        for rs, cs in _tiles(end - start, end):
            a = slice(start + rs.start, min(start + rs.stop, end))
            best = max(best, int(_defects(D, px[a], py[a], pd[a],
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
        xs = np.full(len(ys), x)
        for rs, cs in _tiles(len(ys), len(z)):
            hit = _defects(D, xs[rs], ys[rs], D[x, ys[rs]], z[cs], w[cs], dc[cs]) >= v
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
    meaningless (each is its own component)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = len(keep)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    live = keep[rows] & keep[indices]
    sub_indptr = np.zeros(n + 1, dtype=indices.dtype)
    np.cumsum(np.bincount(rows[live], minlength=n), out=sub_indptr[1:])
    sub_indices = indices[live]
    # float64 data is the dtype csgraph works in, so it is not copied again;
    # the subgraph keeps both directions of each edge, so its strong
    # components are its components, found without adding the transpose
    mat = csr_matrix((np.ones(len(sub_indices)), sub_indices, sub_indptr),
                     shape=(n, n))
    return connected_components(mat, directed=True, connection="strong")[1]


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
# ---------------------------------------------------------------------------

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
