"""Hot numeric kernels over integer distance matrices.

Three scans dominate runtime on nontrivial truncations:

* all-pairs BFS (builds the distance matrix),
* the four-point hyperbolicity scan, O(n^4) over ordered quadruples,
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
# all-pairs shortest paths (unweighted BFS from every source)
# ---------------------------------------------------------------------------

def apsp(indptr, indices, n):
    # scipy's csgraph BFS; unreachable pairs come back as inf and are mapped
    # to -1.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    if n == 0:
        return np.empty((0, 0), dtype=np.int32)
    data = np.ones(len(indices), dtype=np.int8)
    mat = csr_matrix((data, indices, indptr), shape=(n, n))
    dist = shortest_path(mat, method="D", unweighted=True, directed=False)
    out = np.where(np.isinf(dist), -1, dist).astype(np.int32)
    return out


# ---------------------------------------------------------------------------
# four-point hyperbolicity scan
#
# defect2(x,y,z,w) = d(x,y)+d(z,w) - max(d(x,z)+d(y,w), d(x,w)+d(y,z))
#                  = 2 * (min((x.z)_w, (z.y)_w) - (x.y)_w)
#
# Returns (max defect2, x, y, z, w) for the first maximizing ordered
# quadruple in lexicographic index order.
# ---------------------------------------------------------------------------

def delta_scan(D):
    n = D.shape[0]
    Dl = D.astype(np.int64)
    best = 0
    wit = (0, 0, 0, 0)
    for x in range(n):
        dx = Dl[x]
        for y in range(n):
            dy = Dl[y]
            m = np.maximum(np.add.outer(dx, dy), np.add.outer(dy, dx))
            d2 = Dl[x, y] + Dl - m
            k = int(np.argmax(d2))
            v = int(d2.reshape(-1)[k])
            if v > best:
                best = v
                wit = (x, y, k // n, k % n)
    return best, wit[0], wit[1], wit[2], wit[3]


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
    # float64 data is the dtype csgraph works in, so it is not copied again
    mat = csr_matrix((np.ones(len(sub_indices)), sub_indices, sub_indptr),
                     shape=(n, n))
    return connected_components(mat, directed=False)[1]


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
