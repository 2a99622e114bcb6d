"""Hot numeric kernels over integer distance matrices.

Three scans dominate runtime on nontrivial truncations:

* all-pairs BFS (builds the distance matrix),
* the four-point hyperbolicity scan, O(n^4) over ordered quadruples,
* the bottleneck scan, per-center union-find over shrinking ball complements.

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
# bottleneck scan for one center z
#
# Level c keeps the vertices with d(z, v) > c.  Scanning c downward from c_hi,
# the first level holding a pair (x, y) that lies in one component with
# d(x,z)+d(z,y) = d(x,y) yields the least blocking radius c+1 for that pair,
# and that is the per-center maximum.  Returns (-1, -1, -1) when no level in
# [c_lo, c_hi] holds such a pair.  Pair choice is lex-first (x < y).
# ---------------------------------------------------------------------------

def _uf_find(parent, a):
    root = a
    while parent[root] != root:
        root = parent[root]
    while parent[a] != root:
        a, parent[a] = parent[a], root
    return root


def bottleneck_center(D, indptr, indices, z, c_lo, c_hi):
    n = D.shape[0]
    if c_hi < c_lo:
        return -1, -1, -1
    r = D[z]
    parent = np.arange(n, dtype=np.int64)
    added = np.zeros(n, dtype=np.bool_)

    def add(v):
        added[v] = True
        for k in range(indptr[v], indptr[v + 1]):
            u = indices[k]
            if added[u]:
                ra = _uf_find(parent, u)
                rb = _uf_find(parent, v)
                if ra != rb:
                    parent[ra] = rb

    for v in range(n):
        if r[v] > c_hi:
            add(v)
    for c in range(c_hi, c_lo - 1, -1):
        idx = np.nonzero(r > c)[0]
        if len(idx) >= 2:
            labels = np.array([_uf_find(parent, int(v)) for v in idx])
            sub = D[np.ix_(idx, idx)]
            geo = (r[idx][:, None] + r[idx][None, :]) == sub
            same = labels[:, None] == labels[None, :]
            hit = np.triu(geo & same, 1)
            ij = np.argwhere(hit)
            if len(ij):
                i, j = ij[0]
                return c + 1, int(idx[i]), int(idx[j])
        if c > c_lo:
            for v in np.nonzero(r == c)[0]:
                add(int(v))
    return -1, -1, -1
