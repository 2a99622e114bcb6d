"""Hot numeric kernels over integer distance matrices.

Three scans dominate runtime on nontrivial truncations:

* all-pairs BFS (builds the distance matrix),
* the four-point hyperbolicity scan, O(n^4) over ordered quadruples,
* the bottleneck scan, per-center union-find over shrinking ball complements.

Each kernel has a numba @njit build and a pure-numpy build with identical
scan order and tie-breaking, so results are byte-for-byte the same on either
path.  Selection: QTLAB_KERNELS=numpy forces the fallback; anything else uses
numba when it imports (numba is the optional "fast" extra).
apsp/delta_scan/bottleneck_center are the selected entry points; the _numpy
variants and the plain-Python _py sources that numba compiles stay
importable for the parity tests.
"""

from __future__ import annotations

import os

import numpy as np

_env = os.environ.get("QTLAB_KERNELS", "").strip().lower()
HAS_NUMBA = False
if _env != "numpy":
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:
        HAS_NUMBA = False


def backend() -> str:
    return "numba" if HAS_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# all-pairs shortest paths (unweighted BFS from every source)
# ---------------------------------------------------------------------------

def _apsp_py(indptr, indices, n):
    dist = np.full((n, n), -1, dtype=np.int32)
    queue = np.empty(n, dtype=np.int32)
    for s in range(n):
        row = dist[s]
        row[s] = 0
        queue[0] = s
        head, tail = 0, 1
        while head < tail:
            u = queue[head]
            head += 1
            du = row[u]
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                if row[v] < 0:
                    row[v] = du + 1
                    queue[tail] = v
                    tail += 1
    return dist


def apsp_numpy(indptr, indices, n):
    # scipy's csgraph BFS is much faster than the python loop when numba is
    # unavailable; unreachable pairs come back as inf and are mapped to -1.
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

def _delta_scan_py(D):
    n = D.shape[0]
    best = 0
    bx = by = bz = bw = 0
    for x in range(n):
        for y in range(n):
            dxy = D[x, y]
            for z in range(n):
                dxz = D[x, z]
                dyz = D[y, z]
                for w in range(n):
                    s2 = dxz + D[y, w]
                    s3 = D[x, w] + dyz
                    m = s2 if s2 >= s3 else s3
                    d2 = dxy + D[z, w] - m
                    if d2 > best:
                        best = d2
                        bx, by, bz, bw = x, y, z, w
    return best, bx, by, bz, bw


def delta_scan_numpy(D):
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

def _uf_find_py(parent, a):
    root = a
    while parent[root] != root:
        root = parent[root]
    while parent[a] != root:
        a, parent[a] = parent[a], root
    return root


def _bottleneck_center_py(D, indptr, indices, z, c_lo, c_hi):
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
                ra = _uf_find_py(parent, u)
                rb = _uf_find_py(parent, v)
                if ra != rb:
                    parent[ra] = rb

    for v in range(n):
        if r[v] > c_hi:
            add(v)
    for c in range(c_hi, c_lo - 1, -1):
        idx = np.nonzero(r > c)[0]
        if len(idx) >= 2:
            labels = np.array([_uf_find_py(parent, int(v)) for v in idx])
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


def bottleneck_center_numpy(D, indptr, indices, z, c_lo, c_hi):
    return _bottleneck_center_py(D, indptr, indices, z, c_lo, c_hi)


if HAS_NUMBA:
    apsp = njit(cache=True)(_apsp_py)
    delta_scan = njit(cache=True)(_delta_scan_py)

    @njit(cache=True)
    def _uf_find(parent, a):
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            nxt = parent[a]
            parent[a] = root
            a = nxt
        return root

    @njit(cache=True)
    def bottleneck_center(D, indptr, indices, z, c_lo, c_hi):
        n = D.shape[0]
        if c_hi < c_lo:
            return -1, -1, -1
        r = D[z]
        parent = np.arange(n, dtype=np.int64)
        added = np.zeros(n, dtype=np.bool_)
        for v in range(n):
            if r[v] > c_hi:
                added[v] = True
                for k in range(indptr[v], indptr[v + 1]):
                    u = indices[k]
                    if added[u]:
                        ra = _uf_find(parent, u)
                        rb = _uf_find(parent, v)
                        if ra != rb:
                            parent[ra] = rb
        for c in range(c_hi, c_lo - 1, -1):
            for x in range(n):
                if r[x] <= c:
                    continue
                rx = r[x]
                for y in range(x + 1, n):
                    if r[y] <= c:
                        continue
                    if rx + r[y] != D[x, y]:
                        continue
                    if _uf_find(parent, x) == _uf_find(parent, y):
                        return c + 1, x, y
            if c > c_lo:
                for v in range(n):
                    if r[v] == c:
                        added[v] = True
                        for k in range(indptr[v], indptr[v + 1]):
                            u = indices[k]
                            if added[u]:
                                ra = _uf_find(parent, u)
                                rb = _uf_find(parent, v)
                                if ra != rb:
                                    parent[ra] = rb
        return -1, -1, -1
else:
    apsp = apsp_numpy
    delta_scan = delta_scan_numpy
    bottleneck_center = _bottleneck_center_py
