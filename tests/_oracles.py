"""Brute-force reference implementations used to check the fast paths.

Everything here works on plain vertex-id lists and edge lists with its own
BFS, or on a distance matrix, so none of it shares code with the package
under test.  The brute loaders raise the package's own exception types, so
that a fault can be compared by type and message.
"""

import json
import math
import os
from collections import deque
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from qtlab.errors import DisconnectedGraph, EmptyGraph, FormatError, VertexNotFound


def adjacency(ids, edges):
    adj = {v: set() for v in ids}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def bfs_distances(adj, start):
    dist = {start: 0}
    q = deque([start])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def all_distances(ids, edges):
    adj = adjacency(ids, edges)
    return {v: bfs_distances(adj, v) for v in ids}


def brute_two_delta(ids, dist):
    """Max over quadruples of (largest pairing sum - second largest)."""
    best = 0
    for x, y, z, w in combinations(ids, 4):
        sums = sorted((
            dist[x][y] + dist[z][w],
            dist[x][z] + dist[y][w],
            dist[x][w] + dist[y][z],
        ))
        best = max(best, sums[2] - sums[1])
    return best


def brute_delta_witness(ids, dist):
    """(2*delta, (x, y, z, w)): the largest defect
    d(x,y) + d(z,w) - max(d(x,z) + d(y,w), d(x,w) + d(y,z)) over ordered
    quadruples, and the first ordered quadruple in id order attaining it."""
    best = wit = None
    for x, y, z, w in product(sorted(ids), repeat=4):
        d2 = dist[x][y] + dist[z][w] - max(dist[x][z] + dist[y][w],
                                           dist[x][w] + dist[y][z])
        if best is None or d2 > best:
            best, wit = d2, (x, y, z, w)
    return best, wit


def exhaustive_delta_witness(D):
    """(2*delta, x, y, z, w) over the index distance matrix D: every ordered
    quadruple is scored, one (x, y) row of n^2 pairs (z, w) at a time, and
    the first maximizer in lexicographic index order is kept.  Fast enough
    for n up to about 100."""
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
    return (best,) + wit


def far_apart(D):
    """Boolean matrix over the index distance matrix D of a connected graph:
    (x, y) is far-apart when no neighbour of x is farther from y and no
    neighbour of y is farther from x.  Neighbours are the entries at
    distance 1."""
    n = D.shape[0]
    d = D.tolist()
    nbrs = [[u for u in range(n) if d[x][u] == 1] for x in range(n)]
    far = np.zeros((n, n), dtype=bool)
    for x in range(n):
        for y in range(n):
            far[x, y] = (all(d[u][y] <= d[x][y] for u in nbrs[x])
                         and all(d[u][x] <= d[x][y] for u in nbrs[y]))
    return far


def induced_components(ids, edges, kept):
    """{kept vertex: least id of its component} in the subgraph induced on
    the set kept, by BFS from each kept vertex in id order."""
    adj = adjacency(ids, edges)
    rep = {}
    for s in sorted(kept):
        if s in rep:
            continue
        rep[s] = s
        q = deque([s])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if v in kept and v not in rep:
                    rep[v] = s
                    q.append(v)
    return rep


def connected_avoiding(adj, dist_z, x, y, c):
    """Is there an x..y path through vertices at distance > c from z?"""
    if dist_z[x] <= c or dist_z[y] <= c:
        return False
    seen = {x}
    q = deque([x])
    while q:
        u = q.popleft()
        if u == y:
            return True
        for v in adj[u]:
            if v not in seen and dist_z[v] > c:
                seen.add(v)
                q.append(v)
    return False


def _center_bottleneck(adj, dist, order, z):
    dz = dist[z]
    best, pair = 0, None
    for x, y in combinations(order, 2):
        if dz[x] + dz[y] != dist[x][y]:
            continue
        c = 0
        while connected_avoiding(adj, dz, x, y, c):
            c += 1
        if c > best:
            best, pair = c, (x, y)
    return best, pair


def brute_level_joined(ids, edges, z, c):
    """Does the level set {d(z, .) > c} hold a pair x, y joined inside it
    with d(x, z) + d(z, y) = d(x, y)?  Tries every pair of the level set."""
    adj, dist = adjacency(ids, edges), all_distances(ids, edges)
    dz = dist[z]
    return any(dz[x] + dz[y] == dist[x][y] and connected_avoiding(adj, dz, x, y, c)
               for x, y in combinations(ids, 2))


def brute_boundary_components(ids, edges, center, radius, boundary):
    """Number of components of the graph minus the closed ball B(center,
    radius) that contain a boundary vertex."""
    adj, dc = adjacency(ids, edges), all_distances(ids, edges)[center]
    alive = [b for b in boundary if dc[b] > radius]
    reps = set()
    for b in alive:
        reps.add(min(v for v in alive if v == b or connected_avoiding(adj, dc, b, v, radius)))
    return len(reps)


def brute_center_bottleneck(ids, edges, z):
    """(value, pair) for one center z.  The blocking value of a pair (x, y)
    with z on one of its geodesics is the least c such that deleting the
    closed ball B(z, c) separates x from y or swallows one of them; value is
    the largest blocking value through z and pair the lex-first (x, y),
    x < y in id order, attaining it (None when value is 0)."""
    return _center_bottleneck(adjacency(ids, edges), all_distances(ids, edges),
                              sorted(ids), z)


def _all_centers(ids, edges):
    adj, dist, order = adjacency(ids, edges), all_distances(ids, edges), sorted(ids)
    return [(z, _center_bottleneck(adj, dist, order, z)) for z in order]


def brute_bottleneck(ids, edges):
    """Least C such that for every pair (x, y) and every z on a geodesic
    between them, deleting the closed ball B(z, C) separates them or
    swallows an endpoint."""
    return max(value for _, (value, _) in _all_centers(ids, edges))


def brute_bottleneck_witness(ids, edges):
    """(x, y, z) for C = brute_bottleneck: the first center z in id order,
    then the lex-first pair x < y, whose blocking value through z is C.
    None when C = 0."""
    centers = _all_centers(ids, edges)
    C = max(value for _, (value, _) in centers)
    if C == 0:
        return None
    z, (_, (x, y)) = next(c for c in centers if c[1][0] == C)
    return x, y, z


def lattice_geodesic_count(di, dj):
    """Monotone lattice paths from (0,0) to (di, dj)."""
    return math.comb(di + dj, di)


def grid_ids_edges(m, n):
    """Grid graph on m x n vertices with (i,j) tuple ids."""
    ids = [(i, j) for i in range(m) for j in range(n)]
    edges = []
    for i in range(m):
        for j in range(n):
            if i + 1 < m:
                edges.append(((i, j), (i + 1, j)))
            if j + 1 < n:
                edges.append(((i, j), (i, j + 1)))
    return ids, edges


def cycle_ids_edges(n):
    ids = list(range(n))
    edges = [(i, (i + 1) % n) for i in range(n)]
    return ids, edges


def random_tree_edges(rng, n):
    """Random labelled tree on vertices 0..n-1."""
    return [(rng.randrange(i), i) for i in range(1, n)]


def random_connected_graph(rng, n, extra):
    """Random tree plus `extra` random non-tree edges, as id strings."""
    edges = set((str(a), str(b)) for a, b in random_tree_edges(rng, n))
    tries = 0
    while extra > 0 and tries < 40:
        a, b = rng.randrange(n), rng.randrange(n)
        tries += 1
        if a == b:
            continue
        e = (str(min(a, b)), str(max(a, b)))
        if e in edges:
            continue
        edges.add(e)
        extra -= 1
    return [str(i) for i in range(n)], sorted(edges)


def brute_realized_elements(ids, gens, horizon):
    """Word BFS deduplicated by agreement, on id dicts.  gens is a list of
    (name, {source id: image id}); returns [letters, depth, image dict] per
    element, in discovery order.  A candidate merges into the first element
    that agrees with it wherever both are defined, which gains the
    candidate's extra domain."""
    letters = []
    for name, fwd in gens:
        letters.append(((name, 1), fwd))
        letters.append(((name, -1), {t: s for s, t in fwd.items()}))
    elements = [[(), 0, {v: v for v in ids}]]
    frontier = elements[:]
    for depth in range(horizon):
        nxt = []
        for el in frontier:
            for letter, m in letters:
                img = {v: m[t] for v, t in el[2].items() if t in m}
                if not img:
                    continue
                for other in elements:
                    if all(other[2].get(v, t) == t for v, t in img.items()):
                        for v, t in img.items():
                            other[2].setdefault(v, t)
                        break
                else:
                    new = [el[0] + (letter,), depth + 1, img]
                    elements.append(new)
                    nxt.append(new)
        frontier = nxt
    return elements


def brute_acylindricity(S, D, epsilons, radii):
    """(acylindricity table, R values with no pair at distance >= R) from
    the element rows S (-1 undefined) and the distance matrix D (-1
    unreachable), by the dense n x n product: N(eps, R) is the largest
    count, over vertex pairs at distance >= R, of the elements moving both
    ends by at most eps."""
    n = D.shape[0]
    disp = np.where(S >= 0, D[np.arange(n), S], 10 ** 6)
    masks = [D >= R for R in radii]
    acyl = []
    for eps in epsilons:
        ok = (disp <= eps).astype(np.int64)
        P = ok.T @ ok
        for R, mask in zip(radii, masks):
            acyl.append((int(eps), int(R), int(P[mask].max()) if mask.any() else 0))
    return tuple(acyl), tuple(R for R, mask in zip(radii, masks) if not mask.any())


def brute_orbit(gens, x0, horizon):
    """The orbit BFS as a loop over frontier vertices, then letters, on id
    dicts.  gens is a list of (name, {source id: image id}); letters are
    taken generator by generator, +1 before -1.  Returns (vertices in
    discovery order, {vertex: letters of its witness word}, complete,
    exhausted): complete is False once a letter is undefined on the
    frontier, exhausted True when the BFS closed before the horizon."""
    letters = []
    for name, fwd in gens:
        letters.append(((name, 1), fwd))
        letters.append(((name, -1), {t: s for s, t in fwd.items()}))
    witnesses = {x0: ()}
    order = [x0]
    frontier = [x0]
    complete = True
    depth = 0
    while frontier and depth < horizon:
        nxt = []
        for v in frontier:
            for letter, m in letters:
                if v not in m:
                    complete = False
                    continue
                t = m[v]
                if t not in witnesses:
                    witnesses[t] = witnesses[v] + (letter,)
                    order.append(t)
                    nxt.append(t)
        frontier = nxt
        depth += 1
    return order, witnesses, complete, not frontier


def index_distances(ids, edges):
    """Distance matrix over sorted(ids) by BFS, -1 where unreachable."""
    order = sorted(ids)
    dist = all_distances(ids, edges)
    return np.array([[dist[u].get(v, -1) for v in order] for u in order], dtype=np.int64)


def dense_mode_check(D, vertex_ids, name, mode, src, dst):
    """The check GroupAction made before it checked adjacency on edges:
    every pair of domain positions, in row-major order, compared over the
    full index distance matrix D.  Returns the FormatError message for the
    first offending pair, or None."""
    A = D[np.ix_(src, src)]
    B = D[np.ix_(dst, dst)]
    if mode == "isometry":
        bad = np.argwhere(A != B)
    else:
        bad = np.argwhere((A == 1) != (B == 1))
    if len(bad):
        i, j = bad[0]
        u = vertex_ids[int(src[i])]
        v = vertex_ids[int(src[j])]
        return f"generator {name!r} violates {mode} mode at pair ({u!r}, {v!r})"
    return None


def brute_farey(Q, P):
    """The Farey truncation by definition: infinity = 1/0 and every reduced
    p/q with 1 <= q <= Q and |p| <= P, listed q-major, adjacent when
    |ps - qr| = 1, tested over all pairs.  Returns (ids in listing order,
    sorted id-pair edges, boundary, {"S": map, "T": map}).  Images are
    reduced with a positive denominator and looked up among the vertices, so
    S sends 0 to -1/0, which is not the vertex 1/0: S is undefined at 0."""
    fracs = [(1, 0)] + [(p, q) for q in range(1, Q + 1) for p in range(-P, P + 1)
                        if math.gcd(p, q) == 1]
    name = {f: "inf" if f[1] == 0 else str(f[0]) if f[1] == 1 else f"{f[0]}/{f[1]}"
            for f in fracs}
    ids = [name[f] for f in fracs]
    edges = sorted(tuple(sorted((name[a], name[b])))
                   for k, a in enumerate(fracs) for b in fracs[k + 1:]
                   if abs(a[0] * b[1] - a[1] * b[0]) == 1)
    boundary = [name[(p, q)] for p, q in fracs
                if q > 0 and (q >= Q - 1 or abs(p) >= P - 1)]

    def image(p, q):
        f = (-p, -q) if q < 0 else (p, q)
        return name.get(f)

    maps = {"S": {}, "T": {}}
    for p, q in fracs:
        for gen, img in (("S", image(-q, p)), ("T", image(p + q, q))):
            if img is not None:
                maps[gen][name[(p, q)]] = img
    return ids, edges, boundary, maps


def brute_bs12(radius):
    """The BS(1,2) Bass-Serre tree ball on exact dyadic rationals: vertices
    (m, r) with r in [0, 2^m) a Fraction, parent (m - 1, r mod 2^(m-1)),
    children (m + 1, r) and (m + 1, r + 2^m), a: r -> r + 1 and t: (m, r) ->
    (m + 1, 2r), each reduced mod 2^m at its level.  A BFS from (0, 0) over
    (parent, child, child) to the given radius.  Returns (ids in BFS order,
    sorted id-pair edges, boundary in BFS order, {"a": map, "t": map})."""
    def vid(v):
        m, r = v
        return f"m{m}:{r.numerator}/{r.denominator}"

    def parent(v):
        m, r = v
        return (m - 1, r % (Fraction(2) ** (m - 1)))

    def neighbors(v):
        m, r = v
        return (parent(v), (m + 1, r), (m + 1, r + Fraction(2) ** m))

    dist = {(0, Fraction(0)): 0}
    frontier = list(dist)
    for depth in range(radius):
        nxt = []
        for v in frontier:
            for u in neighbors(v):
                if u not in dist:
                    dist[u] = depth + 1
                    nxt.append(u)
        frontier = nxt

    ids = [vid(v) for v in dist]
    edges = sorted(tuple(sorted((vid(v), vid(parent(v))))) for v in dist if parent(v) in dist)
    boundary = [vid(v) for v, d in dist.items() if d == radius]
    maps = {"a": {}, "t": {}}
    for m, r in dist:
        for gen, img in (("a", (m, (r + 1) % (Fraction(2) ** m))),
                         ("t", (m + 1, (2 * r) % (Fraction(2) ** (m + 1))))):
            if img in dist:
                maps[gen][vid((m, r))] = vid(img)
    return ids, edges, boundary, maps


def _det3(r1, r2, r3):
    return (r1[0] * (r2[1] * r3[2] - r2[2] * r3[1])
            - r1[1] * (r2[0] * r3[2] - r2[2] * r3[0])
            + r1[2] * (r2[0] * r3[1] - r2[1] * r3[0]))


def brute_chebyshev(samples):
    """The Chebyshev fit of tau(m, n) ~ |m x + n y| with frozen signs, as a
    linear program in (x, y, eps) solved by visiting every vertex.

    The signs s_i are those of m_i x + n_i y (+1 at 0) at the pair
    interpolant with the least residual max | |m x + n y| - tau |, the first
    one met with pairs in sample order and sign choices (+,+), (+,-), (-,+),
    (-,-).  A vertex is where three of the 2N constraints
    +-(s_i (m_i x + n_i y) - tau_i) <= eps are tight; each is solved by
    Cramer's rule and kept if it meets all 2N, so the scan is O(N^4).
    Returns (least eps, lex-least (x, y) among the vertices reaching it)."""
    best = None
    for ((m1, n1), t1), ((m2, n2), t2) in combinations(samples, 2):
        det = m1 * n2 - m2 * n1
        if det == 0:
            continue
        for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            # solve m1 x + n1 y = s1 t1, m2 x + n2 y = s2 t2
            x = (s1 * t1 * n2 - s2 * t2 * n1) / Fraction(det)
            y = (m1 * s2 * t2 - m2 * s1 * t1) / Fraction(det)
            r = max(abs(abs(m * x + n * y) - t) for (m, n), t in samples)
            if best is None or r < best[0]:
                best = (r, x, y)
    _, x0, y0 = best
    rows = []
    for (m, n), t in samples:
        s = 1 if m * x0 + n * y0 >= 0 else -1
        rows.append((s * m, s * n, t))
    # over integers: scale tau by the common denominator L, and keep the
    # vertex as (X, Y, E) / (d L) with Cramer's determinant d > 0
    L = math.lcm(*(t.denominator for _, _, t in rows))
    rows = [(m, n, int(t * L)) for m, n, t in rows]
    # the tight form sigma (a . u) - eps = sigma tau, for sigma = +-1
    planes = [(sg * m, sg * n, -1, sg * t) for m, n, t in rows for sg in (1, -1)]
    vertices = []
    for tight in combinations(planes, 3):
        d = _det3(*(p[:3] for p in tight))
        if d == 0:
            continue
        X, Y, E = (_det3(*(p[:k] + p[3:] + p[k + 1:3] for p in tight)) for k in range(3))
        if d < 0:
            d, X, Y, E = -d, -X, -Y, -E
        if all(abs(m * X + n * Y - t * d) <= E for m, n, t in rows):
            vertices.append((Fraction(E, d * L), Fraction(X, d * L), Fraction(Y, d * L)))
    eps = min(v[0] for v in vertices)
    return eps, min((x, y) for e, x, y in vertices if e == eps)


def brute_factor_check(factors, mapping):
    """The factor-preservation walk on id tuples.  factors is a list of
    (ids, edges) and mapping a dict from every point tuple to its image.
    Visits every point in itertools.product order, then every factor, then
    every neighbour above the point's coordinate in id order; the first move
    whose image changes other than exactly one coordinate, or a different
    one than the factor's earlier moves did, is the witness.  Returns
    (preserves, perm, witness, coordinate_maps)."""
    k = len(factors)
    adj = [adjacency(ids, edges) for ids, edges in factors]
    perm = [None] * k
    for x in product(*(sorted(ids) for ids, _ in factors)):
        for i in range(k):
            for nb in sorted(adj[i][x[i]]):
                if nb <= x[i]:
                    continue
                y = x[:i] + (nb,) + x[i + 1:]
                fx, fy = mapping[x], mapping[y]
                moved = [j for j in range(k) if fx[j] != fy[j]]
                if len(moved) != 1 or perm[i] not in (None, moved[0]):
                    return False, None, (x, y), None
                perm[i] = moved[0]
    out = tuple(i if j is None else j for i, j in enumerate(perm))
    if sorted(out) != list(range(k)):
        return False, None, None, None
    maps = []
    for i in range(k):
        m = {}
        for x, fx in mapping.items():
            m.setdefault(x[i], set()).add(fx[out[i]])
        maps.append({a: b.pop() for a, b in sorted(m.items())}
                    if all(len(b) == 1 for b in m.values()) else None)
    return True, out, None, maps


# ---------------------------------------------------------------------------
# the loaders, checking one entry at a time
# ---------------------------------------------------------------------------

def brute_graph_from_dict(d, allow_disconnected=False):
    """The graph loader checking each entry in turn, in the order qtlab.io
    checks them, ending in brute_graph_from_ids.  Returns (sorted vertex ids,
    the list of edge index pairs [i, j], i < j, in lexicographic order,
    boundary ids) or raises the first fault with the package's exception
    types and messages."""
    if not isinstance(d, dict) or d.get("format") != "qtlab-graph-v1":
        raise FormatError(f"expected format {'qtlab-graph-v1'!r}, got {d.get('format') if isinstance(d, dict) else type(d)!r}")
    for key in ("vertices", "edges"):
        if key not in d:
            raise FormatError(f"graph object missing {key!r}")
    vertices, edges, boundary = d["vertices"], d["edges"], d.get("boundary", [])
    for key, value in (("vertices", vertices), ("edges", edges), ("boundary", boundary)):
        if not isinstance(value, list):
            raise FormatError(f"graph {key!r} must be a list, got {value!r}")
    for key, value in (("vertices", vertices), ("boundary", boundary)):
        for v in value:
            if not isinstance(v, str):
                raise FormatError(f"graph {key!r} entries must be vertex id strings, got {v!r}")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) and isinstance(e[1], str)):
            raise FormatError(f"edge entries must be pairs of vertex ids, got {e!r}")
    return brute_graph_from_ids(vertices, edges, boundary=boundary,
                                allow_disconnected=allow_disconnected)


def _brute_lookup(pos, ids, message):
    try:
        return [pos[v] for v in ids]
    except KeyError as exc:
        raise VertexNotFound(message.format(exc.args[0])) from None


def brute_graph_from_ids(vertex_ids, edges, boundary=(), allow_disconnected=False):
    """The id lookups of graph_from_ids, then the checks of MetricGraph in
    their order (no vertices, duplicate ids, the first self-loop listed, the
    first edge listed again, the first id in sorted order that index 0 does
    not reach) over id lists, with the BFS of this module."""
    ids = list(vertex_ids)
    pos = {v: k for k, v in enumerate(ids)}
    ends = _brute_lookup(pos, (v for a, b in edges for v in (a, b)), "edge endpoint {!r} is not a vertex")
    bpos = _brute_lookup(pos, boundary, "boundary vertex {!r} is not a vertex")
    if not ids:
        raise EmptyGraph("graph has no vertices")
    if len(set(ids)) != len(ids):
        raise FormatError("duplicate vertex ids")
    pairs = [(ids[ends[k]], ids[ends[k + 1]]) for k in range(0, len(ends), 2)]
    for a, b in pairs:
        if a == b:
            raise FormatError(f"self-loop at {a!r}")
    seen = set()
    for a, b in pairs:
        if frozenset((a, b)) in seen:
            raise FormatError(f"duplicate edge {a!r} - {b!r}")
        seen.add(frozenset((a, b)))
    order = sorted(ids)
    reached = bfs_distances(adjacency(ids, pairs), order[0])
    if len(reached) != len(ids) and not allow_disconnected:
        raise DisconnectedGraph(order[0], next(v for v in order if v not in reached))
    index = {v: i for i, v in enumerate(order)}
    edge_list = sorted(sorted((index[a], index[b])) for a, b in pairs)
    return tuple(order), edge_list, tuple(ids[k] for k in bpos)


def brute_action_from_dict(d, base_dir=".", allow_disconnected=False):
    """The action loader checking each map pair in turn, in the order
    qtlab.io checks them, ending in brute_action_from_maps.  Returns (graph as
    brute_graph_from_dict gives it, mode, [(name, forward index list)])."""
    if not isinstance(d, dict) or d.get("format") != "qtlab-action-v1":
        raise FormatError(f"expected format {'qtlab-action-v1'!r}")
    for key in ("graph", "mode", "generators"):
        if key not in d:
            raise FormatError(f"action object missing {key!r}")
    graph = d["graph"]
    if isinstance(graph, str):
        if "\0" in graph:
            raise FormatError(f"graph reference {graph!r} is not a file path")
        path = os.path.join(base_dir, graph)
        with open(path, encoding="utf-8") as fh:
            try:
                graph = json.load(fh)
            except ValueError as exc:
                raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    g = brute_graph_from_dict(graph, allow_disconnected=allow_disconnected)
    if d["mode"] not in ("automorphism", "isometry"):
        raise FormatError(f"unknown mode {d['mode']!r}")
    if not isinstance(d["generators"], list):
        raise FormatError("'generators' must be a list")
    gens = []
    for entry in d["generators"]:
        if not isinstance(entry, dict):
            raise FormatError(f"generator entries must be objects, got {entry!r}")
        if "name" not in entry or "map" not in entry:
            raise FormatError("generator entries need 'name' and 'map'")
        if not isinstance(entry["map"], list):
            raise FormatError(f"generator {entry['name']!r}: 'map' must be a list")
        pairs = {}
        for p in entry["map"]:
            if not isinstance(p, (list, tuple)) or len(p) != 2 \
                    or not all(isinstance(v, str) for v in p):
                raise FormatError(f"map entries must be pairs of vertex ids, got {p!r}")
            if p[0] in pairs:
                raise FormatError(f"generator {entry['name']!r}: duplicate source {p[0]!r}")
            pairs[p[0]] = p[1]
        gens.append((entry["name"], pairs))
    return brute_action_from_maps(g, gens, d["mode"])


def brute_action_from_maps(graph, generators, mode):
    """The id lookups of action_from_maps for every generator, then the
    checks of GroupAction one generator at a time (name a string, names
    unique and nonempty, injective, the mode by dense_mode_check)."""
    vertex_ids, edge_list, _ = graph
    n = len(vertex_ids)
    index = {v: i for i, v in enumerate(vertex_ids)}
    maps = [(name, _brute_lookup(index, m.keys(), "no vertex {!r}"),
             _brute_lookup(index, m.values(), "no vertex {!r}")) for name, m in generators]
    D = index_distances(vertex_ids, [(vertex_ids[i], vertex_ids[j]) for i, j in edge_list])
    names = set()
    out = []
    for name, sources, images in maps:
        if not isinstance(name, str):
            raise FormatError(f"generator names must be strings, got {name!r}")
        if not name or name in names:
            raise FormatError(f"generator names must be unique and nonempty, got {name!r}")
        names.add(name)
        fwd = [-1] * n
        for s, t in zip(sources, images):
            fwd[s] = t
        src = [i for i in range(n) if fwd[i] >= 0]
        if len({fwd[i] for i in src}) != len(src):
            raise FormatError(f"generator {name!r} is not injective")
        message = src and dense_mode_check(D, vertex_ids, name, mode, src, [fwd[i] for i in src])
        if message:
            raise FormatError(message)
        out.append((name, fwd))
    return graph, mode, out
