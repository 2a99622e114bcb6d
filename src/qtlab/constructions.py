"""Builders for the example spaces and actions used across the package.

Everything here returns finite truncations.  A builder that truncates an
infinite object marks the cut locus in ``graph.boundary`` so downstream
checks can tell "really has degree 3" from "ran out of window".  Actions are
emitted in automorphism mode with partial generator maps: a generator is
simply undefined wherever its image would leave the truncation.

The group-table machinery is deliberately tiny: ordered element names and a
dense multiplication table of element positions.  It only needs to support
the coset-tree and finite Cayley constructions, not general group theory.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import FormatError, InvalidChain, UnknownFamily
from .metric_graph import MetricGraph
from .group_action import GroupAction, forward_map


@dataclass
class Construction:
    """A built space plus the bundled action and a sensible basepoint (both
    None for a plain graph).

    extras holds builder-specific data (end rays, coset levels, apex ids)
    keyed by plain strings so fixtures can serialize it untyped.
    """

    graph: MetricGraph
    action: Optional[GroupAction]
    basepoint: Optional[str]
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# plain graphs
# ---------------------------------------------------------------------------


def _action_on(graph: MetricGraph, ids, maps) -> GroupAction:
    """Automorphism-mode action on graph from (name, pairs) maps, each pair
    (s, t) sending ids[s] to ids[t]."""
    at = graph.indices(ids)
    return GroupAction(graph, [
        (name, forward_map(graph.n, *at[np.asarray(pairs, dtype=np.int64).reshape(-1, 2)].T))
        for name, pairs in maps], mode="automorphism")


def _moves(pos: dict, f) -> list:
    """Position pairs (pos[v], pos[f(v)]) over the v in pos with f(v) in pos."""
    return [(k, pos[u]) for v, k in pos.items() for u in (f(v),) if u in pos]


def _pad_ids(prefix: str, n: int) -> List[str]:
    width = len(str(max(n - 1, 0)))
    return [f"{prefix}{k:0{width}d}" for k in range(n)]


def path_graph(n: int) -> MetricGraph:
    if n < 1:
        raise FormatError("path needs at least one vertex")
    return MetricGraph(_pad_ids("v", n), [(k, k + 1) for k in range(n - 1)])


def cycle_graph(n: int) -> MetricGraph:
    if n < 3:
        raise FormatError("cycle needs at least three vertices")
    return MetricGraph(_pad_ids("v", n), [(k, (k + 1) % n) for k in range(n)])


def grid_graph(m: int, n: int) -> MetricGraph:
    if m < 1 or n < 1:
        raise FormatError("grid needs positive side lengths")
    wi, wj = len(str(m - 1)), len(str(n - 1))
    ids = [f"{i:0{wi}d},{j:0{wj}d}" for i in range(m) for j in range(n)]
    at = np.arange(m * n).reshape(m, n)     # position of (i, j) in ids
    edges = np.concatenate((np.stack((at[:-1].ravel(), at[1:].ravel()), axis=1),
                            np.stack((at[:, :-1].ravel(), at[:, 1:].ravel()), axis=1)))
    return MetricGraph(ids, edges)


def star_graph(leaves: int) -> MetricGraph:
    if leaves < 1:
        raise FormatError("star needs at least one leaf")
    return MetricGraph(["c"] + _pad_ids("l", leaves), [(0, k) for k in range(1, leaves + 1)])


def regular_tree(degree: int, depth: int) -> MetricGraph:
    """Rooted truncation of the degree-regular tree: the root has `degree`
    children, every other internal vertex degree-1 children.  Ids encode the
    child path, so "r21" is child 1 of child 2 of the root."""
    if degree < 2:
        raise FormatError("regular tree needs degree >= 2")
    if degree > 10:
        raise FormatError("ids use one digit per branching step; degree > 10 unsupported")
    if depth < 0:
        raise FormatError("depth must be >= 0")
    ids = ["r"]
    edges = []
    frontier = [0]
    for level in range(depth):
        nxt = []
        for k in frontier:
            fanout = degree if k == 0 else degree - 1
            for c in range(fanout):
                edges.append((k, len(ids)))
                nxt.append(len(ids))
                ids.append(ids[k] + str(c))
        frontier = nxt
    return MetricGraph(ids, edges, boundary=frontier if depth > 0 else ())


def rips_graph(g: MetricGraph, r: int) -> MetricGraph:
    """Same vertices, edge iff 0 < d(x,y) <= r."""
    if r < 0:
        raise FormatError("r must be >= 0")
    close = np.triu((g.dist > 0) & (g.dist <= r), 1)
    return MetricGraph(g.vertex_ids, np.argwhere(close), boundary=g.indices(g.boundary),
                       allow_disconnected=(r == 0 or not g.connected))


# ---------------------------------------------------------------------------
# finite group tables
# ---------------------------------------------------------------------------


ASSOC_CHECK_CAP = 60


class FiniteGroupTable:
    """Ordered element names plus the multiplication as an (n, n) integer
    table: table[i, j] is the position of elements[i] * elements[j].

    Associativity is checked exhaustively up to ASSOC_CHECK_CAP elements
    (216k products at the cap); beyond that the table is trusted.  Identity
    and inverses are always verified.
    """

    def __init__(self, elements: Sequence[str], table):
        self.elements = tuple(str(e) for e in elements)
        n = len(self.elements)
        if not n:
            raise FormatError("group table needs at least one element")
        self._pos = {e: i for i, e in enumerate(self.elements)}
        if len(self._pos) != n:
            raise FormatError("duplicate element names")
        try:
            t = np.asarray(table)
        except ValueError:      # a ragged table
            t = np.zeros(0)
        if t.shape != (n, n) or t.dtype.kind not in "iu" or t.min() < 0 or t.max() >= n:
            raise FormatError(f"multiplication table must be an ({n}, {n}) integer array "
                              f"with entries in range({n})")
        self.table = t = t.astype(np.int64)
        self.table.setflags(write=False)
        at = np.arange(n)
        ident = np.flatnonzero((t == at).all(axis=1) & (t == at[:, None]).all(axis=0))
        if not len(ident):
            raise FormatError("table has no identity element")
        self.identity = self.elements[ident[0]]
        inverse = (t == ident[0]) & (t.T == ident[0])
        missing = np.flatnonzero(~inverse.any(axis=1))
        if len(missing):
            raise FormatError(f"element {self.elements[missing[0]]!r} has no inverse")
        self._inv = inverse.argmax(axis=1)
        if n <= ASSOC_CHECK_CAP:
            # t[t][a, b, c] = (ab)c and t[:, t][a, b, c] = a(bc)
            bad = np.argwhere(t[t] != t[:, t])
            if len(bad):
                a, b, c = (self.elements[i] for i in bad[0])
                raise FormatError(f"multiplication is not associative at ({a!r},{b!r},{c!r})")

    @property
    def order(self) -> int:
        return len(self.elements)

    def indices(self, names) -> np.ndarray:
        """Positions of the given element names."""
        return np.array([self._pos[a] for a in names], dtype=np.int64)

    def mul(self, a: str, b: str) -> str:
        return self.elements[self.table[self._pos[a], self._pos[b]]]

    def inv(self, a: str) -> str:
        return self.elements[self._inv[self._pos[a]]]

    def is_subgroup(self, subset: Sequence[str]) -> bool:
        s = set(subset)
        if not s or not s.issubset(self.elements) or self.identity not in s:
            return False
        at = self.indices(s)
        return bool(np.isin(self.table[np.ix_(at, at)], at).all())

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroupTable":
        if n < 1:
            raise FormatError("cyclic group needs n >= 1")
        i = np.arange(n)
        return cls(_pad_ids("g", n), (i[:, None] + i) % n)

    @classmethod
    def direct_product(cls, a: "FiniteGroupTable", b: "FiniteGroupTable") -> "FiniteGroupTable":
        """Elements "x|y" in x-major order, so (x, y) has position x * |b| + y."""
        names = [f"{x}|{y}" for x in a.elements for y in b.elements]
        nb = b.order
        table = a.table[:, None, :, None] * nb + b.table[None, :, None, :]
        return cls(names, table.reshape(len(names), len(names)))


def c6_chain() -> Tuple[FiniteGroupTable, Tuple[Tuple[str, ...], ...]]:
    table = FiniteGroupTable.cyclic(6)
    chain = (("g0",), ("g0", "g3"), table.elements)
    return table, chain


def c30_chain() -> Tuple[FiniteGroupTable, Tuple[Tuple[str, ...], ...]]:
    """C2 x C3 x C5 with the chain {e} < C2 < C2xC3 < C2xC3xC5."""
    table = FiniteGroupTable.direct_product(
        FiniteGroupTable.direct_product(FiniteGroupTable.cyclic(2),
                                        FiniteGroupTable.cyclic(3)),
        FiniteGroupTable.cyclic(5))

    def pick(keep):
        return tuple(e for e in table.elements if keep(e.split("|")))

    chain = (
        pick(lambda p: p == ["g0", "g0", "g0"]),
        pick(lambda p: p[1] == "g0" and p[2] == "g0"),
        pick(lambda p: p[2] == "g0"),
        table.elements,
    )
    return table, chain


# ---------------------------------------------------------------------------
# coset tree
# ---------------------------------------------------------------------------


def _validate_chain(table: FiniteGroupTable, chain) -> List[Tuple[str, ...]]:
    if not chain:
        raise InvalidChain("no subgroup chain given")
    out = [tuple(h) for h in chain]
    if set(out[0]) != {table.identity}:
        raise InvalidChain("chain must start at the trivial subgroup")
    prev = None
    for i, h in enumerate(out):
        if not table.is_subgroup(h):
            raise InvalidChain(f"chain level {i} is not a subgroup")
        if prev is not None and not set(prev).issubset(h):
            raise InvalidChain(f"chain level {i} does not contain level {i - 1}")
        prev = h
    return out


def coset_tree(table: FiniteGroupTable, chain) -> Construction:
    """Tree of nested cosets: level-i vertices are the cosets of chain[i],
    with an edge from each coset to the level-(i+1) coset containing it.
    A coset is named by its least-named element g, "lv{i}_{g}".

    When the chain ends at the whole group (and did not stall there), an
    extra apex vertex is attached above the single top coset; it stands in
    for the next, uncomputed level of an increasing chain and gives the top
    coset the same [G_i : G_{i-1}] + 1 valence as the interior levels.  The
    whole group acts by left multiplication (every non-identity element is a
    generator); the apex is fixed by everything.
    """
    chain = _validate_chain(table, chain)
    k = len(chain) - 1
    t, n, names = table.table, table.order, table.elements
    order = np.array(sorted(range(n), key=names.__getitem__), dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)     # rank[position] = place in name order
    rank[order] = np.arange(n)
    members = [np.unique(table.indices(h)) for h in chain]

    # per level: the least-named element of each coset, cosets in the order
    # of those names, and the coset of each element g (the one holding gH)
    reps, coset_of = [], []
    for h in members:
        least, coset = np.unique(rank[t[:, h]].min(axis=1), return_inverse=True)
        reps.append(order[least])
        coset_of.append(coset)
    offset = np.cumsum([0] + [len(r) for r in reps])   # level i starts at offset[i]
    ids = [f"lv{i}_{names[g]}" for i, r in enumerate(reps) for g in r.tolist()]
    edges = [np.stack((offset[i] + np.arange(len(reps[i])),
                       offset[i + 1] + coset_of[i + 1][reps[i]]), axis=1) for i in range(k)]

    # images[g, p]: the position of g times the coset at position p
    images = np.concatenate([offset[i] + coset_of[i][t[:, r]] for i, r in enumerate(reps)], axis=1)

    apex = None
    if k >= 1 and len(members[k]) == n and len(members[k]) != len(members[k - 1]):
        apex = "apex"
        edges.append([[offset[k], len(ids)]])
        images = np.column_stack((images, np.full(n, len(ids))))
        ids.append(apex)
    # without an apex each top coset heads its own component
    graph = MetricGraph(ids, np.concatenate([np.empty((0, 2), dtype=np.int64)] + edges),
                        allow_disconnected=len(reps[k]) > 1)
    e = names.index(table.identity)
    action = _action_on(graph, ids, [(names[g], np.stack((np.arange(len(ids)), images[g]), axis=1))
                                     for g in range(n) if g != e])

    base_ids = [ids[offset[i] + coset_of[i][e]] for i in range(k + 1)]
    return Construction(
        graph, action, base_ids[0],
        extras={
            "levels": [ids[offset[i]:offset[i + 1]] for i in range(k + 1)],
            "apex": apex,
            # the stabilizer of the coset H_i is H_i
            "stabilizer_sizes": [len(h) for h in members],
            "valences": [graph.degree(v) for v in base_ids],
            "index_ratios": [len(chain[i]) // len(chain[i - 1]) for i in range(1, k + 1)],
        })


# ---------------------------------------------------------------------------
# Cayley-ball families
# ---------------------------------------------------------------------------


def _ball_bfs(start, steps, radius):
    """BFS over an implicit graph up to the given depth; steps(v) yields
    neighbors in a fixed order.  Returns insertion-ordered
    {vertex: word length}."""
    dist = {start: 0}
    frontier = [start]
    for depth in range(radius):
        nxt = []
        for v in frontier:
            for u in steps(v):
                if u not in dist:
                    dist[u] = depth + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def _f2_mul(left: str, word: str) -> str:
    """Free reduction of left * word; a capital letter is the inverse."""
    out = list(left)
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _cayley_ball(family, radius, e, steps, names, vid, mul, inv) -> Construction:
    """Ball of the given radius about e in the Cayley graph of the generators
    `steps` (named `names`), for the group law mul with inverse inv.  The BFS
    steps by each generator and then its inverse; edges join v and v*g, and
    each generator acts by left multiplication, restricted to the ball."""
    dist = _ball_bfs(e, lambda v: (u for g in steps for u in (mul(v, g), mul(v, inv(g)))),
                     radius)
    pos = {v: k for k, v in enumerate(dist)}
    # v ~ v*g is found from both ends when g or g^-1 repeats (g^2 = 1, or
    # gens such as (1, -1)), so the pairs go through a set
    edges = list({tuple(sorted(p)) for g in steps for p in _moves(pos, lambda v: mul(v, g))})
    ids = [vid(v) for v in dist]
    graph = MetricGraph(ids, edges,
                        boundary=[k for k, d in enumerate(dist.values()) if d == radius])
    action = _action_on(graph, ids, [(name, _moves(pos, lambda v: mul(g, v)))
                                     for g, name in zip(steps, names)])
    return Construction(graph, action, vid(e), extras={"family": family, "radius": radius})


def cayley_graph(family: str, radius: int, gens=None,
                 table: Optional[FiniteGroupTable] = None) -> Construction:
    """Ball of the given radius in a Cayley graph.  Edges come from right
    multiplication by generators, the action from left multiplication (which
    is how left multiplication ends up a graph automorphism).  Frontier
    vertices (word length exactly `radius`) are marked boundary.

    Families: "Z" (gens: nonzero ints, default (1,)), "Z2" (gens: int pairs,
    default unit steps), "F2" (free group on x, y), "finite" (needs `table`
    and generator element names).
    """
    if radius < 0:
        raise FormatError("radius must be >= 0")

    if family == "Z":
        steps = tuple(gens) if gens else (1,)
        if not steps or any(not isinstance(g, int) or g == 0 for g in steps):
            raise FormatError("Z generators must be nonzero integers")
        names = ["s"] if len(steps) == 1 else [f"s{g}" for g in steps]
        return _cayley_ball(family, radius, 0, steps, names, str,
                            lambda a, b: a + b, lambda a: -a)

    if family == "Z2":
        steps = tuple(tuple(g) for g in gens) if gens else ((1, 0), (0, 1))
        if not steps or any(len(g) != 2 or g == (0, 0) for g in steps):
            raise FormatError("Z2 generators must be nonzero integer pairs")
        if steps == ((1, 0), (0, 1)):
            names = ["sx", "sy"]
        else:
            names = [f"s{k}" for k in range(len(steps))]
        return _cayley_ball(family, radius, (0, 0), steps, names,
                            lambda v: f"{v[0]},{v[1]}",
                            lambda a, b: (a[0] + b[0], a[1] + b[1]),
                            lambda a: (-a[0], -a[1]))

    if family == "F2":
        if gens is not None:
            raise FormatError("F2 generators are fixed (x, y)")
        return _cayley_ball(family, radius, "", ("x", "y"), ("x", "y"),
                            lambda w: w if w else "e", _f2_mul, str.swapcase)

    if family == "finite":
        if table is None:
            raise FormatError("finite family needs a group table")
        if not gens:
            raise FormatError("finite family needs generator element names")
        sg = [str(g) for g in gens]
        for g in sg:
            if g not in table.elements:
                raise FormatError(f"generator {g!r} is not a table element")
            if g == table.identity:
                raise FormatError("identity is not a useful generator")
        return _cayley_ball(family, radius, table.identity, sg, sg, str,
                            table.mul, table.inv)

    raise UnknownFamily(f"unknown Cayley family {family!r}")


# ---------------------------------------------------------------------------
# Farey graph
# ---------------------------------------------------------------------------


def farey_graph(Q: int, P: Optional[int] = None) -> Construction:
    """Farey graph truncation: infinity (= 1/0) plus every reduced p/q with
    1 <= q <= Q and |p| <= P, adjacent when |ps - qr| = 1.  Generators
    S: z -> -1/z and T: z -> z + 1 act as partial maps.  Both caps are
    needed for finiteness; vertices within one step of either cap are marked
    boundary.
    """
    if Q < 1:
        raise FormatError("Q must be >= 1")
    if P is None:
        P = 3 * Q
    if P < 1:
        raise FormatError("P must be >= 1")

    # pos[q, p + P]: index of p/q in ids (q-major, then p), -1 where
    # gcd(|p|, q) > 1
    ps = np.arange(-P, P + 1, dtype=np.int64)
    qs = np.arange(1, Q + 1, dtype=np.int64)
    reduced = np.gcd(np.abs(ps)[None, :], qs[:, None]) == 1
    pos = np.full((Q + 1, 2 * P + 1), -1, dtype=np.int64)
    pos[1:][reduced] = np.arange(1, int(reduced.sum()) + 1)
    qq, pp = np.nonzero(reduced)
    nums, dens = ps[pp], qs[qq]
    ids = ["inf"] + [str(p) if q == 1 else f"{p}/{q}"
                     for p, q in zip(nums.tolist(), dens.tolist())]
    N = len(ids)
    src = np.arange(1, N, dtype=np.int64)

    # r/s ~ p/q exactly when r = (ps -+ 1)/q is an integer, so each finite
    # vertex has at most two neighbours per denominator s, each edge found
    # from its lower position; infinity = 1/0 joins every integer
    ends = [np.stack((np.zeros(2 * P + 1, dtype=np.int64), pos[1, :]), axis=1)]
    for s in range(1, Q + 1):
        for e in (-1, 1):
            r, rem = np.divmod(nums * s + e, dens)
            ok = (rem == 0) & (np.abs(r) <= P)
            i = src[ok]
            j = pos[s, r[ok] + P]
            up = i < j
            ends.append(np.stack((i[up], j[up]), axis=1))
    edge_of_window = (dens >= Q - 1) | (np.abs(nums) >= P - 1)
    graph = MetricGraph(ids, np.concatenate(ends), boundary=src[edge_of_window])

    # S: p/q -> -q/p, written (-sign(p) q)/|p|, and infinity -> 0.  At 0 it
    # gives -1/0, which is not the vertex 1/0, so S is undefined there.
    # T: p/q -> (p + q)/q fixes infinity.
    s_ok = (nums != 0) & (np.abs(nums) <= Q) & (dens <= P)
    s_dst = pos[np.abs(nums[s_ok]), P - np.sign(nums[s_ok]) * dens[s_ok]]
    t_ok = np.abs(nums + dens) <= P
    t_dst = pos[dens[t_ok], nums[t_ok] + dens[t_ok] + P]
    action = _action_on(graph, ids, [
        ("S", np.stack((np.append(0, src[s_ok]), np.append(pos[1, P], s_dst)), axis=1)),
        ("T", np.stack((np.append(0, src[t_ok]), np.append(0, t_dst)), axis=1))])
    return Construction(graph, action, "inf", extras={"Q": Q, "P": P})


# ---------------------------------------------------------------------------
# Bass-Serre tree of BS(1,2)
# ---------------------------------------------------------------------------
#
# BS(1,2) = <a, t | t a t^-1 = a^2> acts on the 2-adic affine line, a as
# x -> x + 1 and t as x -> 2x.  Cosets of <a> correspond to 2-adic balls,
# encoded (m, r): the set of points congruent to r mod 2^m, with r a dyadic
# rational in [0, 2^m).  Each ball splits into two at level m+1 and sits
# inside one at level m-1, giving a 3-regular tree; the parent chain
# m -> -infinity is the end fixed by the whole group.
#
# The builder stores r as the integer R = r * 2^D with D = radius + 1: the
# ball reaches level -radius, whose parents (level -radius - 1) are looked
# up too, and every r there is a multiple of 2^-D.  Reduction mod 2^m is
# then a mask of the low m + D bits.


def bass_serre_tree_bs12(radius: int) -> Construction:
    if radius < 1:
        raise FormatError("radius must be >= 1")
    D = radius + 1

    def mask(m):
        return (1 << (m + D)) - 1

    def neighbors(v):
        m, R = v
        return ((m - 1, R & mask(m - 1)), (m + 1, R), (m + 1, R + (1 << (m + D))))

    def vid(m, R):
        if R == 0:
            return f"m{m}:0/1"
        tz = min((R & -R).bit_length() - 1, D)
        return f"m{m}:{R >> tz}/{1 << (D - tz)}"

    dist = _ball_bfs((0, 0), neighbors, radius)
    pos = {v: k for k, v in enumerate(dist)}
    ids = [vid(*v) for v in dist]
    graph = MetricGraph(ids, _moves(pos, lambda v: (v[0] - 1, v[1] & mask(v[0] - 1))),
                        boundary=[k for k, d in enumerate(dist.values()) if d == radius])
    action = _action_on(graph, ids, [
        ("a", _moves(pos, lambda v: (v[0], (v[1] + (1 << D)) & mask(v[0])))),
        ("t", _moves(pos, lambda v: (v[0] + 1, (2 * v[1]) & mask(v[0] + 1))))])
    ray = [vid(-j, 0) for j in range(radius + 1)]
    return Construction(graph, action, ray[0], extras={"radius": radius, "ray": ray})


# ---------------------------------------------------------------------------
# cone, double line, horoball
# ---------------------------------------------------------------------------


def cone_graph(base: MetricGraph, base_action: Optional[GroupAction] = None,
               basepoint: Optional[str] = None) -> Construction:
    """Join an apex to every vertex of the base.  Any automorphism action on
    the base extends by fixing the apex; the result has diameter <= 2 no
    matter how spread out the base was."""
    if base.has_vertex("apex"):
        raise FormatError("base already has a vertex named 'apex'")
    n = base.n      # the position of the apex; base vertex i keeps position i
    spokes = np.stack((np.arange(n), np.full(n, n)), axis=1)
    graph = MetricGraph(base.vertex_ids + ("apex",), np.concatenate((base.edge_array(), spokes)),
                        boundary=base.indices(base.boundary).tolist() + ([n] if base.boundary else []))
    action = None
    if base_action is not None:
        if base_action.mode != "automorphism":
            raise FormatError("cone extension needs an automorphism-mode base action")
        apex = base_action.space.n
        action = _action_on(graph, base_action.space.vertex_ids + ("apex",), [
            (gm.name, np.append(np.stack(gm.pairs(), axis=1), [[apex, apex]], axis=0))
            for gm in base_action.generators])
    basepoint = min(base.vertex_ids) if basepoint is None else basepoint
    graph.checked_index(basepoint, "basepoint")
    return Construction(graph, action, basepoint, extras={"apex": "apex"})


def double_line_graph(n: int, swaps: Sequence[int] = (0, 3)) -> Construction:
    """Two parallel lines with crossing edges: (k,1)~(k+1,2) and
    (k,1)~(k-1,2).  The twins (k,1), (k,2) are non-adjacent with identical
    neighborhoods, so swapping any single pair is an automorphism; the
    emitted generators are the shift s and the swaps sigma_k for the
    requested positions."""
    if n < 1:
        raise FormatError("n must be >= 1")
    for k in swaps:
        if abs(k) > n:
            raise FormatError(f"swap position {k} outside [-{n}, {n}]")

    # (k, i) has position 2 (k + n) + i - 1, so for k < n, (k, 1) at p has
    # (k, 2) at p + 1 and (k + 1, 1), (k + 1, 2) at p + 2, p + 3
    ids = [f"({k},{i})" for k in range(-n, n + 1) for i in (1, 2)]
    p = np.arange(0, 4 * n, 2)
    edges = np.concatenate([np.stack(e, axis=1) for e in
                            ((p, p + 2), (p + 1, p + 3), (p + 2, p + 1), (p, p + 3))])
    graph = MetricGraph(ids, edges, boundary=[0, 1, 4 * n, 4 * n + 1])
    maps = [("s", np.stack((np.arange(4 * n), np.arange(2, 4 * n + 2)), axis=1))]
    for k in swaps:
        image, q = np.arange(len(ids)), 2 * (k + n)
        image[[q, q + 1]] = q + 1, q
        maps.append((f"sigma{k}", np.stack((np.arange(len(ids)), image), axis=1)))
    return Construction(graph, _action_on(graph, ids, maps), "(0,1)",
                        extras={"n": n, "swaps": list(swaps)})


def horoball(base: MetricGraph, base_action: Optional[GroupAction] = None,
             depth: int = 1, basepoint: Optional[str] = None) -> Construction:
    """Combinatorial horoball over the base, truncated at the given depth:
    levels 0..depth, vertical edges between consecutive copies of a vertex,
    and a level-n edge between v and w whenever 0 < d_base(v, w) <= 2^n.
    Distances between far-apart base vertices shrink to O(log) by routing
    through deep levels.  The depth cut and any base boundary are marked.
    The default basepoint is min(base ids)|0, the least base vertex at level
    0."""
    if depth < 1:
        raise FormatError("depth must be >= 1")
    ids_base = base.vertex_ids
    nb = base.n
    # base vertex i at level j has position j * nb + i; vertical edges join p, p + nb
    ids = [f"{v}|{j}" for j in range(depth + 1) for v in ids_base]
    below = np.arange(depth * nb)
    edges = [np.stack((below, below + nb), axis=1)]
    for j in range(depth + 1):
        close = np.triu((base.dist > 0) & (base.dist <= 2 ** j), 1)
        edges.append(np.argwhere(close) + j * nb)

    boundary = np.concatenate((below[:nb] + depth * nb,
                               (base.indices(base.boundary)[:, None] + nb * np.arange(depth)).ravel()))
    graph = MetricGraph(ids, np.concatenate(edges), boundary=boundary)
    action = None
    if base_action is not None:
        if base_action.mode != "automorphism":
            raise FormatError("horoball extension needs an automorphism-mode base action")
        ids_act = base_action.space.vertex_ids
        action = _action_on(graph, [f"{v}|{j}" for j in range(depth + 1) for v in ids_act], [
            (gm.name, np.concatenate([np.stack(gm.pairs(), axis=1) + j * len(ids_act)
                                      for j in range(depth + 1)]))
            for gm in base_action.generators])
    basepoint = f"{ids_base[0]}|0" if basepoint is None else basepoint
    graph.checked_index(basepoint, "basepoint")
    return Construction(graph, action, basepoint, extras={"depth": depth})
