"""Checks on the program's outputs, computed apart from qtlab.

Nothing here imports qtlab.  Graphs and actions are read from the JSON input
files with the standard library; distances come from this module's own BFS.
Each check either recomputes a reported number independently or tests a
property the method must have.  A check raises `CheckFailed` naming the
operation and the mismatch.  `CORRUPTIONS` lists, per kind of check, wrong
answers that the check must reject; ``run.py --selftest`` feeds them in.
"""

from __future__ import annotations

import json
import os
from collections import deque
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np


class CheckFailed(Exception):
    pass


def need(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# -- graphs and actions read from their files ------------------------------------


class Graph:
    def __init__(self, vertices, edges):
        self.ids = [str(v) for v in vertices]
        self.index = {v: i for i, v in enumerate(self.ids)}
        self.edges = [(self.index[a], self.index[b]) for a, b in edges]
        self.adj = [[] for _ in self.ids]
        for i, j in self.edges:
            self.adj[i].append(j)
            self.adj[j].append(i)

    @property
    def n(self):
        return len(self.ids)

    def bfs(self, src, limit=None):
        """Distances from src (-1 unreachable), optionally only up to limit."""
        dist = [-1] * self.n
        dist[src] = 0
        q = deque([src])
        while q:
            u = q.popleft()
            if limit is not None and dist[u] >= limit:
                continue
            for v in self.adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    q.append(v)
        return dist

    def apsp(self):
        return np.array([self.bfs(s) for s in range(self.n)], dtype=np.int64)

    def is_tree(self):
        return len(self.edges) == self.n - 1 and min(self.bfs(0)) >= 0


def read_json(workdir, path):
    with open(os.path.join(workdir, path)) as fh:
        return json.load(fh)


def read_graph(workdir, path):
    d = read_json(workdir, path)
    return Graph(d["vertices"], d["edges"])


class Action:
    """Generator maps of an action file, on vertex indices of its graph."""

    def __init__(self, workdir, path):
        d = read_json(workdir, path)
        ref = d["graph"]
        if isinstance(ref, str):
            ref = read_json(os.path.join(workdir, os.path.dirname(path)), ref)
        self.graph = Graph(ref["vertices"], ref["edges"])
        ix = self.graph.index
        self.maps = {}
        for gen in d["generators"]:
            fwd = {ix[a]: ix[b] for a, b in gen["map"]}
            self.maps[(gen["name"], 1)] = fwd
            self.maps[(gen["name"], -1)] = {b: a for a, b in fwd.items()}
        self.names = [gen["name"] for gen in d["generators"]]

    def letters(self):
        return [(n, s) for n in self.names for s in (1, -1)]

    def apply(self, word, v):
        """Image of vertex index v under the word (letters left to right);
        None where the word leaves the truncation."""
        for letter in word:
            v = self.maps[letter].get(v)
            if v is None:
                return None
        return v

    def orbit(self, x0, horizon):
        """Orbit points within word length horizon, and whether every letter
        applied to a point short of the horizon stayed inside."""
        depth = {x0: 0}
        frontier, complete = [x0], True
        for d in range(horizon):
            nxt = []
            for v in frontier:
                for letter in self.letters():
                    w = self.maps[letter].get(v)
                    if w is None:
                        complete = False
                    elif w not in depth:
                        depth[w] = d + 1
                        nxt.append(w)
            frontier = nxt
        return set(depth), complete


def parse_word(text):
    """qtlab's word syntax: 'a b^-1 c^2', letters applied left to right."""
    out = []
    for tok in text.replace("*", " ").split():
        name, _, exp = tok.partition("^")
        k = int(exp) if exp else 1
        out.extend([(name, 1 if k > 0 else -1)] * abs(k))
    return out


# -- four-point and bottleneck facts -----------------------------------------------


def defect2(D, x, y, z, w):
    return int(D[x, y] + D[z, w] - max(D[x, z] + D[y, w], D[x, w] + D[y, z]))


def brute_two_delta(D):
    """Largest minus second largest of the three pairing sums, maximized
    over 4-subsets (the same definition as tests/_oracles.py)."""
    best = 0
    for x, y, z, w in combinations(range(len(D)), 4):
        s = sorted((D[x, y] + D[z, w], D[x, z] + D[y, w], D[x, w] + D[y, z]))
        best = max(best, int(s[2] - s[1]))
    return best


def cycle_two_delta(n):
    """2*delta of the n-cycle: 2q for n = 4q, 4q+2, 4q+3 and 2q-1 for
    n = 4q+1.  `confirm_cycle_formula` checks it by brute force."""
    q, r = divmod(n, 4)
    return 2 * q - 1 if r == 1 else 2 * q


def cycle_distances(n):
    i = np.arange(n)
    d = np.abs(i[:, None] - i[None, :])
    return np.minimum(d, n - d)


def confirm_cycle_formula(upto=18):
    for n in range(3, upto + 1):
        need(brute_two_delta(cycle_distances(n)) == cycle_two_delta(n),
             f"cycle formula disagrees with brute force at n={n}")


def check_bottleneck(g: Graph, D, constant, witness, where):
    """The constant C is exact iff (1) some geodesic pair through some z is
    joined by a path outside B(z, C-1), shown by the witness, and (2) at level
    C no geodesic pair through any z is connected in {d(z, .) > C}.  The
    level sets only shrink as the level grows, so (1) and (2) pin C."""
    need(isinstance(constant, int) and constant >= 0, f"{where}: bad constant {constant!r}")
    if constant == 0:
        need(witness is None, f"{where}: constant 0 with a witness")
    else:
        need(witness is not None, f"{where}: constant {constant} without a witness")
        ix = g.index
        x, y, z = ix[witness["x"]], ix[witness["y"]], ix[witness["z"]]
        path = [ix[v] for v in witness["avoiding_path"]]
        need(path[0] == x and path[-1] == y, f"{where}: witness path does not join x to y")
        edges = {frozenset(e) for e in g.edges}
        need(all(frozenset((a, b)) in edges for a, b in zip(path, path[1:])),
             f"{where}: witness path uses a non-edge")
        need(all(D[z, v] > constant - 1 for v in path),
             f"{where}: witness path enters B(z, {constant - 1})")
        need(D[x, z] + D[z, y] == D[x, y], f"{where}: z is not on a geodesic from x to y")
    n = g.n
    for z in range(n):
        r = D[z]
        alive = r > constant
        up = alive.tolist()
        label = [-1] * n
        for s in range(n):
            if not up[s] or label[s] >= 0:
                continue
            label[s] = s
            q = [s]
            while q:
                u = q.pop()
                for v in g.adj[u]:
                    if up[v] and label[v] < 0:
                        label[v] = s
                        q.append(v)
        label = np.array(label)
        same = (label[:, None] == label[None, :]) & alive[:, None] & alive[None, :]
        geo = (r[:, None] + r[None, :]) == D
        hit = np.argwhere(same & geo)
        need(len(hit) == 0,
             f"{where}: at level {constant}, {g.ids[hit[0][0]] if len(hit) else ''}.."
             f"{g.ids[hit[0][1]] if len(hit) else ''} through {g.ids[z]} stays connected")


def check_analyze(rep, spec, workdir):
    g = read_graph(workdir, spec["graph"])
    D = g.apsp()
    res = rep["results"]
    where = f"analyze {spec['graph']}"
    need(res["n_vertices"] == g.n and res["n_edges"] == len(g.edges), f"{where}: sizes")
    need(res["is_tree"] == g.is_tree(), f"{where}: is_tree")
    need(res["diameter"] == int(D.max()), f"{where}: diameter")
    t = res["two_delta"]
    need(res["delta"] == str(Fraction(t, 2)), f"{where}: delta is not two_delta / 2")
    x, y, z, w = (g.index[v] for v in res["delta_witness"])
    need(defect2(D, x, y, z, w) == t, f"{where}: witness defect is not {t}")
    fam = spec["family"]
    if fam == "tree":
        need(t == 0, f"{where}: a tree has 2*delta 0, got {t}")
    elif fam == "grid":
        need(t == 2 * (min(spec["m"], spec["n"]) - 1), f"{where}: grid 2*delta {t}")
    elif fam == "cycle":
        need(t == cycle_two_delta(spec["n"]), f"{where}: cycle 2*delta {t}")
    if g.n <= 40:
        need(t == brute_two_delta(D), f"{where}: brute force disagrees with {t}")
    check_bottleneck(g, D, res["bottleneck_constant"], res["bottleneck_witness"], where)


def check_quasitree(rep, spec, workdir):
    g = read_graph(workdir, spec["graph"])
    where = f"quasitree {spec['graph']}"
    need(rep["n_vertices"] == g.n, f"{where}: size")
    check_bottleneck(g, g.apsp(), rep["constant"], rep["witness"], where)
    need(rep["passed"] == (rep["constant"] <= rep["c_max"]), f"{where}: passed")


# -- actions -----------------------------------------------------------------------


def check_orbit(rep, spec, workdir):
    a = Action(workdir, spec["action"])
    x0 = a.graph.index[spec["basepoint"]]
    dist = a.graph.bfs(x0)
    res = rep["results"]
    where = f"orbit {spec['action']}"

    def counts(horizon):
        pts, _ = a.orbit(x0, horizon)
        ds = [dist[p] for p in pts]
        return [sum(1 for d in ds if 0 <= d <= rho) for rho in range(spec["radius"] + 1)]

    pts, complete = a.orbit(x0, spec["horizon"])
    need(res["size"] == len(pts), f"{where}: size {res['size']} != {len(pts)}")
    need(res["complete"] == complete, f"{where}: complete")
    need(res["ball_counts"] == counts(spec["horizon"]), f"{where}: ball counts")
    need(res["ball_counts_half_horizon"] == counts(max(1, spec["horizon"] // 2)),
         f"{where}: half-horizon ball counts")


def check_rips(rep, spec, workdir):
    a = Action(workdir, spec["action"])
    x0 = a.graph.index[spec["basepoint"]]
    pts, _ = a.orbit(x0, spec["horizon"])
    r = spec["r"]
    edges = []
    for p in pts:
        near = a.graph.bfs(p, limit=r)
        edges += [(p, q) for q in pts if q > p and 0 < near[q] <= r]
    parent = {p: p for p in pts}

    def find(p):
        while parent[p] != p:
            p = parent[p]
        return p

    for p, q in edges:
        parent[find(p)] = find(q)
    dist = a.graph.bfs(x0)
    radius = max(dist[a.maps[(n, 1)][x0]] for n in a.names)
    res = rep["results"]
    where = f"rips-orbit {spec['action']}"
    need(res["orbit_size"] == len(pts), f"{where}: orbit size")
    need(res["n_edges"] == len(edges), f"{where}: {res['n_edges']} edges, expected {len(edges)}")
    need(res["connected"] == (len({find(p) for p in pts}) == 1), f"{where}: connected")
    need(res["connectivity_radius"] == radius, f"{where}: connectivity radius")


def _tree_distance(g: Graph):
    """d(u, v) on a tree from depths and parents of one BFS."""
    depth = g.bfs(0)
    parent = [-1] * g.n
    for u in range(g.n):
        for v in g.adj[u]:
            if depth[v] == depth[u] - 1:
                parent[u] = v

    def d(u, v):
        k = 0
        while u != v:
            if depth[u] >= depth[v]:
                u = parent[u]
            else:
                v = parent[v]
            k += 1
        return k

    return d


def check_classify_word(rep, spec, workdir):
    a = Action(workdir, spec["action"])
    g = a.graph
    word = parse_word(spec["word"])
    x0 = g.index[spec["basepoint"]]
    res = rep["results"]
    where = f"classify {spec['action']} {spec['word']!r}"
    if spec.get("verdict"):
        need(res["verdict"] == spec["verdict"],
             f"{where}: verdict {res['verdict']}, expected {spec['verdict']}")
    points = [x0]
    cycle = None
    truncated = False
    for k in range(1, spec["horizon"] + 1):
        nxt = a.apply(word, points[-1])
        if nxt is None:
            truncated = True
            break
        if nxt in points:
            cycle = (points.index(nxt), k)
            break
        points.append(nxt)
    method = res["method"]
    cert = res["certificate"]
    need(res["truncated"] == truncated, f"{where}: truncated should be {truncated}")
    if method == "power-orbit-cycle":
        need(cycle is not None, f"{where}: no cycle in the power orbit")
        j, k = cycle
        need((cert["cycle_start"], cert["period"], cert["vertex"]) == (j, k - j, g.ids[points[j]]),
             f"{where}: cycle certificate {cert}")
        need(res["verdict"] == "Elliptic", f"{where}: a periodic orbit is elliptic")
        return
    need(cycle is None, f"{where}: missed the power-orbit cycle {cycle}")
    if method == "tree-min-displacement":
        need(g.is_tree(), f"{where}: tree method on a non-tree")
        d = _tree_distance(g)
        images = {v: a.apply(word, v) for v in range(g.n)}
        disp = {v: d(v, w) for v, w in images.items() if w is not None}
        m = min(disp.values())
        kind = cert["kind"]
        if kind == "inverted-edge":
            need(m == 1 and any(disp[v] == 1 and images.get(images[v]) == v for v in disp),
                 f"{where}: no inverted edge at displacement 1")
            tau = 0
        else:
            need(kind in ("fixed-vertex", "axis"), f"{where}: kind {kind}")
            tau = m
            need((kind == "fixed-vertex") == (m == 0), f"{where}: kind {kind} at displacement {m}")
        need(Fraction(res["tau_upper"]) == tau, f"{where}: tau {res['tau_upper']}, "
                                                f"minimum displacement gives {tau}")
        need(res["verdict"] == ("Loxodromic" if tau > 0 else "Elliptic"), f"{where}: verdict")
        return
    if method == "insufficient-data":
        need(len(points) - 1 < 2 and res["verdict"] == "Unknown",
             f"{where}: the power orbit has {len(points) - 1} steps, enough for a verdict")
        return
    if len(points) - 1 >= 2:
        dist = g.bfs(x0)
        tau = min(Fraction(dist[p], k) for k, p in enumerate(points) if k > 0)
        need(Fraction(res["tau_upper"]) == tau, f"{where}: tau_upper {res['tau_upper']} != {tau}")


def check_classify_action(rep, spec, workdir):
    res = rep["results"]
    need(res["verdict"] == spec["verdict"],
         f"classify: verdict {res['verdict']}, expected {spec['verdict']}")
    if spec.get("confidence"):
        need(res["confidence"] == spec["confidence"], f"classify: confidence {res['confidence']}")


def check_properness(rep, spec, workdir):
    res = rep["results"]
    exp = spec["expect"]
    if "max_stabilizer" in exp:
        # a free action: only the identity fixes a vertex
        need(res["max_stabilizer"] == exp["max_stabilizer"], f"properness: max_stabilizer {res}")
    if "uniform_0" in exp:
        need(res["uniform"][0] == [0, exp["uniform_0"]], f"properness: N_0 {res['uniform'][0]}")
    if "stabilizer_growth_warning" in exp:
        # vertex stabilizers of BS(1,2) on its tree are infinite
        need(res["stabilizer_growth_warning"] is exp["stabilizer_growth_warning"],
             "properness: stabilizer growth warning not raised")


def check_distortion(rep, spec, workdir):
    actions = [Action(workdir, p) for p in spec["factors"]]
    res = rep["results"]
    x0 = [a.graph.index[c] for a, c in zip(actions, json.loads(res["basepoint"]))]
    dists = [a.graph.bfs(x) for a, x in zip(actions, x0)]
    raw = [Fraction(v) for v in res["raw"]]
    for k, wit in enumerate(res["witnesses"]):
        if wit is None:
            continue
        pt = list(x0)
        for name, sign in parse_word(wit):
            fi, _, gen = name[1:].partition("_")
            pt[int(fi)] = actions[int(fi)].maps[(gen, sign)].get(pt[int(fi)])
            need(pt[int(fi)] is not None, f"distortion: witness {wit} leaves the truncation")
        val = Fraction(sum(d[p] for d, p in zip(dists, pt)), k + 1)
        need(val == raw[k], f"distortion: witness {wit} gives {val}, reported {raw[k]}")
    env = [min(raw[:k + 1]) for k in range(len(raw))]
    need([Fraction(v) for v in res["envelope"]] == env, "distortion: envelope")


def _mat_pow(M, n):
    out = ((1, 0), (0, 1))
    for _ in range(n):
        out = tuple(tuple(sum(out[i][k] * M[k][j] for k in range(2)) for j in range(2))
                    for i in range(2))
    return out


def check_lm_exponents(rep, spec, workdir):
    n = spec["n"]
    res = rep["results"]
    P = _mat_pow(((3, 4), (-4, 3)), n)
    need((res["alpha"], res["beta"], res["gamma"], res["delta"]) == (*P[0], *P[1]),
         f"lm exponents: M^{n} mismatch")
    re, im = 1, 0
    for _ in range(n):
        re, im = 3 * re - 4 * im, 3 * im + 4 * re
    need((res["gaussian"]["re"], res["gaussian"]["im"]) == (re, im), "lm exponents: (3+4i)^n")
    need(res["norm_identity"] is True, "lm exponents: norm identity")


def check_lm_obstruction(rep, spec, workdir):
    res = rep["results"]
    for row in res["first_rows"]:
        k = row["k"]
        P = _mat_pow(((3, 4), (-4, 3)), k)
        for key, sign in (("det_plus", 1), ("det_minus", -1)):
            s = sign * 5 ** k
            det = (P[0][0] - s) * (P[1][1] - s) - P[0][1] * P[1][0]
            need(row[key] == det, f"lm obstruction: {key} at k={k}")
    # (3+4i)/5 is not a root of unity, so no power of M is +-5^k I
    need(res["all_obstructed"] is True and res["unobstructed_k"] == [], "lm obstruction")


def check_lm_fit(rep, spec, workdir):
    res = rep["results"]
    need((Fraction(res["x"]), Fraction(res["y"])) == (Fraction(spec["x"]), Fraction(spec["y"])),
         f"lm fit: ({res['x']}, {res['y']}) is not the planted ({spec['x']}, {spec['y']})")
    need(Fraction(res["residual"]) == 0 and res["audit"]["passed"] is True, "lm fit: residual")


def check_product_distance(rep, spec, workdir):
    (a0, a1), (b0, b1) = spec["x"], spec["y"]
    need(rep["results"]["exact"] == abs(a0 - b0) + abs(a1 - b1), "product distance")


def check_product_geodesics(rep, spec, workdir):
    (a0, a1), (b0, b1) = spec["x"], spec["y"]
    d0, d1 = abs(a0 - b0), abs(a1 - b1)
    res = rep["results"]
    need(res["geodesic_count"] == comb(d0 + d1, d0),
         f"product geodesics: {res['geodesic_count']} != C({d0 + d1}, {d0})")
    need(res["passed"] is True and res["overflow"] is False, "product geodesics: passed")


def check_construct(rep, spec, workdir):
    """Vertex counts against the closed forms the workload computed:
    1 + 3(2^r - 1) for the BS(1,2) tree ball, one edge fewer as it is a tree;
    1 + #{reduced p/q : 1 <= q <= Q, |p| <= P} for the Farey truncation.
    The written graph and action must equal the benchmark's own copy."""
    res = rep["results"]
    n = spec["n_vertices"]
    where = f"construct {spec['graph']}"
    need(res["n_vertices"] == n, f"{where}: {res['n_vertices']} vertices, closed form {n}")
    if spec["tree"]:
        need(res["n_edges"] == n - 1, f"{where}: {res['n_edges']} edges in a tree on {n}")
    g = read_json(workdir, spec["graph"])
    a = read_json(workdir, spec["action"])
    ref = read_json(workdir, spec["reference"])
    need(len(g["vertices"]) == n and len(g["edges"]) == res["n_edges"],
         f"{where}: written file disagrees with the report")
    need(set(g["vertices"]) == set(ref["vertices"]), f"{where}: vertex set")
    edges = lambda es: {frozenset(e) for e in es}
    need(edges(g["edges"]) == edges(ref["edges"]), f"{where}: edge set")
    gens = {gen["name"]: {s: t for s, t in gen["map"]} for gen in a["generators"]}
    need(gens == ref["generators"], f"{where}: generator maps")


CHECKS = {
    "analyze": check_analyze,
    "quasitree": check_quasitree,
    "orbit": check_orbit,
    "rips": check_rips,
    "classify_word": check_classify_word,
    "classify_action": check_classify_action,
    "properness": check_properness,
    "distortion": check_distortion,
    "lm_exponents": check_lm_exponents,
    "lm_obstruction": check_lm_obstruction,
    "lm_fit": check_lm_fit,
    "product_distance": check_product_distance,
    "product_geodesics": check_product_geodesics,
    "construct": check_construct,
}


def check(op, stdout: bytes, workdir):
    """Raise CheckFailed unless stdout is a correct answer to op."""
    CHECKS[op["check"]["kind"]](json.loads(stdout), op["check"], workdir)


# -- wrong answers each check must reject ------------------------------------------


def _bump(path, k=1):
    """A copy of the report with the number at path (keys / indices) moved by k."""
    def f(rep):
        rep = json.loads(json.dumps(rep))
        node = rep
        for key in path[:-1]:
            node = node[key]
        val = node[path[-1]]
        if val is None:
            return None
        if isinstance(val, str):
            node[path[-1]] = str(Fraction(val) + k)
        else:
            node[path[-1]] = val + k
        return rep
    return f


def _set(path, value):
    def f(rep):
        rep = json.loads(json.dumps(rep))
        node = rep
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return rep
    return f


def _shift_witness(key):
    """Move one witness vertex to another vertex of the graph."""
    def f(rep):
        rep = json.loads(json.dumps(rep))
        res = rep.get("results", rep)
        wit = res[key]
        if wit is None:
            return None
        if isinstance(wit, list):
            wit[0] = wit[1] if wit[0] != wit[1] else wit[2]
        else:
            path = wit["avoiding_path"]
            wit["z"] = path[len(path) // 2]
        return rep
    return f


def _distortion_raw(rep):
    res = rep["results"]
    ks = [k for k, w in enumerate(res["witnesses"]) if w is not None]
    return _bump(("results", "raw", ks[-1]))(rep) if ks else None


CORRUPTIONS = {
    "analyze": [_bump(("results", "bottleneck_constant")),
                _bump(("results", "bottleneck_constant"), -1),
                _shift_witness("bottleneck_witness"),
                _bump(("results", "two_delta"), 2),
                _shift_witness("delta_witness")],
    "quasitree": [_bump(("constant",)), _shift_witness("witness"),
                  lambda rep: _set(("passed",), not rep["passed"])(rep)],
    "orbit": [_bump(("results", "size")), _bump(("results", "ball_counts", -1)),
              _bump(("results", "ball_counts_half_horizon", 0))],
    "rips": [_bump(("results", "n_edges")), _bump(("results", "connectivity_radius"))],
    "classify_word": [_bump(("results", "tau_upper")),
                      lambda rep: _set(("results", "truncated"),
                                       not rep["results"]["truncated"])(rep),
                      lambda rep: _set(("results", "verdict"),
                                       "Unknown" if rep["results"]["verdict"] != "Unknown"
                                       else "Elliptic")(rep)],
    "classify_action": [_set(("results", "verdict"), "Undetermined")],
    "properness": [_bump(("results", "max_stabilizer")),
                   _set(("results", "stabilizer_growth_warning"), False)],
    "distortion": [_distortion_raw],
    "lm_exponents": [_bump(("results", "beta")), _bump(("results", "gaussian", "im"))],
    "lm_obstruction": [_bump(("results", "first_rows", 0, "det_plus"))],
    "lm_fit": [_bump(("results", "x"))],
    "product_distance": [_bump(("results", "exact"))],
    "product_geodesics": [_bump(("results", "geodesic_count"))],
    "construct": [_bump(("results", "n_vertices")), _bump(("results", "n_edges"))],
}
