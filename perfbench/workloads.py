"""The four workloads: seeded inputs, the operations of one round, and what
each operation's output is checked against.

`BUILDERS[name](workdir, seed)` writes the workload's input files into
workdir and returns a `Workload`.  Operation paths are relative to workdir, which is
the working directory while operations run, so reports do not depend on
where the checkout lives.  The seed changes labels, shapes and chosen words,
never the sizes, so every seed asks for about the same work.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

FIXTURES = ("bs12-r8", "cone-z-r10", "coset-c30", "doubleline-n16",
            "f2-r5", "farey-Q20", "horoball-line-d7")


@dataclass
class Workload:
    ops: list                          # one round, in order
    cold: dict                         # the smallest operation, for cold_start_s


def op(name, check, argv=None, **kw):
    d = {"name": name, "check": check}
    if argv is not None:
        d["argv"] = argv
    d.update(kw)
    return d


# -- graph files written by the benchmark itself ---------------------------------


def write_graph(path, vertices, edges):
    with open(path, "w") as fh:
        json.dump({"format": "qtlab-graph-v1", "vertices": list(vertices),
                   "edges": [list(e) for e in edges]}, fh, separators=(",", ":"))
        fh.write("\n")


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def grid(rng, m, n):
    vid = lambda i, j: f"g{i}_{j}"
    edges = [(vid(i, j), vid(i + 1, j)) for i in range(m - 1) for j in range(n)]
    edges += [(vid(i, j), vid(i, j + 1)) for i in range(m) for j in range(n - 1)]
    return _shuffled(rng, [vid(i, j) for i in range(m) for j in range(n)]), _shuffled(rng, edges)


def cycle(rng, n):
    labels = _shuffled(rng, [f"c{k}" for k in range(n)])
    return labels, [(labels[k], labels[(k + 1) % n]) for k in range(n)]


def random_tree(rng, n, extra=0, prefix="t"):
    """Random recursive tree (each vertex hangs off a uniform earlier one) on
    shuffled labels, plus `extra` distinct non-tree edges."""
    labels = _shuffled(rng, [f"{prefix}{k}" for k in range(n)])
    edges = [(labels[i], labels[rng.randrange(i)]) for i in range(1, n)]
    have = {frozenset(e) for e in edges}
    while extra:
        a, b = rng.sample(labels, 2)
        if frozenset((a, b)) not in have:
            have.add(frozenset((a, b)))
            edges.append((a, b))
            extra -= 1
    return labels, edges


def farey_vid(p, q):
    """qtlab's id for p/q: 'inf' for 1/0, 'p' for integers, else 'p/q'."""
    return "inf" if q == 0 else (str(p) if q == 1 else f"{p}/{q}")


def farey_fractions(Q, P):
    return [(1, 0)] + [(p, q) for q in range(1, Q + 1) for p in range(-P, P + 1)
                       if gcd(abs(p), q) == 1]


def farey(Q, P):
    """Farey graph truncation: 1/0 and reduced p/q with q <= Q, |p| <= P,
    adjacent iff |ps - qr| = 1.  Determinants are taken in row blocks."""
    fr = farey_fractions(Q, P)
    ids = [farey_vid(p, q) for p, q in fr]
    num = np.array([p for p, q in fr], dtype=np.int64)
    den = np.array([q for p, q in fr], dtype=np.int64)
    edges = []
    for i0 in range(0, len(fr), 256):
        det = np.abs(num[i0:i0 + 256, None] * den[None, :] - den[i0:i0 + 256, None] * num[None, :])
        for i, j in np.argwhere(det == 1):
            if i0 + i < j:
                edges.append((ids[i0 + i], ids[j]))
    return ids, edges


def farey_action(Q, P):
    """S: z -> -1/z and T: z -> z + 1 where the image stays in the truncation."""
    fr = set(farey_fractions(Q, P))
    canon = lambda p, q: (-p, -q) if q < 0 else (p, q)
    maps = {"S": {}, "T": {}}
    for p, q in fr:
        for name, img in (("S", canon(-q, p)), ("T", canon(p + q, q))):
            if img in fr:
                maps[name][farey_vid(p, q)] = farey_vid(*img)
    return maps


def farey_count(Q, P):
    """Vertices of the Farey truncation: infinity plus the reduced p/q with
    1 <= q <= Q and |p| <= P."""
    return 1 + sum(1 for q in range(1, Q + 1) for p in range(-P, P + 1) if gcd(abs(p), q) == 1)


def bs12_ball(radius):
    """Ball in the Bass-Serre tree of BS(1,2) = <a, t | t a t^-1 = a^2>.
    Vertices are 2-adic balls (m, r), r a dyadic rational in [0, 2^m);
    (m, r) has parent (m-1, r mod 2^(m-1)) and children (m+1, r) and
    (m+1, r + 2^m).  a acts as r -> r+1 and t as (m, r) -> (m+1, 2r).
    Returns ids, edges and the generator maps, with qtlab's id format."""
    two = Fraction(2)
    parent = lambda m, r: (m - 1, r % two ** (m - 1))
    seen = {(0, Fraction(0)): 0}
    frontier = [(0, Fraction(0))]
    for d in range(radius):
        nxt = []
        for m, r in frontier:
            for v in (parent(m, r), (m + 1, r), (m + 1, r + two ** m)):
                if v not in seen:
                    seen[v] = d + 1
                    nxt.append(v)
        frontier = nxt
    vid = lambda v: f"m{v[0]}:{v[1].numerator}/{v[1].denominator}"
    edges = [(vid(v), vid(parent(*v))) for v in seen if parent(*v) in seen]
    maps = {"a": {}, "t": {}}
    for m, r in seen:
        for name, img in (("a", (m, (r + 1) % two ** m)), ("t", (m + 1, (2 * r) % two ** (m + 1)))):
            if img in seen:
                maps[name][vid((m, r))] = vid(img)
    return [vid(v) for v in seen], edges, maps


def _qtlab(argv, workdir):
    """Run one qtlab command during set-up (fixture files)."""
    from ops import run_op

    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        rc, out, err = run_op({"argv": argv})
    finally:
        os.chdir(cwd)
    if rc != 0:
        raise RuntimeError(f"set-up command {argv} failed: {err}")


# -- analyze ---------------------------------------------------------------------


def build_analyze(workdir, seed):
    rng = random.Random(f"analyze:{seed}")
    members = []   # (file stem, kind, params, vertices, edges)
    for m, n in ((8, 8), (10, 10), (6, 12)):
        members.append((f"grid{m}x{n}", "grid", {"m": m, "n": n}, *grid(rng, m, n)))
    for n in (40, 61, 90):
        members.append((f"cycle{n}", "cycle", {"n": n}, *cycle(rng, n)))
    for n, extra in ((36, 12), (80, 20)):
        members.append((f"random{n}", "graph", {}, *random_tree(rng, n, extra, "r")))
    for Q, P in ((4, 8), (5, 10)):
        members.append((f"farey{Q}_{P}", "graph", {}, *farey(Q, P)))
    for n in (60, 100):
        members.append((f"tree{n}", "tree", {}, *random_tree(rng, n)))
    ops = []
    for stem, kind, params, vs, es in members:
        path = f"{stem}.graph.json"
        write_graph(os.path.join(workdir, path), vs, es)
        ops.append(op(f"analyze {stem}", {"kind": "analyze", "graph": path,
                                          "family": kind, **params},
                      ["analyze", "--graph", path]))
    smallest = min(ops, key=lambda o: os.path.getsize(os.path.join(workdir, o["check"]["graph"])))
    return Workload(ops, smallest)


# -- quasitree -------------------------------------------------------------------


def build_quasitree(workdir, seed):
    rng = random.Random(f"quasitree:{seed}")
    members = []
    for k in range(4):
        members.append((f"tree100_{k}", *random_tree(rng, 100)))
    for k in range(2):
        members.append((f"tree150x3_{k}", *random_tree(rng, 150, 3)))
    for Q, P in ((6, 12), (7, 10)):
        members.append((f"farey{Q}_{P}", *farey(Q, P)))
    for m, n in ((12, 12), (15, 15), (10, 20)):
        members.append((f"grid{m}x{n}", *grid(rng, m, n)))
    ops = []
    for stem, vs, es in members:
        path = f"{stem}.graph.json"
        write_graph(os.path.join(workdir, path), vs, es)
        ops.append(op(f"quasitree {stem}", {"kind": "quasitree", "graph": path},
                      quasitree=path, c_max=rng.choice((0, 1, 2, 3))))
    for name in ("cone-z-r10", "coset-c30", "doubleline-n16"):
        _qtlab(["fixtures", name, "--out", "."], workdir)
        path = f"{name}.graph.json"
        ops.append(op(f"quasitree {name}", {"kind": "quasitree", "graph": path},
                      quasitree=path, c_max=rng.choice((0, 1, 2, 3))))
    smallest = min(ops, key=lambda o: os.path.getsize(os.path.join(workdir, o["quasitree"])))
    return Workload(ops, smallest)


# -- actions ---------------------------------------------------------------------


def _random_word(rng, letters, length):
    """A freely reduced word over the generator names, in qtlab's syntax."""
    out = []
    while len(out) < length:
        name, sign = rng.choice(letters), rng.choice((1, -1))
        if out and out[-1] == (name, -sign):
            continue
        out.append((name, sign))
    return " ".join(n if s == 1 else f"{n}^-1" for n, s in out)


def build_actions(workdir, seed):
    rng = random.Random(f"actions:{seed}")
    fx = "fx"
    os.makedirs(os.path.join(workdir, fx), exist_ok=True)
    for name in FIXTURES:
        _qtlab(["fixtures", name, "--out", fx], workdir)
    base = {}
    for name in FIXTURES:
        with open(os.path.join(workdir, fx, f"{name}.manifest.json")) as fh:
            base[name] = json.load(fh)["basepoint"]
    act = lambda name: f"{fx}/{name}.action.json"

    ops = []
    for name, horizon in (("bs12-r8", 6), ("f2-r5", 5), ("coset-c30", 6),
                          ("doubleline-n16", 6), ("cone-z-r10", 6), ("farey-Q20", 4)):
        ops.append(op(f"orbit {name}", {"kind": "orbit", "action": act(name),
                                        "basepoint": base[name], "horizon": horizon,
                                        "radius": horizon},
                      ["orbit", "--action", act(name), "--basepoint", base[name],
                       "--horizon", str(horizon)]))
    for name, r, horizon in (("bs12-r8", 2, 5), ("f2-r5", 1, 4), ("doubleline-n16", 2, 6)):
        ops.append(op(f"rips-orbit {name}", {"kind": "rips", "action": act(name),
                                             "basepoint": base[name], "r": r,
                                             "horizon": horizon},
                      ["rips-orbit", "--action", act(name), "--basepoint", base[name],
                       "--r", str(r), "--horizon", str(horizon)]))
    # verdicts the mathematics forces: a finite group acts with bounded
    # orbits, F2 acts freely with independent loxodromics, BS(1,2) fixes
    # an end of its Bass-Serre tree and is not lineal, and Z acts
    # cocompactly on the quasi-line
    for name, verdict, conf in (("coset-c30", "Bounded", "certified"),
                                ("f2-r5", "General", "certified"),
                                ("bs12-r8", "QuasiParabolic", None),
                                ("doubleline-n16", "Lineal", None)):
        ops.append(op(f"classify {name}", {"kind": "classify_action", "verdict": verdict,
                                           "confidence": conf},
                      ["classify", "--action", act(name), "--basepoint", base[name],
                       "--horizon", "8"]))
    words = [("horoball-line-d7", "s", 64, "ParabolicCandidate")]
    for name, letters, length in (("bs12-r8", ("a", "t"), 3), ("bs12-r8", ("a", "t"), 5),
                                  ("f2-r5", ("x", "y"), 2), ("f2-r5", ("x", "y"), 3),
                                  ("coset-c30", None, 2)):
        if letters is None:
            with open(os.path.join(workdir, act(name))) as fh:
                letters = tuple(g["name"] for g in json.load(fh)["generators"])
        words.append((name, _random_word(rng, letters, length), 16, None))
    for name, word, horizon, verdict in words:
        ops.append(op(f"classify {name} {word}",
                      {"kind": "classify_word", "action": act(name), "basepoint": base[name],
                       "word": word, "horizon": horizon, "verdict": verdict},
                      ["classify", "--action", act(name), "--basepoint", base[name],
                       "--word", word, "--horizon", str(horizon)]))
    for name, horizon, expect in (("bs12-r8", 5, {"stabilizer_growth_warning": True}),
                                  ("f2-r5", 4, {"max_stabilizer": 1, "uniform_0": 1})):
        ops.append(op(f"properness {name}", {"kind": "properness", "expect": expect},
                      ["properness", "--action", act(name), "--horizon", str(horizon)]))
    for name, horizon in (("bs12-r8", 5), ("f2-r5", 4)):
        ops.append(op(f"distortion {name}", {"kind": "distortion", "factors": [act(name)]},
                      ["product", "distortion", "--factors", act(name),
                       "--horizon", str(horizon)]))

    n = rng.randrange(5, 41)
    ops.append(op("lm exponents", {"kind": "lm_exponents", "n": n},
                  ["lm", "exponents", "--n", str(n)]))
    k = rng.randrange(20, 31)
    ops.append(op("lm obstruction", {"kind": "lm_obstruction", "k_max": k},
                  ["lm", "obstruction", "--k-max", str(k)]))
    x = Fraction(rng.randrange(1, 40), rng.randrange(1, 9))
    y = Fraction(rng.randrange(-40, 40), rng.randrange(1, 9))
    dirs = [(1, 0), (0, 1), (1, 1), (2, -1)]
    dirs += [(rng.randrange(-5, 6), rng.randrange(-5, 6)) for _ in range(6)]
    samples = [[[m, nn], str(abs(m * x + nn * y))] for m, nn in dirs]
    with open(os.path.join(workdir, "samples.json"), "w") as fh:
        json.dump({"samples": samples}, fh)
    ops.append(op("lm fit", {"kind": "lm_fit", "x": str(x), "y": str(y)},
                  ["lm", "fit", "--samples", "samples.json"]))

    sizes = (7, 9)
    for k, size in enumerate(sizes):
        vs = [f"p{i}" for i in range(size)]
        write_graph(os.path.join(workdir, f"path{k}.graph.json"), vs,
                    [(vs[i], vs[i + 1]) for i in range(size - 1)])
    factors = ["path0.graph.json", "path1.graph.json"]
    a = (rng.randrange(sizes[0]), rng.randrange(sizes[1]))
    b = (rng.randrange(sizes[0]), rng.randrange(sizes[1]))
    while a[0] == b[0] or a[1] == b[1]:
        b = (rng.randrange(sizes[0]), rng.randrange(sizes[1]))
    px = json.dumps([f"p{a[0]}", f"p{a[1]}"])
    py = json.dumps([f"p{b[0]}", f"p{b[1]}"])
    ops.append(op("product distance", {"kind": "product_distance", "x": a, "y": b},
                  ["product", "distance", "--factors", *factors, "--x", px, "--y", py]))
    ops.append(op("product geodesics", {"kind": "product_geodesics", "x": a, "y": b},
                  ["product", "geodesics", "--factors", *factors, "--x", px, "--y", py]))
    cold = next(o for o in ops if o["name"] == "lm exponents")
    return Workload(ops, cold)


# -- large-truncation ------------------------------------------------------------

FAREY_Q, FAREY_P = 24, 72
BS12_RADIUS = 9


def build_large_truncation(workdir, seed):
    """The program builds the truncations; set-up writes the benchmark's own
    copies of them (graph and generator maps) for the construct checks."""
    rng = random.Random(f"large-truncation:{seed}")
    os.makedirs(os.path.join(workdir, "reference"))
    fv, fe = farey(FAREY_Q, FAREY_P)
    bv, be, bmaps = bs12_ball(BS12_RADIUS)
    plan = (("farey", {"Q": FAREY_Q, "P": FAREY_P}, farey_count(FAREY_Q, FAREY_P),
             (fv, fe), farey_action(FAREY_Q, FAREY_P), "inf", ("S", "T"), 4),
            ("bs12", {"radius": BS12_RADIUS}, 1 + 3 * (2 ** BS12_RADIUS - 1),
             (bv, be), bmaps, "m0:0/1", ("a", "t"), 5))
    ops = []
    for family, params, n_vertices, (vs, es), maps, bp, letters, rips_horizon in plan:
        g, a = f"{family}.graph.json", f"{family}.action.json"
        ref = f"reference/{family}.json"
        with open(os.path.join(workdir, ref), "w") as fh:
            json.dump({"vertices": vs, "edges": es, "generators": maps}, fh)
        ops.append(op(f"construct {family}",
                      {"kind": "construct", "graph": g, "action": a, "reference": ref,
                       "n_vertices": n_vertices, "tree": family == "bs12"},
                      ["construct", family, "--params", json.dumps(params, sort_keys=True),
                       "--out", g, "--action-out", a]))
        ops.append(op(f"orbit {family}", {"kind": "orbit", "action": a, "basepoint": bp,
                                          "horizon": 6, "radius": 6},
                      ["orbit", "--action", a, "--basepoint", bp, "--horizon", "6"]))
        ops.append(op(f"rips-orbit {family}", {"kind": "rips", "action": a, "basepoint": bp,
                                               "r": 2, "horizon": rips_horizon},
                      ["rips-orbit", "--action", a, "--basepoint", bp, "--r", "2",
                       "--horizon", str(rips_horizon)]))
        # two words on the larger truncation: an odd number of operations
        # per round keeps op_p50_s inside one cluster of operation times
        for _ in range(2 if family == "farey" else 1):
            word = _random_word(rng, letters, rng.randrange(2, 5))
            ops.append(op(f"classify {family} {word}",
                          {"kind": "classify_word", "action": a, "basepoint": bp,
                           "word": word, "horizon": 16, "verdict": None},
                          ["classify", "--action", a, "--basepoint", bp, "--word", word,
                           "--horizon", "16"]))
    cold = ops[5]   # construct bs12, the smallest operation
    return Workload(ops, cold)


BUILDERS = {
    "analyze": build_analyze,
    "quasitree": build_quasitree,
    "actions": build_actions,
    "large-truncation": build_large_truncation,
}
