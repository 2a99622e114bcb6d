"""Partial group actions on finite graph truncations.

Generators are injective partial maps of the vertex set (inverses derived),
stored as index arrays with -1 where a map is undefined.  Inside this
module a vertex is its index: ids come in as basepoints, rays and x0
arguments and leave only in result fields.  Orbits and power orbits are
walked over index arrays, and fixed sets and ping-pong quadrants are masks.
Each job is done once per call: classify_action_type maps and walks each
classified word once, and the ambient slack 4*delta is computed at most
once per classify call and never kept between calls; the realized walk
returns the elements of one horizon.
Everything downstream treats the truncation as a window onto an infinite
action: orbit computations stay honest about frontier escapes, translation
lengths come as upper bounds with certificates, and classification verdicts
carry a certified/heuristic grade.

Word convention: a word is a sequence of signed generator letters applied
left to right, so evaluating [s, t] at v yields t(s(v)).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    EndNotInvariant,
    FormatError,
    NotATree,
    NotAQuasitree,
    OutOfTruncation,
    SizeLimitExceeded,
)
from .metric_graph import (
    MetricGraph,
    QuasitreeResult,
    hyperbolicity_delta,
)

# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

# the most letters Word.parse expands a word to; exponents are summed first
WORD_LETTERS_CAP = 10 ** 6


class Word:
    """Sequence of signed generator letters, e.g. Word([("t", 1), ("a", -1)])."""

    __slots__ = ("letters",)

    def __init__(self, letters: Sequence[Tuple[str, int]] = ()):
        letters = tuple(letters)
        for letter in letters:
            # a bool is an int, and 1.0 == 1: both are refused, not taken as 1
            if (type(letter) is not tuple or len(letter) != 2 or not isinstance(letter[0], str)
                    or type(letter[1]) is not int or letter[1] not in (1, -1)):
                raise FormatError(f"a letter must be a (name, sign) tuple of a str and "
                                  f"the int 1 or -1, got {letter!r}")
        self.letters = letters

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse 'a b^-1 c^2' (spaces or '*' between letters).  A word of more
        than WORD_LETTERS_CAP letters is refused before it is expanded."""
        powers, length = [], 0
        for tok in text.replace("*", " ").split():
            if "^" in tok:
                name, exp = tok.split("^", 1)
                try:
                    k = int(exp)
                except ValueError:
                    raise FormatError(f"bad exponent in {tok!r}") from None
            else:
                name, k = tok, 1
            if not name:
                raise FormatError(f"bad token {tok!r}")
            powers.append((name, k))
            length += abs(k)
        if length > WORD_LETTERS_CAP:
            raise SizeLimitExceeded(length, WORD_LETTERS_CAP, "Word.parse", "letters")
        return cls([(name, 1 if k > 0 else -1) for name, k in powers for _ in range(abs(k))])

    def inverse(self) -> "Word":
        return Word([(n, -s) for n, s in reversed(self.letters)])

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def power(self, k: int) -> "Word":
        if k < 0:
            return self.inverse().power(-k)
        return Word(self.letters * k)

    def reduced(self) -> "Word":
        """Free reduction: cancel adjacent inverse pairs."""
        out: List[Tuple[str, int]] = []
        for n, s in self.letters:
            if out and out[-1][0] == n and out[-1][1] == -s:
                out.pop()
            else:
                out.append((n, s))
        return Word(out)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def display(self) -> str:
        if not self.letters:
            return "1"
        out = []
        for n, s in self.letters:
            if out and out[-1][0] == n and out[-1][1] * s > 0:
                out[-1] = (n, out[-1][1] + s)
            else:
                out.append((n, s))
        return " ".join(n if k == 1 else f"{n}^{k}" for n, k in out)

    def __repr__(self):
        return f"Word({self.display()!r})"


@dataclass(frozen=True, eq=False)
class GeneratorMap:
    name: str
    forward: np.ndarray   # forward[i] = image of vertex index i, -1 undefined
    backward: np.ndarray  # the inverse map, same convention

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """(sources, images) index arrays where the map is defined, sources
        ascending."""
        src = np.nonzero(self.forward >= 0)[0]
        return src, self.forward[src]


def forward_map(n: int, src, dst) -> np.ndarray:
    """Index array of length n sending src[k] to dst[k], -1 elsewhere."""
    fwd = np.full(n, -1, dtype=np.int64)
    fwd[src] = dst
    return fwd


class GroupAction:
    """A finite set of partial graph symmetries acting on a MetricGraph.

    generators are (name, forward) pairs, forward an index array of length
    space.n with -1 where undefined (action_from_maps takes id dicts).
    mode 'automorphism' checks that each generator preserves the adjacency
    relation wherever both endpoints are defined, on the edges of its domain
    and image; mode 'isometry' checks full distance preservation on defined
    pairs, which needs the full distance matrix.  The first broken pair is
    reported in id order.
    """

    def __init__(self, space: MetricGraph, generators, mode: str = "automorphism"):
        if mode not in ("automorphism", "isometry"):
            raise FormatError(f"unknown mode {mode!r}")
        self.space = space
        self.mode = mode
        n = space.n
        ends = space.edge_array()
        gens: List[GeneratorMap] = []
        names = set()
        for name, forward in generators:
            if not isinstance(name, str):
                raise FormatError(f"generator names must be strings, got {name!r}")
            if not name or name in names:
                raise FormatError(f"generator names must be unique and nonempty, got {name!r}")
            names.add(name)
            fwd = np.array(forward, dtype=np.int64)
            if fwd.shape != (n,) or ((fwd < -1) | (fwd >= n)).any():
                raise FormatError(f"generator {name!r} must be an index array of "
                                  f"length {n} with entries from -1 to {n - 1}")
            src = np.flatnonzero(fwd >= 0)
            dst = fwd[src]
            bwd = forward_map(n, dst, src)
            if np.count_nonzero(bwd >= 0) != len(src):
                raise FormatError(f"generator {name!r} is not injective")
            if mode == "isometry" or not _preserves_adjacency(space, ends, fwd, bwd):
                self._check_mode(name, src, dst)
            fwd.setflags(write=False)
            bwd.setflags(write=False)
            gens.append(GeneratorMap(name, fwd, bwd))
        self.generators = tuple(gens)
        self._by_name = {g.name: g for g in gens}

    def _check_mode(self, name: str, src: np.ndarray, dst: np.ndarray):
        if not len(src):
            return
        if self.mode == "isometry":
            A = self.space.dist[np.ix_(src, src)]
            B = self.space.dist[np.ix_(dst, dst)]
            bad = np.argwhere(A != B)
        else:
            bad = _adjacency_breaks(self.space, src, dst)
        if len(bad):
            i, j = bad[0]
            u = self.space.vertex_ids[int(src[i])]
            v = self.space.vertex_ids[int(src[j])]
            raise FormatError(
                f"generator {name!r} violates {self.mode} mode at pair ({u!r}, {v!r})"
            )

    def gen(self, name: str) -> GeneratorMap:
        try:
            return self._by_name[name]
        except KeyError:
            raise FormatError(f"no generator named {name!r}") from None

    def letters(self) -> List[Tuple[str, int]]:
        """Every signed letter: generator index ascending, +1 before -1."""
        return [(g.name, s) for g in self.generators for s in (1, -1)]

    def letter_map(self, name: str, sign: int) -> np.ndarray:
        g = self.gen(name)
        return g.forward if sign > 0 else g.backward

    def apply_letter(self, name: str, sign: int, i: int) -> Optional[int]:
        j = int(self.letter_map(name, sign)[i])
        return j if j >= 0 else None

    def __repr__(self):
        return f"GroupAction({len(self.generators)} generators on {self.space!r}, mode={self.mode})"


def action_from_maps(space: MetricGraph, generators, mode: str = "automorphism") -> GroupAction:
    """GroupAction from (name, {source id: image id}) generator maps."""
    return GroupAction(space, [
        (name, forward_map(space.n, space.indices(m.keys()), space.indices(m.values())))
        for name, m in generators], mode)


def _preserves_adjacency(g: MetricGraph, ends: np.ndarray, fwd: np.ndarray,
                         bwd: np.ndarray) -> bool:
    """Whether the injective partial map fwd, with inverse bwd, sends every
    edge of its domain to an edge and every edge of its image comes from
    one.  ends is g.edge_array().  The images of the domain edges are
    distinct edges inside the image, so they are all of them exactly when
    the two edge counts agree."""
    i, j = fwd[ends[:, 0]], fwd[ends[:, 1]]
    inside = (i >= 0) & (j >= 0)
    return bool(g.adjacent(i[inside], j[inside]).all()) and (
        np.count_nonzero((bwd[ends[:, 0]] >= 0) & (bwd[ends[:, 1]] >= 0))
        == np.count_nonzero(inside))


def _adjacency_breaks(g: MetricGraph, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Position pairs (i, j), i < j, in lexicographic order, where exactly
    one of src[i] ~ src[j] and dst[i] ~ dst[j] holds: the domain edges whose
    images are not edges and the image edges whose preimages are not.  These
    are the upper half of the pairs where adjacency matrices over src and
    dst differ, and the first of them is the first of those in row-major
    order."""
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[src] = np.arange(len(src))
    ipos = np.full(g.n, -1, dtype=np.int64)
    ipos[dst] = np.arange(len(dst))
    ends = g.edge_array()
    found = []
    for at, there in ((pos, dst), (ipos, src)):
        i, j = at[ends[:, 0]], at[ends[:, 1]]
        keep = (i >= 0) & (j >= 0)
        i, j = i[keep], j[keep]
        broken = ~g.adjacent(there[i], there[j])
        found.append(np.stack((np.minimum(i, j), np.maximum(i, j)), axis=1)[broken])
    pairs = np.concatenate(found)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


# ---------------------------------------------------------------------------
# evaluation and orbits
# ---------------------------------------------------------------------------


def evaluate_word(a: GroupAction, w: Word, v: str) -> str:
    """Apply w to v letter by letter; OutOfTruncation names the first failing
    letter position and the vertex where evaluation stood."""
    cur = a.space.index(v)
    for pos, (name, sign) in enumerate(w.letters):
        nxt = a.apply_letter(name, sign, cur)
        if nxt is None:
            raise OutOfTruncation(pos, a.space.vertex_ids[cur],
                                  name if sign > 0 else f"{name}^-1")
        cur = nxt
    return a.space.vertex_ids[cur]


def word_map(a: GroupAction, w: Word) -> np.ndarray:
    """Composite partial map of w on all vertices; -1 marks undefined.  Each
    generator the word names is looked up first, so the first unknown one
    is refused.  The walk then follows only the vertices where the map is
    still defined, and stops once there are none: no later letter can define
    it again."""
    for name in dict.fromkeys(map(itemgetter(0), w.letters)):
        a.gen(name)
    src = cur = np.arange(a.space.n, dtype=np.int64)
    for name, sign in w.letters:
        nxt = a.letter_map(name, sign)[cur]
        live = nxt >= 0
        src, cur = src[live], nxt[live]
        if not len(src):
            break
    return forward_map(a.space.n, src, cur)


@dataclass(frozen=True)
class OrbitResult:
    basepoint: str
    horizon: int
    vertices: tuple            # ids in BFS discovery order
    witnesses: dict            # id -> Word (shortest, lex-first by generator index then sign)
    complete: bool             # no generator application left the truncation
    exhausted: bool            # BFS closed before the horizon cut it off

    @property
    def size(self) -> int:
        return len(self.vertices)


def _orbit_walk(a: GroupAction, xi: int, horizon: int):
    """BFS of the orbit of index xi under every letter, up to word length
    horizon, over index arrays.  At each depth the (frontier x letter) image
    table is read in row-major order, letters as in a.letters(), and the
    first hit on each unseen vertex is kept: the order in which a loop over
    frontier vertices, then letters, discovers them.

    Returns (order, parent, letter, depth, complete, exhausted): order[k] is
    the k-th vertex found, parent[k] the position in order of the vertex it
    was reached from (-1 for xi), letter[k] the letter's position in
    a.letters() (-1 for xi) and depth[k] its word length.  complete is False
    once some letter is undefined on the frontier; exhausted is True when
    the walk closed before the horizon cut it off."""
    n = a.space.n
    maps = np.array([a.letter_map(name, sign) for name, sign in a.letters()],
                    dtype=np.int64).reshape(-1, n)
    seen = np.zeros(n, dtype=bool)
    seen[xi] = True
    frontier = np.array([xi], dtype=np.int64)
    order, parent, letter = [frontier], [np.array([-1])], [np.array([-1])]
    start = 0              # position in order of frontier[0]
    complete = True
    while len(frontier) and len(order) <= horizon:
        table = maps[:, frontier].T.ravel()
        defined = table >= 0
        complete = complete and bool(defined.all())
        hits = np.flatnonzero(defined)
        hits = hits[~seen[table[hits]]]
        _, first = np.unique(table[hits], return_index=True)
        hits = hits[np.sort(first)]
        parent.append(start + hits // len(maps))
        letter.append(hits % len(maps))
        start += len(frontier)
        frontier = table[hits]
        seen[frontier] = True
        order.append(frontier)
    depth = np.repeat(np.arange(len(order)), [len(o) for o in order])
    return (np.concatenate(order), np.concatenate(parent), np.concatenate(letter), depth,
            complete, not len(frontier))


def orbit(a: GroupAction, x0: str, horizon: int) -> OrbitResult:
    """BFS orbit of x0 under all generators and inverses, up to word length
    `horizon`.  Expansion order is generator index ascending, +1 before -1,
    which makes witness words the lexicographically-first shortest ones."""
    return _orbit_result(a, x0, horizon, _orbit_walk(a, a.space.index(x0), horizon))


def _orbit_result(a: GroupAction, x0: str, horizon: int, walk) -> OrbitResult:
    """The OrbitResult of a walk to horizon or, at horizon 0, to depth 1: at
    horizon 0 the orbit is x0 alone, complete and not exhausted."""
    order, parent, letter, _, complete, exhausted = walk
    if horizon == 0:
        order, complete, exhausted = order[:1], True, False
    letters = a.letters()
    words = [()]
    for p, k in zip(parent[1:len(order)].tolist(), letter[1:len(order)].tolist()):
        words.append(words[p] + (letters[k],))
    ids = [a.space.vertex_ids[i] for i in order.tolist()]
    return OrbitResult(x0, horizon, tuple(ids),
                       {v: Word(w) for v, w in zip(ids, words)}, complete, exhausted)


@dataclass(frozen=True)
class LocalFinitenessReport:
    basepoint: str
    horizon: int
    counts: tuple              # counts[rho] = orbit points within distance rho, full horizon
    counts_half_horizon: tuple
    growth_warning: bool
    orbit: OrbitResult         # orbit(a, basepoint, horizon), from the same walk

    @property
    def verdict(self) -> str:
        return "growth-warning" if self.growth_warning else "locally-finite-at-horizon"


def check_locally_finite_orbit(a: GroupAction, x0: str, rho_max: int, horizon: int) -> LocalFinitenessReport:
    """Counts orbit points in balls around x0, at the full horizon and at half
    of it.  A count that is still growing with the horizon at fixed radius is
    evidence against a locally finite orbit and raises the warning flag.
    One walk to the larger horizon serves both, and the orbit itself: a point
    is in the orbit at horizon h exactly when its witness word has length at
    most h."""
    half = max(1, horizon // 2)
    xi = a.space.index(x0)
    walk = _orbit_walk(a, xi, max(horizon, half))
    order, depth = walk[0], walk[3]
    dist = a.space.rows([xi])[0][order]

    def ball_counts(h):
        # unreachable points sit at distance -1 and stay uncounted
        ds = np.sort(dist[(depth <= h) & (dist >= 0)])
        return tuple(np.searchsorted(ds, np.arange(rho_max + 1), side="right").tolist())

    cf = ball_counts(horizon)
    ch = ball_counts(half)
    warning = any(f > h for f, h in zip(cf, ch))
    return LocalFinitenessReport(x0, horizon, cf, ch, warning,
                                 _orbit_result(a, x0, horizon, walk))


@dataclass(frozen=True)
class RipsOrbitGraph:
    r: int
    basepoint: str
    horizon: int
    graph: MetricGraph         # vertices = orbit points, edge iff 0 < d_X <= r
    orbit: OrbitResult


def rips_orbit_graph(a: GroupAction, x0: str, r: int, horizon: int) -> RipsOrbitGraph:
    """Rips graph of the orbit: vertices are the orbit points, with an edge
    between distinct points at ambient distance at most r."""
    if r < 0:
        raise FormatError("r must be >= 0")
    res = orbit(a, x0, horizon)
    idx = np.sort(a.space.indices(res.vertices))
    sub = a.space.rows(idx)[:, idx]
    close = np.triu((sub > 0) & (sub <= r), 1)
    vids = a.space.vertex_ids
    graph = MetricGraph([vids[i] for i in idx.tolist()], np.argwhere(close),
                        allow_disconnected=True)
    return RipsOrbitGraph(r, x0, horizon, graph, res)


def connectivity_radius(a: GroupAction, x0: str) -> int:
    """max over generators s of d(s(x0), x0); with r at least this value the
    Rips orbit graph is connected on BFS-reachable orbit points."""
    xi = a.space.index(x0)
    images = []
    for gm in a.generators:
        j = int(gm.forward[xi])
        if j < 0:
            raise OutOfTruncation(0, x0, gm.name)
        images.append(j)
    drow = a.space.rows([xi])[0]
    return max((int(drow[j]) for j in images), default=0)


# ---------------------------------------------------------------------------
# translation lengths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TauEstimate:
    word: Word
    basepoint: str
    horizon: int
    n_reached: int
    sequence: tuple            # Fractions d(g^n x0, x0) / n for n = 1..n_reached
    running_min: tuple
    truncated: bool

    @property
    def tau_upper(self) -> Optional[Fraction]:
        return self.running_min[-1] if self.running_min else None


def _power_orbit(img: np.ndarray, xi: int, horizon: int) -> np.ndarray:
    """Indices g^k x for k = 1, 2, ... up to horizon, where img is the map of
    g and x is index xi.  The walk stops where g is undefined, or back at xi:
    g is injective, so only xi can close a cycle, and past it the points
    repeat."""
    pts = []
    cur = xi
    while len(pts) < horizon:
        cur = int(img[cur])
        if cur < 0:
            break
        pts.append(cur)
        if cur == xi:
            break
    return np.array(pts, dtype=np.int64)


def stable_translation_length(a: GroupAction, w: Word, x0: str, horizon: int) -> TauEstimate:
    """Sequence d(g^n x0, x0)/n with its running minimum.  The limit is the
    infimum, so the final running minimum is an upper bound for tau."""
    xi = a.space.index(x0)
    pts = _power_orbit(word_map(a, w), xi, horizon)
    if len(pts) and pts[-1] == xi:
        pts = np.resize(pts, horizon)
    dists = a.space.rows([xi])[0][pts].tolist()
    seq = tuple(Fraction(d, k) for k, d in enumerate(dists, 1))
    return TauEstimate(w, x0, horizon, len(seq), seq, tuple(itertools.accumulate(seq, min)),
                       len(seq) < horizon)


def _require_tree(g: MetricGraph):
    if not g.is_tree():
        raise NotATree("space is not a tree")


def _tree_classify(a: GroupAction, w: Word, img: np.ndarray):
    """(tau, kind, vertex index) for a word w, with map img, acting on a
    tree truncation.

    kind is 'fixed-vertex', 'inverted-edge' or 'axis'; vertex attains the
    minimal displacement.  Exact for trees: min displacement is tau except
    for edge inversions, which translate by 0.
    """
    defined = np.nonzero(img >= 0)[0]
    if len(defined) == 0:
        raise OutOfTruncation(0, a.space.vertex_ids[0], w.display())
    disp = a.space.tree_distances(defined, img[defined])
    m = int(disp.min())
    at = defined[disp == m]    # ascending index, so ascending id
    if m == 0:
        return 0, "fixed-vertex", int(at[0])
    if m == 1:
        # g v is a neighbour of v, and g^2 v a neighbour of g v other than
        # itself: v again (an inverted edge) or, in a tree, at distance 2
        ffv = img[img[at]]
        seen = np.flatnonzero(ffv >= 0)
        if len(seen):
            v = int(at[seen[0]])
            return (0, "inverted-edge", v) if ffv[seen[0]] == v else (1, "axis", v)
    # cannot see g^2 anywhere at the minimum; report the displacement
    return m, "axis", int(at[0])


def tree_translation_length(a: GroupAction, w: Word) -> int:
    """Exact translation length on a tree: minimum vertex displacement, and 0
    for elliptic words (fixed vertex or inverted edge)."""
    _require_tree(a.space)
    return _tree_classify(a, w, word_map(a, w))[0]


# ---------------------------------------------------------------------------
# isometry classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsometryReport:
    word: Word
    verdict: str               # Elliptic | Loxodromic | ParabolicCandidate | Unknown
    confidence: str            # certified | heuristic
    method: str
    tau_upper: Optional[Fraction]
    tau_lower: Optional[Fraction]
    certificate: dict
    truncated: bool
    notes: tuple


def _ambient_slack(g: MetricGraph) -> Tuple[Fraction, Optional[str]]:
    """4 * delta when the hyperbolicity scan is within its size cap, else a
    documented default of 4 with a note."""
    try:
        return 4 * hyperbolicity_delta(g).delta, None
    except SizeLimitExceeded:
        return Fraction(4), "ambient delta not computed (graph over cap); using slack 4"


def classify_isometry(
    a: GroupAction,
    w: Word,
    x0: str,
    horizon: int = 32,
    space_is_quasitree: Optional[bool] = None,
) -> IsometryReport:
    """Elliptic / loxodromic / parabolic-candidate classification of one word.

    Pipeline: power-orbit cycle detection (elliptic, certified); exact
    translation length on trees; otherwise a displacement-doubling test with
    additive slack 4*delta of the ambient space (4 over the size cap) for
    loxodromy, and a decay gate for parabolic candidates: the tau upper
    bound must fall under the horoball rate 2*(1 + ceil(log2 n))/n and the
    power orbit must escape past 3/4 of the truncation radius seen from x0.
    Parabolic candidates are demoted to Unknown when the ambient space is
    known to be a quasitree (finitely generated groups acting on quasitrees
    have no parabolic isometries)."""
    xi = a.space.index(x0)
    img = word_map(a, w)
    quasitree = a.space.is_tree() if space_is_quasitree is None else space_is_quasitree
    return _classify(a, w, xi, None, img, _power_orbit(img, xi, horizon), horizon, quasitree,
                     functools.partial(_ambient_slack, a.space))


def _classify(a: GroupAction, w: Word, xi: int, drow: Optional[np.ndarray], img: np.ndarray,
              pts: np.ndarray, horizon: int, quasitree, slack) -> IsometryReport:
    """classify_isometry of w from vertex index xi, given the map img of w
    and its power orbit pts from xi to horizon.  drow is the distance row
    of xi, or None to compute it once the heuristics need it; slack()
    returns _ambient_slack(a.space), and is called only when the doubling
    test runs."""
    notes: List[str] = []
    ids = a.space.vertex_ids
    if len(pts) and pts[-1] == xi:
        return IsometryReport(
            w, "Elliptic", "certified", "power-orbit-cycle", Fraction(0), Fraction(0),
            {"cycle_start": 0, "period": len(pts), "vertex": ids[xi]}, False, tuple(notes))
    truncated = len(pts) < horizon

    if a.space.is_tree():
        try:
            tau, kind, vertex = _tree_classify(a, w, img)
        except OutOfTruncation:
            notes.append("tree method saw no defined vertex")
        else:
            if tau > 0:
                return IsometryReport(
                    w, "Loxodromic", "certified", "tree-min-displacement",
                    Fraction(tau), Fraction(tau),
                    {"kind": kind, "vertex": ids[vertex], "tau": tau}, truncated, tuple(notes))
            return IsometryReport(
                w, "Elliptic", "certified", "tree-min-displacement",
                Fraction(0), Fraction(0),
                {"kind": kind, "vertex": ids[vertex]}, truncated, tuple(notes))

    n_reached = len(pts)
    if n_reached < 2:
        notes.append("power orbit too short for heuristics")
        return IsometryReport(w, "Unknown", "heuristic", "insufficient-data",
                              None, None, {}, truncated, tuple(notes))

    if drow is None:
        drow = a.space.rows([xi])[0]
    dists = [0] + drow[pts].tolist()
    tau_upper = min(Fraction(dists[k], k) for k in range(1, n_reached + 1))

    slack, note = slack()
    if note:
        notes.append(note)
    doubling_ok = all(
        dists[2 * k] >= 2 * dists[k] - slack
        for k in range(1, n_reached // 2 + 1)
    )
    tau_lower = max((Fraction(dists[k]) - slack) / k for k in range(1, n_reached + 1))
    if doubling_ok and tau_lower > 0:
        return IsometryReport(
            w, "Loxodromic", "heuristic", "displacement-doubling",
            tau_upper, tau_lower,
            {"slack": str(slack), "n_reached": n_reached}, truncated, tuple(notes))

    ecc = int(drow.max())
    escape = max(dists) > Fraction(3, 4) * ecc
    decay_bound = Fraction(2 * (1 + math.ceil(math.log2(n_reached))), n_reached)
    decays = tau_upper <= decay_bound
    if escape and decays:
        if quasitree:
            notes.append("parabolic candidate demoted: ambient space is a quasitree")
            return IsometryReport(w, "Unknown", "heuristic", "decay-gate-demoted",
                                  tau_upper, None,
                                  {"decay_bound": str(decay_bound), "escape": True},
                                  truncated, tuple(notes))
        return IsometryReport(
            w, "ParabolicCandidate", "heuristic", "decay-gate",
            tau_upper, None,
            {"decay_bound": str(decay_bound), "max_displacement": max(dists), "ecc": ecc},
            truncated, tuple(notes))

    notes.append("no verdict gate fired")
    return IsometryReport(w, "Unknown", "heuristic", "inconclusive",
                          tau_upper, None, {}, truncated, tuple(notes))


# ---------------------------------------------------------------------------
# Serre fixed-point test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SerreResult:
    all_elliptic: bool
    fixed_vertex: Optional[str]
    culprit: Optional[Word]
    checked: tuple
    notes: tuple


def serre_elliptic_test(a: GroupAction, words: Optional[Sequence[Word]] = None) -> SerreResult:
    """On a tree: if every generator and every pairwise product is elliptic,
    a finitely generated group fixes a vertex.  Returns the lexicographically
    first common fixed vertex of the generator words, or the first
    non-elliptic word found."""
    _require_tree(a.space)
    if words is None:
        words = [Word([(gm.name, 1)]) for gm in a.generators]
    words = list(words)
    to_check = list(words)
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            to_check.append(words[i] * words[j])
    notes = []
    imgs = []
    for w in to_check:
        imgs.append(word_map(a, w))
        if _tree_classify(a, w, imgs[-1])[0] > 0:
            return SerreResult(False, None, w, tuple(v.display() for v in to_check), ())
    common = np.ones(a.space.n, dtype=bool)
    for img in imgs[:len(words)]:
        common &= img == np.arange(a.space.n)
    if not words or not common.any():
        notes.append("all words elliptic but no common fixed vertex inside the truncation")
        return SerreResult(True, None, None, tuple(v.display() for v in to_check), tuple(notes))
    best = a.space.vertex_ids[int(np.argmax(common))]
    return SerreResult(True, best, None, tuple(v.display() for v in to_check), ())


# ---------------------------------------------------------------------------
# Busemann homomorphism along an end
# ---------------------------------------------------------------------------


def busemann_homomorphism(a: GroupAction, ray: Sequence[str], w: Word) -> int:
    """Translation of the basepoint ray[0] along the end defined by a
    geodesic ray.  Computed as the stable value of

        d(g(ray[0]), ray[n]) - d(ray[0], ray[n]),

    positive when g moves the basepoint away from the end.  EndNotInvariant
    when the differences do not stabilize over the last three points of the
    ray."""
    ray = list(ray)
    if len(ray) < 3:
        raise EndNotInvariant("ray too short to certify an end")
    r0row = a.space.rows([a.space.checked_index(ray[0], "ray vertex")])[0]
    ridx = []
    for k, v in enumerate(ray):
        vi = a.space.checked_index(v, "ray vertex")
        if ridx and not a.space.adjacent(ridx[-1], vi):
            raise FormatError(f"ray is not a path at position {k}")
        if int(r0row[vi]) != k:
            raise FormatError(f"ray is not geodesic at position {k}")
        ridx.append(vi)
    ridx = np.array(ridx, dtype=np.int64)
    # The difference below stabilizes on trees even for a g sending the ray
    # toward a different end, so stabilization alone certifies nothing.  g
    # fixes the end only if the image of the ray stays within bounded
    # distance of the ray, so check that first.
    gmap = word_map(a, w)
    images = gmap[ridx]
    images = images[images >= 0]
    drift = [int(d) for d in a.space.rows(images)[:, ridx].min(axis=1)]
    if len(drift) < 3:
        raise EndNotInvariant("image of the ray leaves the truncation too early")
    if len(set(drift[-3:])) != 1:
        raise EndNotInvariant(
            f"image of the ray drifts away from it: distances {drift[-6:]}"
        )
    gx = a.space.index(evaluate_word(a, w, ray[0]))
    gxrow = a.space.rows([gx])[0]
    vals = [int(gxrow[vi]) - k for k, vi in enumerate(ridx)]
    tail = vals[-3:]
    if len(set(tail)) != 1:
        raise EndNotInvariant(
            f"Busemann differences do not stabilize along the ray tail: {vals[-6:]}"
        )
    return tail[0]


# ---------------------------------------------------------------------------
# realized elements (words deduplicated by their action on the truncation)
# ---------------------------------------------------------------------------


@dataclass
class RealizedElement:
    word: Word
    depth: int
    image: np.ndarray          # composite partial map, -1 undefined


def realized_elements(a: GroupAction, horizon: int) -> List[RealizedElement]:
    """BFS over words, deduplicated by their realized partial map: two words
    are identified when they agree on every vertex where both are defined,
    and merged maps keep the union of domains.  Identification by agreement
    undercounts distinct group elements, which keeps counts built on it
    honest lower bounds.  Only fresh elements are expanded, so the walk is
    bounded by (elements) x (letters).

    A candidate merges into the first element it does not contradict, and
    that element gains the candidate's extra domain."""
    words, depths, rows = _realized_walk(a, horizon)
    return [RealizedElement(w, d, rows[k]) for k, (w, d) in enumerate(zip(words, depths))]


def _realized_walk(a: GroupAction, horizon: int):
    """The walk of realized_elements, depth by depth up to horizon or until
    no fresh element turns up: (words, depths, rows), with rows[k] the
    image of element k.

    The candidates of a depth are the frontier rows times the letters, in
    that order, and _settle_batch takes them _BATCH at a time."""
    n = a.space.n
    letters = a.letters()
    # maps[j][img] is letter j after the partial map img: column n sends -1 to -1
    maps = np.full((len(letters), n + 1), -1, dtype=np.int64)
    for j, (name, sign) in enumerate(letters):
        maps[j, :n] = a.letter_map(name, sign)
    stack = _Stack(n)
    words, depths = [Word()], [0]
    frontier = [0]
    depth = 0
    while frontier and depth < horizon:
        nxt = []
        cands = [(e, j) for e in frontier for j in range(len(letters))]
        i = 0
        while i < len(cands):
            settled, added = _settle_batch(stack, maps, cands[i:i + _BATCH])
            for e, j in added:
                nxt.append(len(words))
                words.append(words[e] * Word([letters[j]]))
                depths.append(depth + 1)
            i += settled
        frontier = nxt
        depth += 1
    return words, depths, stack.rows()


_BATCH = 32       # candidates composed and screened together
_SCREEN = 8       # columns each candidate is screened on


class _Stack:
    """The images of the realized elements found so far: column r of cols is
    element r, -1 where undefined.  idle[v] counts the elements undefined at
    v or fixing it, which are the ones a screen on column v cannot tell
    apart from a candidate that fixes v."""

    def __init__(self, n: int):
        self.cols = np.empty((n, 64 + _BATCH), dtype=np.int64)
        self.cols[:, 0] = np.arange(n)
        self.count = 1
        self.idle = np.ones(n, dtype=np.int64)

    def reserve(self, count: int):
        if self.cols.shape[1] < count:
            self.cols = np.concatenate((self.cols, np.empty_like(self.cols)), axis=1)

    def rows(self) -> np.ndarray:
        return self.cols[:, :self.count].T


def _settle_batch(stack: _Stack, maps: np.ndarray, batch):
    """Settle the candidates of batch, (frontier row, letter index) pairs,
    in order, as the word walk does one at a time: a candidate merges into
    the first element it does not contradict, which gains the candidate's
    extra domain, or else becomes a new element.  Returns how many were
    settled and the pairs that became new elements, in order.  Fewer than
    len(batch) are settled only when a merge filled the frontier row of a
    later candidate, whose image is then stale.

    Merges only fill -1 entries, so a row that contradicts a candidate at
    the start of the batch contradicts it to the end.  The batch is screened
    and checked against the elements before it and against its own earlier
    candidates at the start (_screen_batch), and a row is checked again in
    the loop only when a merge has filled it since."""
    m = len(batch)
    n, count0 = stack.cols.shape[0], stack.count
    stack.reserve(count0 + m)
    cols = stack.cols
    es = [e for e, _ in batch]
    imgs = maps[np.array([j for _, j in batch])[:, None], cols[:, es].T]
    # candidate b stands at column count0 + b while the batch is screened;
    # the candidates that become elements take these columns in order
    cols[:, count0:count0 + m] = imgs.T
    defined = imgs >= 0
    dj, dcol = np.nonzero(defined)          # the domains, candidate by candidate
    start = np.searchsorted(dj, np.arange(m + 1))
    rr, bounds, status, fills = _screen_batch(stack, imgs, defined, dcol, start)
    start = start.tolist()
    ar = np.arange(n)
    filled = set()
    added = []
    is_added = [False] * m
    settled = m
    for b in range(m):
        if start[b] == start[b + 1]:
            continue
        k, fill = -1, False
        for p in range(bounds[b], bounds[b + 1]):
            r = rr[p]
            if status[p] == 0 or (r >= count0 and not is_added[r - count0]):
                continue
            if status[p] < 0 or r in filled:
                rest = [q for q, s in zip(rr[p:bounds[b + 1]], status[p:bounds[b + 1]]) if s]
                k, fill = _first_agreeing(cols, imgs, count0, is_added,
                                          dcol[start[b]:start[b + 1]], b, rest)
            else:
                k, fill = r, fills[p]
            break
        if k < 0:
            is_added[b] = True
            added.append(b)
            continue
        if not fill:
            continue
        img = imgs[b]
        row = cols[:, k] if k < count0 else imgs[k - count0]
        gain = (row < 0) & defined[b]
        row[gain] = img[gain]
        filled.add(k)
        if k < count0:
            stack.idle -= gain & (img != ar)
            if k in es[b + 1:]:
                settled = b + 1
                break
    if added:
        new = imgs[added]
        cols[:, count0:count0 + len(added)] = new.T
        stack.idle += ((new < 0) | (new == ar)).sum(axis=0)
        stack.count += len(added)
    return settled, [batch[b] for b in added]


def _screen_batch(stack: _Stack, imgs, defined, dcol, start):
    """The pairs of a candidate b and a column r of the stack that pass the
    screen, r running over the elements and then over the batch's earlier
    candidates, which stand at columns count0 + b'.  Returns the columns rr
    of the pairs, candidate by candidate and ascending, with rr[bounds[b]:
    bounds[b + 1]] those of candidate b, and per pair whether it agrees on
    the candidate's domain (1, 0, or -1 when unchecked) and whether a merge
    would fill a -1 entry.  Each candidate's first pair is checked, and all
    its pairs when the first one disagrees."""
    m, n = imgs.shape
    count0 = stack.count
    # a row that disagrees with a candidate on any column where both are
    # defined cannot agree on the whole domain: screen each candidate on its
    # defined columns where the fewest rows are idle (count0 + n exceeds
    # every idle count, so undefined columns come last)
    width = min(_SCREEN, n)
    screen = np.argpartition(np.where(defined, stack.idle, count0 + n), width - 1,
                             axis=1)[:, :width]
    vals = np.take_along_axis(imgs, screen, axis=1)[:, :, None]
    seen = stack.cols[screen, :count0 + m]
    passed = ((seen == vals) | (seen < 0) | (vals < 0)).all(axis=1)
    # only earlier candidates can have become elements, and a candidate
    # with an empty domain is skipped (_check_pairs needs a domain)
    passed[:, count0:] &= np.tri(m, k=-1, dtype=bool)
    passed &= (np.diff(start) > 0)[:, None]
    jj, rr = np.nonzero(passed)
    bounds = np.searchsorted(jj, np.arange(m + 1))
    status = np.full(len(jj), -1, dtype=np.int8)
    fills = np.zeros(len(jj), dtype=bool)
    first = bounds[:-1][bounds[:-1] < bounds[1:]]
    _check_pairs(stack.cols, imgs, start, dcol, jj, rr, first, status, fills)
    failed = jj[first[status[first] == 0]].tolist()
    if failed:
        rest = np.concatenate([np.arange(bounds[b] + 1, bounds[b + 1]) for b in failed])
        _check_pairs(stack.cols, imgs, start, dcol, jj, rr, rest, status, fills)
    return rr.tolist(), bounds.tolist(), status.tolist(), fills.tolist()


def _check_pairs(cols, imgs, start, dcol, jj, rr, sel, status, fills):
    """status and fills of the (candidate jj, column rr) pairs at sel, on
    the candidate's domain only: the domains of the pairs are laid end to
    end, one entry per (pair, domain column)."""
    if not len(sel):
        return
    cj = jj[sel]
    lo, size = start[cj], start[cj + 1] - start[cj]
    heads = np.cumsum(size) - size
    at = dcol[np.arange(heads[-1] + size[-1]) + np.repeat(lo - heads, size)]
    got = cols[at, np.repeat(rr[sel], size)]
    want = imgs[np.repeat(cj, size), at]
    status[sel] = ~np.logical_or.reduceat((got != want) & (got >= 0), heads)
    fills[sel] = np.logical_or.reduceat(got < 0, heads)


def _first_agreeing(cols, imgs, count0, is_added, dom, b, targets):
    """The first of targets, ascending columns of the stack or count0 plus
    an added candidate of the batch, that agrees with candidate b on dom as
    things stand, and whether merging into it fills a -1 entry; -1 if none
    does."""
    want = imgs[b, dom]
    own = [r for r in targets if r < count0]
    if own:
        got = cols[dom[:, None], own]
        ok = ((got == want[:, None]) | (got < 0)).all(axis=0)
        if ok.any():
            i = int(ok.argmax())
            return own[i], bool((got[:, i] < 0).any())
    mates = [r - count0 for r in targets if r >= count0 and is_added[r - count0]]
    if mates:
        got = imgs[np.array(mates)[:, None], dom]
        ok = ((got == want) | (got < 0)).all(axis=1)
        if ok.any():
            i = int(ok.argmax())
            return mates[i] + count0, bool((got[i] < 0).any())
    return -1, False


# ---------------------------------------------------------------------------
# properness and acylindricity profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropernessReport:
    horizon: int
    n_elements: int
    acylindricity: tuple       # ((epsilon, R, N), ...)
    uniform: tuple             # ((r, N_r), ...)
    max_stabilizer: int
    stabilizer_growth_warning: bool
    no_pair_flags: tuple       # R values with no vertex pair at distance >= R, in radii order


def properness_profiles(
    a: GroupAction,
    epsilons: Sequence[int],
    radii: Sequence[int],
    rs: Sequence[int],
    horizon: int = 4,
) -> PropernessReport:
    """Acylindricity table N(epsilon, R) (over realized elements moving both
    ends of a distant pair by at most epsilon), uniform-properness counts
    N_r, and a stabilizer summary with a growth warning when the maximal
    realized stabilizer count still grows from horizon/2 to horizon."""
    n = a.space.n

    def max_stab(rows):
        return int((rows == np.arange(n)).sum(axis=0).max())

    # the half walk runs first and keeps only its count, so its stack is
    # freed before the full walk builds its own
    half_stab = max_stab(_realized_walk(a, max(1, horizon // 2))[2])
    S = _realized_walk(a, horizon)[2]
    D = a.space.dist
    BIG = 10 ** 6
    disp = np.where(S >= 0, D[np.arange(n), S], BIG)

    acyl = []
    for eps in epsilons:
        ok = disp <= eps
        classes, first = _equal_columns(ok)
        # N(x, y) counts the elements with both columns ok, so it depends on
        # the classes of x and y alone: take the product over classes, and
        # let a pair of classes count for R when its farthest pair of
        # vertices is R apart (the -1 of unreachable pairs never counts).
        # float64 lets BLAS form the product; entries are counts <= len(S),
        # far below 2^53, so they stay exact
        rep = ok[:, first].astype(np.float64)
        P = (rep.T @ rep).astype(np.int64)
        order = np.argsort(classes, kind="stable")
        starts = np.searchsorted(classes[order], np.arange(len(first)))
        far = np.maximum.reduceat(np.maximum.reduceat(D[order], starts, axis=0)[:, order],
                                  starts, axis=1)
        for R in radii:
            reach = far >= R
            acyl.append((int(eps), int(R), int(P[reach].max()) if reach.any() else 0))
    uniform = []
    for r in rs:
        counts = (disp <= r).sum(axis=0)
        uniform.append((int(r), int(counts.max())))

    full_stab = max_stab(S)
    top = int(D.max(initial=-1))
    return PropernessReport(
        horizon, len(S), tuple(acyl), tuple(uniform),
        full_stab, full_stab > half_stab,
        tuple(R for R in radii if R > top),
    )


def _equal_columns(ok: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(class of each column, first column of each class) for the columns of
    a boolean matrix, two columns sharing a class when they are equal."""
    packed = np.ascontiguousarray(np.packbits(ok, axis=0).T)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, classes = np.unique(keys, return_index=True, return_inverse=True)
    return classes.ravel(), first


# ---------------------------------------------------------------------------
# orbit quasiconvexity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuasiconvexityReport:
    passed: bool
    K: int
    C: int
    M: int
    orbit_size: int
    violations: tuple          # ((vertex, x, y), ...) truncation artifacts


def orbit_quasiconvexity(
    a: GroupAction,
    x0: str,
    quasitree: "QuasitreeResult | int",
    horizon: int = 12,
) -> QuasiconvexityReport:
    """On a quasitree with bottleneck constant C, the orbit is K-quasiconvex
    for the least K with 2K - 2C >= M, where M is the connectivity radius.
    Verifies exhaustively that every vertex on every geodesic between orbit
    points lies within K of an orbit point; violations are reported
    individually as truncation artifacts."""
    if isinstance(quasitree, QuasitreeResult):
        if not quasitree.passed:
            raise NotAQuasitree(
                f"bottleneck constant {quasitree.report.constant} exceeds c_max {quasitree.c_max}")
        C = quasitree.report.constant
    else:
        C = int(quasitree)
        if C < 0:
            raise NotAQuasitree("bottleneck constant must be >= 0")
    M = connectivity_radius(a, x0)
    K = C + (M + 1) // 2
    oi = np.sort(_orbit_walk(a, a.space.index(x0), horizon)[0])
    R = a.space.rows(oi)       # R[k, v] = d(oi[k], v)
    min_orb = R.min(axis=0)
    DOO = R[:, oi]
    violations = []
    for v in np.nonzero(min_orb > K)[0]:
        dv = R[:, int(v)]
        on_geo = (dv[:, None] + dv[None, :]) == DOO
        hits = np.argwhere(on_geo)
        if len(hits):
            i, j = hits[0]
            violations.append((
                a.space.vertex_ids[int(v)],
                a.space.vertex_ids[int(oi[i])],
                a.space.vertex_ids[int(oi[j])],
            ))
    return QuasiconvexityReport(not violations, K, C, M, len(oi), tuple(violations))


# ---------------------------------------------------------------------------
# action type classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActionTypeReport:
    verdict: str               # Bounded | ParabolicCandidate | Lineal | QuasiParabolic | General | Undetermined
    confidence: str            # certified | heuristic
    evidence: dict
    loxodromics: tuple         # display strings of loxodromic words found


def _pingpong_certificate(a: GroupAction, x0i: int, w1: Word, w2: Word,
                          in_orbit: np.ndarray, gromov2: np.ndarray) -> Optional[dict]:
    """Checks a ping-pong schedule for w1^2, w2^2 on the orbit.

    Quadrants are orbit points with Gromov product >= 1 against each of the
    four direction fingerprints; gromov2[k, v] is twice the Gromov product
    (v . rep_k) at x0, and in_orbit masks the orbit points.  Requires
    pairwise disjoint quadrants, basepoint outside all of them, and each
    signed square mapping every defined orbit point outside its repelling
    quadrant into its attracting one."""
    quads = in_orbit & (gromov2 >= 2)
    if (quads.sum(axis=0) > 1).any() or quads[:, x0i].any():
        return None
    moves = [(w1.power(2), 1, 0), (w1.power(-2), 0, 1),
             (w2.power(2), 3, 2), (w2.power(-2), 2, 3)]
    checked = 0
    for wp, repelling, attracting in moves:
        img = word_map(a, wp)
        moved = img[in_orbit & ~quads[repelling] & (img >= 0)]
        if not len(moved) or not quads[attracting, moved].all():
            return None
        checked += len(moved)
    return {
        "powers": (f"{w1.display()}^2", f"{w2.display()}^2"),
        "checks": checked,
        "threshold": 1,
    }


def classify_action_type(
    a: GroupAction,
    x0: str,
    horizon: int = 8,
    space_is_quasitree: Optional[bool] = None,
) -> ActionTypeReport:
    """Finite-horizon surrogate of the bounded / horocyclic / lineal / focal /
    general classification of an action on a hyperbolic space.

    Pipeline: a fully exhausted orbit certifies Bounded; otherwise the
    reduced words of length at most 2 are scanned for loxodromics.  None
    found with an unbounded orbit gives ParabolicCandidate (heuristic).  With
    loxodromics, direction fingerprints (farthest points along g^{+-n} x0)
    are clustered by Gromov product at sep_threshold, half the largest
    fingerprint radius (at least 1): one shared unordered pair of directions
    is Lineal, one shared direction with at least two distinct opposite
    directions is QuasiParabolic, and two loxodromics with four separated
    directions plus a verified ping-pong schedule (squares, giving a
    displacement margin over the quadrant threshold 1) certify General."""
    x0i = a.space.index(x0)
    ids = a.space.vertex_ids
    orbit_idx, _, _, _, complete, exhausted = _orbit_walk(a, x0i, max(horizon, 4))
    if exhausted and complete:
        return ActionTypeReport("Bounded", "certified",
                                {"orbit_size": len(orbit_idx), "horizon": max(horizon, 4)}, ())

    # the nonempty freely reduced words of length at most 2, each extended
    # by the letters in order; the list is closed under inversion
    letters = a.letters()
    ones = [Word([l]) for l in letters]
    words = ones + [w * Word([(n, s)]) for w in ones for n, s in letters
                    if w.letters[-1] != (n, -s)]
    quasitree = a.space.is_tree() if space_is_quasitree is None else space_is_quasitree
    x0row = a.space.rows([x0i])[0]
    slack = functools.cache(functools.partial(_ambient_slack, a.space))
    orbits = {}     # word -> its power orbit from x0
    lox: List[Word] = []
    parabolic_flag = False
    for w in words:
        img = word_map(a, w)
        orbits[w] = _power_orbit(img, x0i, horizon)
        rep = _classify(a, w, x0i, x0row, img, orbits[w], horizon, quasitree, slack)
        if rep.verdict == "Loxodromic":
            lox.append(w)
        elif rep.verdict == "ParabolicCandidate":
            parabolic_flag = True

    if not lox:
        # an orbit both exhausted and complete has already returned Bounded
        return ActionTypeReport(
            "Undetermined" if quasitree and not parabolic_flag else "ParabolicCandidate",
            "heuristic",
            {"words_scanned": len(words), "orbit_exhausted": exhausted,
             "orbit_complete": complete}, ())

    def fingerprint(w):
        # the direction of w: the lex-first farthest point of its power orbit
        # from x0, None when the orbit never leaves x0
        pts = orbits[w]
        d = x0row[pts]
        return None if not len(pts) or d.max() == 0 else int(pts[d == d.max()].min())

    # direction fingerprints for each loxodromic, then clustering
    dirs = []   # (word, plus_rep, minus_rep)
    for w in lox:
        p, m = fingerprint(w), fingerprint(w.inverse())
        if p is None or m is None:
            continue
        dirs.append((w, p, m))
    if not dirs:
        return ActionTypeReport("Undetermined", "heuristic",
                                {"reason": "loxodromics without usable fingerprints"},
                                tuple(w.display() for w in lox))

    reps = sorted({p for _, p, m in dirs} | {m for _, p, m in dirs})
    # gromov2[k, v] is twice the Gromov product (v . reps[k]) at x0
    gromov2 = x0row + x0row[reps][:, None] - a.space.rows(reps)
    at = {r: k for k, r in enumerate(reps)}

    radius = int(x0row[reps].max())
    sep_threshold = max(1, radius // 2)
    # union-find clustering by Gromov product
    cls = {r: r for r in reps}

    def find(r):
        while cls[r] != r:
            cls[r] = cls[cls[r]]
            r = cls[r]
        return r

    for i, r1 in enumerate(reps):
        for r2 in reps[i + 1:]:
            if gromov2[at[r2], r1] >= 2 * sep_threshold:
                a_, b_ = find(r1), find(r2)
                if a_ != b_:
                    cls[a_] = b_
    pairs = [(find(p), find(m)) for _, p, m in dirs]
    lox_words = tuple(w.display() for w, _, _ in dirs)
    evidence = {
        "n_loxodromics": len(dirs),
        "sep_threshold": sep_threshold,
        "direction_classes": len({find(r) for r in reps}),
    }

    first = frozenset(pairs[0])
    if all(frozenset(pr) == first for pr in pairs) and len(first) == 2:
        return ActionTypeReport("Lineal", "heuristic", evidence, lox_words)

    all_classes = [frozenset(pr) for pr in pairs]
    shared = frozenset.intersection(*all_classes) if all_classes else frozenset()
    if len(shared) == 1:
        others = {next(iter(pr - shared)) for pr in all_classes if len(pr - shared) == 1}
        if len(others) >= 2:
            evidence["shared_direction"] = ids[next(iter(shared))]
            evidence["opposite_directions"] = sorted(ids[o] for o in others)
            return ActionTypeReport("QuasiParabolic", "heuristic", evidence, lox_words)

    in_orbit = np.zeros(a.space.n, dtype=bool)
    in_orbit[orbit_idx] = True
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            w1, p1, m1 = dirs[i]
            w2, p2, m2 = dirs[j]
            four = [p1, m1, p2, m2]
            labels = {find(r) for r in four}
            if len(labels) != 4:
                continue
            cert = _pingpong_certificate(a, x0i, w1, w2, in_orbit,
                                         gromov2[[at[r] for r in four]])
            if cert is not None:
                evidence["pingpong"] = cert
                return ActionTypeReport("General", "certified", evidence, lox_words)
            evidence["pingpong"] = "four separated directions, schedule not verified"
            return ActionTypeReport("General", "heuristic", evidence, lox_words)
    return ActionTypeReport("Undetermined", "heuristic", evidence, lox_words)
