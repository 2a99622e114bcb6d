"""Command line entry point.

Every command prints a single JSON report to stdout (or --out) with the
shape

    {"command": ..., "inputs": ..., "results": ...,
     "version": {"tool": ..., "graph_format": ..., "action_format": ...},
     "determinism_seed": ...}

serialized with sorted keys and no float formatting surprises, so the same
invocation yields byte-identical output.  Failures exit with code 2 and a
JSON diagnostic on stderr; size-cap refusals exit with code 3.
"""

import argparse
import csv
import functools
import io as _stringio
import json
import os
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import FormatError, QtlabError, SizeLimitExceeded, UnknownFixture, as_int
from .io import (ACTION_FORMAT, GRAPH_FORMAT, load_action, load_graph,
                 load_json, save_action, save_graph, save_json)
from .metric_graph import bottleneck_constant, hyperbolicity_delta
from .group_action import (Word, check_locally_finite_orbit, classify_action_type,
                           classify_isometry, connectivity_radius,
                           properness_profiles, rips_orbit_graph)
from . import constructions as C
from .products import (ProductIsometry, ProductSpace, distortion_profile,
                       factor_preservation_check, l1_geodesic_uniqueness,
                       point_id, product_action, product_distance)
from .leary_minasyan import (conjugation_exponents, fit_translation_homomorphism,
                             gaussian_power_check, lm_obstruction_check,
                             parse_samples, seminorm_audit)

MANIFEST_FORMAT = "qtlab-manifest-v1"


def _plain(x):
    """Recursively convert report values to JSON-encodable data."""
    if isinstance(x, Word):
        return x.display()
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return [_plain(v) for v in x.tolist()]
    if is_dataclass(x) and not isinstance(x, type):
        return {k: _plain(v) for k, v in asdict(x).items()}
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, set, frozenset)):
        return [_plain(v) for v in x]
    return x


def _report(command: str, inputs: dict, results, seed: int) -> dict:
    return {
        "command": command,
        "inputs": _plain(inputs),
        "results": _plain(results),
        "version": {"tool": __version__, "graph_format": GRAPH_FORMAT,
                    "action_format": ACTION_FORMAT},
        "determinism_seed": seed,
    }


def _emit(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(rep: dict, args, csv_rows=None):
    fmt = getattr(args, "format", "json") or "json"
    if fmt == "csv":
        if csv_rows is None:
            raise FormatError("csv output is only available for profile tables")
        buf = _stringio.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            w.writerow(row)
        _emit(buf.getvalue(), getattr(args, "out", None))
        return
    _emit(json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n",
          getattr(args, "out", None))


def _load_json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what}: not valid JSON ({exc})") from exc


def _point_arg(text: str):
    val = _load_json_arg(text, "point")
    if not isinstance(val, list) or not all(isinstance(v, str) for v in val):
        raise FormatError(f"point must be a JSON array of vertex id strings, got {val!r}")
    return tuple(val)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def cmd_analyze(args):
    g = load_graph(args.graph)
    hyp = hyperbolicity_delta(g)
    bot = bottleneck_constant(g)
    results = {
        "n_vertices": g.n,
        "n_edges": g.n_edges,
        "is_tree": g.is_tree(),
        "diameter": g.diameter(),
        "two_delta": hyp.two_delta,
        "delta": hyp.delta,
        "delta_witness": hyp.witness,
        "bottleneck_constant": bot.constant,
        "bottleneck_witness": bot.witness,
    }
    return _report("analyze", {"graph": args.graph}, results, args.seed), None


def _int_tuple(value):
    """Tuple of ints from a JSON list; TypeError or ValueError otherwise."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return tuple(as_int(v) for v in value)


def _gen_steps(family: str, gens):
    """cayley's gens as its family reads them; None keeps the default."""
    if gens is None:
        return None
    if not isinstance(gens, list):
        raise TypeError(f"expected a list, got {gens!r}")
    if family == "Z":
        return _int_tuple(gens)
    if family == "Z2":
        return tuple(_int_tuple(g) for g in gens)
    return tuple(str(v) for v in gens)


def _builder(name):
    """constructions.<name>, looked up when it is called, so that a wrapper
    put on the module after import (the benchmark's tracing) sees the call."""
    return lambda *args, **kw: getattr(C, name)(*args, **kw)


_CHAINS = {"c6": _builder("c6_chain"), "c30": _builder("c30_chain")}


def _chain(value):
    name = str(value)
    if name not in _CHAINS:
        raise FormatError(f"unknown chain {name!r}; have {', '.join(_CHAINS)}")
    return _CHAINS[name]


def _coset(chain=_CHAINS["c30"]):
    return C.coset_tree(*chain())


# --params key -> the conversion of its JSON value (a TypeError or ValueError
# when it cannot) and what the conversion expects; every other key is an
# integer.  A key means the same in every family that takes it.
_CONVERSIONS = {
    "family": (str, "a string"),
    "gens": (_gen_steps, "a list of generator steps"),
    "chain": (_chain, "a chain name"),
    "swaps": (_int_tuple, "a list of integers"),
    "basepoint": (lambda value: value, "a vertex id"),     # checked by the builder
}

# family -> (builder, how many of the bases --graph and --action it takes,
# its --params keys in the order they are read), in the order that
# `unknown construction` names them.  A key ending in "?" may be absent, and
# then the builder keeps its default; each key is passed by name.
CONSTRUCTIONS = {
    "path": (_builder("path_graph"), 0, ("n",)),
    "cycle": (_builder("cycle_graph"), 0, ("n",)),
    "grid": (_builder("grid_graph"), 0, ("m", "n")),
    "star": (_builder("star_graph"), 0, ("leaves",)),
    "tree": (_builder("regular_tree"), 0, ("degree", "depth")),
    "rips": (_builder("rips_graph"), 1, ("r",)),
    "cayley": (_builder("cayley_graph"), 0, ("family", "gens?", "radius")),
    "farey": (_builder("farey_graph"), 0, ("Q", "P?")),
    "bs12": (_builder("bass_serre_tree_bs12"), 0, ("radius",)),
    "coset": (_coset, 0, ("chain?",)),
    "doubleline": (_builder("double_line_graph"), 0, ("n", "swaps?")),
    "cone": (_builder("cone_graph"), 2, ("basepoint?",)),
    "horoball": (_builder("horoball"), 2, ("depth?", "basepoint?")),
}


def cmd_construct(args):
    params = _load_json_arg(args.params or "{}", "--params")
    if not isinstance(params, dict):
        raise FormatError("--params must be a JSON object")
    name = args.family
    bases = (load_graph(args.graph, allow_disconnected=True) if args.graph else None,
             load_action(args.action) if args.action else None)
    if name not in CONSTRUCTIONS:
        raise FormatError(f"unknown construction {name!r}; have {', '.join(CONSTRUCTIONS)}")
    build, n_bases, keys = CONSTRUCTIONS[name]
    if n_bases and bases[0] is None:
        raise FormatError(f"construct {name} needs --graph for the base")
    kw = {}
    for spec in keys:
        key = spec.rstrip("?")
        if key not in params:
            if key == spec:
                raise FormatError(f"construct {name}: missing parameter {key!r}")
            continue
        convert, what = _CONVERSIONS.get(key, (as_int, "an integer"))
        if key == "gens":       # cayley's steps are read by its family
            convert = functools.partial(convert, kw["family"])
        try:
            kw[key] = convert(params[key])
        except (TypeError, ValueError, OverflowError):
            raise FormatError(f"construct {name}: parameter {key!r} must be {what}, "
                              f"got {params[key]!r}") from None
    taken = sorted(spec.rstrip("?") for spec in keys)
    unknown = sorted(set(params) - set(taken))
    if unknown:
        raise FormatError(f"construct {name}: unknown parameter(s) {unknown}; "
                          f"{name} takes {taken}")
    con = build(*bases[:n_bases], **kw)
    if not isinstance(con, C.Construction):     # the plain graph families
        con = C.Construction(con, None, None)
    graph, action = con.graph, con.action

    written = {}
    if args.out:
        save_graph(graph, args.out)
        written["graph"] = args.out
    if action is not None and args.action_out:
        save_action(action, args.action_out,
                    graph_ref=os.path.basename(args.out) if args.out else None)
        written["action"] = args.action_out
    args.out = None   # the report goes to stdout; --out named the graph file
    results = {
        "family": name,
        "n_vertices": graph.n,
        "n_edges": graph.n_edges,
        "basepoint": con.basepoint,
        "has_action": action is not None,
        "extras": con.extras,
        "written": written,
    }
    return _report("construct", {"family": name, "params": params,
                                 "graph": args.graph, "action": args.action},
                   results, args.seed), None


def _require_nonnegative(args, *names):
    """FormatError for the first named option that is set and negative."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 0:
            raise FormatError(f"--{name} must be >= 0, got {value}")


def cmd_orbit(args):
    _require_nonnegative(args, "horizon", "radius")
    a = load_action(args.action, allow_disconnected=True)
    horizon = args.horizon
    rho_max = args.radius if args.radius is not None else horizon
    fin = check_locally_finite_orbit(a, args.basepoint, rho_max, horizon)
    res = fin.orbit
    results = {
        "basepoint": res.basepoint,
        "horizon": horizon,
        "size": res.size,
        "complete": res.complete,
        "exhausted": res.exhausted,
        "sample": res.vertices[:10],
        "ball_counts": fin.counts,
        "ball_counts_half_horizon": fin.counts_half_horizon,
        "growth_warning": fin.growth_warning,
        "verdict": fin.verdict,
    }
    return _report("orbit", {"action": args.action, "basepoint": args.basepoint,
                             "horizon": horizon, "radius": rho_max},
                   results, args.seed), None


def cmd_rips_orbit(args):
    _require_nonnegative(args, "horizon")
    a = load_action(args.action, allow_disconnected=True)
    rg = rips_orbit_graph(a, args.basepoint, args.r, args.horizon)
    results = {
        "r": rg.r,
        "basepoint": rg.basepoint,
        "horizon": rg.horizon,
        "orbit_size": rg.orbit.size,
        "n_edges": rg.graph.n_edges,
        "connected": rg.graph.connected,
        "connectivity_radius": connectivity_radius(a, args.basepoint),
    }
    if args.out:
        save_graph(rg.graph, args.out)
        results["written"] = args.out
        args.out = None   # report still goes to stdout
    return _report("rips-orbit", {"action": args.action, "basepoint": args.basepoint,
                                  "r": args.r, "horizon": args.horizon},
                   results, args.seed), None


def cmd_classify(args):
    _require_nonnegative(args, "horizon")
    a = load_action(args.action, allow_disconnected=True)
    if args.word:
        rep = classify_isometry(a, Word.parse(args.word), args.basepoint, horizon=args.horizon)
        results = {"kind": "isometry", **_plain(rep)}
    else:
        rep = classify_action_type(a, args.basepoint, horizon=args.horizon)
        results = {"kind": "action", **_plain(rep)}
    return _report("classify", {"action": args.action, "basepoint": args.basepoint,
                                "word": args.word, "horizon": args.horizon},
                   results, args.seed), None


def cmd_properness(args):
    _require_nonnegative(args, "horizon")
    a = load_action(args.action, allow_disconnected=True)
    rep = properness_profiles(a, epsilons=(0, 1, 2), radii=(2, 4, 8),
                              rs=(0, 1, 2), horizon=args.horizon)
    rows = [("table", "epsilon_or_r", "R", "count")]
    for eps, R, N in rep.acylindricity:
        rows.append(("acylindricity", eps, R, N))
    for r, N in rep.uniform:
        rows.append(("uniform", r, "", N))
    return _report("properness", {"action": args.action, "horizon": args.horizon},
                   rep, args.seed), rows


def _load_factors(paths):
    if not paths:
        raise FormatError("need at least one factor file via --factors")
    return [load_graph(p) for p in paths]


def cmd_product(args):
    sub = args.product_cmd
    if sub == "distance":
        space = ProductSpace(_load_factors(args.factors), args.norm)
        x, y = _point_arg(args.x), _point_arg(args.y)
        results = {**_plain(product_distance(space, x, y)), "x": x, "y": y}
    elif sub == "geodesics":
        space = ProductSpace(_load_factors(args.factors), args.norm)
        x, y = _point_arg(args.x), _point_arg(args.y)
        rep = l1_geodesic_uniqueness(space, x, y)
        results = {
            "x": rep.x, "y": rep.y,
            "differing_coordinates": rep.differing,
            "geodesic_count": rep.count,
            "passed": rep.passed,
            "examples": rep.examples,
            "witness": rep.witness,
            "overflow": rep.overflow,
        }
    elif sub == "factor-check":
        space = ProductSpace(_load_factors(args.factors), args.norm)
        payload = load_json(args.map)
        pairs = payload.get("mapping") if isinstance(payload, dict) else payload
        if not isinstance(pairs, list):
            raise FormatError(f"{args.map}: no 'mapping' array")
        mapping = {}
        for entry in pairs:
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(isinstance(side, list) and all(isinstance(v, str) for v in side)
                            for side in entry)):
                raise FormatError(f"{args.map}: bad mapping entry {entry!r}; "
                                  "want [src, dst], each an array of vertex id strings")
            src = tuple(entry[0])
            if src in mapping:
                raise FormatError(f"{args.map}: source point {entry[0]!r} is mapped twice")
            mapping[src] = tuple(entry[1])
        iso = ProductIsometry(space, mapping)
        rep = factor_preservation_check(space, iso)
        results = {
            "is_isometry": iso.verified,
            "preserves_factors": rep.preserves,
            "permutation": rep.perm,
            "witness": rep.witness,
        }
    elif sub == "distortion":
        actions = [load_action(p, allow_disconnected=True) for p in args.factors]
        built = product_action(actions)
        x0 = point_id(_point_arg(args.basepoint)) if args.basepoint else (
            point_id(tuple(a.space.vertex_ids[0] for a in actions)))
        prof = distortion_profile(built.action, x0, args.horizon)
        results = {**_plain(prof), "final": prof.final}
        rows = [("n", "raw", "envelope", "witness")]
        for k in range(prof.horizon):
            rows.append((k + 1, str(prof.raw[k]), str(prof.envelope[k]),
                         prof.witnesses[k] or ""))
        return _report("product", {"sub": sub, "factors": args.factors,
                                   "basepoint": args.basepoint,
                                   "horizon": args.horizon},
                       results, args.seed), rows
    inputs = {"sub": sub, "factors": args.factors, "norm": args.norm}
    for key in ("x", "y", "map"):
        if getattr(args, key, None) is not None:
            inputs[key] = getattr(args, key)
    return _report("product", inputs, results, args.seed), None


def cmd_lm(args):
    sub = args.lm_cmd
    if sub == "exponents":
        n = args.n
        alpha, beta, gamma, delta = conjugation_exponents(n)
        gp = gaussian_power_check(n)
        results = {
            "n": n,
            "alpha": alpha, "beta": beta, "gamma": gamma, "delta": delta,
            "norm_identity": alpha * alpha + beta * beta == 25 ** n,
            "gaussian": {"re": gp.re, "im": gp.im, "nonreal": gp.nonreal,
                         "congruent_mod5": gp.congruent},
        }
        inputs = {"sub": sub, "n": n}
    elif sub == "obstruction":
        kmax = args.k_max
        if kmax < 1:
            raise FormatError(f"--k-max must be >= 1, got {kmax}")
        override = _load_json_arg(args.matrix, "--matrix") if args.matrix else None
        reports = [lm_obstruction_check(k, matrix_override=override)
                   for k in range(1, kmax + 1)]
        failures = [rep.k for rep in reports if not rep.obstructed]
        results = {
            "k_max": kmax,
            "all_obstructed": not failures,
            "unobstructed_k": failures,
            "first_rows": reports[:5],
        }
        inputs = {"sub": sub, "k_max": kmax, "matrix": args.matrix}
    elif sub == "fit":
        samples = parse_samples(load_json(args.samples))
        results = {**_plain(fit_translation_homomorphism(samples)),
                   "audit": seminorm_audit(samples)}
        inputs = {"sub": sub, "samples": args.samples}
    return _report("lm", inputs, results, args.seed), None


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def _over_z(radius, build, **kw):
    """build(graph, action, **kw) over the Cayley graph of Z of this radius."""
    base = C.cayley_graph("Z", radius)
    return build(base.graph, base.action, **kw)


# name -> builder of the fixture's Construction, in the order `fixtures list`
# names them
FIXTURES = {
    "bs12-r8": lambda: C.bass_serre_tree_bs12(8),
    "cone-z-r10": lambda: _over_z(10, C.cone_graph, basepoint="0"),
    "coset-c30": lambda: C.coset_tree(*C.c30_chain()),
    "doubleline-n16": lambda: C.double_line_graph(16),
    "f2-r5": lambda: C.cayley_graph("F2", 5),
    "farey-Q20": lambda: C.farey_graph(20),
    "horoball-line-d7": lambda: _over_z(64, C.horoball, depth=7, basepoint="0|0"),
}


def _build_fixture(name: str):
    if name not in FIXTURES:
        raise UnknownFixture(f"no fixture {name!r}; have {', '.join(FIXTURES)}")
    return FIXTURES[name]()


def cmd_fixtures(args):
    if args.name == "list":
        return _report("fixtures", {"name": "list"},
                       {"available": list(FIXTURES)}, args.seed), None
    con = _build_fixture(args.name)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    gpath = os.path.join(outdir, f"{args.name}.graph.json")
    apath = os.path.join(outdir, f"{args.name}.action.json")
    mpath = os.path.join(outdir, f"{args.name}.manifest.json")
    save_graph(con.graph, gpath)
    files = {"graph": gpath}
    manifest = {
        "format": MANIFEST_FORMAT,
        "fixture": args.name,
        "graph": os.path.basename(gpath),
        "basepoint": con.basepoint,
        "n_vertices": con.graph.n,
        "n_edges": con.graph.n_edges,
        "extras": _plain(con.extras),
    }
    if con.action is not None:
        save_action(con.action, apath, graph_ref=os.path.basename(gpath))
        files["action"] = apath
        manifest["action"] = os.path.basename(apath)
        manifest["connectivity_radius"] = connectivity_radius(con.action, con.basepoint)
    save_json(manifest, mpath)
    files["manifest"] = mpath
    results = {"fixture": args.name, "files": files,
               "n_vertices": con.graph.n, "basepoint": con.basepoint}
    rep = _report("fixtures", {"name": args.name, "out": outdir}, results, args.seed)
    args.out = None   # files already written; report goes to stdout
    return rep, None


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise FormatError, which main reports as JSON on stderr
    like any other bad input; subparsers are built from the same class."""

    def error(self, message):
        raise FormatError(f"{self.prog}: {message}")


# Built once per process: building it costs about 3.5 ms, and each build
# leaves a cyclic object graph behind, so a process that calls main() many
# times would otherwise pay both on every call.  parse_args does not change
# the parser.
@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="qtlab",
        description="metric graphs, group actions and their orbit geometry")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in every report as determinism_seed; no command is randomized")
    p.add_argument("--max-vertices", type=int, default=None,
                   help="global size cap (sets QTLAB_MAX_VERTICES)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None, help="write output here instead of stdout")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    s = sub.add_parser("analyze", help="hyperbolicity and bottleneck constants of a graph")
    s.add_argument("--graph", required=True)
    common(s)
    s.set_defaults(func=cmd_analyze)

    s = sub.add_parser("construct", help="build a graph family, optionally with its action")
    s.add_argument("family")
    s.add_argument("--params", default="{}", help="JSON object of family parameters")
    s.add_argument("--graph", default=None, help="base graph for rips/cone/horoball")
    s.add_argument("--action", default=None, help="base action for cone/horoball")
    s.add_argument("--out", default=None, help="write the graph JSON here")
    s.add_argument("--action-out", default=None, help="write the action JSON here")
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.set_defaults(func=cmd_construct)

    s = sub.add_parser("orbit", help="BFS orbit of a basepoint with ball counts")
    s.add_argument("--action", required=True)
    s.add_argument("--basepoint", required=True)
    s.add_argument("--horizon", type=int, default=8)
    s.add_argument("--radius", type=int, default=None, help="max ball radius for counts")
    common(s)
    s.set_defaults(func=cmd_orbit)

    s = sub.add_parser("rips-orbit", help="Rips graph of an orbit")
    s.add_argument("--action", required=True)
    s.add_argument("--basepoint", required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--horizon", type=int, default=8)
    common(s)
    s.set_defaults(func=cmd_rips_orbit)

    s = sub.add_parser("classify", help="classify a word (with --word) or the whole action")
    s.add_argument("--action", required=True)
    s.add_argument("--basepoint", required=True)
    s.add_argument("--word", default=None, help="e.g. 't a^-1 t'")
    s.add_argument("--horizon", type=int, default=16)
    common(s)
    s.set_defaults(func=cmd_classify)

    s = sub.add_parser("properness", help="acylindricity and uniform properness tables")
    s.add_argument("--action", required=True)
    s.add_argument("--horizon", type=int, default=4)
    common(s)
    s.set_defaults(func=cmd_properness)

    s = sub.add_parser("product", help="product-space tools")
    ps = s.add_subparsers(dest="product_cmd", required=True)
    for nm in ("distance", "geodesics", "factor-check", "distortion"):
        q = ps.add_parser(nm)
        q.add_argument("--factors", nargs="+", required=True,
                       help="factor graph files (action files for distortion)")
        q.add_argument("--norm", choices=("l1", "l2", "linf"), default="l1")
        if nm in ("distance", "geodesics"):
            q.add_argument("--x", required=True, help='JSON point, e.g. \'["0","1"]\'')
            q.add_argument("--y", required=True)
        if nm == "factor-check":
            q.add_argument("--map", required=True,
                           help='JSON file {"mapping": [[src, dst], ...]}')
        if nm == "distortion":
            q.add_argument("--basepoint", default=None, help="JSON product point")
            q.add_argument("--horizon", type=int, default=8)
        common(q)
        q.set_defaults(func=cmd_product)

    s = sub.add_parser("lm", help="exact arithmetic for the lattice extension family")
    ls = s.add_subparsers(dest="lm_cmd", required=True)
    q = ls.add_parser("exponents")
    q.add_argument("--n", type=int, required=True)
    common(q)
    q.set_defaults(func=cmd_lm)
    q = ls.add_parser("obstruction")
    q.add_argument("--k-max", type=int, required=True)
    q.add_argument("--matrix", default=None, help="JSON 2x2 integer matrix override")
    common(q)
    q.set_defaults(func=cmd_lm)
    q = ls.add_parser("fit")
    q.add_argument("--samples", required=True, help='JSON file {"samples": [[[m,n],"tau"],...]}')
    common(q)
    q.set_defaults(func=cmd_lm)

    s = sub.add_parser("fixtures", help="write a named fixture (or 'list')")
    s.add_argument("name")
    s.add_argument("--out", default=None, help="output directory")
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.set_defaults(func=cmd_fixtures)

    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except FormatError as exc:
        return _fail(None, "FormatError", exc, 2)
    saved_cap = os.environ.get("QTLAB_MAX_VERTICES")
    if args.max_vertices is not None:
        os.environ["QTLAB_MAX_VERTICES"] = str(args.max_vertices)
    try:
        return _dispatch(args)
    finally:
        # keep the cap scoped to this invocation so embedding main() in a
        # longer-lived process does not change later calls
        if args.max_vertices is not None:
            if saved_cap is None:
                os.environ.pop("QTLAB_MAX_VERTICES", None)
            else:
                os.environ["QTLAB_MAX_VERTICES"] = saved_cap


def _fail(command, kind: str, exc: Exception, code: int) -> int:
    """Write the JSON diagnostic for a failed command (None: unparsed) to stderr."""
    sys.stderr.write(json.dumps(
        {"command": command, "error": {"type": kind, "message": str(exc)}},
        sort_keys=True, separators=(",", ":")) + "\n")
    return code


def _dispatch(args) -> int:
    try:
        rep, csv_rows = args.func(args)
        _emit_report(rep, args, csv_rows)
    except SizeLimitExceeded as exc:
        return _fail(args.command, "SizeLimitExceeded", exc, 3)
    except QtlabError as exc:
        return _fail(args.command, type(exc).__name__, exc, 2)
    except OSError as exc:
        return _fail(args.command, "FileError", exc, 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
