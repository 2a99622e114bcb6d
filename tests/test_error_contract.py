"""Fuzzing the error contract of the command line at its input boundaries:
graph and action files, `lm fit` sample files, `lm obstruction --matrix`,
`product factor-check --map`, the product points of `product distance`,
`geodesics` and `distortion`, and the caps `--max-vertices` and
`QTLAB_MAX_VERTICES`, with pinned cases for product points,
`construct --params`, files that are not UTF-8, integers past the
interpreter's digit limit, a report too large to encode and a word too long
to expand.  Whatever the input, a command exits 0, or exits 2 (bad input) or
3 (a refused size) with exactly one JSON object on stderr and nothing on
stdout; it never raises.  The graph and action loaders are also fuzzed
against the entry-by-entry loaders of `_oracles`: the same fault, type and
message, or the same graph and maps."""

import contextlib
import io
import json
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import brute_action_from_dict, brute_graph_from_dict
from qtlab.cli import main
from qtlab.group_action import WORD_LETTERS_CAP, GroupAction, Word
from qtlab.io import action_from_dict, graph_from_dict
from qtlab.metric_graph import MetricGraph


def _tuple_ish(item, size):
    """A list of the given items whose length is usually, but not always,
    the given size."""
    return st.one_of(st.lists(item, min_size=size, max_size=size),
                     st.lists(item, max_size=size + 1))


# exact rationals, strings that are not, floats, and JSON values of the wrong type
BAD_STRINGS = ["x", "", " ", "1/0", "0/0", "1//2", "--1", "1.5.2", "inf", "nan",
               "0x10", "3/-", "1/2/3"]
NUMBERS = st.one_of(st.integers(-12, 12), st.integers(-10 ** 30, 10 ** 30),
                    st.fractions(max_denominator=9).map(str), st.sampled_from(BAD_STRINGS),
                    st.floats(allow_nan=True, allow_infinity=False), st.booleans(),
                    st.none())
JUNK = st.one_of(NUMBERS, st.lists(st.integers(-3, 3), max_size=3),
                 st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))
SAMPLE = st.one_of(
    st.tuples(_tuple_ish(st.one_of(st.integers(-6, 6), NUMBERS), 2), NUMBERS).map(list),
    _tuple_ish(JUNK, 2), JUNK)
SAMPLES = st.one_of(st.fixed_dictionaries({"samples": st.lists(SAMPLE, max_size=6)}),
                    st.fixed_dictionaries({"samples": JUNK}),
                    st.lists(SAMPLE, max_size=6), JUNK)
MATRIX = st.one_of(
    _tuple_ish(_tuple_ish(st.one_of(st.integers(-6, 6), NUMBERS), 2), 2).map(json.dumps),
    JUNK.map(json.dumps), st.sampled_from(["[[1, 2], [3, 4]", "", "[[3,4],[-4,3]]x"]))
VERTEX = st.one_of(st.sampled_from(["v0", "v1", "v2", "zz"]), JUNK)
ENTRY = st.one_of(_tuple_ish(_tuple_ish(VERTEX, 2), 2), _tuple_ish(JUNK, 2), JUNK)
MAPPING = st.one_of(st.fixed_dictionaries({"mapping": st.lists(ENTRY, max_size=4)}),
                    st.fixed_dictionaries({"mapping": JUNK}),
                    st.lists(ENTRY, max_size=4), JUNK)

# graph and action objects over the ids of a small graph, well typed at
# first so that self-loops, duplicate edges, unknown ids, duplicate map
# sources and non-injective maps reach the constructors; then a list may get
# one entry of the wrong type, and each key may be dropped or replaced by a
# value of the wrong type
IDS = ["v0", "v1", "v2", "v3"]
ID = st.sampled_from(IDS + ["zz"])
PAIR = st.lists(ID, min_size=2, max_size=2)


@st.composite
def _spoiled(draw, items, max_size):
    out = draw(st.lists(items, max_size=max_size))
    if draw(st.sampled_from(["keep"] * 5 + ["spoil"])) == "spoil":
        out.insert(draw(st.integers(0, len(out))), draw(st.one_of(_tuple_ish(JUNK, 2), JUNK)))
    return out


@st.composite
def _mutated(draw, obj):
    for key in list(obj):
        if key == "format":
            continue
        what = draw(st.sampled_from(["keep"] * 10 + ["drop", "junk"]))
        if what == "drop":
            del obj[key]
        elif what == "junk":
            obj[key] = draw(JUNK)
    return obj


@st.composite
def graph_objects(draw):
    obj = {"format": "qtlab-graph-v1",
           "vertices": draw(st.one_of(st.permutations(IDS), _spoiled(ID, 5))),
           "edges": draw(_spoiled(PAIR, 7))}
    if draw(st.booleans()):
        obj["boundary"] = draw(_spoiled(ID, 3))
    return draw(_mutated(obj))


@st.composite
def action_objects(draw):
    path = {"format": "qtlab-graph-v1", "vertices": IDS,
            "edges": [["v0", "v1"], ["v1", "v2"], ["v2", "v3"]]}
    generators = [draw(_mutated({"name": draw(st.sampled_from(["a", "b", "c", "a", ""])),
                                 "map": draw(_spoiled(PAIR, 5))}))
                  for _ in range(draw(st.integers(0, 3)))]
    graph = draw(st.sampled_from(["path"] * 4 + ["fuzzed", "reference"]))
    obj = {"format": "qtlab-action-v1",
           "graph": (path if graph == "path" else draw(graph_objects()) if graph == "fuzzed"
                     else draw(st.text(max_size=3))),
           "mode": draw(st.sampled_from(["automorphism"] * 4 + ["isometry"] * 2 + ["bogus"])),
           "generators": generators}
    return draw(_mutated(obj))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    assert _run(["construct", "path", "--params", '{"n": 3}', "--out",
                 str(d / "p3.json")])[0] == 0
    return d


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _check_contract(argv, codes=(0, 2)):
    """Run argv; on a non-zero exit return the error object of its one-line
    JSON diagnostic, on exit 0 None."""
    rc, out, err = _run(argv)
    assert rc in codes, (argv, rc, err)
    if rc == 0:
        assert err == ""
        return None
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    error = json.loads(err)["error"]
    assert isinstance(error["message"], str)
    return error


@settings(max_examples=150, deadline=None)
@given(SAMPLES)
def test_lm_fit_samples_keep_the_contract(workdir, payload):
    path = workdir / "samples.json"
    path.write_text(json.dumps(payload))
    _check_contract(["lm", "fit", "--samples", str(path)])


@settings(max_examples=150, deadline=None)
@given(MATRIX)
def test_lm_obstruction_matrix_keeps_the_contract(matrix):
    # "--matrix=..." so that argparse takes a value such as "-1e+16" as the
    # value, not as an option
    _check_contract(["lm", "obstruction", "--k-max", "2", f"--matrix={matrix}"])


@settings(max_examples=150, deadline=None)
@given(MAPPING)
def test_factor_check_map_keeps_the_contract(workdir, payload):
    path = workdir / "map.json"
    path.write_text(json.dumps(payload))
    p3 = str(workdir / "p3.json")
    _check_contract(["product", "factor-check", "--factors", p3, p3, "--map", str(path)])


@settings(max_examples=300, deadline=None)
@given(graph_objects())
def test_graph_files_keep_the_contract(workdir, payload):
    path = workdir / "graph.json"
    path.write_text(json.dumps(payload))
    _check_contract(["analyze", "--graph", str(path)])


@settings(max_examples=300, deadline=None)
@given(action_objects())
def test_action_files_keep_the_contract(workdir, payload):
    path = workdir / "action.json"
    path.write_text(json.dumps(payload))
    _check_contract(["orbit", "--action", str(path), "--basepoint", "v0", "--horizon", "2"])


def _plain_graph(g):
    return g.vertex_ids, g.edge_array().tolist(), g.boundary


def _loaded(load, obj, **kwargs):
    """("ok", what the loader built, as the brute loaders give it) or
    (exception type, message) for the fault it raised."""
    try:
        out = load(obj, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(out, MetricGraph):
        return "ok", _plain_graph(out)
    if isinstance(out, GroupAction):
        return "ok", (_plain_graph(out.space), out.mode,
                      [(gm.name, gm.forward.tolist()) for gm in out.generators])
    return "ok", out


@settings(max_examples=600, deadline=None)
@given(graph_objects())
def test_graph_loader_matches_the_entry_by_entry_loader(payload):
    assert _loaded(graph_from_dict, payload) == _loaded(brute_graph_from_dict, payload)


@settings(max_examples=600, deadline=None)
@given(action_objects())
def test_action_loader_matches_the_entry_by_entry_loader(tmp_path_factory, payload):
    base = str(tmp_path_factory.getbasetemp() / "no-graph-files-here")
    assert (_loaded(action_from_dict, payload, base_dir=base)
            == _loaded(brute_action_from_dict, payload, base_dir=base))


class _Id(str):
    pass


class _Edges(list):
    pass


def _graph(vertices, edges, **more):
    return {"format": "qtlab-graph-v1", "vertices": vertices, "edges": edges, **more}


PATH3 = _graph(["a", "b", "c"], [["a", "b"], ["b", "c"]])


def _action(*maps):
    return {"format": "qtlab-action-v1", "graph": PATH3, "mode": "automorphism",
            "generators": [{"name": name, "map": m} for name, m in maps]}


@pytest.mark.parametrize("load, payload, outcome", [
    # ids that a fixed-width string array would take as equal
    (graph_from_dict, _graph(["a", "a\x00"], [["a", "a\x00"]]), "ok"),
    # an edge whose iteration gives two ids
    (graph_from_dict, _graph(["a", "b"], ["ab"]),
     "edge entries must be pairs of vertex ids, got 'ab'"),
    (graph_from_dict, _graph(["a", "b"], [{"a": 1, "b": 2}]),
     "edge entries must be pairs of vertex ids, got {'a': 1, 'b': 2}"),
    (graph_from_dict, _graph([_Id("a"), _Id("b")], _Edges([_Edges([_Id("a"), "b"])]),
                             boundary=[_Id("b")]), "ok"),
    # ids in lists of three and one, four in all
    (graph_from_dict, _graph(["a", "b", "c"], [["a", "b", "c"], ["a"]]),
     "edge entries must be pairs of vertex ids, got ['a', 'b', 'c']"),
    (graph_from_dict, _graph(["a", "a", "b"], [["a", "zz"]]),
     "edge endpoint 'zz' is not a vertex"),
    (graph_from_dict, _graph(["a", "a", "b"], [["a", "b"]]), "duplicate vertex ids"),
    # the boundary's types are checked before the edges', the edges' ids
    # are looked up before the boundary's
    (graph_from_dict, _graph(["a", "b"], [["a", 1]], boundary=[2]),
     "graph 'boundary' entries must be vertex id strings, got 2"),
    (graph_from_dict, _graph(["a", "b"], [["a", "zz"]], boundary=[None]),
     "graph 'boundary' entries must be vertex id strings, got None"),
    (graph_from_dict, _graph(["a", "b"], [["a", "zz"]], boundary=["yy"]),
     "edge endpoint 'zz' is not a vertex"),
    (graph_from_dict, _graph(["a", "b"], [["a", ["b"]]], boundary=["yy"]),
     "edge entries must be pairs of vertex ids, got ['a', ['b']]"),
    (action_from_dict, _action(("s", [("a", "c"), ("b", "b"), ("c", "a")])), "ok"),
    (action_from_dict, _action(("s", [["a", "c"], ("b", "b"), ["c", "a"]]),
                               ("t", _Edges([["a", "a"]]))), "ok"),
    # the entries are checked before any id is looked up
    (action_from_dict, _action(("s", [["a", "zz"], ["a", "b"]])),
     "generator 's': duplicate source 'a'"),
    (action_from_dict, _action(("s", [["zz", "a"]]), ("t", [["a", "b"], ["a", "c"]])),
     "generator 't': duplicate source 'a'"),
    (action_from_dict, _action(("s", [["a", "c"], [5, "b"]])),
     "map entries must be pairs of vertex ids, got [5, 'b']"),
    (action_from_dict, _action(("s", [["a", 5]]), ("t", 7)),
     "map entries must be pairs of vertex ids, got ['a', 5]"),
    (action_from_dict, _action(("s", [["a", "c"]]), ("t", [[["a"], "b"]])),
     "map entries must be pairs of vertex ids, got [['a'], 'b']"),
    (action_from_dict, _action(("s", [["a", "zz"]]), ("t", [["yy", "a"]])),
     "no vertex 'zz'"),
    # a domain edge sent to a non-edge, and an image edge that comes from one
    (action_from_dict, _action(("s", [["a", "a"], ["b", "c"]])),
     "generator 's' violates automorphism mode at pair ('a', 'b')"),
    (action_from_dict, _action(("s", [["a", "a"], ["c", "b"]])),
     "generator 's' violates automorphism mode at pair ('a', 'c')"),
])
def test_loaders_match_the_entry_by_entry_loaders_by_hand(load, payload, outcome):
    brute = brute_graph_from_dict if load is graph_from_dict else brute_action_from_dict
    got = _loaded(load, payload)
    assert got == _loaded(brute, payload)
    assert got[0] == "ok" if outcome == "ok" else got[1] == outcome


GRAPH = {"format": "qtlab-graph-v1", "vertices": ["a", "b"], "edges": [["a", "b"]]}


@pytest.mark.parametrize("argv_tail, payload", [
    (["analyze", "--graph"], {**GRAPH, "edges": 5}),
    (["analyze", "--graph"], {**GRAPH, "vertices": [1, 2], "edges": [[1, 2]]}),
    (["analyze", "--graph"], {**GRAPH, "vertices": [None], "edges": []}),
    (["analyze", "--graph"], {**GRAPH, "vertices": "ab", "edges": []}),
    (["analyze", "--graph"], {**GRAPH, "boundary": [["a"]]}),
    (["orbit", "--basepoint", "a", "--action"],
     {"format": "qtlab-action-v1", "graph": GRAPH, "mode": "automorphism",
      "generators": [{"name": ["s"], "map": [["a", "b"], ["b", "a"]]}]}),
    (["lm", "fit", "--samples"], {"samples": 7}),
    (["lm", "fit", "--samples"], {"samples": [[["a", 0], 1], [[0, 1], 1]]}),
    (["lm", "fit", "--samples"], {"samples": [[[1, 0], "x"], [[0, 1], 1]]}),
    (["lm", "fit", "--samples"], {"samples": [[[1, 0], "1/0"], [[0, 1], 1]]}),
    (["lm", "fit", "--samples"], {"samples": [[[1.5, 0], 1], [[0, 1], 1]]}),
    (["lm", "fit", "--samples"], {"samples": [[[True, 0], "1"], [[0, 1], "1"], [[1, 1], "2"]]}),
    (["product", "factor-check", "--map"], {"mapping": 5}),
    (["product", "factor-check", "--map"], {"mapping": [[1, 2]]}),
    (["product", "factor-check", "--map"],
     {"mapping": [[["v0", "v0"], ["v1", "v1"], ["v2", "v2"]]]}),
])
def test_known_bad_files_exit_2(workdir, argv_tail, payload):
    path = workdir / "bad.json"
    path.write_text(json.dumps(payload))
    argv = argv_tail + [str(path)]
    if argv[0] == "product":
        p3 = str(workdir / "p3.json")
        argv[2:2] = ["--factors", p3, p3]
    assert _check_contract(argv)["type"] == "FormatError"


@pytest.mark.parametrize("matrix", ["5", '[[1,2],[3,"a"]]', '[[1,2],[3,"1/0"]]', "[[1,2],[3,1.5]]",
                                    '[["1e100000",0],[0,1]]', '[[1,2],[3,"2E3"]]'])
def test_known_bad_matrices_exit_2(matrix):
    argv = ["lm", "obstruction", "--k-max", "2", "--matrix", matrix]
    assert _check_contract(argv)["type"] == "FormatError"


def test_exponent_tau_is_refused(workdir):
    # Fraction would expand the exponent in full; "1e100000" is still fast
    # enough to read, so the refusal is what this pins
    path = workdir / "exp.json"
    path.write_text(json.dumps({"samples": [[[1, 0], "1e100000"], [[0, 1], "1"]]}))
    error = _check_contract(["lm", "fit", "--samples", str(path)])
    assert error["type"] == "FormatError" and "exponent" in error["message"]


@pytest.mark.parametrize("params", [
    '{"Q": 2.5}', '{"Q": true}',
])
def test_integer_params_refuse_floats_and_bools(params):
    error = _check_contract(["construct", "farey", "--params", params])
    assert error["type"] == "FormatError" and "'Q'" in error["message"]


@pytest.mark.parametrize("family,params", [
    ("cycle", '{"n": 5, "bogus": 1}'),
    ("farey", '{"Q": 3, "radisu": 1}'),
])
def test_unknown_params_are_refused(family, params):
    error = _check_contract(["construct", family, "--params", params])
    assert error["type"] == "FormatError"
    assert "unknown parameter" in error["message"]
    assert ("'bogus'" if family == "cycle" else "'radisu'") in error["message"]
    assert ("['n']" if family == "cycle" else "['P', 'Q']") in error["message"]


@pytest.fixture(scope="module")
def z_ball(tmp_path_factory):
    """Graph and action files of the Z Cayley ball of radius 1, ids -1, 0, 1."""
    d = tmp_path_factory.mktemp("zball")
    assert _run(["construct", "cayley", "--params", '{"family": "Z", "radius": 1}',
                 "--out", str(d / "z.graph.json"), "--action-out", str(d / "z.action.json")])[0] == 0
    return str(d / "z.graph.json"), str(d / "z.action.json")


@pytest.mark.parametrize("point", ['[1, 0]', '["0", null]'])
def test_product_x_refuses_non_string_coordinates(z_ball, point):
    g = z_ball[0]
    argv = ["product", "distance", "--factors", g, g, "--x", point, "--y", '["0", "0"]']
    assert _check_contract(argv)["type"] == "FormatError"


def test_product_basepoint_refuses_non_string_coordinates(z_ball):
    a = z_ball[1]
    argv = ["product", "distortion", "--factors", a, a, "--basepoint", '[0, "0"]',
            "--horizon", "1"]
    assert _check_contract(argv)["type"] == "FormatError"


# product points over the ids of the Z ball, "-1", "0" and "1": mostly
# lists of strings, some of them unknown ids or of the wrong length, then
# lists with an entry of the wrong type, JSON values of the wrong type and
# text that is not JSON
COORD = st.one_of(st.sampled_from(["-1", "0", "1", "zz", ""]), JUNK)
POINT = st.one_of(
    _tuple_ish(st.sampled_from(["-1", "0", "1"]), 2).map(json.dumps),
    _tuple_ish(COORD, 2).map(json.dumps), JUNK.map(json.dumps),
    st.sampled_from(["", "[", '["0", "1"', "['0', '1']", '["0" "1"]']))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["distance", "geodesics"]), POINT, POINT)
def test_product_points_keep_the_contract(z_ball, sub, x, y):
    g = z_ball[0]
    _check_contract(["product", sub, "--factors", g, g, "--x", x, "--y", y], (0, 2, 3))


@settings(max_examples=100, deadline=None)
@given(POINT)
def test_product_basepoint_keeps_the_contract(z_ball, basepoint):
    a = z_ball[1]
    _check_contract(["product", "distortion", "--factors", a, a, "--basepoint", basepoint,
                     "--horizon", "1"], (0, 2, 3))


def _write(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def test_factor_check_map_refuses_non_string_coordinates(z_ball, tmp_path):
    g = z_ball[0]
    ids = ["-1", "0", "1"]
    mapping = [[[x, y], [x, y]] for x in ids for y in ids]
    assert _check_contract(["product", "factor-check", "--factors", g, g, "--map",
                            _write(tmp_path / "ok.json", {"mapping": mapping})]) is None
    mapping[4] = [[0, "0"], ["0", "0"]]     # the point (0, 0), one coordinate an int
    error = _check_contract(["product", "factor-check", "--factors", g, g, "--map",
                             _write(tmp_path / "bad.json", {"mapping": mapping})])
    assert error["type"] == "FormatError" and "vertex id strings" in error["message"]


def test_factor_check_map_refuses_a_repeated_source_point(tmp_path):
    """The identity on p2 x p2 followed by the coordinate swap names every
    point twice; the second entry must not silently replace the first."""
    p2 = str(tmp_path / "p2.json")
    assert _run(["construct", "path", "--params", '{"n": 2}', "--out", p2])[0] == 0
    points = [[x, y] for x in ("v0", "v1") for y in ("v0", "v1")]
    mapping = [[x, x] for x in points] + [[x, x[::-1]] for x in points]
    argv = ["product", "factor-check", "--factors", p2, p2, "--map"]
    assert _check_contract(argv + [_write(tmp_path / "once.json",
                                          {"mapping": mapping[:4]})]) is None
    error = _check_contract(argv + [_write(tmp_path / "twice.json", {"mapping": mapping})])
    assert error == {"type": "FormatError", "message":
                     f"{tmp_path / 'twice.json'}: source point ['v0', 'v0'] is mapped twice"}


@pytest.mark.parametrize("gens", ["[true]", "[1.0]", "[[1, 0], [0, false]]"])
def test_integer_gens_refuse_floats_and_bools(gens):
    family = "Z2" if gens.startswith("[[") else "Z"
    error = _check_contract(["construct", "cayley", "--params",
                             f'{{"family": "{family}", "radius": 2, "gens": {gens}}}'])
    assert error["type"] == "FormatError" and "'gens'" in error["message"]


def test_integer_strings_are_still_read():
    assert _check_contract(["construct", "farey", "--params", '{"Q": "2"}']) is None


@pytest.mark.parametrize("argv", [
    # two argv items: argparse reads "-1e+16" as an option, not as the value
    ["lm", "obstruction", "--k-max", "2", "--matrix", "-1e+16"],
    ["lm", "obstruction", "--k-max"],
    ["lm", "obstruction", "--k-max", "two"],
    ["no-such-command"],
    [],
])
def test_usage_errors_are_json(argv):
    error = _check_contract(argv)
    assert error["type"] == "FormatError"


def test_help_still_exits_0():
    with pytest.raises(SystemExit) as exc:
        _run(["lm", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("family", ["cone", "horoball"])
@pytest.mark.parametrize("basepoint,error", [("5", "FormatError"), ('"nope"', "VertexNotFound")])
def test_cone_and_horoball_check_their_basepoint(tmp_path, family, basepoint, error):
    c5 = str(tmp_path / "c5.json")
    assert _run(["construct", "cycle", "--params", '{"n": 5}', "--out", c5])[0] == 0
    found = _check_contract(["construct", family, "--graph", c5,
                             "--params", f'{{"basepoint": {basepoint}}}'])
    assert found is not None and found["type"] == error


# -- the reader: bytes that are not UTF-8 and integers past the digit limit ----

# the interpreter's limit on the digits of an integer read from or written as
# text; 0 where it has none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(DIGIT_LIMIT == 0,
                                       reason="this interpreter has no integer digit limit")
LATIN1_GRAPH = b'{"format": "qtlab-graph-v1", "vertices": ["caf\xe9"], "edges": []}'


@pytest.mark.parametrize("argv_tail", [
    ["analyze", "--graph"],
    ["orbit", "--basepoint", "v0", "--action"],
    ["lm", "fit", "--samples"],
    ["product", "factor-check", "--factors", "P3", "P3", "--map"],
])
def test_files_that_are_not_utf8_exit_2(workdir, argv_tail):
    path = workdir / "latin1.json"
    path.write_bytes(LATIN1_GRAPH)
    argv = [str(workdir / "p3.json") if a == "P3" else a for a in argv_tail] + [str(path)]
    error = _check_contract(argv, codes=(2,))
    assert error["type"] == "FormatError"
    assert error["message"].startswith(f"{path}: not valid JSON (")


def test_a_named_graph_file_that_is_not_utf8_exits_2(workdir):
    (workdir / "latin1.graph.json").write_bytes(LATIN1_GRAPH)
    action = _write(workdir / "names-latin1.action.json",
                    {"format": "qtlab-action-v1", "graph": "latin1.graph.json",
                     "mode": "automorphism", "generators": []})
    error = _check_contract(["orbit", "--action", action, "--basepoint", "v0"], codes=(2,))
    assert error["type"] == "FormatError"
    assert error["message"].startswith(f"{workdir / 'latin1.graph.json'}: not valid JSON (")


@needs_digit_limit
@pytest.mark.parametrize("argv, named", [
    (["construct", "path", "--params", '{"n": LONG}'], "--params"),
    (["lm", "obstruction", "--k-max", "1", "--matrix", "[[LONG, 0], [0, 1]]"], "--matrix"),
    (["product", "distance", "--factors", "Z", "Z", "--x", "[LONG]", "--y", '["0", "0"]'],
     "point"),
    (["product", "distortion", "--factors", "ZA", "ZA", "--basepoint", "[LONG]"], "point"),
    (["analyze", "--graph", "GRAPH"], "GRAPH"),
])
def test_integers_past_the_digit_limit_exit_2(z_ball, tmp_path, argv, named):
    long = "7" * (DIGIT_LIMIT + 1)
    graph = tmp_path / "long.graph.json"
    graph.write_text('{"format": "qtlab-graph-v1", "vertices": ["a"], "edges": [], '
                     f'"x": {long}}}')
    names = {"Z": z_ball[0], "ZA": z_ball[1], "GRAPH": str(graph)}
    argv = [names.get(a, a.replace("LONG", long)) for a in argv]
    error = _check_contract(argv, codes=(2,))
    assert error["type"] == "FormatError"
    assert error["message"].startswith(f"{names.get(named, named)}: not valid JSON (")


# -- refused sizes: a report too large to encode, a word too long to expand ----


@pytest.fixture
def default_digit_limit():
    """The interpreter's default digit limit of 4300, whatever the
    environment set; restored afterwards."""
    if DIGIT_LIMIT == 0:
        pytest.skip("this interpreter has no integer digit limit")
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(DIGIT_LIMIT)


def test_a_report_past_the_digit_limit_exits_3(default_digit_limit, tmp_path):
    # alpha and beta have 4,194 digits at --n 6000 and 4,334 at --n 6200
    assert _check_contract(["lm", "exponents", "--n", "6000"], codes=(0,)) is None
    out = tmp_path / "report.json"
    error = _check_contract(["lm", "exponents", "--n", "6200", "--out", str(out)], codes=(3,))
    assert error == {"type": "SizeLimitExceeded",
                     "message": "report: more than 4300 digits in one integer exceeds cap 4300"}
    assert not out.exists()


@pytest.fixture(scope="module")
def f2_action(tmp_path_factory):
    d = tmp_path_factory.mktemp("f2")
    assert _run(["fixtures", "f2-r5", "--out", str(d)])[0] == 0
    return str(d / "f2-r5.action.json")


@pytest.mark.parametrize("word, letters", [("x^99999999999999", 99999999999999),
                                           ("x^100000000", 100000000),
                                           ("a^999999 b^-2", 1000001)])
def test_words_past_the_letter_cap_exit_3(f2_action, word, letters):
    error = _check_contract(["classify", "--action", f2_action, "--basepoint", "e",
                             "--word", word], codes=(3,))
    assert error == {"type": "SizeLimitExceeded",
                     "message": f"Word.parse: {letters} letters exceeds cap 1000000"}


def test_a_word_at_the_letter_cap_is_expanded():
    assert WORD_LETTERS_CAP == 10 ** 6
    word = Word.parse(f"a^{WORD_LETTERS_CAP // 2} b^-{WORD_LETTERS_CAP // 2}")
    assert len(word) == WORD_LETTERS_CAP and word.letters[-1] == ("b", -1)


# -- the caps: --max-vertices and QTLAB_MAX_VERTICES ---------------------------

# negative, huge, non-numeric, empty and whitespace values, underscores and
# non-ASCII digits, then any short text an environment variable can hold
CAP_TEXT = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.integers(10 ** 6, 10 ** 40).map(str),
    st.sampled_from(["", " ", "\t", " 7 ", "7\n", "1_000", "_1", "1__0", "-0", "+3", "1e3",
                     "0x10", "abc", "٣", "١٠", "１２", "²",
                     "9" * 5000]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
            max_size=6))
CAP_COMMANDS = [["analyze", "--graph", "P3"],
                ["product", "geodesics", "--factors", "P3", "P3",
                 "--x", '["v0", "v0"]', "--y", '["v2", "v2"]']]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CAP_COMMANDS), st.one_of(st.none(), CAP_TEXT),
       st.one_of(st.none(), CAP_TEXT))
def test_caps_keep_the_contract(workdir, command, flag, env):
    argv = [str(workdir / "p3.json") if a == "P3" else a for a in command]
    if flag is not None:
        argv = [f"--max-vertices={flag}"] + argv
    with pytest.MonkeyPatch.context() as mp:
        if env is None:
            mp.delenv("QTLAB_MAX_VERTICES", raising=False)
        else:
            mp.setenv("QTLAB_MAX_VERTICES", env)
        _check_contract(argv, codes=(0, 2, 3))
        assert os.environ.get("QTLAB_MAX_VERTICES") == env
