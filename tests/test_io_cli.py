"""Round trips for the JSON formats and end-to-end runs of the command line."""

import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from qtlab import DisconnectedGraph, FormatError
from qtlab.cli import FIXTURES, _build_fixture, main
from qtlab.constructions import cayley_graph, grid_graph, path_graph
from qtlab.group_action import Word, action_from_maps, evaluate_word
from qtlab.io import (
    action_from_dict,
    action_to_dict,
    graph_from_dict,
    graph_to_dict,
    load_action,
    load_graph,
    save_action,
    save_graph,
)
from qtlab.metric_graph import graph_from_ids


# ---------------------------------------------------------------------------
# file formats


def test_graph_round_trip(tmp_path):
    g = grid_graph(3, 4)
    path = tmp_path / "g.json"
    save_graph(g, str(path))
    h = load_graph(str(path))
    assert h.vertex_ids == g.vertex_ids
    assert h.edge_array().tolist() == g.edge_array().tolist()


def test_graph_round_trip_keeps_boundary():
    con = cayley_graph("Z", 4)
    d = graph_to_dict(con.graph)
    h = graph_from_dict(d)
    assert sorted(h.boundary) == sorted(con.graph.boundary)


def test_action_round_trip_inline(tmp_path):
    con = cayley_graph("Z", 5)
    path = tmp_path / "a.json"
    save_action(con.action, str(path))
    a = load_action(str(path))
    assert a.mode == con.action.mode
    assert evaluate_word(a, Word.parse("s^2"), "0") == "2"


def test_action_round_trip_with_graph_ref(tmp_path):
    con = cayley_graph("Z", 5)
    save_graph(con.action.space, str(tmp_path / "g.json"))
    save_action(con.action, str(tmp_path / "a.json"), graph_ref="g.json")
    # the reference resolves relative to the action file
    raw = json.loads((tmp_path / "a.json").read_text())
    assert raw["graph"] == "g.json"
    a = load_action(str(tmp_path / "a.json"))
    assert evaluate_word(a, Word.parse("s^-1"), "0") == "-1"


def test_graph_from_dict_rejects_wrong_format():
    with pytest.raises(FormatError):
        graph_from_dict({"format": "something-else", "vertices": [], "edges": []})


def test_graph_from_dict_rejects_missing_fields():
    with pytest.raises(FormatError):
        graph_from_dict({"format": "qtlab-graph-v1", "vertices": ["a"]})


def test_action_from_dict_rejects_bad_generator():
    g = path_graph(3)
    d = action_to_dict(action_from_maps(g, [("e", {v: v for v in g.vertex_ids})]))
    d["generators"][0]["map"] = [["v0", "v1"], ["v2", "v1"]]
    with pytest.raises(FormatError):
        action_from_dict(d)


@pytest.mark.parametrize("generators", [{"name": "s"}, [{"name": "s", "map": 7}]])
def test_action_from_dict_checks_generator_types(generators):
    d = action_to_dict(cayley_graph("Z", 3).action)
    d["generators"] = generators
    with pytest.raises(FormatError):
        action_from_dict(d)


def test_disconnected_graph_needs_opt_in(tmp_path):
    d = {"format": "qtlab-graph-v1", "vertices": ["a", "b", "c"], "edges": [["a", "b"]]}
    with pytest.raises(DisconnectedGraph):
        graph_from_dict(d)
    g = graph_from_dict(d, allow_disconnected=True)
    assert g.n == 3


# ---------------------------------------------------------------------------
# command line, in process


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_construct_and_analyze(tmp_path, capsys):
    out = tmp_path / "c8.json"
    rc, stdout, _ = run_cli(capsys, [
        "construct", "cycle", "--params", '{"n": 8}', "--out", str(out)])
    assert rc == 0
    rep = json.loads(stdout)
    assert sorted(rep) == ["command", "determinism_seed", "inputs", "results", "version"]
    assert rep["results"]["written"]["graph"] == str(out)
    assert json.loads(out.read_text())["format"] == "qtlab-graph-v1"

    rc, stdout, _ = run_cli(capsys, ["analyze", "--graph", str(out)])
    assert rc == 0
    res = json.loads(stdout)["results"]
    assert res["two_delta"] == 4
    assert res["delta"] == "2"
    assert res["bottleneck_constant"] == 2
    assert res["is_tree"] is False


def test_orbit_report(tmp_path, capsys):
    act = tmp_path / "z.action.json"
    rc, _, _ = run_cli(capsys, [
        "construct", "cayley", "--params", '{"family": "Z", "radius": 6}',
        "--action-out", str(act)])
    assert rc == 0
    rc, stdout, _ = run_cli(capsys, [
        "orbit", "--action", str(act), "--basepoint", "0", "--horizon", "5"])
    assert rc == 0
    res = json.loads(stdout)["results"]
    assert res["size"] == 11
    assert res["ball_counts"] == [1, 3, 5, 7, 9, 11]
    assert res["complete"] is True
    assert res["sample"][:3] == ["0", "1", "-1"]


def test_classify_word_via_cli(tmp_path, capsys):
    act = tmp_path / "z.action.json"
    run_cli(capsys, ["construct", "cayley", "--params", '{"family": "Z", "radius": 8}',
                     "--action-out", str(act)])
    rc, stdout, _ = run_cli(capsys, [
        "classify", "--action", str(act), "--basepoint", "0",
        "--word", "s", "--horizon", "8"])
    assert rc == 0
    res = json.loads(stdout)["results"]
    assert res["verdict"] == "Loxodromic"
    assert res["tau_lower"] == "1"


def test_properness_csv_table(tmp_path, capsys):
    act = tmp_path / "z.action.json"
    run_cli(capsys, ["construct", "cayley", "--params", '{"family": "Z", "radius": 6}',
                     "--action-out", str(act)])
    rc, stdout, _ = run_cli(capsys, [
        "properness", "--action", str(act), "--horizon", "4", "--format", "csv"])
    assert rc == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "table,epsilon_or_r,R,count"
    assert len(lines) > 5


def test_csv_refused_for_non_tables(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli(capsys, ["construct", "path", "--params", '{"n": 4}', "--out", str(g)])
    rc, _, stderr = run_cli(capsys, ["analyze", "--graph", str(g), "--format", "csv"])
    assert rc == 2
    assert json.loads(stderr)["error"]["type"] == "FormatError"


def test_missing_file_is_a_clean_error(capsys):
    rc, _, stderr = run_cli(capsys, ["analyze", "--graph", "/no/such/file.json"])
    assert rc == 2
    assert json.loads(stderr)["error"]["type"] == "FileError"


def test_invalid_json_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json{{")
    rc, _, stderr = run_cli(capsys, ["analyze", "--graph", str(bad)])
    assert rc == 2
    assert json.loads(stderr)["error"]["type"] == "FormatError"


def _format_error(capsys, argv):
    rc, stdout, stderr = run_cli(capsys, argv)
    assert rc == 2 and stdout == ""
    err = json.loads(stderr)["error"]
    assert err["type"] == "FormatError"
    return err["message"]


@pytest.fixture
def z_action(tmp_path, capsys):
    act = tmp_path / "z.action.json"
    rc, _, _ = run_cli(capsys, ["construct", "cayley", "--params",
                                '{"family": "Z", "radius": 6}', "--action-out", str(act)])
    assert rc == 0
    return str(act)


@pytest.mark.parametrize("argv, message", [
    (["orbit", "--basepoint", "0", "--horizon", "-1"], "--horizon must be >= 0, got -1"),
    (["orbit", "--basepoint", "0", "--radius", "-2"], "--radius must be >= 0, got -2"),
    (["rips-orbit", "--basepoint", "0", "--r", "1", "--horizon", "-1"],
     "--horizon must be >= 0, got -1"),
    (["classify", "--basepoint", "0", "--horizon", "-1"], "--horizon must be >= 0, got -1"),
    (["classify", "--basepoint", "0", "--word", "s", "--horizon", "-3"],
     "--horizon must be >= 0, got -3"),
    (["properness", "--horizon", "-3"], "--horizon must be >= 0, got -3"),
])
def test_negative_horizon_or_radius_is_a_format_error(z_action, capsys, argv, message):
    assert _format_error(capsys, argv[:1] + ["--action", z_action] + argv[1:]) == message


@pytest.mark.parametrize("argv", [
    ["orbit", "--basepoint", "0", "--horizon", "0", "--radius", "0"],
    ["rips-orbit", "--basepoint", "0", "--r", "1", "--horizon", "0"],
    ["classify", "--basepoint", "0", "--horizon", "0"],
    ["classify", "--basepoint", "0", "--word", "s", "--horizon", "0"],
    ["properness", "--horizon", "0"],
])
def test_zero_horizon_is_still_answered(z_action, capsys, argv):
    rc, _, stderr = run_cli(capsys, argv[:1] + ["--action", z_action] + argv[1:])
    assert (rc, stderr) == (0, "")


@pytest.mark.parametrize("k_max", ["0", "-1"])
def test_empty_obstruction_range_is_a_format_error(capsys, k_max):
    assert _format_error(capsys, ["lm", "obstruction", "--k-max", k_max]) == \
        f"--k-max must be >= 1, got {k_max}"


def test_construct_missing_param_is_a_format_error(capsys):
    msg = _format_error(capsys, ["construct", "cycle", "--params", "{}"])
    assert "cycle" in msg and "'n'" in msg


def test_construct_non_integer_param_is_a_format_error(capsys):
    msg = _format_error(capsys, ["construct", "cycle", "--params", '{"n": "x"}'])
    assert "cycle" in msg and "'n'" in msg


def test_construct_cayley_non_integer_gens_is_a_format_error(capsys):
    msg = _format_error(capsys, ["construct", "cayley", "--params",
                                 '{"family": "Z", "radius": 3, "gens": ["a"]}'])
    assert "cayley" in msg and "'gens'" in msg


def test_construct_doubleline_non_list_swaps_is_a_format_error(capsys):
    msg = _format_error(capsys, ["construct", "doubleline", "--params", '{"n": 8, "swaps": 5}'])
    assert "doubleline" in msg and "'swaps'" in msg


def test_map_entry_with_list_source_is_a_format_error(tmp_path, capsys):
    d = action_to_dict(cayley_graph("Z", 3).action)
    d["generators"][0]["map"] = [[["0"], "1"]]
    act = tmp_path / "a.json"
    act.write_text(json.dumps(d))
    msg = _format_error(capsys, ["orbit", "--action", str(act), "--basepoint", "0"])
    assert "map entries" in msg


def test_lm_fit_invalid_json_is_a_format_error(tmp_path, capsys):
    bad = tmp_path / "samples.json"
    bad.write_text("not json{{")
    assert str(bad) in _format_error(capsys, ["lm", "fit", "--samples", str(bad)])


def test_factor_check_invalid_json_is_a_format_error(tmp_path, capsys):
    g = tmp_path / "p3.json"
    save_graph(path_graph(3), str(g))
    bad = tmp_path / "map.json"
    bad.write_text("[[")
    assert str(bad) in _format_error(capsys, [
        "product", "factor-check", "--factors", str(g), str(g), "--map", str(bad)])


def test_non_object_generator_is_a_format_error(tmp_path, capsys):
    d = action_to_dict(cayley_graph("Z", 3).action)
    d["generators"] = [5]
    act = tmp_path / "a.json"
    act.write_text(json.dumps(d))
    msg = _format_error(capsys, ["orbit", "--action", str(act), "--basepoint", "0"])
    assert "generator" in msg


def test_size_cap_exit_code(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli(capsys, ["construct", "cycle", "--params", '{"n": 8}', "--out", str(g)])
    rc, _, stderr = run_cli(capsys, ["--max-vertices", "5", "analyze", "--graph", str(g)])
    assert rc == 3
    assert json.loads(stderr)["error"]["type"] == "SizeLimitExceeded"


def test_size_cap_does_not_leak_between_runs(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli(capsys, ["construct", "cycle", "--params", '{"n": 8}', "--out", str(g)])
    rc, _, _ = run_cli(capsys, ["--max-vertices", "5", "analyze", "--graph", str(g)])
    assert rc == 3
    assert "QTLAB_MAX_VERTICES" not in os.environ
    rc, _, _ = run_cli(capsys, ["analyze", "--graph", str(g)])
    assert rc == 0


def test_analyze_tree_fixture_over_the_delta_cap(tmp_path, capsys):
    # f2-r5 is a tree of 485 vertices, over the default cap of 200 on the
    # four-point scan; trees are answered without a scan, so it exits 0
    rc, _, _ = run_cli(capsys, ["fixtures", "f2-r5", "--out", str(tmp_path)])
    assert rc == 0
    rc, stdout, stderr = run_cli(capsys, [
        "analyze", "--graph", str(tmp_path / "f2-r5.graph.json")])
    assert (rc, stderr) == (0, "")
    res = json.loads(stdout)["results"]
    assert (res["n_vertices"], res["is_tree"]) == (485, True)
    assert (res["two_delta"], res["delta_witness"]) == (0, ["X"] * 4)
    assert (res["bottleneck_constant"], res["bottleneck_witness"]) == (0, None)


def test_row_commands_build_no_distance_matrix(tmp_path, capsys, monkeypatch):
    """construct, orbit, rips-orbit and classify --word need distances from
    a few points only, and analyze on a tree needs two BFS rows: none of
    them may build the all-pairs matrix.  Farey Q = 8 has 252 vertices, over the
    four-point cap, so classify takes the default slack instead of a scan."""
    import qtlab._kernels

    def refuse(*args):
        raise AssertionError("the all-pairs distance matrix was built")

    monkeypatch.setattr(qtlab._kernels, "apsp", refuse)
    plan = (("farey", '{"Q": 8}', "inf", ("T", "S T^-1", "S T S")),
            ("bs12", '{"radius": 3}', "m0:0/1", ("a", "t", "a t^-1")))
    for family, params, bp, words in plan:
        g, a = str(tmp_path / f"{family}.graph.json"), str(tmp_path / f"{family}.action.json")
        runs = [["construct", family, "--params", params, "--out", g, "--action-out", a],
                ["orbit", "--action", a, "--basepoint", bp, "--horizon", "4"],
                ["rips-orbit", "--action", a, "--basepoint", bp, "--r", "2", "--horizon", "3"]]
        runs += [["classify", "--action", a, "--basepoint", bp, "--word", w, "--horizon", "8"]
                 for w in words]
        if family == "bs12":
            runs.append(["analyze", "--graph", g])
        for argv in runs:
            rc, _, stderr = run_cli(capsys, argv)
            assert (rc, stderr) == (0, ""), argv


def test_classify_falls_back_to_slack_4_under_a_lowered_cap(tmp_path, capsys):
    """--max-vertices below the graph size skips the four-point scan the
    way the default cap does: slack 4 with a note, not a refusal."""
    assert main(["fixtures", "doubleline-n16", "--out", str(tmp_path)]) == 0
    argv = ["classify", "--action", str(tmp_path / "doubleline-n16.action.json"),
            "--basepoint", "(0,1)", "--word", "s"]
    reports = []
    for cap in ([], ["--max-vertices", "10"]):
        capsys.readouterr()
        rc, stdout, stderr = run_cli(capsys, cap + argv)
        assert (rc, stderr) == (0, "")
        reports.append(json.loads(stdout)["results"])
    scanned, capped = reports
    assert scanned["notes"] == []
    assert capped["certificate"]["slack"] == "4"
    assert capped["notes"] == ["ambient delta not computed (graph over cap); using slack 4"]


def test_unknown_fixture_name(capsys):
    rc, _, stderr = run_cli(capsys, ["fixtures", "no-such-fixture"])
    assert rc == 2
    assert "no-such-fixture" in json.loads(stderr)["error"]["message"]


def test_fixture_bundle(tmp_path, capsys):
    rc, stdout, _ = run_cli(capsys, ["fixtures", "doubleline-n16", "--out", str(tmp_path)])
    assert rc == 0
    res = json.loads(stdout)["results"]
    assert res["n_vertices"] == 66
    manifest = json.loads((tmp_path / "doubleline-n16.manifest.json").read_text())
    assert manifest["basepoint"] == "(0,1)"
    assert manifest["n_edges"] == 128
    assert manifest["connectivity_radius"] == 2
    # the bundled files load under the reference formats
    g = load_graph(str(tmp_path / "doubleline-n16.graph.json"))
    assert g.n == 66
    a = load_action(str(tmp_path / "doubleline-n16.action.json"))
    assert evaluate_word(a, Word.parse("s"), "(0,1)") == "(1,1)"


def test_fixture_files_keep_the_json_dump_bytes(tmp_path, capsys):
    # the files are written from one json.dumps string (the C encoder); they
    # keep the bytes that json.dump to the file handle wrote
    rc, _, _ = run_cli(capsys, ["fixtures", "doubleline-n16", "--out", str(tmp_path)])
    assert rc == 0
    con = _build_fixture("doubleline-n16")
    manifest = tmp_path / "doubleline-n16.manifest.json"
    for kind, obj in (("graph", graph_to_dict(con.graph)),
                      ("action", action_to_dict(con.action, graph_ref="doubleline-n16.graph.json")),
                      ("manifest", json.loads(manifest.read_text()))):
        with open(tmp_path / "reference.json", "w") as fh:
            json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        assert (tmp_path / f"doubleline-n16.{kind}.json").read_bytes() == \
            (tmp_path / "reference.json").read_bytes(), kind


def test_fixture_listing(capsys):
    rc, stdout, _ = run_cli(capsys, ["fixtures", "list"])
    assert rc == 0
    names = json.loads(stdout)["results"]["available"]
    assert "bs12-r8" in names and "farey-Q20" in names
    assert names == sorted(names)


def test_lm_exponents_cli(capsys):
    rc, stdout, _ = run_cli(capsys, ["lm", "exponents", "--n", "3"])
    assert rc == 0
    res = json.loads(stdout)["results"]
    assert (res["alpha"], res["beta"]) == (-117, 44)
    assert res["gaussian"]["congruent_mod5"] is True
    assert res["norm_identity"] is True


def test_lm_obstruction_cli(capsys):
    rc, stdout, _ = run_cli(capsys, ["lm", "obstruction", "--k-max", "5"])
    assert rc == 0
    res = json.loads(stdout)["results"]
    assert res["all_obstructed"] is True
    assert res["unobstructed_k"] == []
    assert res["first_rows"][0]["det_plus"] == 20


def test_lm_fit_cli(tmp_path, capsys):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps(
        {"samples": [[[1, 0], "3/2"], [[0, 1], "2"], [[1, 1], "7/2"], [[2, 1], "5"]]}))
    rc, stdout, _ = run_cli(capsys, ["lm", "fit", "--samples", str(samples)])
    assert rc == 0
    res = json.loads(stdout)["results"]
    assert (res["x"], res["y"]) == ("3/2", "2")
    assert res["residual"] == "0"
    assert res["audit"]["passed"] is True


def test_product_distance_and_geodesics_cli(tmp_path, capsys):
    g = tmp_path / "c8.json"
    run_cli(capsys, ["construct", "cycle", "--params", '{"n": 8}', "--out", str(g)])
    rc, stdout, _ = run_cli(capsys, [
        "product", "distance", "--factors", str(g), str(g),
        "--x", '["v0","v1"]', "--y", '["v2","v3"]'])
    assert rc == 0
    assert json.loads(stdout)["results"]["exact"] == 4
    rc, stdout, _ = run_cli(capsys, [
        "product", "geodesics", "--factors", str(g), str(g),
        "--x", '["v0","v0"]', "--y", '["v2","v2"]'])
    assert rc == 0
    res = json.loads(stdout)["results"]
    assert res["geodesic_count"] == 6
    assert res["passed"] is True


def test_product_distance_reads_one_row_per_factor(tmp_path, capsys, monkeypatch):
    """product distance needs d(x_i, y_i) in each factor: one BFS row each,
    never a factor's all-pairs matrix."""
    import qtlab._kernels

    def refuse(*args):
        raise AssertionError("the all-pairs distance matrix was built")

    monkeypatch.setattr(qtlab._kernels, "apsp", refuse)
    g, t = tmp_path / "c8.json", tmp_path / "bs12.json"
    run_cli(capsys, ["construct", "cycle", "--params", '{"n": 8}', "--out", str(g)])
    run_cli(capsys, ["construct", "bs12", "--params", '{"radius": 3}', "--out", str(t)])
    for norm, want in (("l1", 7), ("linf", 4)):
        rc, stdout, stderr = run_cli(capsys, [
            "product", "distance", "--factors", str(g), str(t), "--norm", norm,
            "--x", '["v0","m0:0/1"]', "--y", '["v4","m3:0/1"]'])
        assert (rc, stderr) == (0, "")
        assert json.loads(stdout)["results"]["exact"] == want


def test_product_factor_check_cli(tmp_path, capsys):
    g = tmp_path / "p3.json"
    run_cli(capsys, ["construct", "path", "--params", '{"n": 3}', "--out", str(g)])
    pairs = [[["v%d" % i, "v%d" % j], ["v%d" % j, "v%d" % i]]
             for i in range(3) for j in range(3)]
    mp = tmp_path / "swap.json"
    mp.write_text(json.dumps({"mapping": pairs}))
    rc, stdout, _ = run_cli(capsys, [
        "product", "factor-check", "--factors", str(g), str(g), "--map", str(mp)])
    assert rc == 0
    res = json.loads(stdout)["results"]
    assert res["is_isometry"] is True
    assert res["permutation"] == [1, 0]


def test_product_distortion_cli_csv(tmp_path, capsys):
    act = tmp_path / "z.action.json"
    run_cli(capsys, ["construct", "cayley", "--params", '{"family": "Z", "radius": 6}',
                     "--action-out", str(act)])
    rc, stdout, _ = run_cli(capsys, [
        "product", "distortion", "--factors", str(act), str(act),
        "--horizon", "4", "--format", "csv"])
    assert rc == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "n,raw,envelope,witness"
    assert lines[1] == "1,1,1,f0_s"


# ---------------------------------------------------------------------------
# command line, through a real process


# graph commands and a Chebyshev `lm fit` in one fresh interpreter; qtlab
# runs on numpy alone, so none of them may import scipy
NO_SCIPY_SCRIPT = r"""
import contextlib, io, json, sys
from qtlab.cli import main
from qtlab.io import load_graph
from qtlab.metric_graph import is_quasitree

act = "doubleline-n16.action.json"
# no pair of samples interpolates, so the fit takes its Chebyshev branch
with open("noisy.json", "w") as fh:
    json.dump({"samples": [[[1, 0], 1], [[2, 0], 4], [[0, 1], 0], [[1, 1], "5/3"]]}, fh)
runs = [
    ["construct", "grid", "--params", '{"m": 4, "n": 5}', "--out", "grid.json"],
    ["fixtures", "doubleline-n16", "--out", "."],
    ["analyze", "--graph", "grid.json"],
    ["orbit", "--action", act, "--basepoint", "(0,1)", "--horizon", "4"],
    ["classify", "--action", act, "--basepoint", "(0,1)", "--horizon", "6"],
    ["properness", "--action", act, "--horizon", "3"],
    ["product", "distortion", "--factors", act, act, "--horizon", "3"],
    ["lm", "fit", "--samples", "noisy.json"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0, argv
assert json.loads(out.getvalue())["results"]["method"] == "chebyshev"
assert is_quasitree(load_graph("grid.json"), 2).report.constant > 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_no_command_imports_scipy(tmp_path, child_env):
    r = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], capture_output=True,
                       cwd=str(tmp_path), text=True, env=child_env)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == []


def test_reports_are_byte_deterministic(tmp_path, child_env):
    cmd = [sys.executable, "-m", "qtlab.cli", "construct", "grid",
           "--params", '{"m": 3, "n": 3}']
    a = subprocess.run(cmd, capture_output=True, cwd=str(tmp_path), env=child_env)
    b = subprocess.run(cmd, capture_output=True, cwd=str(tmp_path), env=child_env)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    # Cayley edges are collected in a set, whose order follows the string
    # hash seed; the report and both files must not
    outputs = []
    for hash_seed in ("0", "1"):
        d = tmp_path / f"hash{hash_seed}"
        d.mkdir()
        r = subprocess.run(
            [sys.executable, "-m", "qtlab.cli", "construct", "cayley", "--params",
             '{"family": "Z2", "radius": 3, "gens": [[1, 1], [0, 2]]}',
             "--out", "g.json", "--action-out", "a.json"],
            capture_output=True, cwd=str(d), env=dict(child_env, PYTHONHASHSEED=hash_seed))
        assert (r.returncode, r.stderr) == (0, b"")
        outputs.append((r.stdout, (d / "g.json").read_bytes(), (d / "a.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_console_entry_reports_errors_on_stderr(tmp_path, child_env):
    cmd = [sys.executable, "-m", "qtlab.cli", "analyze", "--graph", "missing.json"]
    r = subprocess.run(cmd, capture_output=True, cwd=str(tmp_path), text=True,
                       env=child_env)
    assert r.returncode == 2
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"]["type"] == "FileError"


def test_console_script_target_lists_the_fixtures(capsys):
    """The `qtlab` script of pyproject.toml calls qtlab.cli:main with the
    command line; `fixtures list` through that target exits 0."""
    pyproject = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    module, name = re.search(r'^qtlab = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    assert (module, name) == ("qtlab.cli", "main")
    entry = getattr(importlib.import_module(module), name)
    assert entry(["fixtures", "list"]) == 0
    out, err = capsys.readouterr()
    assert (json.loads(out)["results"]["available"], err) == (list(FIXTURES), "")


def test_bad_env_cap_is_a_format_error(tmp_path, capsys, monkeypatch):
    g = tmp_path / "c.json"
    save_graph(grid_graph(3, 3), str(g))
    monkeypatch.setenv("QTLAB_MAX_VERTICES", "abc")
    rc, _, stderr = run_cli(capsys, ["analyze", "--graph", str(g)])
    assert rc == 2
    err = json.loads(stderr)["error"]
    assert err["type"] == "FormatError" and "QTLAB_MAX_VERTICES" in err["message"]


def test_bad_env_cap_through_the_console_entry(tmp_path, child_env):
    save_graph(grid_graph(3, 3), str(tmp_path / "c.json"))
    env = dict(child_env, QTLAB_MAX_VERTICES="-3")
    r = subprocess.run([sys.executable, "-m", "qtlab.cli", "analyze", "--graph", "c.json"],
                       capture_output=True, cwd=str(tmp_path), text=True, env=env)
    assert r.returncode == 2
    assert r.stdout == ""
    err = json.loads(r.stderr)["error"]
    assert err["type"] == "FormatError" and "QTLAB_MAX_VERTICES" in err["message"]
