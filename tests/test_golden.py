"""Golden digests: the bytes every Cayley family and every fixture builds.

The Cayley and fixture digests were taken from the builders before the
Cayley families shared one ball builder, and the large-truncation digests
before the Farey and BS(1,2) builders moved to integer arithmetic; a
refactor of the builders must keep every one of them.  The coset-tree
digests were taken from the builder that still went through vertex ids,
before it moved to integer group tables."""

import hashlib
import itertools
import json

import pytest

from qtlab.cli import FIXTURES, main
from qtlab.constructions import FiniteGroupTable, c6_chain, c30_chain, cayley_graph, coset_tree
from qtlab.group_action import (Word, orbit, orbit_quasiconvexity, serre_elliptic_test,
                                stable_translation_length, tree_translation_length)
from qtlab.io import action_to_dict, graph_to_dict, load_action

# (family, radius, gens, group table, sha256 of graph + action + basepoint + extras)
CAYLEY = [
    ("Z", 4, None, None,
     "cf720e8cd0dc4bfd3adfb290a1f38727f24b975a2ea84cb8673e8d75f381c429"),
    ("Z", 3, (2, 3), None,
     "fc1a55dff0766a33ca42634396bb4d22107d27f3f535a32730fcabff8062d9e8"),
    ("Z", 3, (1, -1), None,
     "68277eb8cfb148b33fb4a7e6b14a4e3665bc36a11fa5249678f98b4370af4b2a"),
    ("Z", 0, None, None,
     "bfa13f3f762661c5caff2804def806e8d26a55e15557b4bf6a88e79b6e108550"),
    ("Z2", 3, None, None,
     "8b1e579a6676f39fe86236d877bfb4f6e87a72e09d3ecb6ef469f94228759352"),
    ("Z2", 2, ((1, 1), (0, 2)), None,
     "4879999091cf3fdcb3da03cdb28be0800d3b05dac6930a551ad254bd5bd43d88"),
    ("F2", 0, None, None,
     "6a81a3c5a2d8b7c14cafe24c9fbb854466cabb5897406acd49cad623dc24aa03"),
    ("F2", 1, None, None,
     "bb6071b1e0e971e0861855371238be9a385ec2dbaa0e105c9a57a54ae4508bd3"),
    ("F2", 2, None, None,
     "408517f3cab65d464e55f1b35fc8b5b7a55c5510a33d49764762c4ee03c65831"),
    ("F2", 3, None, None,
     "1c0ec5a894ed910f16fef81f76ed3777116decb4323c230365340dc632a0b7d7"),
    ("F2", 4, None, None,
     "8886b02ec505efcf4a2cde0b8ed42ff88dad49000bc994308fc8a67c61234961"),
    ("F2", 5, None, None,
     "b1d41f371cdaa2a030d85a290b7e736ab0f5f1ecf197d6ce69a21b688498670a"),
    ("finite", 2, ("g1",), "c6",
     "65c3bdefb17d21892f8cf0956deecd6dea2bc358a3724f6532b52bb63e9548e2"),
    ("finite", 3, ("g1",), "c6",
     "70a3c09ef174ff47192cabc50030057e2333e70be06b9e6da3e4f1d8d35ba3c5"),
    ("finite", 3, ("g1|g0|g0", "g0|g1|g1"), "c30",
     "f78cf8490a82eb2738200b4e8cf35b95e13085fb6ab8ab06c42d71081903d750"),
]

FIXTURE_FILES = {
    "bs12-r8.action.json": "40aa302f70c30d2353201f71656c3df10f236a5513597db33bcad9b0738ad244",
    "bs12-r8.graph.json": "e12dd0ed93bd297fecb77656933fa40a4c11dfc7d55a4f208de20bbf9b472d93",
    "bs12-r8.manifest.json": "713c4efb5e2e956837fe34f35749a9acee4ae71c2ccd5456585f53f42d4bcb8f",
    "cone-z-r10.action.json": "15a843ed114c76dd6a68cd32c1b4d6f55aa28b889439befb1908e8ea3169c5e0",
    "cone-z-r10.graph.json": "1555125ba6ba30a17796c343bf4cd7c84d3437d3ab487a6b371946e826dcb928",
    "cone-z-r10.manifest.json": "90c2e74b2a5dcd459bb886872bb6e563aaaf0c386b44249ae66d1a98a12a202a",
    "coset-c30.action.json": "9171d4dd4e0e72b7aa55acec3a716e14e4f0f7df892af5ef3410a58b6e9df60e",
    "coset-c30.graph.json": "0b32e14efc3c52768e87ab28cc878a9026afec8ccce7a1643c2fba89ef0afeeb",
    "coset-c30.manifest.json": "8bceb90a912b43c647c37f4aff04e6c733acfcdca0359176e6ed867554f9b87e",
    "doubleline-n16.action.json": "1e0bbfe01efff1d0b27d74057ca303cc4d290a37ddb222a7938e1932a98cae50",
    "doubleline-n16.graph.json": "06c0017228547a6969ebd07e99d944100dd8c5d3d3ed0a810b9cfba1634ad61e",
    "doubleline-n16.manifest.json": "99386c09d5405208d06671442027dedba8c2c344d4264927624af44177526346",
    "f2-r5.action.json": "55bbdcc5bcb26e7a84d0e1efdc567c44ca08745af04fa49f225e45f1ec9ae6ba",
    "f2-r5.graph.json": "6f1ffc95c5e0083848449f5acffaed982de9d889d5b58f85d094dcec3455db78",
    "f2-r5.manifest.json": "5204272b5cca8242ddbad66bfd1115a7434d283aa77bc63c7b7fe9476965ca14",
    "farey-Q20.action.json": "31bee0cced0eb3105207bf1691b5fdb3240b40823a572e4dcdb7d71dff4d7647",
    "farey-Q20.graph.json": "3c7ab647206e20ca9657a299eab4ceb2b37d3a384ed629bdd0d19e8a469faee8",
    "farey-Q20.manifest.json": "5a181b244fc854d9d754b49ed287d3540a24811ff55e6c1fe23d7cf5a154eed8",
    "horoball-line-d7.action.json": "dc8b86b472a6333d2965fa134afeb8d34424aa6ac7d71e6b7e57e01d4e339b68",
    "horoball-line-d7.graph.json": "8ef26db9f5c93c602dfd9fe12b1c35365ea7879334165553d49ea384fba296f0",
    "horoball-line-d7.manifest.json": "ef7064acf0d86cce1fe11abb02c29c50914cb4dfae5cf869f75eab68e4fc53b1",
}

# the two truncations at the sizes the large-truncation benchmark builds:
# (family, params, sha256 of the graph file, sha256 of the action file)
LARGE_TRUNCATIONS = [
    ("farey", '{"P": 72, "Q": 24}',
     "0e4caa5f1d99d2f8090124e73f5c354002a03b27b95e725c4b391af45354b878",
     "b5c2cf7fb76af4c8463f46819827f305fa8bf81b96caa5d6004b37f6704c25bf"),
    ("bs12", '{"radius": 9}',
     "1b8f3ede5ca8d373e8a75590267389b16578230110dd41c39f64fe6fef67ffa0",
     "aa8d6308cf1f5b6238ddee331ec3706d2d538a52526d1979b3cab515387e2e06"),
]

TABLES = {"c6": c6_chain, "c30": c30_chain}


def _c6(chain):
    table = FiniteGroupTable.cyclic(6)
    return lambda: (table, [table.elements if h is None else h for h in chain])


def _trivial_chain(n):
    table = FiniteGroupTable.cyclic(n)
    return lambda: (table, [(table.identity,), table.elements])


# (name, table and chain, sha256 of graph + action + basepoint + extras); in
# the c6 chains None stands for the whole group.  "stalled-at-G" ends
# [.., G, G], so no apex is added; "stalled-below-G" ends [.., H, H] and
# leaves three components
COSET_TREES = [
    ("c6", c6_chain, "b0ec3ff35ad77377bf4818e9d973edbe78f7a451daa57dc5d96256eedf6727a1"),
    ("c30", c30_chain, "a68e9dcddce54401714e9ba18529935b4c611814701fbe5bc7eb21affd1b7f63"),
    ("one-level", _c6([("g0",)]),
     "77a24b953fed892eaf2eddc30466a87338397913bf154ed1ff86b6ddba5b9181"),
    ("stalled-at-G", _c6([("g0",), ("g0", "g3"), None, None]),
     "1d14508bdf9700da0b99d2d8faa3cf880b5f8665da8dd9a4a6829bf074bc34cd"),
    ("stalled-below-G", _c6([("g0",), ("g0", "g3"), ("g0", "g3")]),
     "02e83920326a4552cfcd657fb0262722b976f8f5ceb1728bd3fcbcad62942f28"),
] + [(f"c{n}-trivial", _trivial_chain(n), digest) for n, digest in enumerate([
    "ea9e832c5265505bd3143f04fb6b13eb07954d8d9a4ae6a0fb1bb9a704e45a45",
    "4a5289fa0117e6f578de85ca2b2d3ac853e0752de2bc26b3d06212277bda80de",
    "57aee499ae29d4192ad9dc73d5d1a3d6bc265aec2ad249f411fd0435890c6f10",
    "98f877dccc39b463dff73522ed3184419796e46898a208c679fd37cf0a93fac9",
    "ffefc03d593f370697411f5362223f0f53571b99a6635983523b3e435336e3c9",
    "00bb0e142d8b3c8f95945259ba568728e28e8d097758f9b8a039f0d0854793ca",
    "787ae6156e0868ad71aa300504e74eb7f288e2b9ffc43c7697cf45f151a4a69c",
    "d169e5bacc1bdaf84c310ee6dcac2dc2329cc2e3a8fa7e695c4ec6c4676ea3d6",
], start=1)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def construction_digest(con) -> str:
    obj = {"graph": graph_to_dict(con.graph), "action": action_to_dict(con.action),
           "basepoint": con.basepoint, "extras": con.extras}
    return sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())


@pytest.mark.parametrize("family,radius,gens,table,digest", CAYLEY)
def test_cayley_ball_bytes(family, radius, gens, table, digest):
    con = cayley_graph(family, radius, gens=gens,
                       table=TABLES[table]()[0] if table else None)
    assert construction_digest(con) == digest


@pytest.mark.parametrize("name,table_and_chain,digest", COSET_TREES,
                         ids=[c[0] for c in COSET_TREES])
def test_coset_tree_bytes(name, table_and_chain, digest):
    assert construction_digest(coset_tree(*table_and_chain())) == digest


def test_fixture_file_bytes(tmp_path, capsys):
    for name in FIXTURES:
        assert main(["fixtures", name, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = {p.name: sha256(p.read_bytes()) for p in tmp_path.iterdir()}
    assert written == FIXTURE_FILES


@pytest.mark.parametrize("family,params,graph_digest,action_digest", LARGE_TRUNCATIONS)
def test_large_truncation_file_bytes(tmp_path, capsys, family, params, graph_digest,
                                     action_digest):
    g, a = tmp_path / f"{family}.graph.json", tmp_path / f"{family}.action.json"
    assert main(["construct", family, "--params", params,
                 "--out", str(g), "--action-out", str(a)]) == 0
    capsys.readouterr()
    assert (sha256(g.read_bytes()), sha256(a.read_bytes())) == (graph_digest, action_digest)


# product reports: stdout of `product factor-check`, `geodesics` and
# `distortion`, and stderr of the refused maps, taken before product points
# became grid positions inside products.py.  The commands run in the
# directory of their input files, so the reports name them by relative path.


def _gray(i):
    """The 4-cycle vertex vi as a two-bit word, neighbours one bit apart."""
    return ((i >> 1) & 1, (i ^ (i >> 1)) & 1)


def _cube_bits_swap(x):
    """c4 x c4 is the 4-cube; swapping its bits 1 and 2 is an isometry that
    mixes the factors."""
    bits = _gray(int(x[0][1:])) + _gray(int(x[1][1:]))
    b = (bits[0], bits[2], bits[1], bits[3])
    return tuple(f"v{[0, 1, 3, 2][2 * b[k] + b[k + 1]]}" for k in (0, 2))


def _ids(n):
    """Vertex ids of the n-vertex path or cycle."""
    return [f"v{i:0{len(str(n - 1))}d}" for i in range(n)]


def _map_file(path, factor_sizes, fn, drop=0):
    points = list(itertools.product(*map(_ids, factor_sizes)))
    mapping = [[list(x), list(fn(x))] for x in points]
    path.write_text(json.dumps({"mapping": mapping[drop:]}))


@pytest.fixture(scope="module")
def product_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("products")
    graphs = [("path", n) for n in (2, 3, 7, 9)] + [("cycle", n) for n in (4, 12)]
    for family, n in graphs:
        assert main(["construct", family, "--params", json.dumps({"n": n}),
                     "--out", str(d / f"{family[0]}{n}.json")]) == 0
    assert main(["construct", "cayley", "--params", '{"family": "Z", "radius": 3}',
                 "--out", str(d / "z3.graph.json"), "--action-out", str(d / "z3.action.json")]) == 0
    assert main(["construct", "cayley", "--params", '{"family": "F2", "radius": 2}',
                 "--out", str(d / "f2.graph.json"), "--action-out", str(d / "f2.action.json")]) == 0
    rev3 = {"v0": "v2", "v1": "v1", "v2": "v0"}
    _map_file(d / "c12-identity.json", (12, 12), lambda x: x)
    _map_file(d / "c12-swap.json", (12, 12), lambda x: (x[1], x[0]))
    _map_file(d / "p3c4p3.json", (3, 4, 3),
              lambda x: (rev3[x[2]], f"v{(int(x[1][1:]) + 1) % 4}", x[0]))
    _map_file(d / "cube.json", (4, 4), _cube_bits_swap)
    _map_file(d / "p3-swap.json", (3, 3), lambda x: (x[1], x[0]))
    _map_file(d / "p3-collapse.json", (3, 3), lambda x: ("v0", "v0"))
    _map_file(d / "p3-short.json", (3, 3), lambda x: x, drop=1)
    _map_file(d / "p3-transposed.json", (3, 3),
              lambda x: {("v0", "v1"): ("v1", "v0"), ("v1", "v0"): ("v0", "v1")}.get(x, x))
    return d


def _fc(factors, map_file, norm="l1"):
    return ["product", "factor-check", "--factors", *factors, "--map", map_file, "--norm", norm]


def _geo(factors, x, y):
    return ["product", "geodesics", "--factors", *factors, "--x", json.dumps(x),
            "--y", json.dumps(y)]


# (argv, exit code, sha256 of stdout, sha256 of stderr)
EMPTY = sha256(b"")
PRODUCT_REPORTS = [
    (_fc(["c12.json", "c12.json"], "c12-identity.json"),
     0, "aa181e43376fe4c98c41108e3e43b9a030945c631ba80af18f29aff48e853f8b", EMPTY),
    (_fc(["c12.json", "c12.json"], "c12-swap.json"),
     0, "205b40509957558ca41f773d9c9a6cc40a3e3d79fcd3c1b9c843c3512fccb3bc", EMPTY),
    (_fc(["p3.json", "c4.json", "p3.json"], "p3c4p3.json"),
     0, "2ed3f9f94b98da5b785b46c3834a7e0e06db5a1bdc3324624f4ffa5bb284346a", EMPTY),
    (_fc(["c4.json", "c4.json"], "cube.json"),
     0, "0f00719ec2c6a3329741668e8e30b00b5397cfc7c1230faeb9ae87439e65ca53", EMPTY),
    (_fc(["p3.json", "p3.json"], "p3-swap.json", "linf"),
     0, "86399ec23a7732cba7fdc2266d67dde314544fce2e181432a28f11d4baf4c5a7", EMPTY),
    (_fc(["p3.json", "p3.json"], "p3-collapse.json"),
     2, EMPTY, "5809442a26393328ffe132d2aa3d3415c9bb34b08c293a09e28cf94b091e0bb5"),
    (_fc(["p3.json", "p3.json"], "p3-transposed.json"),
     2, EMPTY, "38255a54398dd545e2ce78d37357d58ccd4314985ae0821457fec0ac0f250ea6"),
    (_fc(["p3.json", "p3.json"], "p3-short.json"),
     2, EMPTY, "f72758d235fccb21323236aed61d375420cec326adc51381d6573cea306da332"),
    (_geo(["p7.json", "p9.json"], ["v2", "v5"], ["v2", "v5"]),
     0, "f2f78684135eed5ea16728c63e372a5a0d960d76d58f20d125032214363d2e13", EMPTY),
    (_geo(["p7.json", "p9.json"], ["v2", "v5"], ["v2", "v0"]),
     0, "98ec320ee5fe4ed6ae6c545fd5fec0846174760e77a19cef4e6e63e93a615036", EMPTY),
    (_geo(["p7.json", "p9.json"], ["v1", "v2"], ["v4", "v6"]),
     0, "89f9c95d3c9c3df617aaf56ef0a255b7af6536c3d65fdffbf6f5e9f167ff146e", EMPTY),
    (_geo(["p7.json", "p9.json"], ["v0", "v0"], ["v6", "v8"]),
     0, "0cf187a59425e14bf14579c6929f598cfed32f7d59f75c58355f5bd51bcfeaa0", EMPTY),
    (_geo(["c12.json", "c4.json", "p2.json"], ["v00", "v1", "v0"], ["v06", "v1", "v0"]),
     0, "b3ae1f42266c8917d204c5cc3ed472aae99a8272fa846492742fdedcff7de4eb", EMPTY),
    (["product", "distortion", "--factors", "z3.action.json", "z3.action.json",
      "--horizon", "4"],
     0, "30f2f172f1081812f7fb61165352b32340621ff5b1ffb9d54614a588f148433e", EMPTY),
    (["product", "distortion", "--factors", "z3.action.json", "f2.action.json",
      "--basepoint", '["1", "xy"]', "--horizon", "3"],
     0, "b8ebe503057843c48f92ebce7ff28be30fbe57a78da4194e123a4ce1257ba4f0", EMPTY),
]


@pytest.mark.parametrize("argv,code,out_digest,err_digest", PRODUCT_REPORTS,
                         ids=[f"{r[0][1]}-{k}" for k, r in enumerate(PRODUCT_REPORTS)])
def test_product_report_bytes(product_dir, monkeypatch, capsys, argv, code, out_digest,
                              err_digest):
    monkeypatch.chdir(product_dir)
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (sha256(out.encode()), sha256(err.encode())) == (out_digest, err_digest)


# action reports: stdout of `orbit`, `rips-orbit`, `classify` and
# `properness` on every fixture, and of `classify --word` on words that
# reach each method of classify_isometry, taken while group_action.py still
# walked orbits vertex by vertex over ids.  The commands run in the
# directory of the fixture files, so the reports name them by relative path.

BASEPOINTS = {"bs12-r8": "m0:0/1", "cone-z-r10": "0", "coset-c30": "lv0_g0|g0|g0",
              "doubleline-n16": "(0,1)", "f2-r5": "e", "farey-Q20": "inf",
              "horoball-line-d7": "0|0"}


@pytest.fixture(scope="module")
def action_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("actions")
    for name in FIXTURES:
        assert main(["fixtures", name, "--out", str(d)]) == 0
    # the reflection of a 4-vertex path inverts its middle edge
    assert main(["construct", "path", "--params", '{"n": 4}', "--out", str(d / "p4.json")]) == 0
    (d / "p4-flip.action.json").write_text(json.dumps({
        "format": "qtlab-action-v1", "graph": "p4.json", "mode": "automorphism",
        "generators": [{"name": "r", "map": [["v0", "v3"], ["v1", "v2"], ["v2", "v1"],
                                             ["v3", "v0"]]}]}))
    return d


def _action_argvs():
    """(name, argv) of every pinned action report, in a fixed order."""
    out = []
    for name, bp in BASEPOINTS.items():
        act = ["--action", f"{name}.action.json", "--basepoint", bp]
        for h in (0, 1, 6):
            out.append((f"orbit-{name}-h{h}", ["orbit", *act, "--horizon", str(h)]))
        out.append((f"rips-orbit-{name}", ["rips-orbit", *act, "--r", "2", "--horizon", "4"]))
        out.append((f"classify-{name}", ["classify", *act, "--horizon", "8"]))
        out.append((f"properness-{name}", ["properness", "--action", f"{name}.action.json",
                                           "--horizon", "3"]))
        # horizon 0 stops the power orbits before any fingerprint, 3 and 16
        # bracket the default 8
        for h in (0, 3, 16):
            out.append((f"classify-{name}-h{h}", ["classify", *act, "--horizon", str(h)]))
        # a full horizon below the half one (0), the two equal (1), and half
        # horizons 1 and 2
        for h in (0, 1, 2, 5):
            out.append((f"properness-{name}-h{h}", ["properness", "--action",
                                                    f"{name}.action.json", "--horizon", str(h)]))
    words = [("power-orbit-cycle", "bs12-r8", "a", 8),
             ("tree-axis", "bs12-r8", "t", 8),
             ("power-orbit-cycle-period-15", "coset-c30", "g0|g1|g1", 16),
             ("tree-fixed-vertex", "coset-c30", "g0|g1|g1", 8),
             ("displacement-doubling", "doubleline-n16", "s", 8),
             ("doubling-truncated", "doubleline-n16", "s", 32),
             ("decay-gate", "cone-z-r10", "s", 2),
             ("decay-gate-horoball", "horoball-line-d7", "s", 64),
             ("inconclusive-truncated", "farey-Q20", "S T", 8),
             ("insufficient-data", "farey-Q20", "S", 2)]
    for method, name, word, h in words:
        out.append((f"word-{method}", ["classify", "--action", f"{name}.action.json",
                                       "--basepoint", BASEPOINTS[name], "--word", word,
                                       "--horizon", str(h)]))
    out.append(("word-inverted-edge", ["classify", "--action", "p4-flip.action.json",
                                       "--basepoint", "v0", "--word", "r", "--horizon", "1"]))
    # x^11 leaves the ball of radius 5 from every vertex: the tree method
    # sees no defined vertex
    out.append(("word-tree-no-defined-vertex", ["classify", "--action", "f2-r5.action.json",
                                                "--basepoint", "e", "--word", "x^11",
                                                "--horizon", "8"]))
    return out


ACTION_REPORTS = {
    "orbit-bs12-r8-h0":
        "ee63aa8c6ac65d029ad9d3153dfab48977adc7a95ccced617bb73dc1323a230a",
    "orbit-bs12-r8-h1":
        "00721535da8070c4f361c66c4dbc1d3fde1c811bda91985300f38c1cac69beb4",
    "orbit-bs12-r8-h6":
        "cde294fb00a548c3f6b998d7de9d6d4f3ff3b8e345dbbf514965bcd919a26da4",
    "rips-orbit-bs12-r8":
        "faf9b6c013a9d699be36186f2e0dc8b7848dc625b85e7fbd195a5c75c16e0ad8",
    "classify-bs12-r8":
        "567d6263affecc0d7469efe27a1732d9dfcb8d88a72f2a5298482b4dc6eeab0e",
    "properness-bs12-r8":
        "f074fa68d8dad1661e7b71017833ac81a22648a3bbfb129f64b4ed341dce27c4",
    "orbit-cone-z-r10-h0":
        "e4545689800931c3e612f77c5c92909b861430a2557497e17109268705f9aea1",
    "orbit-cone-z-r10-h1":
        "21f9290f3bacf76f5fc2c754c3eadf06fa30e1cae71b241e7764128d9ec2911f",
    "orbit-cone-z-r10-h6":
        "45edfc5f4232d6adc5e83ec314c167c23a3582ec5f7028b28ef039f7f14041ac",
    "rips-orbit-cone-z-r10":
        "62ef03361be802a205fdecc3e450fbe0ed1d87ec78f4b3c1f0aca5f78a667aca",
    "classify-cone-z-r10":
        "4896b987e5f31aa610a8e4812509884a6d1a349290a5713d4acb697421b57cb7",
    "properness-cone-z-r10":
        "2efc1299e186e4a3aa231fb52dc65567fc4ad80ab2a1637c7f4880ff1c65959d",
    "orbit-coset-c30-h0":
        "6ede94c00da9c51a003bee11cf9c16876cca919cf0802d1c414691ed793ba423",
    "orbit-coset-c30-h1":
        "0826e9f78361b1e3da97976a2e678280ad0f0e9f29f6c2d34a25be2c6e386c4b",
    "orbit-coset-c30-h6":
        "d7fcdc6b162ac8015f2ee5a721956840b6c3450e6797f8933fe2f03b922ba75f",
    "rips-orbit-coset-c30":
        "2519ba09231e4b333a83b471002ecbfb40831f9b7c7451499c3e8a3f8519360d",
    "classify-coset-c30":
        "15cdccf179bb550e273e4ee8eecebc74920908995650ed02e1924d8dd5823b17",
    "properness-coset-c30":
        "1673bb8c336e8f63dccf7c9d41f65ede7f74233b41eb94e2c30e30f27246635e",
    "orbit-doubleline-n16-h0":
        "3805a1bdf8b8a1d172b8c3b5376500c824762fab557ba72f996485e939e8cf21",
    "orbit-doubleline-n16-h1":
        "9a962586048cc9873fd7894f599723da8b69550fa7e47ac1afb922af1d116843",
    "orbit-doubleline-n16-h6":
        "52123632f23557a2e68e0bfd44fb61d1549a9e424b1bb012aeed6779c19793df",
    "rips-orbit-doubleline-n16":
        "05193f23cc535d108fe0792846e4a2040ee601ad58fd34371495f5ed72b78626",
    "classify-doubleline-n16":
        "5b06655b22c9df14b422d05186ba09b877c85c900d57e179577ea371b88bf33c",
    "properness-doubleline-n16":
        "b157119caa96d353fa290b4f4f0d01ff0b5bca62aeec3c2e4f747a4a78d78110",
    "orbit-f2-r5-h0":
        "2a256c873d2dc7652a77ed8ac3ecb89f7336befe99128572f92f217fa89021d8",
    "orbit-f2-r5-h1":
        "6acb6c6ced8d5eedd8900ee7e443da446d2c62c84dbfa3aed6959199fb23dd21",
    "orbit-f2-r5-h6":
        "87d1ccc434a141ae9c273709e9e496b88c314a3828e22c8dcb843d6b58da7db7",
    "rips-orbit-f2-r5":
        "2666dda8686a09993ed9088fb1f8c970ab5a85d828647b2263b869c788124dfc",
    "classify-f2-r5":
        "6c2605750a3b236f2a274ce889f33ecbcf048d13607c96b041c70eded472021d",
    "properness-f2-r5":
        "e42f9a04e9b0370be88fa299caed18aa4cb61176ee2c16b8a55dd4143fc65cc9",
    "orbit-farey-Q20-h0":
        "d0ed53ef828318c913797289cf9aa3ee1bfa67777aeb4d033a2f20413ac023e7",
    "orbit-farey-Q20-h1":
        "61f186b4fa976c53d23b43f85365937191e828a3424711478e210bc01b2f8dc5",
    "orbit-farey-Q20-h6":
        "736ddfe245769c7bb0f2d8f45126bbe27ab5528a18d7df9b4dfaeb2a835f5bbc",
    "rips-orbit-farey-Q20":
        "65e5ba55def9c6771af899a30b171418e7604f3c9b5561377aab1631f730e819",
    "classify-farey-Q20":
        "350ca3533b088e28e1cdf13735e940bda001f56a2bf2726e969463735b41504f",
    "properness-farey-Q20":
        "4d981a80abd407dc675bfeaa30567531290903732825b1fe5146b025bde15542",
    "orbit-horoball-line-d7-h0":
        "e6da1494d74c21fe3cb09806ec99436de053ae9dece2dfa10838b4249ac11df9",
    "orbit-horoball-line-d7-h1":
        "69cac0fa4f28993f3aa0522086f542fe0b5640ba0a5bce0b4358201061b99957",
    "orbit-horoball-line-d7-h6":
        "8365b86dc8d54dc4d7299f4801260ba9e6e19ccd82bbaa437b6c5bc8b704bd23",
    "rips-orbit-horoball-line-d7":
        "d79a1207bbfd907ff84b7a39366102dc15817b97c9c2924f19343be552a435d8",
    "classify-horoball-line-d7":
        "7787bc5dc862eb4b5eda5b01844c98a48a2b0a415e9b1fbb16a8c0ff208bc735",
    "properness-horoball-line-d7":
        "5e8b0fb336dc7fe6266d5acd88418d576fc3bb9cd28c54ac9501cfd8a19b1251",
    "word-power-orbit-cycle":
        "ea6581b26c88141700d24bd9cfb1f657afc7047d56e5c7e2cd5607f962d15d9f",
    "word-tree-axis":
        "a3a302b0321dcd4480f559b3c7dabded8613dbb8ae9f155c1730abdec218e018",
    "word-power-orbit-cycle-period-15":
        "413f443ef772dc52d308c23ac3d3aed33fcc194942d796f3ab6b0c1a4e2f8595",
    "word-tree-fixed-vertex":
        "7580fbdcdd62b0a03cb926947fe3d42fdfd86a8379d1a7785a3e1dcc5227e40a",
    "word-displacement-doubling":
        "3d6d25e190705f004fad6b9d3da6922c3dd6fcad077b669e1bd1e13f029b0a10",
    "word-doubling-truncated":
        "660b1710407fe69d7e956d870f3c60f75ebf981472e09466baf0b83ae41422ff",
    "word-decay-gate":
        "10fab802535d1b77610aba8c908af91a0cde6ed390997b092c1bcae444c580b3",
    "word-decay-gate-horoball":
        "58be22a6e5d147ee3f7ab2e3de64a1968d014cc75430574451610ce2611fc827",
    "word-inconclusive-truncated":
        "3827ef845f2aa7a066652ca4d1b834bc8d5bb633955f3b449bed6534648bc53f",
    "word-insufficient-data":
        "cfef6aa14d6e8213ebf24c3da075e59da5b6ed3aa32b67d7889363b989a0b522",
    "word-inverted-edge":
        "1f1fecd01a582c332796aea88d996bec646abe6d03f5fa818d6fb46b94e4d485",
    "classify-bs12-r8-h0":
        "0a37719894cff1f50fb116ce994c323efb7994c7cc3feb77d99f9935466bd703",
    "classify-bs12-r8-h3":
        "8c835a5799be4faf7fb42f6aa06284c5829fcde0c5f323b20d71eeeebe0696b6",
    "classify-bs12-r8-h16":
        "6c86b4c81e0a4bb42e78279340b4da65ef3dcd93c278e103ee2acfc8d09e1aea",
    "properness-bs12-r8-h0":
        "b7701068c93059d908e9aa43ec2ead6c368efeb7619d170f6063fba919fc534a",
    "properness-bs12-r8-h1":
        "c3d77c8daaf0ecbd8a97871906630a974f4290865f1dcdb084c5fd948839c292",
    "properness-bs12-r8-h2":
        "a3f883b63b4de21599902687e51f64a6016e676d6d3d443b3b310117eeea9584",
    "properness-bs12-r8-h5":
        "54a301e8c4004e3d05b8e6a7ae3a1c0c510998da2a485fbc61ceb42d4f9baa05",
    "classify-cone-z-r10-h0":
        "3614bd85918533cbd00ffb80c73783e9edbd9b55dc05129e7d35e44334e3cef2",
    "classify-cone-z-r10-h3":
        "4df51aee97d63b85fe09b5dbcaf6c2fac959cda4d9daf3409ae1fc2aa35fb120",
    "classify-cone-z-r10-h16":
        "641f64765430339e0114bd3b2f9cdd1cf7290f56d4e80b2d8b7fc120361558d2",
    "properness-cone-z-r10-h0":
        "23397a9c27615f5a52693de45fa11e47938962ca4719dc45ccd0a8013fa8c861",
    "properness-cone-z-r10-h1":
        "d08ac943bdbbba226bdfac7c8b52c4b5a82a52e1175cdb468d49915b2caffc2c",
    "properness-cone-z-r10-h2":
        "650a58d782dd18895241065e791b15116834e87a4675d04f283048b891502e7b",
    "properness-cone-z-r10-h5":
        "d6ab1488c6647ae6f889e28fab248ab299b0a56a976ada630817289b6c14362a",
    "classify-coset-c30-h0":
        "e68509b80619c3f8b6886131faab1cea0121983747917f8747a1966a2f44b7c9",
    "classify-coset-c30-h3":
        "2cc2a2168544c2d77c4b903af32c79d1a37bc24b04fe43f225d00427fce41e18",
    "classify-coset-c30-h16":
        "9b8032643daf8e695797eabfa319a6faca29a54d90bbf8a831509b8fb3f992eb",
    "properness-coset-c30-h0":
        "c507c6f886b3560e1aecaa7109773579433dd15ba93e479100911b5229f39aef",
    "properness-coset-c30-h1":
        "49ed00dae39c2afa490781cc4f7bc1fd39b7e45436c2641f7005458ffc1c29c4",
    "properness-coset-c30-h2":
        "3c83ca5545f4ba4946e97110ab13680100392d8fa3a291dc751c41f9119cf050",
    "properness-coset-c30-h5":
        "17734a183cc0066ce7494a9262ad015bf23192b8ce5c9bb4ab9985be7774ae47",
    "classify-doubleline-n16-h0":
        "95535b4012414650aa8ad58a40dfdddf49b48fbfbaeb8919bfe7b55e73ecd1e1",
    "classify-doubleline-n16-h3":
        "133f6a17176219295826a10d7f0e740195caee3b9420bdd1ab2079471f1765b2",
    "classify-doubleline-n16-h16":
        "38d401c11c56c18829aedcdb5c59f4e0a40fb50549b7d295f87c21c7e5937ebf",
    "properness-doubleline-n16-h0":
        "b2a9aa6967fc7c80c14fca1c0d784d67bbf0230c0c13e4178ae935caa1a1a12d",
    "properness-doubleline-n16-h1":
        "122f2c346b7b41c165e7cb4d6a64ac8f4c09be3a8e8b3620996a541ab849bdb4",
    "properness-doubleline-n16-h2":
        "acd3c983e2221478b7c927846be6cde49804b67f1c0ec9b1b2142897b0cd722e",
    "properness-doubleline-n16-h5":
        "12146a776e5a95e19dd928aff4ea816f1be857ecc7e509b184722a57aeafc740",
    "classify-f2-r5-h0":
        "2e5f5b7af9226304770ef8194361a07cf0233e88eb93141df90af474a637e9a7",
    "classify-f2-r5-h3":
        "239c06446bc501b1f300d26a395f46ef82b120d37d7913c0ffb3ae629dc9e559",
    "classify-f2-r5-h16":
        "aaadc3369501959cc982401dd2091f3e8f4bdec1dfe0b570b1f0904e051adc4d",
    "properness-f2-r5-h0":
        "f2b46362c5458326532000c13e9a1699cf4e20ca185d717c3cca9d959e637b3c",
    "properness-f2-r5-h1":
        "c7b415499fb483a033a0fd5ef7183808a90cf332a277f01e683b8ecfc16f1069",
    "properness-f2-r5-h2":
        "b373afad3d992814c57f547d9be7b4b943c30c796571664be0009fe1af26d2f0",
    "properness-f2-r5-h5":
        "828a0c09ede321cde9775a6a1b841163fc3cc9e103104e29f19806fcaebcd9eb",
    "classify-farey-Q20-h0":
        "b599aa1eb4073048743175c17d8c20df8ce6ffcbe2246ad56fb16085770ba01a",
    "classify-farey-Q20-h3":
        "c8e2d85e43f6274e2a5a1a75d1720d78931c57f7f34ae0c80ef941ecffbb289c",
    "classify-farey-Q20-h16":
        "b4d27169db38c4a9e6f9408f750c87f2fc812bc5316fba9b9d75606463df7c9f",
    "properness-farey-Q20-h0":
        "534fea77e29740d8f5a342c2a4c0f495e6336ddd091f4de7ccdd384259e06c35",
    "properness-farey-Q20-h1":
        "b59dd64091c3325fbb34780dacc107b34e59bfd1dbbaa8f7cd45f90583703b9c",
    "properness-farey-Q20-h2":
        "1fbbaae125cf4ae47ee19a7961f7e5f2eab18ac16df2583cea533dd7e16ff72f",
    "properness-farey-Q20-h5":
        "c62342ccd1d09bf3630cb34875a7e2243c093398e5162272dc1a0a4e3d2d2fbe",
    "classify-horoball-line-d7-h0":
        "0ce2aacf3eebfd1c0a110198bbf6a3256a0890216e30227990ceb74480d3c0a2",
    "classify-horoball-line-d7-h3":
        "35710916debc179d9a96e314f283b550b8910a5d23484989ea1e139d9c14dcf8",
    "classify-horoball-line-d7-h16":
        "d07a36e9cc317e4156b37f4c79d7cafd50b925f9bbb7a4abd1d914913922ec8a",
    "properness-horoball-line-d7-h0":
        "87006292114d68a20c6d8d1551bd3c2ed8b53255bf7bd5a2061018fe4d637089",
    "properness-horoball-line-d7-h1":
        "4c5c019642e5605d420f3e36e5e6aaa72e57805d5b58f4ce726c7022318cd513",
    "properness-horoball-line-d7-h2":
        "33d9388f7449589ea060db8211cee33330eae69180611c032e40bf80fe562bb2",
    "properness-horoball-line-d7-h5":
        "bf3483303344ef6e9cd7fadc06866dd6efcc827e0680ff23d0e6d2b4dd51bbbc",
    "word-tree-no-defined-vertex":
        "0bce60a09492b26469faf1da53c1273d80b12ea8300b3083d63cc4960d4cd55e",
}


@pytest.mark.parametrize("name,argv", _action_argvs(), ids=[r[0] for r in _action_argvs()])
def test_action_report_bytes(action_dir, monkeypatch, capsys, name, argv):
    monkeypatch.chdir(action_dir)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert (sha256(out.encode()), err) == (ACTION_REPORTS[name], "")


# the largest walk a report pins: `product distortion` over the 2704-vertex
# product of coset-c30 with itself, taken from the walk that compared every
# candidate with every element found so far over the candidate's whole domain
C30_SQUARED_DISTORTION = "603af6ee42a2648d2fd38fae365d8bbfc1217496bc36ad955f6e0d57e85e6f17"


def test_c30_squared_distortion_bytes(action_dir, monkeypatch, capsys):
    monkeypatch.chdir(action_dir)
    assert main(["product", "distortion", "--factors", "coset-c30.action.json",
                 "coset-c30.action.json", "--horizon", "2"]) == 0
    out, err = capsys.readouterr()
    assert (sha256(out.encode()), err) == (C30_SQUARED_DISTORTION, "")


def _library_results(directory):
    """name -> JSON data of the library results that reach no command:
    orbit witnesses, the d(g^n x0, x0)/n sequence, Serre's test and orbit
    quasiconvexity, on the fixtures in directory."""
    acts = {name: load_action(str(directory / f"{name}.action.json"), allow_disconnected=True)
            for name in BASEPOINTS}
    out = {}
    for name, bp in BASEPOINTS.items():
        for h in (0, 3, 5):
            res = orbit(acts[name], bp, h)
            out[f"orbit-{name}-h{h}"] = [
                res.vertices, [[v, w.display()] for v, w in res.witnesses.items()],
                res.complete, res.exhausted]
    for name, word, h in (("bs12-r8", "t", 8), ("bs12-r8", "a t", 8), ("bs12-r8", "a", 4),
                          ("f2-r5", "x y", 6), ("doubleline-n16", "s", 20),
                          ("cone-z-r10", "s", 16), ("farey-Q20", "T", 12),
                          ("horoball-line-d7", "s", 40), ("coset-c30", "g0|g1|g1", 0)):
        est = stable_translation_length(acts[name], Word.parse(word), BASEPOINTS[name], h)
        out[f"tau-{name}-{word}-h{h}"] = [
            est.n_reached, [str(q) for q in est.sequence],
            [str(q) for q in est.running_min], est.truncated, str(est.tau_upper)]
    for name, words in (("bs12-r8", None), ("bs12-r8", ["a", "t a t^-1"]),
                        ("bs12-r8", ["a", "a^2"]), ("coset-c30", None),
                        ("coset-c30", ["g0|g0|g1", "g0|g1|g0"]), ("f2-r5", None),
                        ("f2-r5", ["x y x^-1 y^-1"])):
        a = acts[name]
        ws = None if words is None else [Word.parse(w) for w in words]
        res = serre_elliptic_test(a, ws)
        taus = [tree_translation_length(a, w)
                for w in (ws or [Word([(g.name, 1)]) for g in a.generators])]
        out[f"serre-{name}-{words}"] = [
            res.all_elliptic, res.fixed_vertex,
            None if res.culprit is None else res.culprit.display(),
            res.checked, res.notes, taus]
    for name, C, h in (("bs12-r8", 0, 6), ("f2-r5", 0, 3), ("coset-c30", 0, 4),
                       ("farey-Q20", 1, 4), ("doubleline-n16", 0, 6),
                       ("doubleline-n16", 2, 6), ("cone-z-r10", 1, 5)):
        rep = orbit_quasiconvexity(acts[name], BASEPOINTS[name], C, horizon=h)
        out[f"quasiconvex-{name}-C{C}-h{h}"] = [
            rep.passed, rep.K, rep.C, rep.M, rep.orbit_size, rep.violations]
    return out


LIBRARY_RESULTS = {
    "orbit-bs12-r8-h0":
        "5257de98988ecb7ec056f539d793ea4dd1bb01e45f9f9c363fa42f2961f02fdc",
    "orbit-bs12-r8-h3":
        "f38569e984b077fc0669c46cae80ba846e8bc2aa1afbc931cbc747b82bdfd629",
    "orbit-bs12-r8-h5":
        "db7861a9fdbac3bcb7668d1c56919bcef59055e130f33d3b446a95e95b64bc75",
    "orbit-cone-z-r10-h0":
        "7e64043969d98d70700ad4bc7f3f09ade257925e756fed501ae3456cee0c1c69",
    "orbit-cone-z-r10-h3":
        "522543a0610ca802ce772cc852669df111414f6348dc8d86f2232a21fd5a537a",
    "orbit-cone-z-r10-h5":
        "523940389a7f3620f2342915b3e00223d1eae91040acab2d78fef349b2ecc3e6",
    "orbit-coset-c30-h0":
        "31b87159b5d1cd24564c167c36f4f33450289d4ffa9968aebc9bd6ec6b8ecd8f",
    "orbit-coset-c30-h3":
        "c625fa80a91e68b528bbcbfba1f9418dc9bf9812633f4e28546ab1803ed6c6ab",
    "orbit-coset-c30-h5":
        "c625fa80a91e68b528bbcbfba1f9418dc9bf9812633f4e28546ab1803ed6c6ab",
    "orbit-doubleline-n16-h0":
        "0a93961e29b3822b3e94cf7118c0a8cc3985335936d127e834b84e98ce1ba58e",
    "orbit-doubleline-n16-h3":
        "b0ed574e7bbaf2769b52bd2c9e63dce3be9ade338596e12a3147fa2e46bf84de",
    "orbit-doubleline-n16-h5":
        "aa17a0068311f68f33e84fad6ed7b2f54bb8ca01e9d246f1d11c6af77409a9a6",
    "orbit-f2-r5-h0":
        "85cd6fc0fa308a7fd584356213477593f0b571fce2040fd0cd885296c440e1d8",
    "orbit-f2-r5-h3":
        "9df13f5741821ca7a091d874f0237c950d81cc8c25734953997b155cc5b78868",
    "orbit-f2-r5-h5":
        "a45924fb771b09dbcf507798dfe89067b57f35fa7a73cfe810c917cc872cb3ec",
    "orbit-farey-Q20-h0":
        "91e1040110a3392f21c82e5a278956044b029cae467e7da44012260b8d43a6c1",
    "orbit-farey-Q20-h3":
        "d70cffad00a21438ccbc95920b628f45b3096c34dab469344609d6d2f7fe901f",
    "orbit-farey-Q20-h5":
        "cc9b1d76086595b8d8f5b3d5f8533a4fa2f207e16b22914667cc48ffba4b12c2",
    "orbit-horoball-line-d7-h0":
        "e826f4cb7dc84186af26181e7ac22b82e5caeaa0add1193b9c7374bfe84e2f4f",
    "orbit-horoball-line-d7-h3":
        "d8c91b32be0cbf73cdc99e55421197b39f79efa742f7ab6afa7e8b6793640687",
    "orbit-horoball-line-d7-h5":
        "f45922411cf4f1b8b6c689e63ae7e276490e0e173596bfbfe6f7aafc6ba135ba",
    "tau-bs12-r8-t-h8":
        "5bd75f18cc9b96a45eade239f44cfcbc37a7a899a3041a7426ca53cef5bb795f",
    "tau-bs12-r8-a t-h8":
        "5bd75f18cc9b96a45eade239f44cfcbc37a7a899a3041a7426ca53cef5bb795f",
    "tau-bs12-r8-a-h4":
        "3668cf5ce02c2e7a498a3747fd3d36cafcbfd2dc14d38d532c1801bc705287be",
    "tau-f2-r5-x y-h6":
        "e2dfd56738070ae317f4466afedcf394b162b84046ffe24f867f32c279997381",
    "tau-doubleline-n16-s-h20":
        "fc7233d734a34812741d94ffe46d5f959e5294c6bf7b46758f24dff1267f1cd1",
    "tau-cone-z-r10-s-h16":
        "2b09f4add2ffca932ac2adf88dafa43efdd40ae82ee106ab97aa9d6426a426fd",
    "tau-farey-Q20-T-h12":
        "dcdb0281fd959ed75498c40b5ece68f3a2610924e702d9b1db47bf26345c3b9d",
    "tau-horoball-line-d7-s-h40":
        "219b85f6cbaecec3565f225be03943a9e611b2a676329e544bc5823db65611ea",
    "tau-coset-c30-g0|g1|g1-h0":
        "35bf7c02cb8d1db1c621982d72f41bb61df6ff77f45dc0f2621248f4c124863e",
    "serre-bs12-r8-None":
        "e3ba96c2c4869c78fb0efa75cc53d5e56fd2b691289a841453d5712b3884cf04",
    "serre-bs12-r8-['a', 't a t^-1']":
        "33454453953d73ad77fd273172b0d630dd810f8b6f936fba2b52d74e9fc0ea4f",
    "serre-bs12-r8-['a', 'a^2']":
        "9c35de8b0f302799e5111c1622900ca057d207e03e4a21580d7e58a830308111",
    "serre-coset-c30-None":
        "f3fd67d887a28f67c9cf747fac401e49a2730993e0047da535c9bc74dcb94455",
    "serre-coset-c30-['g0|g0|g1', 'g0|g1|g0']":
        "f5e3f9f5dd80954ad2dd58df08bf2d34f7b91edf56c733db76e0f5824a5775b6",
    "serre-f2-r5-None":
        "78929c63164030818538bb8f69391992364ee7db975fcb716d678f0a755b3bd4",
    "serre-f2-r5-['x y x^-1 y^-1']":
        "4272da11bef8eee62caef96854430d5c3782e3f263beabd16a58d656bb00eff1",
    "quasiconvex-bs12-r8-C0-h6":
        "504cfff74bafdfc9e72f071c76f74fc8a94ebd8a83c6e5c23c35ab77aefeb234",
    "quasiconvex-f2-r5-C0-h3":
        "8281c98c0ea1650443093767cfd93720b5757c1d38365e556d700389864b216c",
    "quasiconvex-coset-c30-C0-h4":
        "0b57e06658ef5e7b005fedbb0c36f7e16e2ab8da28cef6be5a7178f73e38782c",
    "quasiconvex-farey-Q20-C1-h4":
        "e9dff0fcad765217de457cac9f75db2de0a920b71fd29b567760c00b009e7650",
    "quasiconvex-doubleline-n16-C0-h6":
        "96e65dd5164f03af1f714e1ff82205147f44512d41d38d38dc18e69863116547",
    "quasiconvex-doubleline-n16-C2-h6":
        "24cead3c58e6d6cd99c0819cd16342c3ecce62d68e12c330cdb5ae44a162db18",
    "quasiconvex-cone-z-r10-C1-h5":
        "4304e00c1fbf3d4217bd35dc5e13ffe8d5eac93fa9f0fff61e4b6b0f49d272e1",
}


def test_library_result_bytes(action_dir):
    got = {name: sha256(json.dumps(data, separators=(",", ":")).encode())
           for name, data in _library_results(action_dir).items()}
    assert got == LIBRARY_RESULTS


# the other command reports: stdout of `lm`, `analyze`, `construct`,
# `product distance`, the csv tables and `fixtures list`, and stderr of
# three refusals, taken before cli.py built its reports from the result
# objects.  The commands run in the directory of their input files, so the
# reports name them by relative path.

def _write_cli_inputs(d):
    """The graphs, actions and sample files the pinned commands read."""
    for family, params, out in (("tree", '{"degree": 3, "depth": 3}', "tree.json"),
                                ("grid", '{"m": 3, "n": 4}', "grid.json"),
                                ("path", '{"n": 5}', "p5.json"),
                                ("cycle", '{"n": 6}', "c6.json")):
        assert main(["construct", family, "--params", params, "--out", str(d / out)]) == 0
    for family, radius in (("Z", 3), ("F2", 2)):
        assert main(["construct", "cayley", "--params",
                     json.dumps({"family": family, "radius": radius}),
                     "--out", str(d / f"{family}.graph.json"),
                     "--action-out", str(d / f"{family}.action.json")]) == 0
    # two samples interpolate every other one exactly; no pair of the noisy
    # samples does, so their fit takes the Chebyshev branch
    (d / "exact.json").write_text(json.dumps(
        {"samples": [[[1, 0], "3/2"], [[0, 1], "2"], [[1, 1], "7/2"], [[2, 1], "5"]]}))
    (d / "noisy.json").write_text(json.dumps(
        {"samples": [[[1, 0], 1], [[2, 0], 4], [[0, 1], 0], [[1, 1], "5/3"]]}))


def _cli_argvs():
    """(name, argv) of every pinned command report, in a fixed order."""
    out = [(f"lm-exponents-n{n}", ["lm", "exponents", "--n", str(n)]) for n in (0, 1, 3, 17)]
    out += [(f"lm-obstruction-k{k}", ["lm", "obstruction", "--k-max", str(k)])
            for k in (1, 7, 30)]
    out.append(("lm-obstruction-scalar", ["lm", "obstruction", "--k-max", "3",
                                          "--matrix", "[[5,0],[0,5]]"]))
    out += [(f"lm-fit-{s}", ["lm", "fit", "--samples", f"{s}.json"]) for s in ("exact", "noisy")]
    out += [(f"analyze-{g}", ["analyze", "--graph", f"{g}.json"]) for g in ("tree", "grid")]
    out += [("construct-star", ["construct", "star", "--params", '{"leaves": 4}']),
            ("construct-doubleline", ["construct", "doubleline", "--params", '{"n": 5}',
                                      "--out", "dl.json", "--action-out", "dl.action.json"])]
    out += [(f"product-distance-{norm}",
             ["product", "distance", "--factors", "p5.json", "c6.json", "--norm", norm,
              "--x", '["v0", "v1"]', "--y", '["v4", "v4"]']) for norm in ("l1", "l2", "linf")]
    out += [("properness-csv", ["properness", "--action", "F2.action.json", "--horizon", "3",
                                "--format", "csv"]),
            ("product-distortion-csv", ["product", "distortion", "--factors", "Z.action.json",
                                        "F2.action.json", "--horizon", "3", "--format", "csv"]),
            ("fixtures-list", ["fixtures", "list"]),
            ("unknown-fixture", ["fixtures", "nope"]),
            ("unknown-construction", ["construct", "zzz"]),
            ("refused-csv", ["analyze", "--graph", "grid.json", "--format", "csv"])]
    return out


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    _write_cli_inputs(d)
    return d


# name -> (exit code, sha256 of stdout, sha256 of stderr)
CLI_REPORTS = {
    "lm-exponents-n0":
        (0, "c777b7e8277779594e7007752a00dfcf5206cd45b4e051655325570f88039b92",
         EMPTY),
    "lm-exponents-n1":
        (0, "40e72a72ecf1188a51a207080129e73404b7ee45501ffe72abc9b4e7ed4f038a",
         EMPTY),
    "lm-exponents-n3":
        (0, "ffef5352a81c0d84ca47602ff500134005b7f80ec1b6d7a7e677905be9b2b433",
         EMPTY),
    "lm-exponents-n17":
        (0, "2268a952e33740cd6325c7e5a723eed1a92bc4ce1bfd15dedf7874fbddcd6303",
         EMPTY),
    "lm-obstruction-k1":
        (0, "f44bea74893aeebb462a2bf48063c030f3b43037f94d077d3ad63c0c72aaa27d",
         EMPTY),
    "lm-obstruction-k7":
        (0, "206ab6a2453c9951dce2d287e3c90866ce4ec57183a3d39522287b71b420973f",
         EMPTY),
    "lm-obstruction-k30":
        (0, "285ef0972bd8f81021c8a90df1d745f1448556caf40cd5ef5145c9b3f7bc1d72",
         EMPTY),
    "lm-obstruction-scalar":
        (0, "e218cca3667f6cf9f4159f841910c5d07b5e53252787c2ba400752e5dd0e4dbe",
         EMPTY),
    "lm-fit-exact":
        (0, "eb91a87648232c37a236720f25f7bb8d8311ff37aa24385576f304474d69ff09",
         EMPTY),
    "lm-fit-noisy":
        (0, "46b802905f5cd2bed124befa44b58db54f6570d7a40259ec3a5abe3925be2987",
         EMPTY),
    "analyze-tree":
        (0, "1e796bedb872935262f032a025f3e171d93c4e2def84b51817fb682483b76930",
         EMPTY),
    "analyze-grid":
        (0, "4a4c4e59516d6570ddb42034c8a295545c4d4056784aeb520561cebdc6ee2edc",
         EMPTY),
    "construct-star":
        (0, "73a2d70a43b3667cc1caa8da527326b3cbdba863db001d3ae27e6e7ce3eba66b",
         EMPTY),
    "construct-doubleline":
        (0, "dc95917d17b99ca0d0ffb5c9901f55fb27f8e995ddb379e327af98da94276abe",
         EMPTY),
    "product-distance-l1":
        (0, "e74362bd922384ffd64985f939f43479e6b5601f2748c77d27509160ab0c2966",
         EMPTY),
    "product-distance-l2":
        (0, "21c72d7c7db31620c535a21ee27ee7fd77a465728898f7f83db6329dd5dc4ee9",
         EMPTY),
    "product-distance-linf":
        (0, "c90f272e92c558381cff9144e872f3368e3387e2569859e0a777c3405eb52ec7",
         EMPTY),
    "properness-csv":
        (0, "7f91a06b1315eb5102ef156f6741bfdf2e450bf24d32b79cc9d45d84e21943df",
         EMPTY),
    "product-distortion-csv":
        (0, "a6a366dade5f1c770514eecb4cb674a5cff4b4b910b0ad153f074cec57f0c006",
         EMPTY),
    "fixtures-list":
        (0, "b090309259d73cc402e83e3a47d09ea0c5b28767e9a0a289b304a32b8cc0b437",
         EMPTY),
    "unknown-fixture":
        (2, EMPTY,
         "aa042a211f49693369e25a36c900481bc93d85615b9e91e85a5ede587d52a4f6"),
    "unknown-construction":
        (2, EMPTY,
         "0f98872af373dfd51682a85589c63c7611e2e241929dc3bc121bb076a0eeaf3a"),
    "refused-csv":
        (2, EMPTY,
         "10f79f881adf0849e6ec49bbd73be6b08e582a21dd5747d94494fbc90ffbac01"),
}


@pytest.mark.parametrize("name,argv", _cli_argvs(), ids=[r[0] for r in _cli_argvs()])
def test_cli_report_bytes(cli_dir, monkeypatch, capsys, name, argv):
    monkeypatch.chdir(cli_dir)
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, sha256(out.encode()), sha256(err.encode())) == CLI_REPORTS[name]


# `construct` dispatch: stdout, stderr and exit code of every family on its
# valid parameters, on `{}`, with an unknown key, and with each key set to
# each bad value (alone and with an unknown key), plus the cases where two
# faults meet and the first one checked must be the one reported.  Taken
# while cmd_construct still read each family's keys in its own branch.

# family -> (valid parameters in read order, base options)
CONSTRUCT_FAMILIES = {
    "path": ({"n": 3}, []),
    "cycle": ({"n": 4}, []),
    "grid": ({"m": 2, "n": 3}, []),
    "star": ({"leaves": 3}, []),
    "tree": ({"degree": 3, "depth": 2}, []),
    "rips": ({"r": 2}, ["--graph", "p5.json"]),
    "cayley": ({"family": "Z2", "gens": [[1, 0], [1, 1]], "radius": 2}, []),
    "farey": ({"Q": 3, "P": 4}, []),
    "bs12": ({"radius": 2}, []),
    "coset": ({"chain": "c6"}, []),
    "doubleline": ({"n": 3, "swaps": [1]}, []),
    "cone": ({"basepoint": "1"}, ["--graph", "Z.graph.json", "--action", "Z.action.json"]),
    "horoball": ({"depth": 2, "basepoint": "1|0"},
                 ["--graph", "Z.graph.json", "--action", "Z.action.json"]),
}
BAD_VALUES = (1.5, True, None, "x", [1])


def _construct_family_argvs(family):
    """Every argv of the family's sweep, in a fixed order."""
    valid, base = CONSTRUCT_FAMILIES[family]
    cases = [valid, {}, {**valid, "zz": 1}]
    for key in valid:
        for bad in BAD_VALUES:
            cases += [{**valid, key: bad}, {**valid, key: bad, "zz": 1}]
    return [["construct", family, "--params", json.dumps(p), *base] for p in cases]


_CAYLEY = ["construct", "cayley", "--params"]
_ON_Z = ["--graph", "Z.graph.json", "--action", "Z.action.json"]
CONSTRUCT_CASES = {
    "cayley-Z-gens": _CAYLEY + ['{"family": "Z", "gens": [2, "3"], "radius": 2}'],
    "cayley-Z-gens-empty": _CAYLEY + ['{"family": "Z", "gens": [], "radius": 2}'],
    "cayley-Z-gens-zero": _CAYLEY + ['{"family": "Z", "gens": [0], "radius": 2}'],
    "cayley-Z-gens-float": _CAYLEY + ['{"family": "Z", "gens": [1.5], "radius": 2}'],
    "cayley-Z-gens-bool": _CAYLEY + ['{"family": "Z", "gens": [true], "radius": 2}'],
    "cayley-Z2-gens-flat": _CAYLEY + ['{"family": "Z2", "gens": [1], "radius": 2}'],
    "cayley-Z2-gens-null": _CAYLEY + ['{"family": "Z2", "gens": null, "radius": 2}'],
    "cayley-F2": _CAYLEY + ['{"family": "F2", "radius": 1}'],
    "cayley-F2-gens": _CAYLEY + ['{"family": "F2", "gens": ["x"], "radius": 1}'],
    "cayley-finite": _CAYLEY + ['{"family": "finite", "gens": ["g1"], "radius": 1}'],
    "cayley-unknown-family": _CAYLEY + ['{"family": "Q", "radius": 1}'],
    "cayley-bad-gens-before-missing-radius": _CAYLEY + ['{"family": "Z", "gens": "x"}'],
    "coset-default": ["construct", "coset"],
    "coset-c30": ["construct", "coset", "--params", '{"chain": "c30"}'],
    "coset-c7": ["construct", "coset", "--params", '{"chain": "c7"}'],
    "coset-c7-unknown-key": ["construct", "coset", "--params", '{"chain": "c7", "zz": 1}'],
    "coset-6": ["construct", "coset", "--params", '{"chain": 6}'],
    "path-string-int": ["construct", "path", "--params", '{"n": "3"}'],
    "path-ignores-graph": ["construct", "path", "--params", '{"n": 2}', "--graph", "p5.json"],
    "farey-no-P": ["construct", "farey", "--params", '{"Q": 2}'],
    "doubleline-no-swaps": ["construct", "doubleline", "--params", '{"n": 3}'],
    "doubleline-swap-outside": ["construct", "doubleline", "--params",
                                '{"n": 3, "swaps": [4]}'],
    "rips-ignores-action": ["construct", "rips", "--params", '{"r": 1}', *_ON_Z],
    "rips-no-graph": ["construct", "rips", "--params", "{}"],
    "cone-no-graph": ["construct", "cone", "--params", '{"basepoint": 1.5}'],
    "horoball-no-graph": ["construct", "horoball", "--params", '{"zz": 1}'],
    "cone-no-action": ["construct", "cone", "--graph", "Z.graph.json"],
    "cone-missing-action": ["construct", "cone", "--graph", "Z.graph.json",
                            "--action", "missing.json"],
    "cone-no-vertex": ["construct", "cone", "--params", '{"basepoint": "nope"}', *_ON_Z],
    "horoball-defaults": ["construct", "horoball", *_ON_Z],
    "horoball-depth-0": ["construct", "horoball", "--params", '{"depth": 0}', *_ON_Z],
    "horoball-bad-depth-before-basepoint": ["construct", "horoball", "--params",
                                            '{"depth": "x", "basepoint": 1}', *_ON_Z],
    "unknown-family-missing-graph": ["construct", "zzz", "--graph", "missing.json"],
    "unknown-family-missing-action": ["construct", "zzz", "--action", "missing.json"],
    "unknown-family-bad-params": ["construct", "zzz", "--params", "[1]",
                                  "--graph", "missing.json"],
    "params-not-json": ["construct", "path", "--params", "{"],
    "params-null": ["construct", "path", "--params", "null"],
}

# family or case -> sha256 over the exit code, stdout and stderr of each argv
CONSTRUCT_REPORTS = {
    "path":
        "29772af503e8528d84df8feb353fadb319f20c853a24788c8689236402030fd9",
    "cycle":
        "3fae5cca11e1c6ce725ce6ee5af486ecb855cc182434b60dde26ea7fb9e5265e",
    "grid":
        "4b12012cfd40851b564ed4f723bf640ef403620dfccdd075acf59414c5d0779e",
    "star":
        "50f284c28d75835f25f8e6ae692b42ae9d164f2719820bb61e322bdbe83bea82",
    "tree":
        "4819441a7ca86661d3a89756fd30877669d048080f3963553ceaa4b61327f7c8",
    "rips":
        "20165b73e8d54f2aacfb7b79d588fcb7405988d5f252705603994aa235868d2e",
    "cayley":
        "83c897ab70db8ddcc8e70ade3d80db64b17688752e1136d315b3870241c1ac8d",
    "farey":
        "57e6c0b5a179000042e70a1acc3d5ee1d9889b9536abbdabeba3a7ec24837585",
    "bs12":
        "22b74f0d42204f28d43a1427ca5c44d7eb62c9e8a2ad81f47450e781b24b9a1b",
    "coset":
        "e6f27561cede9efeb2734e7d44c0920a61f181750eea2e9b0becba62eba8bb8a",
    "doubleline":
        "c75bfde43d7d0708cbe3b576608f93726f4a791db0ec845433c1b434b04aa047",
    "cone":
        "759fd5a35b6b9d67ebe8ef0d083174ee9ccb5e5b1626fd0157a69daa67f7cbfa",
    "horoball":
        "d21097f6a75d98c4fe5539c3ee4c01c863f2af845f63a5dd3cc32649af054105",
    "cayley-Z-gens":
        "d6038beea6a7bec1285e668e6252de81abca1ab714c9d9a76357e8be35100321",
    "cayley-Z-gens-empty":
        "4fcd665d31969fd881c58aac87a0eec4da43b33e683253592084772507a486ce",
    "cayley-Z-gens-zero":
        "dc0e1b1b2cd28497771a99bbcd15ac21ab7d9cee9efc692d9966effac7e7fe6f",
    "cayley-Z-gens-float":
        "b53006729f8d09893f8c8fcbe2a0eeae71b9a80ebbb476d0c8b8190fdf7e516b",
    "cayley-Z-gens-bool":
        "45dd76730c97b30142c09fa172877658dbfe9443b3f6b5e1320c5a14de646c84",
    "cayley-Z2-gens-flat":
        "6ec713c223115f733a4c36e27a51e61e23f2775b9e11d2980c229cc1b012b435",
    "cayley-Z2-gens-null":
        "66b0a075954a1d549158cc4fb4facc6d56e1ebf0cfd586051318402203586af2",
    "cayley-F2":
        "473e3cd223ce6952e91e8146187de97fabd71649aaeab021697fd9d3a9905a39",
    "cayley-F2-gens":
        "fb9e6f9aabbe4764bd8e02a23df8201ab62b00167bf935416b76972a70b45bfe",
    "cayley-finite":
        "71fb6111e0461bf72e6db0eb614f941f4e1b84941f59995ebd17d9fa16deb78a",
    "cayley-unknown-family":
        "d06f1bec58105d119d5a0be78e1ca129e6548f8d4618ce4879c35219b79e1432",
    "cayley-bad-gens-before-missing-radius":
        "9ec83dfcd2476bc7a87e4791d85f45608055ddd8de5d1f8fd1c74e985cc5a1ad",
    "coset-default":
        "27f753efe9be414b87798d0cf8c8e4c5541139ef5e86f3e693585d0e4d95f777",
    "coset-c30":
        "60d79dc029e74bca6bb1df1ac2e7c6885c84128e2fab4224c145428f9a41ae6a",
    "coset-c7":
        "866b79a632b1a374310638be1ee550446acfd98c0437aa4a2cf6c66ecad5b4ac",
    "coset-c7-unknown-key":
        "866b79a632b1a374310638be1ee550446acfd98c0437aa4a2cf6c66ecad5b4ac",
    "coset-6":
        "1c2c2fc1ccd5762c30a4d7160c878e702937864b10c67c9e8eeae2850d8bdc60",
    "path-string-int":
        "663addbda3c0b746f6a48cb4b5ba694038c625a037248200d9d7e24496fafb2c",
    "path-ignores-graph":
        "f09b73622bc3c6dca5d5561d0a66b4a036808ef1a8b513b5e581a24395bb2b1f",
    "farey-no-P":
        "602acf0053d1dc041117164038fd3b5a668b567574713237bc0e1b1c49e8a80e",
    "doubleline-no-swaps":
        "38c714adf001e857b25901ad58c5e12c9ef852986ac8ad7105b9b39953f5d43b",
    "doubleline-swap-outside":
        "793ba2219527fcb629af1af7b597b12726d72c0aa8d3bba95eea8bc1248d5883",
    "rips-ignores-action":
        "a32068f76a710721d9768cab514b21618c6ab05deb96757d2f3bca44664d78d9",
    "rips-no-graph":
        "1ec4203da34be8840ec9cf787482aa4383af9a131730b83c419d9f0454a22fa6",
    "cone-no-graph":
        "b0fbbbf83fc1bfb0fbb5fc74801fa4038dd79b54da52ec6d2a9c2645c706b049",
    "horoball-no-graph":
        "097e8b253dc902d959af0dee19085eaf9ec8f906c92b04a72847770b999e5512",
    "cone-no-action":
        "4b0add3bebb1fd3b0db83a599a2846c0b674f1822dac0e1e58074f31abd57a64",
    "cone-missing-action":
        "364e16b944ae731dc5d0583ea1d7d95b76f72860d991cbc124ac9b69016a020f",
    "cone-no-vertex":
        "6677698740bdce30f4eaf35d0d4e162423c4e7c9d90a449fdb0adc43de9ffef0",
    "horoball-defaults":
        "82b3f456ba65458dba7bebb0fbfedd452177bf883851562686a9f9558a5bc7fc",
    "horoball-depth-0":
        "670a6ff6cc0108bef11ce867284386f84391cd455109fb9de2a816274505c2fb",
    "horoball-bad-depth-before-basepoint":
        "c5e82ead96ae0f7818ffa79dc622fb07bc8770d4c43bb5ad5b97dca05cc87067",
    "unknown-family-missing-graph":
        "364e16b944ae731dc5d0583ea1d7d95b76f72860d991cbc124ac9b69016a020f",
    "unknown-family-missing-action":
        "364e16b944ae731dc5d0583ea1d7d95b76f72860d991cbc124ac9b69016a020f",
    "unknown-family-bad-params":
        "57dda7999afa7867f2c3474097de4ae6fd51b1d70c341eee90473285c02964c4",
    "params-not-json":
        "0dff3bc64f86b35da55289062ca9225f62e28217e0ccc4a8889a67aac84b15f4",
    "params-null":
        "57dda7999afa7867f2c3474097de4ae6fd51b1d70c341eee90473285c02964c4",
}


def _run_digest(argvs, capsys):
    lines = []
    for argv in argvs:
        code = main(argv)
        out, err = capsys.readouterr()
        lines.append(f"{code} {sha256(out.encode())} {sha256(err.encode())}")
    return sha256("\n".join(lines).encode())


@pytest.mark.parametrize("family", list(CONSTRUCT_FAMILIES))
def test_construct_family_bytes(cli_dir, monkeypatch, capsys, family):
    monkeypatch.chdir(cli_dir)
    assert _run_digest(_construct_family_argvs(family), capsys) == CONSTRUCT_REPORTS[family]


@pytest.mark.parametrize("name", list(CONSTRUCT_CASES))
def test_construct_case_bytes(cli_dir, monkeypatch, capsys, name):
    monkeypatch.chdir(cli_dir)
    assert _run_digest([CONSTRUCT_CASES[name]], capsys) == CONSTRUCT_REPORTS[name]
