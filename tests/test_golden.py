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
from qtlab.io import action_to_dict, graph_to_dict

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
