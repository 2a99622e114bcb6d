import json
import random
import subprocess
import sys

import pytest

from qtlab import MetricGraph, cycle_graph, grid_graph, hyperbolicity_delta, bottleneck_constant
from qtlab._kernels import (HAS_NUMBA, _apsp_py, _delta_scan_py, apsp, apsp_numpy,
                            backend, bottleneck_center, bottleneck_center_numpy,
                            delta_scan, delta_scan_numpy)

from _oracles import random_connected_graph


def _csr(g):
    return g._indptr, g._indices, g.n


def test_backend_name():
    assert backend() in ("numba", "numpy")


def test_apsp_paths_agree():
    rng = random.Random(11)
    for _ in range(10):
        ids, edges = random_connected_graph(rng, rng.randrange(4, 30), rng.randrange(0, 5))
        g = MetricGraph(ids, edges)
        indptr, indices, n = _csr(g)
        assert (apsp(indptr, indices, n) == apsp_numpy(indptr, indices, n)).all()


def test_apsp_disconnected_minus_one():
    g = MetricGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")], allow_disconnected=True)
    indptr, indices, n = _csr(g)
    for D in (apsp(indptr, indices, n), apsp_numpy(indptr, indices, n)):
        assert D[g.index("a"), g.index("c")] == -1
        assert D[g.index("a"), g.index("b")] == 1


def test_delta_scan_paths_agree_with_witness():
    rng = random.Random(23)
    graphs = [grid_graph(4, 4), cycle_graph(9)]
    for _ in range(8):
        ids, edges = random_connected_graph(rng, rng.randrange(4, 12), rng.randrange(0, 4))
        graphs.append(MetricGraph(ids, edges))
    for g in graphs:
        Dp = g.dist
        assert delta_scan(Dp) == delta_scan_numpy(Dp)


def test_bottleneck_center_paths_agree():
    rng = random.Random(37)
    graphs = [grid_graph(5, 5), cycle_graph(12)]
    for _ in range(8):
        ids, edges = random_connected_graph(rng, rng.randrange(4, 14), rng.randrange(0, 4))
        graphs.append(MetricGraph(ids, edges))
    for g in graphs:
        Dp, indptr, indices = g.dist, g._indptr, g._indices
        diam = int(Dp.max())
        for z in range(g.n):
            ecc = int(Dp[z].max())
            c_hi = min(ecc - 1, diam // 2)
            a = bottleneck_center(Dp, indptr, indices, z, 0, c_hi)
            b = bottleneck_center_numpy(Dp, indptr, indices, z, 0, c_hi)
            assert tuple(int(v) for v in a) == tuple(int(v) for v in b)


def test_jit_source_kernels_interpreted_match_numpy():
    """The plain-Python sources that numba compiles, run by the interpreter,
    agree with the numpy builds; this keeps them tested without numba."""
    rng = random.Random(41)
    graphs = [grid_graph(3, 3), cycle_graph(7)]
    for _ in range(6):
        ids, edges = random_connected_graph(rng, rng.randrange(4, 11), rng.randrange(0, 4))
        graphs.append(MetricGraph(ids, edges))
    disconnected = MetricGraph(["a", "b", "c", "d", "e"], [("a", "b"), ("c", "d")],
                               allow_disconnected=True)
    for g in graphs + [disconnected]:
        indptr, indices, n = _csr(g)
        assert (_apsp_py(indptr, indices, n) == apsp_numpy(indptr, indices, n)).all()
    for g in graphs:
        assert g.n <= 10
        got = tuple(int(v) for v in _delta_scan_py(g.dist))
        assert got == delta_scan_numpy(g.dist)


SCRIPT = """
import json
from qtlab import grid_graph, cycle_graph, hyperbolicity_delta, bottleneck_constant
from qtlab._kernels import backend
g = grid_graph(5, 5)
h = hyperbolicity_delta(g)
b = bottleneck_constant(g)
c = cycle_graph(12)
h2 = hyperbolicity_delta(c)
b2 = bottleneck_constant(c)
print(json.dumps({
    "backend": backend(),
    "grid": [h.two_delta, list(h.witness), b.constant, b.witness.x, b.witness.y, b.witness.z],
    "cycle": [h2.two_delta, list(h2.witness), b2.constant, b2.witness.x, b2.witness.y, b2.witness.z],
}))
"""


def test_numpy_fallback_env_flag_full_pipeline(child_env):
    """The env flag must force the numpy path and produce identical reports,
    witnesses included."""
    env = dict(child_env, QTLAB_KERNELS="numpy")
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    got = json.loads(out.stdout)
    assert got["backend"] == "numpy"

    g = grid_graph(5, 5)
    h = hyperbolicity_delta(g)
    b = bottleneck_constant(g)
    assert got["grid"] == [h.two_delta, list(h.witness), b.constant,
                           b.witness.x, b.witness.y, b.witness.z]
    c = cycle_graph(12)
    h2 = hyperbolicity_delta(c)
    b2 = bottleneck_constant(c)
    assert got["cycle"] == [h2.two_delta, list(h2.witness), b2.constant,
                            b2.witness.x, b2.witness.y, b2.witness.z]


@pytest.mark.skipif(not HAS_NUMBA, reason="numba not importable here")
def test_default_backend_is_numba():
    assert backend() == "numba"
