import random
import tracemalloc

import numpy as np
import pytest

import qtlab._kernels as kernels
from qtlab import (DisconnectedGraph, graph_from_ids, bottleneck_constant, cycle_graph,
                   farey_graph, grid_graph, hyperbolicity_delta)
from qtlab.errors import NotATree
from qtlab._kernels import (_joined, apsp, backend, bottleneck_center, bottleneck_centers,
                            delta_scan, level_components, rows)
from qtlab.cli import _build_fixture
from qtlab.io import graph_to_dict

from _oracles import (adjacency, all_distances, brute_bottleneck_witness,
                      brute_center_bottleneck, brute_delta_witness, brute_level_joined,
                      connected_avoiding, cycle_ids_edges, exhaustive_delta_witness, far_apart,
                      grid_ids_edges, index_distances, induced_components,
                      random_connected_graph, random_tree_edges)


def _csr(g):
    return g._indptr, g._indices, g.n


def _ids_edges(g):
    return list(g.vertex_ids), graph_to_dict(g)["edges"]


def test_backend_name():
    assert backend() == "numpy"


def _connected_and_split_graphs(rng, connected, split):
    """(ids, edges) of random connected graphs, then of random graphs with
    two components."""
    cases = []
    for _ in range(connected):
        cases.append(random_connected_graph(rng, rng.randrange(4, 30), rng.randrange(0, 5)))
    for _ in range(split):
        # two components: ids of the second are shifted past the first
        ids, edges = random_connected_graph(rng, rng.randrange(2, 8), rng.randrange(0, 3))
        ids2, edges2 = random_connected_graph(rng, rng.randrange(1, 8), rng.randrange(0, 3))
        k = len(ids)
        shift = {v: str(int(v) + k) for v in ids2}
        cases.append((ids + [shift[v] for v in ids2],
                      edges + [(shift[a], shift[b]) for a, b in edges2]))
    return cases


def test_apsp_matches_oracle():
    rng = random.Random(11)
    for ids, edges in _connected_and_split_graphs(rng, 10, 4):
        g = graph_from_ids(ids, edges, allow_disconnected=True)
        D = apsp(*_csr(g))
        oracle = all_distances(ids, edges)
        for u in ids:
            for v in ids:
                assert D[g.index(u), g.index(v)] == oracle[u].get(v, -1)


def test_apsp_disconnected_minus_one():
    g = graph_from_ids(["a", "b", "c", "d"], [("a", "b"), ("c", "d")], allow_disconnected=True)
    D = apsp(*_csr(g))
    assert D[g.index("a"), g.index("c")] == -1
    assert D[g.index("a"), g.index("b")] == 1


@pytest.mark.parametrize("block", [kernels.ROW_BLOCK, 7])
def test_rows_match_oracle(monkeypatch, block):
    # a small block makes rows() run several BFS blocks per request: a block
    # holds at least one word of 64 sources, and the graphs here have at
    # most 30 vertices, so the 130-source request needs three
    monkeypatch.setattr(kernels, "ROW_BLOCK", block)
    blocks = []
    bfs_block = kernels._bfs_block

    def counting(indptr, indices, deg, src, out):
        blocks.append(len(src))
        return bfs_block(indptr, indices, deg, src, out)

    monkeypatch.setattr(kernels, "_bfs_block", counting)
    rng = random.Random(13)
    for ids, edges in _connected_and_split_graphs(rng, 20, 10):
        g = graph_from_ids(ids, edges, allow_disconnected=True)
        oracle = all_distances(ids, edges)
        picks = [rng.randrange(g.n) for _ in range(rng.randrange(0, 12))]
        many = [rng.randrange(g.n) for _ in range(130)]
        for sources in ([], [0], picks, list(range(g.n)), many):
            blocks.clear()
            R = rows(*_csr(g), sources)
            assert R.dtype == np.int32 and R.shape == (len(sources), g.n)
            for k, s in enumerate(sources):
                u = g.vertex_ids[s]
                assert R[k].tolist() == [oracle[u].get(v, -1) for v in g.vertex_ids]
            assert sum(blocks) == len(sources)
            if sources is many:
                assert len(blocks) == (3 if block == 7 else 1)
        # MetricGraph.rows answers from BFS, then from the matrix once built
        assert g._dist is None
        before = g.rows(picks)
        assert (g.rows(picks) == g.dist[picks]).all() and (before == g.dist[picks]).all()


def _bfs_trap_graphs(rng):
    """(ids, edges): one vertex, isolated vertices (first, inside and last in
    index order, where reduceat's empty segments would bite), several
    components, and shuffled paths and cycles of diameter 45 and more."""
    cases = [(["a"], []), (["a", "b", "c"], []), (["a", "b", "c", "d"], [("b", "c")])]
    ids, edges = random_connected_graph(rng, 20, 5)
    cases.append((ids + ["!", "1x", "~"], edges))
    cases += _connected_and_split_graphs(rng, 3, 3)
    for n in (46, 90, 131):
        labels = [str(v) for v in rng.sample(range(1000), n)]
        path = [(labels[k], labels[k + 1]) for k in range(n - 1)]
        cases.append((labels, path))
        cases.append((labels, path + [(labels[-1], labels[0])]))
    return cases


def test_rows_match_oracle_on_trap_graphs():
    rng = random.Random(59)
    for ids, edges in _bfs_trap_graphs(rng):
        g = graph_from_ids(ids, edges, allow_disconnected=True)
        D = index_distances(ids, edges)
        for count in (1, 63, 64, 65, 129):
            sources = [rng.randrange(g.n) for _ in range(count)]
            R = rows(*_csr(g), sources)
            assert R.dtype == np.int32
            assert (R == D[sources]).all(), (g, count)
        assert (apsp(*_csr(g)) == D).all(), g


def _tree_cases(rng):
    graphs = [_build_fixture("bs12-r8").graph, _build_fixture("f2-r5").graph]
    for _ in range(30):
        n = rng.randrange(1, 60)
        # shuffled labels, so index 0 is not always the first vertex built
        labels = [str(v) for v in rng.sample(range(1000), n)]
        edges = [(labels[a], labels[b]) for a, b in random_tree_edges(rng, n)]
        graphs.append(graph_from_ids(labels, edges))
    return graphs


def test_tree_distances_match_oracle():
    rng = random.Random(17)
    for g in _tree_cases(rng):
        assert g.is_tree()
        D = index_distances(list(g.vertex_ids), graph_to_dict(g)["edges"])
        u = np.repeat(np.arange(g.n), g.n)
        v = np.tile(np.arange(g.n), g.n)
        got = g.tree_distances(u, v)
        assert g._dist is None
        assert (got == D[u, v]).all()


def test_tree_distances_refuse_a_non_tree():
    with pytest.raises(NotATree):
        cycle_graph(5).tree_distances([0], [2])


def test_tree_diameter_from_double_sweep():
    rng = random.Random(19)
    for g in _tree_cases(rng):
        D = index_distances(list(g.vertex_ids), graph_to_dict(g)["edges"])
        assert g.diameter() == int(D.max())
        assert g._dist is None


def test_disconnected_pairs_are_the_first_unreachable_from_index_0():
    # the pair the dense rule named: the first negative entry of the
    # distance matrix in row-major order
    rng = random.Random(29)
    for ids, edges in _connected_and_split_graphs(rng, 0, 20):
        D = index_distances(ids, edges)
        i, j = np.argwhere(D < 0)[0]
        order = sorted(ids)
        expected = (order[i], order[j])
        with pytest.raises(DisconnectedGraph) as exc:
            graph_from_ids(ids, edges)
        assert (exc.value.u, exc.value.v) == expected
        g = graph_from_ids(ids, edges, allow_disconnected=True)
        assert not g.connected
        for scan in (hyperbolicity_delta, bottleneck_constant):
            with pytest.raises(DisconnectedGraph) as exc:
                scan(g)
            assert (exc.value.u, exc.value.v) == expected


def test_delta_scan_matches_oracle_witness():
    rng = random.Random(23)
    graphs = [grid_graph(4, 4), cycle_graph(9)]
    for _ in range(8):
        ids, edges = random_connected_graph(rng, rng.randrange(4, 12), rng.randrange(0, 4))
        graphs.append(graph_from_ids(ids, edges))
    for g in graphs:
        ids, edges = _ids_edges(g)
        two_delta, *wit = delta_scan(g.dist)
        assert (two_delta, tuple(ids[i] for i in wit)) == \
            brute_delta_witness(ids, all_distances(ids, edges))


def _assert_delta_scan_matches_exhaustive(graphs):
    for g in graphs:
        assert delta_scan(g.dist) == exhaustive_delta_witness(g.dist), g


def test_delta_scan_matches_exhaustive_scan_on_random_graphs():
    # trees, sparse and dense graphs: 2*delta from 0 up, with many ties
    rng = random.Random(47)
    graphs = []
    for _ in range(200):
        n = rng.randrange(2, 61)
        graphs.append(graph_from_ids(*random_connected_graph(rng, n, rng.randrange(0, 2 * n))))
    _assert_delta_scan_matches_exhaustive(graphs)


@pytest.mark.parametrize("family", ["grid", "cycle"])
def test_delta_scan_matches_exhaustive_scan_on_grids_and_cycles(family):
    if family == "grid":
        graphs = [grid_graph(m, k) for m in range(1, 11) for k in range(m, 11)]
    else:
        graphs = [cycle_graph(k) for k in range(3, 91)]
    _assert_delta_scan_matches_exhaustive(graphs)


def test_delta_scan_matches_exhaustive_scan_on_farey_and_fixtures():
    graphs = [farey_graph(Q, P).graph for Q in range(1, 6) for P in (None, 2 * Q)]
    graphs += [_build_fixture(name).graph for name in ("doubleline-n16", "cone-z-r10")]
    _assert_delta_scan_matches_exhaustive(graphs)


@pytest.mark.parametrize("block", [kernels.ROW_BLOCK, 1 << 10])
def test_far_apart_mask_matches_oracle(monkeypatch, block):
    # the graphs of the exhaustive four-point tests above; the small block
    # splits the neighbour gather into blocks of a few vertices
    monkeypatch.setattr(kernels, "ROW_BLOCK", block)
    rng = random.Random(47)
    graphs = []
    for _ in range(200):
        n = rng.randrange(2, 61)
        graphs.append(graph_from_ids(*random_connected_graph(rng, n, rng.randrange(0, 2 * n))))
    graphs += [grid_graph(m, k) for m in range(1, 11) for k in range(m, 11)]
    graphs += [cycle_graph(k) for k in range(3, 91)]
    graphs += [farey_graph(Q, P).graph for Q in range(1, 6) for P in (None, 2 * Q)]
    graphs += [_build_fixture(name).graph for name in ("doubleline-n16", "cone-z-r10")]
    for g in graphs:
        if g.n > 1:
            assert (kernels._far_apart(g.dist) == far_apart(g.dist)).all(), g


def _scored_by_delta_value(monkeypatch):
    """Monkeypatch _defects to record its pair arguments; returns the list
    it appends (xa, ya, da, xb, yb, db) to."""
    calls = []
    defects = kernels._defects

    def recording(D, *pairs):
        calls.append(pairs)
        return defects(D, *pairs)

    monkeypatch.setattr(kernels, "_defects", recording)
    return calls


def _stop_rule_graphs():
    rng = random.Random(53)
    graphs = [cycle_graph(9), cycle_graph(10), grid_graph(3, 5)]
    for _ in range(40):
        n = rng.randrange(4, 19)
        graphs.append(graph_from_ids(*random_connected_graph(rng, n, rng.randrange(0, n))))
    return graphs


def test_delta_value_scores_far_apart_pairs_only(monkeypatch):
    # a mask that keeps more than the far-apart pairs (one-sided, say)
    # gives the same values, so only the scored pairs show it
    calls = _scored_by_delta_value(monkeypatch)
    for g in _stop_rule_graphs() + [farey_graph(Q, 2 * Q).graph for Q in (4, 5)]:
        far = far_apart(g.dist)
        calls.clear()
        kernels._delta_value(g.dist)
        for xa, ya, _, xb, yb, _ in calls:
            assert far[xa, ya].all() and far[xb, yb].all(), g


def test_delta_value_scores_only_the_levels_the_stop_rule_allows(monkeypatch):
    # only far-apart pairs are scored: every level above the value v that
    # holds a far-apart pair is scored; level v only when no quadruple of
    # two far-apart pairs, both farther apart than v, attains v; no level
    # below v
    calls = _scored_by_delta_value(monkeypatch)
    for g in _stop_rule_graphs():
        D = g.dist.astype(np.int64)
        pair1 = D[:, :, None, None] + D[None, None, :, :]
        pair2 = D[:, None, :, None] + D[None, :, None, :]
        pair3 = D[:, None, None, :] + D[None, :, :, None]
        defect = pair1 - np.maximum(pair2, pair3)
        nearer = np.minimum(D[:, :, None, None], D[None, None, :, :])
        far = far_apart(D)
        both = far[:, :, None, None] & far[None, None, :, :]
        v = int(defect.max())
        above = int(defect[both & (nearer > v)].max(initial=0))
        want = {L for L in np.unique(D[far]).tolist() if L > v or (L == v > above)}
        calls.clear()
        assert kernels._delta_value(g.dist) == v, g
        assert {L for call in calls for L in call[2].tolist()} == want, g


@pytest.mark.parametrize("block", [1, 7, 60, 1 << 14])
def test_tiles_cover_the_table_in_row_major_order_within_the_block(monkeypatch, block):
    # row blocks [a, b) that partition the rows, each against the columns
    # [0, cols), or [0, b) for the triangle (cols None), which covers every
    # column c <= r of row r; rows x max(columns, n) at most BLOCK, or one
    # row of at most BLOCK columns; every cell once, in row-major order
    monkeypatch.setattr(kernels, "BLOCK", block)
    for start, stop, n, cols in [(0, 1, 2, None), (0, 50, 9, None), (13, 200, 40, None),
                                 (7, 8, 300, None), (0, 30, 5, 3), (0, 12, 70, 200),
                                 (0, 3, 4, 5000)]:
        cells, blocks = [], []
        for rs, cs in kernels._tiles(start, stop, n, cols):
            rows = rs.stop - rs.start
            assert rows >= 1 and 1 <= cs.stop - cs.start <= block
            assert rows == 1 or rows * max(cs.stop, n) <= block
            if not blocks or blocks[-1] != rs:
                blocks.append(rs)
            cells += [(r, c) for r in range(rs.start, rs.stop) for c in range(cs.start, cs.stop)]
        assert [rs.start for rs in blocks] == [start] + [rs.stop for rs in blocks[:-1]]
        assert blocks[-1].stop == stop
        want = [(r, c) for rs in blocks for r in range(rs.start, rs.stop)
                for c in range(rs.stop if cols is None else cols)]
        assert cells == want


def _recorded_tiles(monkeypatch):
    """Monkeypatch _tiles to record, per call, (start, stop, n, cols) and
    the list of its (row slice, column slice) tiles."""
    calls = []
    tiles = kernels._tiles

    def recording(start, stop, n, cols=None):
        out = list(tiles(start, stop, n, cols))
        calls.append(((start, stop, n, cols), out))
        return iter(out)

    monkeypatch.setattr(kernels, "_tiles", recording)
    return calls


def test_delta_scan_matches_exhaustive_scan_with_small_tiles(monkeypatch):
    # small blocks make multi-row tiles, one-row tiles and split columns in
    # both phases, and the triangle of levels with fewer pairs than n
    rng = random.Random(71)
    graphs = [graph_from_ids(*random_connected_graph(rng, n, rng.randrange(1, n)))
              for n in range(4, 41, 3)]
    graphs += [grid_graph(3, 5), cycle_graph(20), farey_graph(3, 6).graph,
               _build_fixture("doubleline-n16").graph]
    calls = _recorded_tiles(monkeypatch)
    for block in (7, 60, 400):
        monkeypatch.setattr(kernels, "BLOCK", block)
        _assert_delta_scan_matches_exhaustive(graphs)
    tiles = [(args, rs, cs) for args, out in calls for rs, cs in out]
    assert any(rs.stop - rs.start > 1 for _, rs, _ in tiles)
    assert any(rs.stop - rs.start == 1 for _, rs, _ in tiles)
    for phase1 in (True, False):
        assert any(cs.start > 0 for args, _, cs in tiles if (args[3] is None) == phase1)
    assert any(cols is None and stop - start < n for (start, stop, n, cols), _ in calls)


@pytest.mark.parametrize("make, parent_peak", [
    (lambda: farey_graph(8, 18).graph, 1_742_120),
    (lambda: _build_fixture("doubleline-n16").graph, 405_765),
])
def test_delta_scan_memory_stays_within_the_parent_peak(make, parent_peak):
    # tracemalloc peaks of the scan before the row-gathered tiles, numpy 2.4
    # on Python 3.11: the 190-vertex Farey truncation, and a graph whose top
    # level holds 4 pairs, fewer than its 66 vertices; 5 % allows for other
    # numpy versions' set-up arrays
    D = make().dist
    tracemalloc.start()
    try:
        delta_scan(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * parent_peak, peak


def test_bottleneck_center_matches_oracle():
    # every lower bound c_lo from 0 to c_hi + 1: the kernel reports the
    # center's value only when it exceeds c_lo
    rng = random.Random(37)
    graphs = [grid_graph(5, 5), cycle_graph(12)]
    for _ in range(8):
        ids, edges = random_connected_graph(rng, rng.randrange(4, 14), rng.randrange(0, 4))
        graphs.append(graph_from_ids(ids, edges))
    for g in graphs:
        ids, edges = _ids_edges(g)
        D, indptr, indices = g.dist, g._indptr, g._indices
        diam = int(D.max())
        for z in range(g.n):
            c_hi = min(int(D[z].max()) - 1, diam // 2)
            value, pair = brute_center_bottleneck(ids, edges, ids[z])
            for c_lo in range(c_hi + 2):
                t, x, y = bottleneck_center(D, indptr, indices, z, c_lo, c_hi)
                if value - 1 < c_lo:
                    assert (t, x, y) == (-1, -1, -1), (ids[z], c_lo)
                else:
                    assert (t, (ids[x], ids[y])) == (value, pair), (ids[z], c_lo)


def _glued(first, second):
    """Two graphs (ids, edges) as one, first's last vertex glued to second's
    first vertex; first's vertices come first in id order."""
    (ia, ea), (ib, eb) = first, second
    name = {("a", v): f"a{k:02d}" for k, v in enumerate(ia)}
    name.update({("b", v): f"b{k:02d}" for k, v in enumerate(ib)})
    name["b", ib[0]] = name["a", ia[-1]]
    ids = sorted(set(name.values()))
    edges = [(name["a", u], name["a", v]) for u, v in ea]
    edges += [(name["b", u], name["b", v]) for u, v in eb]
    return ids, edges


def _rising_graphs():
    """Cycles, ladders and grids glued so that C rises more than once as the
    scan goes through the centers, and seeded random graphs."""
    glued = [(cycle_ids_edges(5), cycle_ids_edges(12)),
             (grid_ids_edges(2, 6), cycle_ids_edges(10)),
             (grid_ids_edges(3, 3), grid_ids_edges(4, 4)),
             (grid_ids_edges(2, 4), grid_ids_edges(4, 4)),
             (cycle_ids_edges(4), _glued(cycle_ids_edges(8), cycle_ids_edges(12)))]
    out = [graph_from_ids(*_glued(a, b)) for a, b in glued]
    rng = random.Random(61)
    out += [graph_from_ids(*random_connected_graph(rng, n, rng.randrange(1, 6)))
            for n in [rng.randrange(6, 16) for _ in range(60)]]
    return out, len(glued)


def test_bottleneck_constant_matches_oracle_where_c_rises_twice(monkeypatch):
    raises = []
    center = kernels.bottleneck_center

    def recording(D, indptr, indices, z, c_lo, c_hi):
        out = center(D, indptr, indices, z, c_lo, c_hi)
        if out[0] > c_lo:
            raises[-1] += 1
        return out

    monkeypatch.setattr(kernels, "bottleneck_center", recording)
    graphs, glued = _rising_graphs()
    graphs += [cycle_graph(k) for k in range(3, 15)]
    graphs += [grid_graph(2, k) for k in range(2, 10)] + [grid_graph(3, 4), grid_graph(4, 5)]
    for g in graphs:
        ids, edges = _ids_edges(g)
        raises.append(0)
        rep = bottleneck_constant(g)
        w = rep.witness
        assert (None if w is None else (w.x, w.y, w.z)) == brute_bottleneck_witness(ids, edges), g
    assert min(raises[:glued]) >= 2
    assert sum(k >= 2 for k in raises[glued:]) >= 2


def test_center_filter_drops_only_centers_whose_test_fails():
    # the filter keeps, in order, exactly the centers z with a pair on
    # S(z, c+1) at distance 2(c+1); bottleneck_center returns -1 on the rest
    graphs, _ = _rising_graphs()
    graphs += [grid_graph(4, 4), cycle_graph(11), _build_fixture("doubleline-n16").graph]
    for g in graphs:
        D, indptr, indices = g.dist, g._indptr, g._indices
        for c in range(int(D.max()) + 1):
            sphere = D == c + 1
            want = [z for z in range(g.n)
                    if (D[np.ix_(sphere[z], sphere[z])] == 2 * (c + 1)).any()]
            assert bottleneck_centers(D, np.arange(g.n), c).tolist() == want, (g, c)
            odd = bottleneck_centers(D, np.arange(1, g.n, 2), c).tolist()
            assert odd == [z for z in want if z % 2], (g, c)
            for z in sorted(set(range(g.n)) - set(want)):
                assert bottleneck_center(D, indptr, indices, z, c, c) == (-1, -1, -1), (g, z, c)


def test_sphere_test_matches_full_level_set():
    rng = random.Random(41)
    for _ in range(30):
        ids, edges = random_connected_graph(rng, rng.randrange(3, 16), rng.randrange(0, 6))
        g = graph_from_ids(ids, edges)
        for z in range(g.n):
            r = g.dist[z]
            for c in range(int(r.max()) + 1):
                assert _joined(g.dist, g._indptr, g._indices, r, c) == \
                    brute_level_joined(ids, edges, g.vertex_ids[z], c), (g.vertex_ids[z], c)


def test_level_components_match_oracle():
    rng = random.Random(43)
    for _ in range(20):
        ids, edges = random_connected_graph(rng, rng.randrange(3, 16), rng.randrange(0, 6))
        g = graph_from_ids(ids, edges)
        adj, dist = adjacency(ids, edges), all_distances(ids, edges)
        for z in range(g.n):
            r = g.dist[z]
            dz = dist[g.vertex_ids[z]]
            for c in range(int(r.max())):
                labels = level_components(g._indptr, g._indices, r > c)
                kept = [v for v in range(g.n) if r[v] > c]
                for a in kept:
                    for b in kept:
                        assert (labels[a] == labels[b]) == connected_avoiding(
                            adj, dz, g.vertex_ids[a], g.vertex_ids[b], c)


def _same_partition(labels, rep, kept):
    kept = sorted(kept)
    for a in kept:
        for b in kept:
            assert (labels[a] == labels[b]) == (rep[a] == rep[b]), (a, b)


def test_level_components_on_masks():
    # all-False masks, kept vertices whose neighbours are all dropped, and
    # random masks, on the trap graphs of the BFS tests
    rng = random.Random(61)
    for ids, edges in _bfs_trap_graphs(rng):
        g = graph_from_ids(ids, edges, allow_disconnected=True)
        n = g.n
        masks = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
        lone = np.zeros(n, dtype=bool)
        lone[::3] = True
        masks.append(lone)
        masks += [np.array([rng.random() < p for _ in range(n)]) for p in (0.3, 0.6, 0.9)]
        for keep in masks:
            labels = level_components(g._indptr, g._indices, keep)
            assert labels.shape == (n,)
            kept = set(np.flatnonzero(keep).tolist())
            rep = induced_components(range(n), g.edge_array().tolist(), kept)
            _same_partition(labels, rep, kept)
