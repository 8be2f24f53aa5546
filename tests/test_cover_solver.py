import time
from itertools import combinations

import pytest

from outersplit import (
    DualGraph,
    cover_solver,
    brute_min_cfc,
    brute_osn_by_splits,
    build,
    complete_3tree,
    cycle,
    dual,
    face_cover,
    fan,
    fvs_to_cover,
    icosahedron,
    is_outerplane,
    k4,
    min_fvs,
    octahedron,
    random_biconnected,
    random_triangulation,
    replay,
    solve_osn,
    with_outer_face,
)
from outersplit.errors import (
    CapExceeded,
    DuplicateNode,
    InfeasibleParameters,
    NotBiconnected,
    SelfLoopPresent,
    UnknownNode,
)


def brute_fvs(d):
    """Reference minimum feedback vertex set: first (and hence smallest,
    lexicographically least) node subset whose removal leaves the dual
    acyclic.  Parallel edges count as 2-cycles."""
    nodes = sorted(d.nodes)
    for size in range(len(nodes) + 1):
        for combo in combinations(nodes, size):
            out = set(combo)
            parent = {u: u for u in nodes if u not in out}
            def find(u):
                while parent[u] != u:
                    parent[u] = parent[parent[u]]
                    u = parent[u]
                return u
            ok = True
            for a, b in d.edges:
                if a in out or b in out:
                    continue
                ra, rb = find(a), find(b)
                if ra == rb:
                    ok = False
                    break
                parent[ra] = rb
            if ok:
                return frozenset(combo)
    raise AssertionError("unreachable")


def solver_corpus():
    graphs = [k4(), octahedron(), complete_3tree(1), cycle(5), fan(6)]
    for n, seed in [(5, 1), (6, 2), (7, 3), (8, 4), (8, 5)]:
        graphs.append(random_triangulation(n, seed=seed))
    for n, m, seed in [(5, 7, 0), (6, 9, 1), (7, 10, 2), (8, 14, 3),
                       (6, 6, 4), (9, 12, 5), (7, 15, 6), (10, 13, 7)]:
        graphs.append(random_biconnected(n, m, seed=seed))
    for n, seed in [(6, 11), (7, 12), (7, 13), (8, 14)]:
        graphs.append(random_triangulation(n, seed=seed))
    return graphs


def test_min_fvs_matches_reference_on_corpus():
    checked = 0
    for g in solver_corpus():
        d = dual(g)
        assert len(d.nodes) <= 14
        sol = min_fvs(d)
        assert sol.nodes == brute_fvs(d)
        checked += 1
    assert checked >= 17


def test_min_fvs_certificate_is_exact_remainder():
    for g in [k4(), octahedron(), random_triangulation(7, seed=9)]:
        d = dual(g)
        sol = min_fvs(d)
        cert = sol.certificate
        assert isinstance(cert, DualGraph)
        # a forest is its own remainder: it needs no node removed
        assert min_fvs(cert).nodes == frozenset()
        assert set(cert.nodes) == set(d.nodes) - sol.nodes
        assert list(cert.edges) == [
            e for e in d.edges
            if e[0] not in sol.nodes and e[1] not in sol.nodes]
        # remainder is a forest: edges < nodes per component suffices
        # globally via union-find
        parent = {u: u for u in cert.nodes}
        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u
        for a, b in cert.edges:
            ra, rb = find(a), find(b)
            assert ra != rb
            parent[ra] = rb


def test_min_fvs_leaves_a_forest_whole():
    path = DualGraph(nodes=(0, 1, 2), edges=((0, 1), (1, 2)))
    sol = min_fvs(path)
    assert sol.nodes == frozenset()
    assert sol.certificate == path


def test_min_fvs_certificate_equals_the_remainder_by_value():
    for g in [k4(), octahedron(), icosahedron()]:
        d = dual(g)
        sol = min_fvs(d)
        kept = tuple(u for u in d.nodes if u not in sol.nodes)
        remainder = DualGraph(
            nodes=kept,
            edges=tuple(e for e in d.edges
                        if e[0] not in sol.nodes and e[1] not in sol.nodes))
        assert sol.certificate == remainder
        assert hash(sol.certificate) == hash(remainder)
        assert not sol.certificate.has_self_loop()


def test_min_fvs_small_duals():
    assert min_fvs(dual(k4())).nodes == frozenset((0, 1))
    tri = with_outer_face(
        build({"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b")}), 0)
    assert min_fvs(dual(tri)).nodes == frozenset((0,))
    assert min_fvs(dual(cycle(7))).nodes == frozenset((0,))


def test_min_fvs_rejects_self_loops():
    # the pendant edge is a bridge, so the dual loops at the sole face
    # on both of its sides
    g = with_outer_face(build({"a": ("b", "c", "d"), "b": ("c", "a"),
                               "c": ("a", "b"), "d": ("a",)}), 0)
    d = dual(g)
    assert d.has_self_loop()
    with pytest.raises(SelfLoopPresent):
        min_fvs(d)


@pytest.mark.parametrize("nodes, edges", [
    ((0,), ((0, 1),)),
    ((1,), ((0, 1),)),
    # parallel edges, and degree 4 at node 0
    ((0, 1, 2), ((0, 1), (0, 1), (0, 2), (0, 2), (1, 5))),
])
def test_min_fvs_rejects_edges_to_missing_nodes(nodes, edges):
    with pytest.raises(UnknownNode, match="is not a node"):
        min_fvs(DualGraph(nodes=nodes, edges=edges))


@pytest.mark.parametrize("nodes, edges, twice", [
    ((0, 0), (), 0),
    ((0, 1, 2, 1), ((0, 1), (0, 1), (1, 2)), 1),
])
def test_min_fvs_rejects_a_node_listed_twice(monkeypatch, nodes, edges,
                                             twice):
    calls = record_solvers(monkeypatch)
    with pytest.raises(DuplicateNode,
                       match=f"^dual node {twice} is listed twice$"):
        min_fvs(DualGraph(nodes=nodes, edges=edges))
    assert calls == []


def test_solve_osn_known_values():
    assert solve_osn(k4()).osn == 1
    assert solve_osn(complete_3tree(1)).osn == 2
    assert solve_osn(cycle(6)).osn == 0
    assert solve_osn(octahedron()).osn == 2
    assert solve_osn(icosahedron()).osn == 5


def test_solve_osn_result_is_consistent():
    for g in [k4(), octahedron(), complete_3tree(1),
              random_triangulation(8, seed=21),
              random_biconnected(7, 11, seed=22)]:
        res = solve_osn(g)
        assert len(res.cover.faces) == res.osn + 1
        assert len(res.splits) == res.osn
        gg = g if g.outer_face is not None else with_outer_face(g, 0)
        assert is_outerplane(replay(gg, res.splits))


def test_solve_osn_requires_biconnected():
    bowtie = build({
        "a": ("b", "x"), "b": ("x", "a"),
        "c": ("d", "x"), "d": ("x", "c"),
        "x": ("b", "a", "d", "c"),
    })
    with pytest.raises(NotBiconnected):
        solve_osn(bowtie)


def test_fvs_to_cover_keeps_nodes():
    g = octahedron()
    sol = min_fvs(dual(g))
    cover = fvs_to_cover(g, sol)
    assert cover.faces == sol.nodes


def test_brute_min_cfc_small():
    assert brute_min_cfc(k4()).faces == frozenset((0, 1))
    tri = with_outer_face(
        build({"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b")}), 0)
    assert brute_min_cfc(tri).faces == frozenset((0,))
    assert len(brute_min_cfc(octahedron()).faces) == 3


def test_brute_min_cfc_cap():
    with pytest.raises(CapExceeded):
        brute_min_cfc(complete_3tree(2))  # 28 faces


def test_brute_osn_by_splits_small():
    assert brute_osn_by_splits(k4()) == 1
    tri = with_outer_face(
        build({"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b")}), 0)
    assert brute_osn_by_splits(tri) == 0
    assert brute_osn_by_splits(octahedron()) == 2


def test_brute_osn_by_splits_budget_and_cap():
    assert brute_osn_by_splits(k4(), k_max=0) is None
    with pytest.raises(CapExceeded):
        brute_osn_by_splits(complete_3tree(1))  # 10 faces


def test_brute_osn_by_splits_rejects_a_negative_budget():
    with pytest.raises(InfeasibleParameters, match="nonnegative"):
        brute_osn_by_splits(k4(), k_max=-1)


def test_three_solvers_agree():
    for g in [k4(), cycle(4), fan(5), random_biconnected(6, 8, seed=31),
              random_biconnected(6, 10, seed=32)]:
        gg = g if g.outer_face is not None else with_outer_face(g, 0)
        cfc = brute_min_cfc(gg)
        assert len(min_fvs(dual(gg)).nodes) == len(cfc.faces)
        assert solve_osn(gg).osn == len(cfc.faces) - 1
        if len(gg.faces) <= 8:
            assert brute_osn_by_splits(gg) == len(cfc.faces) - 1


@pytest.mark.parametrize("n, m, osn", [
    (40, 110, 18), (150, 250, 35), (60, 170, 27), (300, 893, 148),
    (180, 500, 77), (250, 700, 110)])
def test_hard_sparse_duals_solve(n, m, osn):
    # (40, 110, 0) is a triangulation less 4 edges whose peel bound is 16
    # against an optimum of 19, and (300, 893, 0) a near-triangulation.
    # The dynamic programme, at min-fill elimination width 4, 5, 5, 7, 7
    # and 8, solves each in a few seconds at most; (180, 500, 0) and
    # (250, 700, 0) have min-degree width 10 and 11, above the cap.
    g = random_biconnected(n, m, seed=0)
    res = solve_osn(g)
    assert res.osn == osn
    assert len(res.splits.ops) == osn
    assert face_cover(g, res.cover.faces) == res.cover
    assert is_outerplane(replay(g, res.splits))


def complete(n):
    return DualGraph(tuple(range(n)), tuple(combinations(range(n), 2)))


def record_solvers(monkeypatch):
    """Each call min_fvs makes to the programme, by name."""
    calls = []
    solver = cover_solver._dp_fvs

    def wrapped(*args):
        calls.append("_dp_fvs")
        return solver(*args)

    monkeypatch.setattr(cover_solver, "_dp_fvs", wrapped)
    return calls


CAP = cover_solver._DP_MAX_WIDTH


@pytest.mark.parametrize("d, cap, want", [
    (DualGraph((), ()), CAP, set()),
    (DualGraph((0, 1, 2), ()), CAP, set()),
    (DualGraph((0, 1), ((0, 1), (0, 1))), CAP, {0}),
    # degree 4 at node 0, from two doubled edges
    (DualGraph((0, 1, 2), ((0, 1), (0, 1), (0, 2), (0, 2))), CAP, {0}),
    # K_{w+1} has elimination width w: at the cap the programme solves
    # it, and one node more is refused
    (complete(CAP + 1), CAP, set(range(CAP - 1))),
    (complete(CAP + 2), CAP, CapExceeded),
    # 20 nodes, every degree 3, min-fill width 6: cubic duals above the
    # cap are refused too
    (dual(icosahedron()), 2, CapExceeded),
], ids=["empty", "isolated", "doubled", "degree_4", "k_cap_plus_1",
        "k_cap_plus_2", "icosahedron_cap_2"])
def test_min_fvs_calls_only_the_programme(monkeypatch, d, cap, want):
    monkeypatch.setattr(cover_solver, "_DP_MAX_WIDTH", cap)
    calls = record_solvers(monkeypatch)
    if want is CapExceeded:
        with pytest.raises(CapExceeded, match=f"above the cap of {cap}$"):
            min_fvs(d)
    else:
        assert min_fvs(d).nodes == want
    assert calls == ["_dp_fvs"]


def test_min_fvs_routes_cubic_duals_as_before(monkeypatch):
    """A cubic dual goes to the programme whatever its size, as any other
    dual does, and is refused when its width is above the cap."""
    small = dual(icosahedron())  # 20 nodes, min-fill width 6
    large = dual(random_triangulation(15, seed=0))  # 26 nodes, width 4
    calls = record_solvers(monkeypatch)
    want = min_fvs(large).nodes
    min_fvs(small)
    assert calls == ["_dp_fvs", "_dp_fvs"]
    calls.clear()
    monkeypatch.setattr(cover_solver, "_DP_MAX_WIDTH", 5)
    with pytest.raises(CapExceeded, match="above the cap of 5$"):
        min_fvs(small)
    assert min_fvs(large).nodes == want
    assert calls == ["_dp_fvs", "_dp_fvs"]


def test_min_fvs_refuses_a_wide_dual_at_once():
    # the dual of random_biconnected(2000, 5950, 0) has 3,952 nodes,
    # degrees up to 4 and min-fill elimination width 10
    d = dual(random_biconnected(2000, 5950, seed=0))
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="dual of 3952 nodes"):
        min_fvs(d)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("n, seed, nodes", [(1200, 6, 2396), (2000, 0, 3996)])
def test_min_fvs_refuses_a_wide_cubic_dual_at_once(n, seed, nodes):
    # of the triangulation duals for n from 100 to 2000 and seeds 0-9,
    # only these two have min-fill elimination width above 9: both 10
    d = dual(random_triangulation(n, seed=seed))
    assert set(d.degrees().values()) == {3}
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=f"dual of {nodes} nodes"):
        min_fvs(d)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("edges, error", [
    (((0, 0), (0, 1), (0, 1), (0, 2), (0, 2)), SelfLoopPresent),
    (((0, 1), (0, 1), (0, 2), (0, 2), (0, 7)), UnknownNode),
])
def test_min_fvs_checks_before_it_routes(monkeypatch, edges, error):
    calls = record_solvers(monkeypatch)
    with pytest.raises(error):
        min_fvs(DualGraph(nodes=(0, 1, 2), edges=edges))
    assert calls == []
