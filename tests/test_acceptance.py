"""Acceptance suite: eight headline guarantees, one test each.

The corpora are shared between criteria and built once per run.  Every
expected value here is cross-checked between independent code paths
(exhaustive split search, exhaustive cover enumeration, the exact dual
feedback solver, and the closed-form bounds), so a regression in any one
of them surfaces as a disagreement.
"""

import math
import random
import time

import pytest

from outersplit import (
    brute_min_cfc,
    brute_min_vc,
    brute_osn_by_splits,
    build,
    build_cfc_instance,
    complete_3tree,
    cycle,
    dual,
    fan,
    fvs_to_cover,
    icosahedron,
    is_biconnected,
    is_outerplane,
    k4,
    lower_bound_3tree,
    min_fvs,
    octahedron,
    parse_rot,
    random_biconnected,
    random_triangulation,
    realize_cover,
    replay,
    serialize_rot,
    solve_osn,
    split_vertex,
    upper_bound,
    with_outer_face,
    SplitSequence,
)
from outersplit.cover_solver import ForestCertificate, FvsSolution
from outersplit.errors import CertificateFailure, InfeasibleParameters

_cache = {}


def _designated(g):
    return g if g.outer_face is not None else with_outer_face(g, 0)


def prism(k):
    rot = {}
    for i in range(k):
        rot[f"a{i}"] = (f"a{(i + 1) % k}", f"a{(i - 1) % k}", f"b{i}")
        rot[f"b{i}"] = (f"b{(i - 1) % k}", f"b{(i + 1) % k}", f"a{i}")
    return build(rot)


def corpus_small():
    """Every family instance with at most 8 faces plus 200+ seeded random
    biconnected graphs in the same range."""
    if "small" in _cache:
        return _cache["small"]
    gs = [k4(), octahedron(), complete_3tree(0)]
    gs += [cycle(n) for n in range(3, 9)]
    gs += [fan(n) for n in range(3, 9)]
    gs += [random_triangulation(n, seed=s)
           for n in range(4, 7) for s in range(3)]
    base = len(gs)
    i = 0
    for n in range(4, 10):
        for extra in range(0, 7):
            m = n + extra
            if m > 3 * n - 6:
                continue
            for rep in range(6):
                gs.append(random_biconnected(n, m, seed=1000 * i + rep))
            i += 1
    assert len(gs) - base >= 200
    assert all(len(g.faces) <= 8 for g in gs)
    _cache["small"] = gs
    return gs


def corpus_mid():
    """500+ seeded instances with at most 20 faces, plus the families."""
    if "mid" in _cache:
        return _cache["mid"]
    gs = [k4(), octahedron(), icosahedron(), complete_3tree(0),
          complete_3tree(1)]
    gs += [cycle(n) for n in range(3, 11)]
    gs += [fan(n) for n in range(3, 13)]
    gs += [random_triangulation(n, seed=s)
           for n in range(6, 13) for s in (0, 1)]
    seeded = 0
    i = 0
    for n in range(4, 13):
        for m in range(n, min(3 * n - 6, n + 18) + 1):
            for rep in range(6):
                try:
                    g = random_biconnected(n, m, seed=7000000 + 1000 * i + rep)
                except InfeasibleParameters:
                    continue  # a rare thinning dead end; seeds are fixed
                gs.append(g)
                seeded += 1
            i += 1
    assert seeded >= 500
    assert all(len(g.faces) <= 20 for g in gs)
    _cache["mid"] = gs
    return gs


def mid_covers():
    """(graph, minimum cover, minimum dual feedback size) per mid-corpus
    instance; criteria 2 and 3 both consume this."""
    if "mid_covers" in _cache:
        return _cache["mid_covers"]
    rows = []
    for g in corpus_mid():
        gg = _designated(g)
        cover = brute_min_cfc(gg)
        fvs = min_fvs(dual(gg))
        rows.append((gg, cover, len(fvs.nodes)))
    _cache["mid_covers"] = rows
    return rows


def triangulation_sweep():
    if "sweep" in _cache:
        return _cache["sweep"]
    rows = []
    for n in range(8, 15):
        for seed in range(15):
            g = random_triangulation(n, seed=seed)
            rows.append((g, solve_osn(g).osn))
    _cache["sweep"] = rows
    return rows


def cubic_corpus():
    # every cubic biconnected instance up to 10 vertices we generate:
    # K4, the triangular prism, the cube, the pentagonal prism
    return [k4(), prism(3), prism(4), prism(5)]


def test_criterion_1_split_search_matches_cover_oracle(criterion):
    start = time.monotonic()
    gs = corpus_small()
    mismatches = 0
    for g in gs:
        gg = _designated(g)
        by_splits = brute_osn_by_splits(gg)
        by_cover = len(brute_min_cfc(gg).faces) - 1
        if by_splits != by_cover:
            mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 120.0
    criterion(f"criterion 1 (split search equals cover size minus one): "
              f"PASS - {len(gs)} instances, 0 mismatches, {elapsed:.1f}s")


def two_blocks(g1, g2):
    """g1 and a copy of g2 joined at the least vertex v of g1 and w of
    g2: at a cut vertex, once for each gap of v's rotation that w's
    rotation can fill, and by a bridge vw."""
    v, w = min(g1.rotation), min(g2.rotation)

    def copy(w_name):
        name = {u: "x" + u for u in g2.rotation}
        name[w] = w_name
        return {name[u]: tuple(map(name.get, nbrs))
                for u, nbrs in g2.rotation.items()}

    around_v = g1.rotation[v]
    for i in range(len(around_v)):
        second = copy(v)
        rot = {**g1.rotation, **second}
        rot[v] = around_v[:i] + second[v] + around_v[i:]
        yield build(rot)
    rot = {**g1.rotation, **copy("x" + w)}
    rot[v] = around_v + ("x" + w,)
    rot["x" + w] += (v,)
    yield build(rot)


def test_split_search_matches_cover_oracle_on_two_blocks():
    """Criterion 1 beyond biconnected graphs: on two blocks joined at a
    cut vertex or by a bridge, split search still equals the least
    connected face cover minus one.  The paper proves this for
    biconnected graphs only; this checks the first step towards solving
    every connected plane graph."""
    blocks = [cycle(3), cycle(4), k4(), fan(3)]
    graphs = [g for g1 in blocks for g2 in blocks for g in two_blocks(g1, g2)]
    assert len(graphs) == 56
    for g in graphs:
        gg = _designated(g)
        assert not is_biconnected(gg)
        assert len(gg.faces) <= 8
        assert brute_osn_by_splits(gg) == len(brute_min_cfc(gg).faces) - 1


def test_criterion_2_dual_feedback_matches_cover_oracle(criterion):
    start = time.monotonic()
    rows = mid_covers()
    mismatches = sum(1 for _, cover, fvs_size in rows
                     if fvs_size != len(cover.faces))
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 120.0
    criterion(f"criterion 2 (dual feedback size equals cover size): "
              f"PASS - {len(rows)} instances, 0 mismatches, {elapsed:.1f}s")


def test_criterion_3_every_minimum_cover_realizes(criterion):
    rows = mid_covers()
    for gg, cover, _ in rows:
        seq = realize_cover(gg, cover)
        assert len(seq) == len(cover.faces) - 1
        assert is_outerplane(replay(gg, seq))
    criterion(f"criterion 3 (every minimum cover realizes as splits): "
              f"PASS - {len(rows)} covers, all outerplane")


def test_criterion_4_any_feedback_set_certifies(criterion):
    def acyclic(nodes, edges):
        parent = {u: u for u in nodes}

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
        return True

    graphs = [g for g in corpus_small() if len(g.faces) >= 2][:40]
    rng = random.Random(99)
    samples = 0
    failures = 0
    for g in graphs:
        gg = _designated(g)
        d = dual(gg)
        nodes = sorted(d.nodes)
        for _ in range(30):
            s = {u for u in nodes if rng.random() < 0.4}
            while not acyclic(
                    [u for u in nodes if u not in s],
                    [e for e in d.edges
                     if e[0] not in s and e[1] not in s]):
                s.add(rng.choice([u for u in nodes if u not in s]))
            kept = tuple(u for u in nodes if u not in s)
            sol = FvsSolution(
                nodes=frozenset(s),
                certificate=ForestCertificate(
                    nodes=kept,
                    edges=tuple(e for e in d.edges
                                if e[0] not in s and e[1] not in s)))
            samples += 1
            try:
                cover = fvs_to_cover(gg, sol)
                assert cover.faces == sol.nodes
            except CertificateFailure:
                failures += 1
    assert samples >= 1000
    assert failures == 0
    criterion(f"criterion 4 (every dual feedback set is a connected cover): "
              f"PASS - {samples} sampled sets, 0 certificate failures")


def test_criterion_5_exact_small_values(criterion):
    # solver and both oracles, per instance
    assert solve_osn(k4()).osn == 1
    assert brute_osn_by_splits(k4()) == 1
    assert len(brute_min_cfc(k4()).faces) - 1 == 1

    t1 = complete_3tree(1)
    assert solve_osn(t1).osn == 2
    assert len(brute_min_cfc(t1).faces) - 1 == 2
    assert brute_osn_by_splits(t1, face_cap=10) == 2

    for n in range(3, 9):
        g = cycle(n)
        assert solve_osn(g).osn == 0
        assert brute_osn_by_splits(g) == 0
        assert len(brute_min_cfc(g).faces) - 1 == 0
    criterion("criterion 5 (exact small values): PASS - "
              "osn(K4)=1, osn(T_1)=2, osn(cycle)=0 on all three solvers")


def test_criterion_6_vertex_cover_equals_face_cover(criterion):
    checked = []
    for g in cubic_corpus():
        assert g.n <= 10
        assert is_biconnected(g)
        inst = build_cfc_instance(g)
        vc = len(brute_min_vc(g))
        cfc = len(brute_min_cfc(inst.dstar).faces)
        assert vc == cfc
        checked.append(f"n={g.n}:{vc}")
    criterion(f"criterion 6 (vertex cover equals face cover of the "
              f"subdivided dual): PASS - {', '.join(checked)}")


def test_criterion_7_bound_sweep(criterion):
    rows = triangulation_sweep()
    assert len(rows) >= 100
    for g, osn in rows:
        assert 8 <= g.n <= 14
        assert osn >= math.ceil((g.n - 3) / 2)
        if min(len(r) for r in g.rotation.values()) == 3:
            assert osn <= math.floor(upper_bound(g))

    family = []
    for d in (0, 1, 2):
        t_start = time.monotonic()
        osn = solve_osn(complete_3tree(d)).osn
        elapsed = time.monotonic() - t_start
        assert osn >= lower_bound_3tree(d)
        if d == 2:
            assert elapsed < 10.0
        family.append(f"T_{d}={osn}")
    criterion(f"criterion 7 (bound sweep): PASS - {len(rows)} "
              f"triangulations inside both bounds; {', '.join(family)}")


def test_criterion_8_structural_invariants(criterion):
    suite = (corpus_small() + corpus_mid() + cubic_corpus()
             + [g for g, _ in triangulation_sweep()])
    for g in suite:
        # Euler formula
        assert g.n - g.m + len(g.faces) == 2
        # every directed slot lies on exactly one face boundary
        slots = [(u, v) for u in g.rotation for v in g.rotation[u]]
        on_faces = [s for f in g.faces for s in f.boundary]
        assert len(on_faces) == 2 * g.m
        assert sorted(on_faces) == sorted(slots)
        # serialization round trip
        back = parse_rot(serialize_rot(g))
        assert back.rotation == g.rotation
        assert back.outer_face == g.outer_face
        assert serialize_rot(back) == serialize_rot(g)
        # one split's bookkeeping: V+1, E unchanged, F-1
        gg = _designated(g)
        for v in sorted(gg.rotation):
            fids = sorted({gg.face_of_slot((u, v)) for u in gg.rotation[v]})
            if len(fids) >= 2:
                g2, _ = split_vertex(gg, v, fids[0], fids[1])
                assert g2.n == gg.n + 1
                assert g2.m == gg.m
                assert len(g2.faces) == len(gg.faces) - 1
                break
        else:
            pytest.fail(f"no splittable vertex in a {g.n}-vertex instance")

    # per-operation bookkeeping along full realization sequences
    stepped = 0
    for gg, cover, _ in mid_covers()[:30]:
        cur = gg
        for op in realize_cover(gg, cover).ops:
            nxt = replay(cur, SplitSequence(ops=(op,)))
            assert nxt.n == cur.n + 1
            assert nxt.m == cur.m
            assert len(nxt.faces) == len(cur.faces) - 1
            cur = nxt
            stepped += 1
    criterion(f"criterion 8 (structural invariants): PASS - {len(suite)} "
              f"instances, {stepped} replay steps checked")
