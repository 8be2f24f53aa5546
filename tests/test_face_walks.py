"""The package's face readers, which read a PlaneGraph's walks and slot
map, agree with the Face records of PlaneGraph.faces.

Each reader is compared with the same question answered from the
records, on traced graphs and on graphs derived by splits, whose faces
are renumbered by id when the graph is built: every prefix of
solve_osn's split sequences, and random split chains on graphs that are
not biconnected.  Solving, replaying, writing, drawing, reducing and the
brute-force oracles build no records at all.
"""

import random
from itertools import combinations

import pytest

from outersplit import (
    brute_min_cfc,
    brute_osn_by_splits,
    build,
    build_cfc_instance,
    complete_3tree,
    cycle,
    dual,
    fan,
    icosahedron,
    is_biconnected,
    k4,
    octahedron,
    outerplane_face,
    parse_rot,
    random_biconnected,
    random_triangulation,
    render,
    replay,
    report,
    serialize_rot,
    solve_osn,
    split_vertex,
    with_outer_face,
)
from outersplit.bounds import lower_bound_generic
from outersplit.plane_graph import PlaneGraph

BOWTIE = {"a": ("b", "x"), "b": ("x", "a"), "c": ("d", "x"),
          "d": ("x", "c"), "x": ("b", "a", "d", "c")}
STAR = {"x": ("a", "b", "c", "d"), "a": ("x",), "b": ("x",), "c": ("x",),
        "d": ("x",)}


def records_outerplane_face(g):
    everyone = frozenset(g.rotation)
    if (g.outer_face is not None
            and g.faces[g.outer_face].incident_vertices == everyone):
        return g.outer_face
    return next((f.id for f in g.faces if f.incident_vertices == everyone),
                None)


def assert_readers_match_records(g):
    faces = g.faces
    comments = [line for line in serialize_rot(g).splitlines()
                if line.startswith("# ")]
    assert comments == [
        f"# {f.id}: " + " ".join(u for u, _ in f.boundary) for f in faces]
    assert outerplane_face(g) == records_outerplane_face(g)
    assert is_biconnected(g) == (
        g.n >= 3 and all(len(f) == len(f.incident_vertices) for f in faces))
    d = dual(g)
    assert d.nodes == tuple(f.id for f in faces)
    assert d.edges == tuple(sorted(
        tuple(sorted((g.face_of_slot((u, v)), g.face_of_slot((v, u)))))
        for u, v in g.edges()))
    assert report(g).lower_generic == lower_bound_generic(
        g.n, max(len(f.incident_vertices) for f in faces))


def traced_graphs():
    yield k4()
    yield octahedron()
    yield icosahedron()
    yield complete_3tree(2)
    yield cycle(5)
    yield fan(6)
    yield build(BOWTIE)
    yield build(STAR)
    for seed in range(3):
        yield random_triangulation(9 + 3 * seed, seed=seed)
        yield random_biconnected(12, 16 + seed, seed=seed)


def test_traced_graphs_under_every_designation():
    for g in traced_graphs():
        assert_readers_match_records(g)
        for fid in range(len(g.faces)):
            assert_readers_match_records(with_outer_face(g, fid))


def test_every_prefix_of_the_solver_splits():
    graphs = [complete_3tree(2), icosahedron()]
    graphs += [random_triangulation(14, seed=s) for s in range(3)]
    graphs += [random_biconnected(20, 26, seed=s) for s in range(3)]
    for g in graphs:
        cur = g
        for op in solve_osn(g).splits.ops:
            cur, _ = split_vertex(cur, op.vertex, op.face_a, op.face_b)
            assert_readers_match_records(cur)
            # face ids follow the smallest slots
            firsts = [walk[:2] for walk in cur.walks]
            assert firsts == sorted(firsts)
        assert outerplane_face(cur) is not None


def test_random_split_chains_on_graphs_with_cut_vertices():
    rng = random.Random(3)
    for rot in (BOWTIE, STAR, {**BOWTIE, "e": ("x",),
                               "x": ("b", "a", "e", "d", "c")}):
        for _ in range(5):
            cur = build(rot)
            while True:
                at = {v: sorted({cur.face_of_slot((u, v)) for u in nbrs})
                      for v, nbrs in sorted(cur.rotation.items())}
                choices = [(v, a, b) for v, fids in at.items()
                           for a, b in combinations(fids, 2)]
                if not choices:
                    break
                cur, _ = split_vertex(cur, *rng.choice(choices))
                assert_readers_match_records(cur)


def test_solve_and_write_build_no_face_records(monkeypatch):
    def no_records(g):
        raise AssertionError("Face records were built")

    monkeypatch.setattr(PlaneGraph, "faces", property(no_records))
    for g in (k4(), icosahedron(), complete_3tree(3),
              random_triangulation(30, seed=1),
              random_biconnected(40, 55, seed=2)):
        g = parse_rot(serialize_rot(g))
        res = solve_osn(g)
        final = replay(g, res.splits)
        assert outerplane_face(final) is not None
        serialize_rot(final)
        report(g, res.osn)
    fan(6)
    render(k4())
    build_cfc_instance(k4())
    brute_min_cfc(k4())
    brute_osn_by_splits(k4())
    with pytest.raises(AssertionError, match="Face records"):
        k4().faces
