import pytest

from outersplit import (
    build,
    dual,
    is_biconnected,
    is_outerplane,
    outerplane_face,
    split_vertex,
    with_outer_face,
)
from outersplit.errors import (
    AsymmetricRotation,
    Disconnected,
    NotPlanar,
    OuterFaceUnset,
    ParallelEdge,
    SelfLoop,
    UnknownNode,
)
from outersplit.plane_graph import DualGraph, PlaneGraph


def triangle():
    return with_outer_face(
        build({"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b")}), 0)


def k4():
    return with_outer_face(build({
        "a": ("b", "c", "d"),
        "b": ("c", "a", "d"),
        "c": ("a", "b", "d"),
        "d": ("a", "c", "b"),
    }), 0)


def bowtie():
    # two triangles sharing the cut vertex x
    return build({
        "a": ("b", "x"), "b": ("x", "a"),
        "c": ("d", "x"), "d": ("x", "c"),
        "x": ("b", "a", "d", "c"),
    })


def test_triangle_has_two_faces():
    g = triangle()
    assert g.n == 3 and g.m == 3
    assert len(g.faces) == 2
    for f in g.faces:
        assert f.incident_vertices == frozenset("abc")
        assert len(f) == 3


def test_k4_face_ids_are_canonical():
    g = k4()
    got = [(f.id, sorted(f.incident_vertices)) for f in g.faces]
    assert got == [
        (0, ["a", "b", "d"]),
        (1, ["a", "b", "c"]),
        (2, ["a", "c", "d"]),
        (3, ["b", "c", "d"]),
    ]


def test_face_ids_do_not_depend_on_dict_order():
    rot = {
        "a": ("b", "c", "d"),
        "b": ("c", "a", "d"),
        "c": ("a", "b", "d"),
        "d": ("a", "c", "b"),
    }
    g1 = build(rot)
    g2 = build(dict(reversed(list(rot.items()))))
    assert g1.rotation == g2.rotation
    assert g1.outer_face == g2.outer_face
    assert [f.boundary for f in g1.faces] == [f.boundary for f in g2.faces]


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build({"a": ("a", "b"), "b": ("a",)})


def test_build_rejects_repeated_neighbor():
    with pytest.raises(ParallelEdge):
        build({"a": ("b", "b"), "b": ("a", "a")})


def test_build_rejects_asymmetric_rotation():
    with pytest.raises(AsymmetricRotation):
        build({"a": ("b",), "b": ()})
    with pytest.raises(AsymmetricRotation):
        build({"a": ("b",)})


def test_build_rejects_disconnected():
    with pytest.raises(Disconnected):
        build({"a": ("b",), "b": ("a",), "c": ("d",), "d": ("c",)})


def test_build_rejects_nonplanar_rotation():
    # K4 with every rotation in the same order traces to V - E + F = 0
    with pytest.raises(NotPlanar):
        build({
            "a": ("b", "c", "d"),
            "b": ("a", "c", "d"),
            "c": ("a", "b", "d"),
            "d": ("a", "b", "c"),
        })


def test_build_rejects_edgeless_graphs():
    for rot in ({}, {"a": ()}):
        with pytest.raises(NotPlanar, match="no edges"):
            build(rot)


def test_degree_one_vertices_are_allowed():
    g = build({"a": ("b",), "b": ("a", "c"), "c": ("b",)})
    assert len(g.faces) == 1
    # each edge contributes both its slots to the single walk
    assert len(g.faces[0]) == 4
    assert is_outerplane(g)


def test_edges_and_degree():
    g = k4()
    assert g.edges() == (("a", "b"), ("a", "c"), ("a", "d"),
                         ("b", "c"), ("b", "d"), ("c", "d"))
    assert all(g.degree(v) == 3 for v in "abcd")


def test_euler_and_slot_partition():
    for g in (triangle(), k4(), bowtie()):
        assert g.n - g.m + len(g.faces) == 2
        assert sum(len(f) for f in g.faces) == 2 * g.m


def test_face_of_slot_covers_every_slot():
    g = k4()
    for v, nbrs in g.rotation.items():
        for u in nbrs:
            fid = g.face_of_slot((u, v))
            assert (u, v) in g.faces[fid].boundary


def test_dual_of_k4_is_k4():
    d = dual(k4())
    assert sorted(d.nodes) == [0, 1, 2, 3]
    assert d.m == 6
    assert all(deg == 3 for deg in d.degrees().values())
    assert not d.has_self_loop()


def test_dual_of_triangle_has_parallel_edges():
    d = dual(triangle())
    assert sorted(d.nodes) == [0, 1]
    assert d.edges == ((0, 1), (0, 1), (0, 1))


def test_dual_degree_equals_boundary_length():
    g = k4()
    degs = dual(g).degrees()
    for f in g.faces:
        assert degs[f.id] == len(f)


@pytest.mark.parametrize("nodes, edges, missing", [
    ((0,), ((0, 1),), 1),
    ((1,), ((0, 1),), 0),
    ((0, 1), ((0, 1), (1, 7), (0, 1)), 7),
])
def test_dual_degrees_reject_edges_to_missing_nodes(nodes, edges, missing):
    d = DualGraph(nodes=nodes, edges=edges)
    with pytest.raises(UnknownNode, match=f"end {missing} is not a node"):
        d.degrees()


def test_is_biconnected():
    assert is_biconnected(triangle())
    assert is_biconnected(k4())
    assert not is_biconnected(bowtie())
    assert not is_biconnected(build({"a": ("b",), "b": ("a", "c"),
                                     "c": ("b",)}))


def test_is_outerplane():
    assert is_outerplane(triangle())
    assert not is_outerplane(k4())
    # one split of the center vertex makes K4 outerplane
    g2, _ = split_vertex(k4(), "a", 0, 1)
    assert is_outerplane(g2)


def test_outerplane_face_prefers_designation():
    g = triangle()
    assert outerplane_face(g) == 0
    assert outerplane_face(with_outer_face(g, 1)) == 1
    assert outerplane_face(k4()) is None


def test_with_outer_face_validates_range():
    with pytest.raises(OuterFaceUnset):
        with_outer_face(triangle(), 5)


@pytest.mark.parametrize("outer", [True, 7, -1, "x"])
def test_plane_graph_rejects_an_outer_face_that_is_no_face_id(outer):
    # -1 would otherwise read as the last face, and True would be
    # written as a word that parse_rot rejects
    g = k4()
    with pytest.raises(OuterFaceUnset):
        PlaneGraph(g.rotation, g.walks, g.slot_face, outer)
    assert PlaneGraph(g.rotation, g.walks, g.slot_face, 3).outer_face == 3
