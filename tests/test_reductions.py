import pytest

from outersplit import (
    CfcInstance,
    FaceCover,
    brute_min_cfc,
    brute_min_vc,
    build,
    build_cfc_instance,
    cfc_to_vc,
    cycle,
    k4,
    vc_to_cfc,
)
from outersplit.errors import (
    CapExceeded,
    NotACover,
    NotAVertexCover,
    NotBiconnected,
    NotCubic,
)


def prism(k):
    rot = {}
    for i in range(k):
        rot[f"a{i}"] = (f"a{(i + 1) % k}", f"a{(i - 1) % k}", f"b{i}")
        rot[f"b{i}"] = (f"b{(i - 1) % k}", f"b{(i + 1) % k}", f"a{i}")
    return build(rot)


def bridged_cubic():
    """Cubic but only 1-connected: two gadgets joined by the bridge u1-u2."""
    rot = {}
    for t in ("1", "2"):
        rot[f"a{t}"] = (f"b{t}", f"c{t}", f"d{t}")
        rot[f"b{t}"] = (f"c{t}", f"a{t}", f"d{t}")
        rot[f"c{t}"] = (f"a{t}", f"b{t}", f"u{t}")
        rot[f"d{t}"] = (f"a{t}", f"u{t}", f"b{t}")
    rot["u1"] = ("c1", "u2", "d1")
    rot["u2"] = ("c2", "u1", "d2")
    return build(rot)


def test_cfc_instance_of_k4():
    inst = build_cfc_instance(k4())
    d = inst.dstar
    assert d.n == 4 + 6
    assert d.m == 12
    assert len(d.faces) == 4
    assert all(len(f) == 6 for f in d.faces)
    assert sorted(inst.vertex_of_face.values()) == ["a", "b", "c", "d"]
    for f, v in inst.vertex_of_face.items():
        assert inst.face_of_vertex[v] == f


def test_cfc_instance_faces_wrap_their_vertex():
    g = prism(4)
    inst = build_cfc_instance(g)
    for f in inst.dstar.faces:
        v = inst.vertex_of_face[f.id]
        # the three edge nodes on the hexagon are exactly v's edges
        subs = {x for x in f.incident_vertices if "~" in x}
        expect = {f"{min(v, w)}~{max(v, w)}" for w in g.rotation[v]}
        assert subs == expect


def test_cfc_instance_edge_names_take_a_tilde_while_taken():
    # K4 with names holding '~': edges (a, b~c) and (a~b, c) both read
    # a~b~c, and the later one in sorted order takes a~b~c~
    g = build({"a": ("b~c", "a~b", "c"), "b~c": ("a~b", "a", "c"),
               "a~b": ("a", "b~c", "c"), "c": ("a", "a~b", "b~c")})
    d = build_cfc_instance(g).dstar
    edge_nodes = sorted(x for x, nbrs in d.rotation.items()
                        if len(nbrs) == 2)
    assert edge_nodes == ["a~a~b", "a~b~b~c", "a~b~c", "a~b~c~", "a~c",
                          "b~c~c"]
    assert sorted(set(d.rotation) - set(edge_nodes)) == [
        "f0", "f1", "f2", "f3"]


def test_build_cfc_instance_rejects_non_cubic():
    tri = build({"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b")})
    with pytest.raises(NotCubic) as info:
        build_cfc_instance(tri)
    assert "a" in str(info.value)


def test_build_cfc_instance_rejects_bridged():
    g = bridged_cubic()
    assert all(len(nbrs) == 3 for nbrs in g.rotation.values())
    with pytest.raises(NotBiconnected):
        build_cfc_instance(g)


def test_brute_min_vc_values():
    tri = build({"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b")})
    assert brute_min_vc(tri) == frozenset(("a", "b"))
    assert len(brute_min_vc(k4())) == 3
    assert len(brute_min_vc(prism(3))) == 4
    assert len(brute_min_vc(prism(4))) == 4
    assert len(brute_min_vc(prism(5))) == 6


def test_brute_min_vc_cap():
    with pytest.raises(CapExceeded):
        brute_min_vc(cycle(21))


def test_cover_sizes_match_across_the_reduction():
    for g in [k4(), prism(3), prism(4), prism(5)]:
        inst = build_cfc_instance(g)
        assert len(brute_min_vc(g)) == len(brute_min_cfc(inst.dstar).faces)


def test_translations_round_trip():
    for g in [k4(), prism(3), prism(4)]:
        inst = build_cfc_instance(g)
        vc = brute_min_vc(g)
        cover = vc_to_cfc(inst, vc)
        assert len(cover.faces) == len(vc)
        assert cfc_to_vc(inst, cover) == vc

        cfc = brute_min_cfc(inst.dstar)
        back = cfc_to_vc(inst, cfc)
        assert len(back) == len(cfc.faces)
        assert vc_to_cfc(inst, back).faces == cfc.faces


def test_vc_to_cfc_rejects_bad_input():
    inst = build_cfc_instance(k4())
    with pytest.raises(NotAVertexCover):
        vc_to_cfc(inst, {"a", "zz"})
    with pytest.raises(NotAVertexCover):
        vc_to_cfc(inst, {"a"})  # edge b-c stays uncovered


def test_cfc_to_vc_rejects_partial_cover():
    inst = build_cfc_instance(k4())
    fake = FaceCover(faces=frozenset((0,)), tree=())
    with pytest.raises(NotACover):
        cfc_to_vc(inst, fake)
