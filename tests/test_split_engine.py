from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outersplit import (
    FaceCover,
    SplitOp,
    SplitSequence,
    build,
    extract_cover,
    face_cover,
    fan,
    is_outerplane,
    merge_faces_at_vertex,
    octahedron,
    parse_rot,
    parse_splits,
    random_biconnected,
    random_triangulation,
    realize_cover,
    replay,
    serialize_splits,
    solve_osn,
    split_vertex,
    with_outer_face,
)
from outersplit.errors import (
    DanglingVertex,
    InvalidCover,
    NotIncident,
    NotOuterplane,
    ReplayFailure,
    SameFace,
)


def k4():
    return with_outer_face(build({
        "a": ("b", "c", "d"),
        "b": ("c", "a", "d"),
        "c": ("a", "b", "d"),
        "d": ("a", "c", "b"),
    }), 0)


def prism(k):
    rot = {}
    for i in range(k):
        rot[f"a{i}"] = (f"a{(i + 1) % k}", f"a{(i - 1) % k}", f"b{i}")
        rot[f"b{i}"] = (f"b{(i - 1) % k}", f"b{(i + 1) % k}", f"a{i}")
    return build(rot)


def cyclic_arcs(before, rot_1, rot_2):
    """True iff rot_1 and rot_2 partition before into two contiguous
    cyclic intervals."""
    n = len(before)
    doubled = before + before
    def is_arc(arc):
        if not arc:
            return False
        for i in range(n):
            if tuple(doubled[i:i + len(arc)]) == tuple(arc):
                return True
        return False
    return (sorted(rot_1 + rot_2) == sorted(before)
            and is_arc(rot_1) and is_arc(rot_2))


def test_split_counts_and_names():
    g = k4()
    g2, op = split_vertex(g, "d", 0, 2)
    assert op == SplitOp(vertex="d", face_a=0, face_b=2,
                         copy_1="d.1", copy_2="d.2")
    assert g2.n == g.n + 1
    assert g2.m == g.m
    assert len(g2.faces) == len(g.faces) - 1
    assert "d" not in g2.rotation


def test_split_arc_convention():
    # frozen from the implementation after checking it by hand: the copy
    # keeping the rotation segment that starts at face_a's corner is d.2
    g2, _ = split_vertex(k4(), "d", 0, 2)
    assert g2.rotation["d.1"] == ("c", "b")
    assert g2.rotation["d.2"] == ("a",)
    assert cyclic_arcs(("a", "c", "b"), g2.rotation["d.1"],
                       g2.rotation["d.2"])


def test_split_arcs_are_contiguous_everywhere():
    g = prism(4)
    for v in list(g.rotation):
        fids = sorted({g.face_of_slot((u, v)) for u in g.rotation[v]})
        for i, fa in enumerate(fids):
            for fb in fids[i + 1:]:
                g2, op = split_vertex(g, v, fa, fb)
                assert cyclic_arcs(g.rotation[v],
                                   g2.rotation[op.copy_1],
                                   g2.rotation[op.copy_2])
                assert g2.n - g2.m + len(g2.faces) == 2


def test_split_records_the_faces_it_was_given():
    # the op reads the ids of the faces at both gaps before the split
    for g in (octahedron(), random_biconnected(9, 12, 0)):
        for v in g.rotation:
            fids = {g.face_of_slot((u, v)) for u in g.rotation[v]}
            for a, b in permutations(sorted(fids), 2):
                op = split_vertex(g, v, a, b)[1]
                assert (op.vertex, op.face_a, op.face_b) == (v, a, b)


def test_copies_skip_taken_names():
    # K4 with a vertex already named a.1: splitting a takes the first
    # pair of free names, a.3 and a.4
    g = parse_rot("4 6\na: b c a.1\nb: c a a.1\nc: a b a.1\n"
                  "a.1: a c b\n")
    res = solve_osn(g)
    assert res.osn == 1
    assert serialize_splits(res.splits) == "SPLIT a 0 1 -> a.3 a.4\n"
    seq = parse_splits(serialize_splits(res.splits))
    assert is_outerplane(replay(g, seq))
    assert extract_cover(g, seq).faces == res.cover.faces


def test_split_rejects_same_face():
    with pytest.raises(SameFace):
        split_vertex(k4(), "d", 0, 0)


def test_split_rejects_non_incident_face():
    # face 1 is the only face missing d
    with pytest.raises(NotIncident):
        split_vertex(k4(), "d", 0, 1)
    with pytest.raises(NotIncident):
        split_vertex(k4(), "zz", 0, 1)
    for far in (9, -1):
        with pytest.raises(NotIncident, match=f"^face {far} does not exist$"):
            split_vertex(k4(), "a", far, 0)


def test_split_rejects_degree_one_vertex():
    # triangle with a pendant hanging off a, so two faces exist
    g = build({"a": ("b", "c", "d"), "b": ("c", "a"), "c": ("a", "b"),
               "d": ("a",)})
    assert len(g.faces) == 2
    with pytest.raises(DanglingVertex):
        split_vertex(g, "d", 0, 1)


def test_merge_faces_at_vertex():
    g = k4()
    g2, ops = merge_faces_at_vertex(g, "d", [0, 2, 3])
    assert [(o.vertex, o.copy_1, o.copy_2) for o in ops] == [
        ("d", "d.1", "d.2"), ("d.1", "d.1.1", "d.1.2")]
    assert len(g2.faces) == 2
    assert is_outerplane(g2)
    assert g2.n == 6
    seq = SplitSequence(ops=tuple(ops))
    assert extract_cover(g, seq).faces == {0, 2, 3}


def test_merge_rejects_faces_not_at_the_vertex():
    g = k4()
    with pytest.raises(NotIncident):
        merge_faces_at_vertex(g, "zz", [0, 2])
    for missing in (9, -1):  # no such face
        with pytest.raises(NotIncident):
            merge_faces_at_vertex(g, "d", [0, missing])
    # face 1 is the only face missing d; a lone face is checked too
    for faces in ([0, 1], [1]):
        with pytest.raises(NotIncident):
            merge_faces_at_vertex(g, "d", faces)


def test_face_cover_certificate():
    cover = face_cover(k4(), [0, 1])
    assert cover.faces == frozenset((0, 1))
    assert cover.tree[0][1] == min(cover.faces) == 0
    # the tree must connect both faces through shared vertices
    assert len(cover.tree) >= 2


def test_face_cover_rejects_bad_input():
    g = k4()
    with pytest.raises(InvalidCover):
        face_cover(g, [])
    with pytest.raises(InvalidCover):
        face_cover(g, [0, 9])
    with pytest.raises(InvalidCover):
        face_cover(g, [0])  # misses c
    # prism triangles cover everything but never touch
    p = prism(3)
    tri = [f.id for f in p.faces if len(f) == 3]
    assert len(tri) == 2
    with pytest.raises(InvalidCover):
        face_cover(p, tri)


def test_realize_cover_recertifies_its_cover():
    # a cover made by hand, not by face_cover, is checked again
    g = k4()
    with pytest.raises(InvalidCover):
        realize_cover(g, FaceCover(faces=frozenset({0}),
                                   tree=(("a", 0), ("b", 0), ("d", 0))))
    p = prism(3)
    tri = frozenset(f.id for f in p.faces if len(f) == 3)
    with pytest.raises(InvalidCover):
        realize_cover(p, FaceCover(faces=tri, tree=()))


def test_realize_cover_k4():
    g = k4()
    cover = face_cover(g, [0, 1])
    seq = realize_cover(g, cover)
    assert len(seq) == 1
    assert seq.ops[0].vertex == "a"
    final = replay(g, seq)
    assert is_outerplane(final)
    assert seq.origin == {"a.1": "a", "a.2": "a"}


def test_realize_cover_is_size_minus_one():
    g = prism(3)
    quads = sorted(f.id for f in g.faces if len(f) == 4)
    cover = face_cover(g, quads)
    seq = realize_cover(g, cover)
    assert len(seq) == len(quads) - 1
    assert is_outerplane(replay(g, seq))


def test_zero_split_cover():
    g = with_outer_face(
        build({"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b")}), 0)
    seq = realize_cover(g, face_cover(g, [0]))
    assert len(seq) == 0
    assert replay(g, seq) is not None


def test_extract_cover_round_trip():
    g = k4()
    for faces in ([0, 1], [0, 2], [1, 3], [0, 2, 3]):
        cover = face_cover(g, faces)
        seq = realize_cover(g, cover)
        assert extract_cover(g, seq).faces == frozenset(faces)


def test_extract_cover_requires_outerplane_result():
    with pytest.raises(NotOuterplane):
        extract_cover(k4(), SplitSequence(ops=()))


def test_replay_checks_copy_names():
    g = k4()
    seq = realize_cover(g, face_cover(g, [0, 1]))
    renamed = SplitSequence(
        ops=(SplitOp(vertex="a", face_a=0, face_b=1,
                     copy_1="x.1", copy_2="x.2"),))
    with pytest.raises(ReplayFailure):
        replay(g, renamed)
    bad_face = SplitSequence(
        ops=(SplitOp(vertex="a", face_a=0, face_b=0,
                     copy_1="a.1", copy_2="a.2"),))
    with pytest.raises(ReplayFailure):
        replay(g, bad_face)
    far_face = parse_splits("SPLIT a 0 9 -> a.1 a.2\n")
    with pytest.raises(ReplayFailure,
                       match=r"^step 0 \(.*\): face 9 does not exist$"):
        replay(g, far_face)


def test_split_bookkeeping_step_by_step():
    g = prism(5)
    cover = face_cover(g, sorted(f.id for f in g.faces if len(f) == 4))
    seq = realize_cover(g, cover)
    cur = g
    for op in seq.ops:
        nxt = replay(cur, SplitSequence(ops=(op,)))
        assert nxt.n == cur.n + 1
        assert nxt.m == cur.m
        assert len(nxt.faces) == len(cur.faces) - 1
        cur = nxt
    assert is_outerplane(cur)


def assert_realizes(g, faces):
    cover = face_cover(g, faces)
    seq = realize_cover(g, cover)
    assert len(seq) == len(cover.faces) - 1
    assert is_outerplane(replay(g, seq))
    assert extract_cover(g, seq).faces == cover.faces


def test_cover_prefilter_matches_face_cover(every_connected_cover):
    for g, covers in every_connected_cover:
        if len(g.faces) > 8:
            continue
        accepted = []
        for size in range(1, len(g.faces) + 1):
            for combo in combinations(range(len(g.faces)), size):
                try:
                    face_cover(g, combo)
                except InvalidCover:
                    continue
                accepted.append(combo)
        assert covers == accepted


def test_every_connected_cover_realizes(every_connected_cover):
    for g, covers in every_connected_cover:
        for faces in covers:
            assert_realizes(g, faces)


def test_non_minimum_cover_of_small_triangulation():
    assert_realizes(random_triangulation(8, seed=2), (0, 3, 6, 10, 11))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(6, 14), seed=st.integers(0, 50), data=st.data())
def test_supersets_of_the_minimum_cover_realize(n, seed, data):
    # Every added face touches a covered vertex, so any superset of a
    # connected cover is again a connected cover.
    g = random_triangulation(n, seed=seed)
    base = solve_osn(g).cover.faces
    extra = data.draw(st.sets(st.sampled_from(range(len(g.faces)))))
    assert_realizes(g, base | extra)
