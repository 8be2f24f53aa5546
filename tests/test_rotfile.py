import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from outersplit import (
    build,
    complete_3tree,
    cycle,
    face_cover,
    FamilySpec,
    fan,
    generate,
    icosahedron,
    k4,
    octahedron,
    parse_rot,
    parse_splits,
    PlaneGraph,
    random_biconnected,
    random_triangulation,
    realize_cover,
    replay,
    serialize_rot,
    serialize_splits,
    SplitOp,
    SplitSequence,
    with_outer_face,
)
from outersplit.errors import (
    AsymmetricRotation,
    OuterFaceUnset,
    ParallelEdge,
    ParseError,
    UnwritableName,
)

K4_TEXT = """\
# the complete graph on four vertices
4 6
a: b c d
b: c a d
c: a b d
d: a c b
faces
# 0: a b d
outer: 0
"""


def test_parse_documented_example():
    g = parse_rot(K4_TEXT)
    assert g.n == 4 and g.m == 6
    assert g.outer_face == 0
    assert g.rotation["d"] == ("a", "c", "b")


def test_round_trip_families():
    graphs = [k4(), octahedron(), icosahedron(), complete_3tree(2),
              cycle(6), fan(5), random_triangulation(7, seed=1),
              random_biconnected(7, 10, seed=2)]
    for g in graphs:
        text = serialize_rot(g)
        h = parse_rot(text)
        assert h.rotation == g.rotation
        assert h.outer_face == g.outer_face
        assert serialize_rot(h) == text


def _format_rot(g):
    """serialize_rot's text, built one line at a time."""
    out = [f"{g.n} {g.m}"]
    for v in sorted(g.rotation):
        out.append(f"{v}: " + " ".join(g.rotation[v]) if g.rotation[v]
                   else f"{v}:")
    out.append("faces")
    for fid, walk in enumerate(g.walks):
        out.append(f"# {fid}: " + " ".join(walk))
    if g.outer_face is not None:
        out.append(f"outer: {g.outer_face}")
    return "\n".join(out) + "\n"


# every family generate makes, the sized ones at two sizes each
FAMILY_SPECS = [
    FamilySpec("k4"), FamilySpec("octahedron"), FamilySpec("icosahedron"),
    FamilySpec("cycle", n=3), FamilySpec("cycle", n=9),
    FamilySpec("fan", n=3), FamilySpec("fan", n=8),
    FamilySpec("complete_3tree", d=0), FamilySpec("complete_3tree", d=3),
    FamilySpec("random_triangulation", n=4, seed=2),
    FamilySpec("random_triangulation", n=60, seed=1),
    FamilySpec("random_biconnected", n=3, m=3),
    FamilySpec("random_biconnected", n=40, m=55, seed=3),
]


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=repr)
def test_serialize_matches_the_line_by_line_format(spec):
    g = generate(spec)
    # build leaves outer_face None, so no outer: line is written
    for h in (g, build(g.rotation)):
        text = serialize_rot(h)
        assert text == _format_rot(h)
        back = parse_rot(text)
        assert back.rotation == h.rotation
        assert back.outer_face == h.outer_face


def test_serialize_writes_a_bare_line_for_an_empty_rotation():
    # build refuses a graph without edges, so only a PlaneGraph made
    # directly can hold a vertex without neighbors
    g = PlaneGraph({"a": ()}, (), {})
    assert serialize_rot(g) == _format_rot(g) == "1 0\na:\nfaces\n"


def test_outer_face_must_be_an_int():
    g = k4()
    for fid in range(len(g.walks)):
        h = parse_rot(serialize_rot(with_outer_face(g, fid)))
        assert h.outer_face == fid
    for bad in (True, False, 1.0, "1", None):
        with pytest.raises(OuterFaceUnset):
            with_outer_face(g, bad)


def test_parse_without_faces_block():
    text = "3 3\na: b c\nb: c a\nc: a b\n"
    g = parse_rot(text)
    assert g.outer_face is None


def test_parse_errors_carry_line_numbers():
    cases = [
        ("", 0, "empty"),
        ("4 six\n", 1, "header"),
        ("3 3\na: b c\na: b c\nc: a b\n", 3, "duplicate"),
        ("3 3\na: b b\nb: a a\nc:\n", 2, "repeats"),
        ("3 3\na: b c\nb: c a\n", 3, "vertex lines"),
        ("3 4\na: b c\nb: c a\nc: a b\n", 1, "edges"),
        ("3 3\na: b c\nb: c a\nc: a b\nwhat\n", 5, "unexpected"),
        ("3 3\na: b c\nb: c a\nc: a b\nfaces\nouter: x\n", 6, "outer"),
        ("3 3\na: b c\nb: c a\nc: a b\nfaces\nouter: 0\nmore\n", 7,
         "trailing"),
        ("3 3\na: b c\nb: c a\nc: a b\nfaces\nouter: 9\n", 6, "9"),
        ("3 3\na b c\nb: c a\nc: a b\n", 2, "vertex"),
        # digits that str.isdigit accepts and int rejects
        ("3 ³\na: b c\nb: c a\nc: a b\n", 1, "header"),
        ("3 3\na: b c\nb: c a\nc: a b\nfaces\nouter: ²\n", 6, "outer"),
        ("3 3\n: b c\nb: c a\nc: a b\n", 2, "vertex"),
        # two faults: the first one read is reported
        ("3 3\na: b c\nb c a\n", 3, "vertex"),
        ("3 3\na: b c\nfaces\n", 3, "vertex"),
        ("3 3\na: b c\na: b c\n", 3, "duplicate"),
        ("3 3\na: b c\nb: c a\nc: a b\nouter: 0\n", 5, "unexpected"),
        ("3 3\na: b c\nb: c a\nc: a b\nfaces\nfaces\n", 6, "outer"),
        ("3 4\na: b c\nb: c a\nc: a b\nfaces\nouter: 9\n", 1, "edges"),
        ("3 3\na: b b\nb: c a\nc: a b\nfaces\nouter: 9\n", 2, "repeats"),
    ]
    for text, line, needle in cases:
        with pytest.raises(ParseError) as info:
            parse_rot(text)
        assert info.value.line == line
        assert needle in str(info.value)


def test_a_repeated_neighbor_is_a_parse_error_at_its_line():
    # build finds the repeat; parse_rot reports it at the vertex's line
    with pytest.raises(ParseError) as info:
        parse_rot("# two vertices\n2 1\n\nb: a\na: b b\n")
    assert info.value.line == 5
    assert "'a' repeats a neighbor" in str(info.value)
    assert isinstance(info.value.__cause__, ParallelEdge)


def test_structural_errors_are_not_parse_errors():
    # graph-level validation stays with the graph layer
    with pytest.raises(AsymmetricRotation):
        parse_rot("2 1\na: b\nb: c\n")


def test_comments_and_blanks_are_ignored():
    text = "\n# heading\n3 3\n\na: b c  # inline\nb: c a\nc: a b\n\n"
    assert parse_rot(text).n == 3


def test_split_sequence_round_trip():
    g = k4()
    seq = realize_cover(g, face_cover(g, [0, 2, 3]))
    text = serialize_splits(seq)
    back = parse_splits(text)
    assert back.ops == seq.ops
    assert dict(back.origin) == dict(seq.origin)
    assert replay(g, back).n == g.n + len(seq)


def test_split_chain_origin_reconstruction():
    text = "SPLIT d 0 2 -> d.1 d.2\nSPLIT d.1 0 2 -> d.1.1 d.1.2\n"
    seq = parse_splits(text)
    assert dict(seq.origin) == {
        "d.1": "d", "d.2": "d", "d.1.1": "d", "d.1.2": "d"}


def test_empty_split_file():
    assert parse_splits("").ops == ()
    assert serialize_splits(SplitSequence(ops=())) == ""


def test_bad_split_lines():
    for text in ["SPLIT a 0 -> a.1 a.2\n",
                 "CUT a 0 1 -> a.1 a.2\n",
                 "SPLIT a x 1 -> a.1 a.2\n",
                 "SPLIT a ² 1 -> a.1 a.2\n",
                 "SPLIT a 0 ¹ -> a.1 a.2\n",
                 "SPLIT a 0 1 => a.1 a.2\n",
                 "SPLIT a 0 1 -> a.1 a.2 extra\n"]:
        with pytest.raises(ParseError) as info:
            parse_splits(text)
        assert info.value.line == 1


def triangle(name):
    return build({name: ("b", "c"), "b": ("c", name), "c": (name, "b")})


def one_split(name):
    return SplitSequence((SplitOp(name, 0, 1, f"{name}.1", f"{name}.2"),))


@pytest.mark.parametrize("name", ["", " ", "a b", "a\tb", "a\nb", "a#1",
                                  "#", "a\u2028b"])
def test_serializers_reject_unwritable_names(name):
    with pytest.raises(UnwritableName):
        serialize_rot(triangle(name))
    with pytest.raises(UnwritableName):
        serialize_splits(one_split(name))


@given(st.text(max_size=4))
def test_every_written_name_reads_back(name):
    # A name is written exactly when it is one token: non-empty, without
    # whitespace, without '#'.  Whatever is written parses back.
    assume(name not in ("b", "c"))
    writable = bool(name) and "#" not in name and not any(
        ch.isspace() for ch in name)
    g = triangle(name)
    seq = one_split(name)
    try:
        text = serialize_rot(g)
    except UnwritableName:
        assert not writable
    else:
        assert writable
        assert parse_rot(text).rotation == g.rotation
    try:
        text = serialize_splits(seq)
    except UnwritableName:
        assert not writable
    else:
        assert parse_splits(text) == seq
