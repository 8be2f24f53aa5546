import math
from xml.etree import ElementTree

from hypothesis import given, settings
from hypothesis import strategies as st

from outersplit import (
    build,
    icosahedron,
    k4,
    layout,
    octahedron,
    outerplane_face,
    parse_rot,
    random_biconnected,
    random_triangulation,
    render,
    replay,
    solve_osn,
    with_outer_face,
)
from outersplit.svg import _degenerate, _outer_cycle, _solve

# the 4-cycle a b c d, face 0, with two inner paths a-x-c and a-y-c: at
# unit weights x and y both sit at the midpoint of a and c
TWO_PATHS = build({"a": ["b", "x", "y", "d"], "b": ["c", "a"],
                   "c": ["d", "y", "x", "b"], "d": ["a", "c"],
                   "x": ["a", "c"], "y": ["c", "a"]})

# K4 with names that XML must escape and one outside ASCII
K4_NAMES = ("4 6\né: a<b a&b d\na<b: a&b é d\na&b: é a<b d\n"
            "d: é a&b a<b\n")


def assert_spread_in_the_box(g):
    pos = layout(g)
    assert set(pos) == set(g.rotation)
    for x, y in pos.values():
        assert 0.0 <= x <= 640.0
        assert 0.0 <= y <= 640.0
    # no two vertices collapse onto each other
    pts = list(pos.values())
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dx = pts[i][0] - pts[j][0]
            dy = pts[i][1] - pts[j][1]
            assert dx * dx + dy * dy > 1e-6


def test_layout_covers_all_vertices_in_the_box():
    for g in [k4(), octahedron(), icosahedron(),
              random_triangulation(9, seed=4)]:
        assert_spread_in_the_box(g)


def unit_solve(g):
    """The outer cycle and the unscaled unit-weight positions of g."""
    outer = _outer_cycle(g)
    return outer, _solve(g, sorted(g.rotation), outer, None)


def test_perturbed_retry_separates_collapsed_vertices():
    for g in [TWO_PATHS, with_outer_face(random_biconnected(12, 16, 0), 0)]:
        _, pos = unit_solve(g)
        assert _degenerate(pos.values())
        assert_spread_in_the_box(g)


def all_pairs_degenerate(pts):
    """The all-pairs test that the sweep replaces."""
    if not all(math.isfinite(c) for p in pts for c in p):
        return True
    return any(math.dist(p, q) ** 2 < 1e-12
               for i, p in enumerate(pts) for q in pts[i + 1:])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                max_size=12))
def test_degenerate_matches_the_all_pairs_test(cells):
    # points on a grid of step 4e-7, so pairs fall on both sides of 1e-6
    pts = [(x * 4e-7, y * 4e-7) for x, y in cells]
    assert _degenerate(pts) == all_pairs_degenerate(pts)
    assert _degenerate(pts + [(math.nan, 0.0)])
    assert _degenerate(pts + [(0.0, math.inf)])


def assert_tutte(g):
    """Unit weights put the outer cycle on the regular polygon and every
    other vertex at the mean of its neighbours."""
    outer, pos = unit_solve(g)
    assert set(pos) == set(g.rotation)
    k = len(outer)
    for i, v in enumerate(outer):
        t = 2.0 * math.pi * i / k
        assert math.dist(pos[v], (math.cos(t), math.sin(t))) < 1e-12
    for v in set(g.rotation) - set(outer):
        nbrs = g.rotation[v]
        for c in (0, 1):
            mean = sum(pos[w][c] for w in nbrs) / len(nbrs)
            assert abs(pos[v][c] - mean) < 1e-9
    return outer


@settings(max_examples=10, deadline=None)
@given(st.integers(4, 40), st.integers(0, 20))
def test_tutte_solve_on_triangulations(n, seed):
    assert_tutte(random_triangulation(n, seed))


@settings(max_examples=10, deadline=None)
@given(st.integers(5, 30), st.data())
def test_tutte_solve_on_biconnected_graphs(n, data):
    # random_biconnected's thinning can dead-end at m <= n + 2 and raise
    # InfeasibleParameters; this test is about the layout, so it keeps
    # above that
    m = data.draw(st.integers(n + 3, 2 * n - 2), label="m")
    seed = data.draw(st.integers(0, 20), label="seed")
    assert_tutte(random_biconnected(n, m, seed))


@settings(max_examples=10, deadline=None)
@given(st.integers(4, 12), st.integers(0, 20))
def test_an_outerplane_split_result_has_no_free_vertex(n, seed):
    g = random_triangulation(n, seed)
    split = replay(g, solve_osn(g).splits)
    h = with_outer_face(split, outerplane_face(split))
    assert set(assert_tutte(h)) == set(h.rotation)


def test_render_shape():
    g = k4()
    doc = render(g)
    assert doc.startswith("<svg")
    assert doc.rstrip().endswith("</svg>")
    assert doc.count("<line") == g.m
    assert doc.count("<circle") == g.n
    assert doc.count("<text") == g.n
    assert render(g) == doc  # deterministic


def labels(doc):
    return [e.text for e in ElementTree.fromstring(doc)
            if e.tag.endswith("text")]


def test_render_escapes_labels():
    g = parse_rot(K4_NAMES)
    assert sorted(labels(render(g))) == sorted(g.rotation)


def test_render_encodes_as_utf8_xml():
    # the document declares no encoding, so its bytes as written are
    # UTF-8 and an XML parser reads the labels back from them
    g = parse_rot(K4_NAMES)
    doc = render(g)
    assert not doc.startswith("<?xml")
    assert sorted(labels(doc.encode("utf-8"))) == sorted(g.rotation)

