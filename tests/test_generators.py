import random
from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outersplit import (
    FamilySpec,
    build,
    complete_3tree,
    cycle,
    fan,
    generate,
    icosahedron,
    is_biconnected,
    is_outerplane,
    k4,
    octahedron,
    random_biconnected,
    random_triangulation,
    serialize_rot,
)
from outersplit.errors import CapExceeded, InfeasibleParameters, UnknownFamily
from outersplit.generators import (
    _base_k4,
    _below,
    _faces_meet_only_at,
    _shuffle,
    _subdivide_face,
)

# lengths 0..300 hold 2^k - 1, 2^k and 2^k + 1 up to k = 8, where the
# bit count of a draw changes; the ones above take it to k = 12
DRAW_SIZES = [*range(301)] + [(1 << k) + d for k in range(9, 13)
                               for d in (-1, 0, 1)]


def test_3tree_counts():
    # stacking into every inner face triples the candidate faces:
    # n(d) = 4, 7, 16, 43
    for d, n in [(0, 4), (1, 7), (2, 16), (3, 43)]:
        g = complete_3tree(d)
        assert g.n == n
        assert g.m == 3 * n - 6
        assert len(g.faces) == 2 * n - 4
        assert is_biconnected(g)
        assert g.outer_face is not None


def test_3tree_last_generation_is_face_disjoint():
    # the vertices stacked last all have degree 3, and no face touches
    # two of them (d = 0 is the exception: all of k4 has degree 3)
    for d in (1, 2, 3):
        g = complete_3tree(d)
        leaves = {v for v in g.rotation if len(g.rotation[v]) == 3}
        assert len(leaves) == 3 ** d
        for f in g.faces:
            assert len(f.incident_vertices & leaves) <= 1


def test_3tree_guards():
    with pytest.raises(InfeasibleParameters):
        complete_3tree(-1)
    with pytest.raises(CapExceeded):
        complete_3tree(10)


def test_sized_families_stop_at_the_3tree_cap():
    cap = 29_527  # the vertices of complete_3tree(9)
    assert cycle(cap).n == cap
    for make in (cycle, fan, random_triangulation,
                 lambda n: random_biconnected(n, n + 30)):
        with pytest.raises(CapExceeded, match="29527"):
            make(cap + 1)
    with pytest.raises(CapExceeded):
        generate(FamilySpec("cycle", n=100_000_000))


def test_random_triangulation_is_maximal_planar():
    for n in range(4, 11):
        for seed in (0, 1, 2):
            g = random_triangulation(n, seed=seed)
            assert g.n == n
            assert g.m == 3 * n - 6
            assert len(g.faces) == 2 * n - 4
            assert is_biconnected(g)
            assert min(len(r) for r in g.rotation.values()) >= 3


def test_random_triangulation_smallest_case():
    g = random_triangulation(4, seed=5)
    assert g.n == 4 and g.m == 6
    with pytest.raises(InfeasibleParameters):
        random_triangulation(3)


def test_inlined_draws_match_the_stdlib():
    # _shuffle and _below stand in for Random.shuffle and randrange, so
    # they must return the same values and leave the same state: the
    # generators' output and every later draw depend on both
    for seed in range(51):
        ours, stdlib = random.Random(seed), random.Random(seed)
        for size in DRAW_SIZES:
            x, y = list(range(size)), list(range(size))
            _shuffle(ours, x)
            stdlib.shuffle(y)
            assert x == y, (seed, size)
            assert ours.getstate() == stdlib.getstate(), (seed, size)
            if size:
                assert _below(ours, size) == stdlib.randrange(size), \
                    (seed, size)
                assert ours.getstate() == stdlib.getstate(), (seed, size)


def _inner_walks(rot):
    """The inner faces' walks of rot in id order; the outer face is the
    one K4 started with."""
    g = build(rot)
    outer = g.face_of_slot(("0", "2"))
    return [w for fid, w in enumerate(g.walks) if fid != outer]


def test_3tree_faces_are_the_inner_walks_in_id_order():
    # sorting the level's faces hands out the next labels in face-id
    # order, as the golden digests assume
    rot, faces = _base_k4()
    for d in range(6):
        assert faces == _inner_walks(rot), d
        assert build(rot).rotation == complete_3tree(d).rotation, d
        level = []
        for face in faces:
            level += _subdivide_face(rot, face, str(len(rot)))
        faces = sorted(level)


@pytest.mark.parametrize("seed", range(3))
def test_stacking_draws_faces_by_id(seed):
    # random_triangulation's insertion phase for n is the first n - 4
    # steps of this one, so this covers every n <= 40: after each
    # insertion the drawn index faces.pop(_below(...)) is a face id
    rng = random.Random(seed)
    rot, faces = _base_k4()
    while True:
        assert faces == _inner_walks(rot), len(rot)
        if len(rot) == 40:
            break
        face = faces.pop(_below(rng, len(faces)))
        for new in _subdivide_face(rot, face, str(len(rot))):
            insort(faces, new)


def _face_vertices(rot, slot):
    """Vertices of the face that slot lies on, walked in full."""
    out = set()
    u, v = slot
    while True:
        out.add(u)
        nbrs = rot[v]
        u, v = v, nbrs[(nbrs.index(u) + 1) % len(nbrs)]
        if (u, v) == slot:
            return out


def _assert_one_sided_test_matches_both_faces(rot):
    for u in rot:
        for v in rot[u]:
            want = (_face_vertices(rot, (u, v)) & _face_vertices(rot, (v, u))
                    == {u, v})
            assert _faces_meet_only_at(rot, u, v) == want, (u, v)


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 30), st.integers(0, 50))
def test_one_sided_face_test_on_triangulations(n, seed):
    _assert_one_sided_test_matches_both_faces(
        random_triangulation(n, seed).rotation)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 30), st.data())
def test_one_sided_face_test_on_biconnected_graphs(n, data):
    m = data.draw(st.integers(n, 3 * n - 6), label="m")
    seed = data.draw(st.integers(0, 50), label="seed")
    try:
        g = random_biconnected(n, m, seed)
    except InfeasibleParameters:
        return
    _assert_one_sided_test_matches_both_faces(g.rotation)


def test_one_sided_face_test_refuses_and_keeps():
    # the 6-cycle with the chord 0-3: dropping the chord merges two
    # 4-cycles into one, and dropping a cycle edge would leave 0 and 3
    # on both sides
    rot = {"0": ["1", "3", "5"], "1": ["2", "0"], "2": ["3", "1"],
           "3": ["4", "0", "2"], "4": ["5", "3"], "5": ["0", "4"]}
    build(rot)
    _assert_one_sided_test_matches_both_faces(rot)
    assert _faces_meet_only_at(rot, "0", "3")
    assert _faces_meet_only_at(rot, "3", "0")
    assert not _faces_meet_only_at(rot, "0", "1")
    assert not _faces_meet_only_at(rot, "4", "5")


def test_random_biconnected_hits_requested_size():
    for n, m, seed in [(5, 5, 0), (5, 7, 1), (6, 9, 2), (7, 10, 3),
                       (8, 18, 4), (9, 12, 5), (10, 24, 6), (12, 14, 7)]:
        g = random_biconnected(n, m, seed=seed)
        assert g.n == n and g.m == m
        assert is_biconnected(g)


def test_random_biconnected_cycle_edge_case():
    g = random_biconnected(6, 6, seed=0)
    assert all(len(r) == 2 for r in g.rotation.values())
    # the one biconnected graph on 3 vertices and 3 edges, for any seed
    for seed in (0, 5):
        g = random_biconnected(3, 3, seed=seed)
        assert serialize_rot(g) == serialize_rot(cycle(3))
        assert g.outer_face == 0


def test_random_biconnected_seeds_draw_distinct_graphs():
    # (15, 17) retries often; retries once drew the streams of the
    # seeds after them, so seeds 0 and 2 gave the same graph
    texts = {serialize_rot(random_biconnected(15, 17, seed=s))
             for s in range(12)}
    assert len(texts) == 12


def test_random_biconnected_range_checks():
    with pytest.raises(InfeasibleParameters):
        random_biconnected(5, 4, seed=0)  # below n
    with pytest.raises(InfeasibleParameters):
        random_biconnected(5, 10, seed=0)  # above 3n - 6
    with pytest.raises(InfeasibleParameters):
        random_biconnected(2, 2, seed=0)


def test_negative_seeds_are_rejected():
    # random.Random seeds an int by its absolute value, so seed -3 drew
    # the stream of seed 3 and serialized byte for byte like it
    with pytest.raises(InfeasibleParameters, match="nonnegative"):
        random_triangulation(12, seed=-3)
    with pytest.raises(InfeasibleParameters, match="nonnegative"):
        random_biconnected(12, 16, seed=-3)
    with pytest.raises(InfeasibleParameters, match="nonnegative"):
        random_biconnected(3, 3, seed=-1)
    assert random_triangulation(12, seed=0).n == 12


def test_generators_are_deterministic():
    for spec in [FamilySpec(family="random_triangulation", n=8, seed=3),
                 FamilySpec(family="random_biconnected", n=8, m=12, seed=3),
                 FamilySpec(family="complete_3tree", d=2)]:
        a = serialize_rot(generate(spec))
        b = serialize_rot(generate(spec))
        assert a == b
    x = serialize_rot(random_triangulation(8, seed=3))
    y = serialize_rot(random_triangulation(8, seed=4))
    assert x != y


def test_platonic_solids():
    g = octahedron()
    assert g.n == 6 and g.m == 12 and len(g.faces) == 8
    assert all(len(r) == 4 for r in g.rotation.values())
    h = icosahedron()
    assert h.n == 12 and h.m == 30 and len(h.faces) == 20
    assert all(len(r) == 5 for r in h.rotation.values())
    for s in (g, h):
        assert is_biconnected(s)
        assert all(len(f) == 3 for f in s.faces)


def test_k4_shape():
    g = k4()
    assert g.n == 4 and g.m == 6 and len(g.faces) == 4
    assert g.outer_face == 0


def test_outerplane_families():
    for n in (3, 5, 8):
        assert is_outerplane(cycle(n))
    for n in (3, 4, 7):
        g = fan(n)
        assert g.n == n + 1 and g.m == 2 * n - 1
        assert is_outerplane(g)
    with pytest.raises(InfeasibleParameters):
        cycle(2)
    with pytest.raises(InfeasibleParameters):
        fan(2)


def test_named_dispatch():
    assert generate(FamilySpec(family="k4")).n == 4
    assert generate(FamilySpec(family="octahedron")).n == 6
    assert generate(FamilySpec(family="icosahedron")).n == 12
    assert generate(FamilySpec(family="cycle", n=5)).n == 5
    assert generate(FamilySpec(family="fan", n=5)).n == 6
    with pytest.raises(UnknownFamily):
        generate(FamilySpec(family="petersen"))
    with pytest.raises(InfeasibleParameters):
        generate(FamilySpec(family="cycle"))  # n missing
    for family in ("k4", "octahedron", "icosahedron"):
        for extra in ({"d": 1}, {"n": 3}, {"m": 6}):
            with pytest.raises(InfeasibleParameters, match="takes no"):
                generate(FamilySpec(family=family, **extra))
    for family in ("cycle", "fan"):
        for extra in ({"d": 1}, {"m": 6}):
            with pytest.raises(InfeasibleParameters, match="takes no"):
                generate(FamilySpec(family=family, n=5, **extra))


def test_generate_dispatch():
    assert generate(FamilySpec(family="complete_3tree", d=1)).n == 7
    assert generate(FamilySpec(family="random_triangulation", n=6)).n == 6
    assert generate(FamilySpec(family="random_biconnected", n=6, m=8)).m == 8
    assert generate(FamilySpec(family="k4")).n == 4
    with pytest.raises(InfeasibleParameters):
        generate(FamilySpec(family="random_biconnected", n=6))  # m missing
    for spec in (FamilySpec(family="complete_3tree", d=1, n=7),
                 FamilySpec(family="complete_3tree", d=1, m=18),
                 FamilySpec(family="random_triangulation", n=10, m=5),
                 FamilySpec(family="random_triangulation", n=10, d=2),
                 FamilySpec(family="random_biconnected", n=6, m=8, d=1)):
        with pytest.raises(InfeasibleParameters, match="takes no"):
            generate(spec)
    # seed is not checked: its default 0 cannot be told from an explicit 0
    assert generate(FamilySpec(family="k4", seed=5)).n == 4
