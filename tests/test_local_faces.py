"""Face data derived through splits equals a full retrace.

A split's faces come from the faces before it, never from tracing the
new rotation system.  The tests here wrap the split primitive, or call a
one-split sequence, so that the face data of the graph after every split,
renumbered by id when the graph is built, is compared as a whole with
_trace_faces run on its rotation system.  One more checks that a split
sequence leaves its input graph unchanged, and one counts the cases of
the smallest-slot rule that single splits take, so that none goes
untested.
"""

import random
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import outersplit.split_engine as split_engine
from outersplit import (
    build,
    extract_cover,
    face_cover,
    merge_faces_at_vertex,
    random_biconnected,
    random_triangulation,
    realize_cover,
    replay,
    serialize_rot,
    solve_osn,
    with_outer_face,
)
from outersplit.plane_graph import PlaneGraph, _trace_faces


def assert_traced(g):
    traced = PlaneGraph(g.rotation, *_trace_faces(g.rotation))
    assert g.walks == traced.walks
    assert g.slot_face == traced.slot_face
    # A split cuts a face at its first corner along the traced walk,
    # which the derived data must find too.  The state starts keyed by
    # the graph's face ids.
    st = split_engine._SplitState(g)
    for f in traced.faces:
        first = {}
        for x, y in f.boundary:
            first.setdefault(y, x)
        for v, x in first.items():
            assert st.corner_gaps(v, f.id) == [g.rotation[v].index(x)]


@pytest.fixture
def checked(monkeypatch):
    """Records splits and checks the face data after every split of a
    sequence, that the id order ranks every key at its face id with the
    walks sorted, and that an outer designation stays on the face
    holding the old outer face's first slot."""
    made = []
    real = split_engine._SplitState.split

    def checking(st, v, gap_a, gap_b):
        first = (None if st.outer is None
                 else st.walks[st.slot_face[st.outer]][:2])
        copies = real(st, v, gap_a, gap_b)
        assert ([st.face_id(k) for k in st.order]
                == list(range(len(st.order))))
        walks = [st.walks[k] for k in st.order]
        assert walks == sorted(walks)
        result = st.graph()
        assert_traced(result)
        assert (result.outer_face is None) == (first is None)
        if first is not None:
            back = dict.fromkeys(copies, v)
            outer = result.faces[result.outer_face].boundary
            assert first in {
                (back.get(x, x), back.get(y, y)) for x, y in outer}
        made.append((v, *copies))
        return copies

    monkeypatch.setattr(split_engine._SplitState, "split", checking)
    return made


def test_solve_and_replay_on_triangulations(checked):
    splits = 0
    for n in range(4, 31):
        for seed in range(3):
            g = random_triangulation(n, seed)
            seq = solve_osn(g).splits
            replay(g, seq)
            splits += len(seq)
    assert len(checked) == 2 * splits > 0


@pytest.mark.parametrize("n, m", [(8, 10), (12, 16), (20, 26), (40, 50),
                                  (100, 130)])
def test_solve_and_replay_on_sparse_graphs(checked, n, m):
    for seed in range(2):
        g = random_biconnected(n, m, seed)
        seq = solve_osn(g).splits
        replay(g, seq)
    assert checked


def test_every_connected_cover(checked, every_connected_cover):
    for g, covers in every_connected_cover:
        for faces in covers:
            realize_cover(g, face_cover(g, faces))
    assert checked


def test_realize_follows_faces_by_rotation_position(
        monkeypatch, every_connected_cover):
    # At each merge, the rotation of the unsplit vertex, mapped back
    # through the origins of the copies made so far, is the rotation of
    # the input graph position by position.
    real = split_engine._merge
    made = []
    merges = 0

    def merging(st, v, keys):
        nonlocal merges
        origin = split_engine.SplitSequence(tuple(made)).origin
        assert [origin.get(y, y) for y in st.rotation[v]] == list(
            g.rotation[v])
        ops = real(st, v, keys)
        made.extend(ops)
        merges += 1
        return ops

    cases = [(g, faces) for g, covers in every_connected_cover
             for faces in covers]
    cases += [(g, solve_osn(g).cover.faces)
              for g in (random_triangulation(n, seed)
                        for n in range(4, 31) for seed in range(3))]
    monkeypatch.setattr(split_engine, "_merge", merging)
    for g, faces in cases:
        made.clear()
        seq = realize_cover(g, face_cover(g, faces))
        assert seq.ops == tuple(made)
    assert merges


def snapshot(g):
    return (dict(g.rotation), g.walks, dict(g.slot_face),
            g.outer_face, serialize_rot(g))


def test_sequences_leave_their_input_unchanged():
    # A sequence edits a copy of its input.  Inputs include graphs made
    # by splits, whose faces were renumbered by id, and designated outer
    # faces; each comes with a sequence that applies to it and a cover.
    cases = []
    for g in (random_triangulation(30, 0), random_biconnected(40, 52, 1)):
        res = solve_osn(g)
        ops = res.splits.ops
        head = split_engine.SplitSequence(ops[:len(ops) // 2])
        tail = split_engine.SplitSequence(ops[len(ops) // 2:])
        part = replay(g, head)
        every = face_cover(part, range(len(part.walks)))
        cases += [(g, res.splits, res.cover),
                  (with_outer_face(g, 3), res.splits, res.cover),
                  (part, tail, every),
                  (with_outer_face(part, 1), tail, every)]
    for g, seq, cover in cases:
        before = snapshot(g)
        replay(g, seq)
        realize_cover(g, cover)
        for v in sorted(g.rotation)[:5]:
            fids = {g.face_of_slot((x, v)) for x in g.rotation[v]}
            merge_faces_at_vertex(g, v, fids)
        assert snapshot(g) == before


def crowded(g, seed):
    """g with vertices renamed into the copy names of others: x.1, x.2
    and x.1.1 beside x, and y- beside y, which sorts between y and
    y's copies."""
    names = sorted(g.rotation)
    random.Random(seed).shuffle(names)
    new = {}
    for i in range(0, len(names) - 5, 6):
        x, a, b, c, y, z = names[i:i + 6]
        new.update({a: f"{x}.1", b: f"{x}.2", c: f"{x}.1.1", z: f"{y}-"})
    return build({new.get(v, v): [new.get(u, u) for u in nbrs]
                  for v, nbrs in g.rotation.items()})


def test_solve_and_replay_with_crowded_names(checked):
    graphs = [random_triangulation(n, seed) for n in range(8, 31)
              for seed in range(2)]
    graphs += [random_biconnected(n, m, seed) for n, m in
               ((12, 16), (20, 26), (40, 50)) for seed in range(2)]
    for i, g in enumerate(graphs):
        g = crowded(g, i)
        res = solve_osn(g)
        replay(g, res.splits)
        assert extract_cover(g, res.splits).faces == res.cover.faces
    # some splits had to pass over taken names
    assert any(copy_1 != f"{v}.1" for v, copy_1, _ in checked)


BOWTIE = {"a": ("b", "x"), "b": ("x", "a"), "c": ("d", "x"),
          "d": ("x", "c"), "x": ("b", "a", "d", "c")}
# the bowtie again, named so that "b-" sorts between "b" and its copies
# "b.1" and "b.2": renaming b can then hand a face's smallest slot from
# (a, b) to (a, b-)
NAMED_BOWTIE = {"b": ("c", "a"), "c": ("a", "b"), "b-": ("d", "a"),
                "d": ("a", "b-"), "a": ("c", "b", "d", "b-")}
# triangle abc with a pendant path c-d-e hanging into the outer face
LOLLIPOP = {"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b", "d"),
            "d": ("c", "e"), "e": ("d",)}


def start_graph(kind, seed):
    if kind == "triangulation":
        return random_triangulation(6 + seed % 7, seed)
    if kind == "sparse":
        return random_biconnected(9, 12, seed)
    return build(BOWTIE if kind == "bowtie" else LOLLIPOP)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["triangulation", "sparse", "bowtie",
                             "lollipop"]),
       seed=st.integers(0, 20), data=st.data())
def test_random_split_chains(kind, seed, data):
    g = start_graph(kind, seed)
    for _ in range(data.draw(st.integers(1, 12))):
        # (vertex, gap_a, gap_b) with the two gaps on distinct faces
        choices = []
        for v, rot in sorted(g.rotation.items()):
            fids = [g.face_of_slot((x, v)) for x in rot]
            choices += [(v, i, j) for i in range(len(rot))
                        for j in range(len(rot)) if fids[i] != fids[j]]
        if not choices:
            break
        v, i, j = data.draw(st.sampled_from(choices))
        g = split_engine._split_at_gaps(g, v, i, j)
        assert_traced(g)


def test_every_single_split_at_repeated_corners():
    # At a cut vertex one face has several corners; every gap of it is
    # tried against every gap of another face.
    graphs = [build(BOWTIE), build(LOLLIPOP)]
    graphs += [build(rot) for rot in (NAMED_BOWTIE, {
        v: nbrs[::-1] for v, nbrs in NAMED_BOWTIE.items()})]
    g = random_biconnected(9, 12, 0)
    for v in ("1", "6", "8"):
        fids = sorted({g.face_of_slot((x, v)) for x in g.rotation[v]})
        g, _ = split_engine.split_vertex(g, v, fids[0], fids[-1])
    graphs.append(g)
    repeated = 0
    for g in graphs:
        for v, rot in g.rotation.items():
            fids = [g.face_of_slot((x, v)) for x in rot]
            for i, j in combinations(range(len(rot)), 2):
                if fids[i] == fids[j]:
                    continue
                repeated += fids.count(fids[i]) > 1 or fids.count(fids[j]) > 1
                assert_traced(split_engine._split_at_gaps(g, v, i, j))
                assert_traced(split_engine._split_at_gaps(g, v, j, i))
    assert repeated >= 10


def rule_cases(g, v, i, j):
    """The cases of the smallest-slot rule that splitting v of g at gaps i
    and j takes.  A face keeps its start unless v is at its walk position
    0 or 1; the merged face's smallest slot is the smaller of its two
    parts', each searched again only when it was renamed."""
    rot = g.rotation[v]
    # (face, slot into v at its cut), the longer face first: it keeps
    # its key, face_a on a tie
    cut = [(g.face_of_slot((x, v)), x) for x in (rot[i], rot[j])]
    if len(g.walks[cut[0][0]]) < len(g.walks[cut[1][0]]):
        cut.reverse()
    (long, x_long), (short, _) = cut
    cases = set()
    for fid in {g.face_of_slot((x, v)) for x in rot}:
        walk = g.walks[fid]
        role = "cut" if fid in (long, short) else "other"
        if walk.count(v) > 1:
            cases.add(f"{role} face visits v twice")
        if role == "other":
            at = walk.index(v)
            cases.add(f"other face, v at {at}" if at <= 1
                      else "other face, v past 1")
    cases.add(("merged face, renamed longer, shorter",
               g.walks[long].index(v) <= 1, g.walks[short].index(v) <= 1))
    if g.walks[long][0] == v and g.walks[long][-1] == x_long:
        cases.add("longer face cut at its start")
    return cases


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_smallest_slot_matches_brute_force(data):
    """_smallest against the least slot over a range of positions.  A
    walk of 5 or more over 4 vertices visits one of them several times,
    as a face does at a cut vertex; of equal slots the first position
    is taken."""
    walk = tuple(data.draw(st.lists(st.sampled_from("abcd"), min_size=5,
                                    max_size=14)))
    d = len(walk)
    lo = data.draw(st.integers(0, d - 1))
    hi = data.draw(st.integers(lo + 1, d))
    want = min(range(lo, hi), key=lambda p: (walk[p], walk[(p + 1) % d]))
    assert split_engine._smallest(walk, lo, hi) == want


def test_every_case_of_the_smallest_slot_rule():
    graphs = [random_triangulation(n, seed) for n in range(5, 10)
              for seed in range(2)]
    graphs += [random_biconnected(9, 12, seed) for seed in range(3)]
    graphs += [crowded(random_triangulation(12, 0), 0)]
    graphs += [build(rot) for rot in (BOWTIE, LOLLIPOP, NAMED_BOWTIE)]
    # graphs with longer faces and copies of split vertices
    for g in list(graphs[:4]):
        v = min(g.rotation)
        fids = sorted({g.face_of_slot((x, v)) for x in g.rotation[v]})
        graphs.append(split_engine.split_vertex(g, v, fids[0], fids[-1])[0])
    seen = Counter()
    for g in graphs:
        for v, rot in g.rotation.items():
            fids = [g.face_of_slot((x, v)) for x in rot]
            for i, j in permutations(range(len(rot)), 2):
                if fids[i] != fids[j]:
                    seen.update(rule_cases(g, v, i, j))
                    assert_traced(split_engine._split_at_gaps(g, v, i, j))
    expected = {"other face, v at 0", "other face, v at 1",
                "other face, v past 1"}
    expected |= {("merged face, renamed longer, shorter", a, b)
                 for a in (False, True) for b in (False, True)}
    expected |= {"cut face visits v twice", "other face visits v twice",
                 "longer face cut at its start"}
    assert set(seen) == expected
    assert min(seen.values()) >= 5, seen
