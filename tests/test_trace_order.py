"""_trace_faces picks its start slots tail by tail, in sorted order of
tails and then of each tail's heads, instead of sorting every slot.

The slots are the (t, h) with h in rotation[t], so that is the sorted
slot order.  These tests compare the trace with a reference that takes
its successors from a slot-keyed map and consumes sorted(slots), on the
valid rotation systems of every generator family, on relabelings whose
string order is not their numeric order ("10" < "9"), and on split
results that hold copy names such as v.1: the walks must be equal and
slot_face must hold the same items in the same insertion order.  The
trace's checks of invalid systems are compared with a reference in
test_build_checks.
"""

import random

import pytest

from outersplit import (
    build,
    complete_3tree,
    cycle,
    fan,
    icosahedron,
    k4,
    octahedron,
    random_biconnected,
    random_triangulation,
    replay,
    solve_osn,
)
from outersplit.errors import InfeasibleParameters
from outersplit.plane_graph import _trace_faces


def trace_sorted_slots(rotation):
    """The trace with its start slots taken from sorted(slots)."""
    succ = {}
    for v, nbrs in rotation.items():
        for i, u in enumerate(nbrs):
            succ[(u, v)] = nbrs[(i + 1) % len(nbrs)]
    walks, slot_face = [], {}
    for start in sorted(succ):
        if start in slot_face:
            continue
        walk, cur = [], start
        while cur not in slot_face:
            slot_face[cur] = len(walks)
            walk.append(cur[0])
            cur = (cur[1], succ[cur])
        walks.append(tuple(walk))
    return tuple(walks), slot_face


def assert_same_trace(rotation):
    walks, slot_face = _trace_faces(rotation)
    want_walks, want_slot_face = trace_sorted_slots(rotation)
    assert walks == want_walks
    assert list(slot_face.items()) == list(want_slot_face.items())


def family_graphs():
    """(name, graph) for every generator family at several sizes."""
    for make in (k4, octahedron, icosahedron):
        yield make.__name__, make()
    for n in (3, 4, 9, 10, 11, 25):
        yield f"cycle({n})", cycle(n)
        yield f"fan({n})", fan(n)
    for d in range(5):
        yield f"complete_3tree({d})", complete_3tree(d)
    for n in (4, 5, 9, 10, 11, 12, 30, 100):
        for seed in range(3):
            yield (f"random_triangulation({n}, {seed})",
                   random_triangulation(n, seed))
    for n, m in ((5, 5), (8, 11), (12, 16), (20, 30), (30, 50), (80, 110)):
        for seed in range(3):
            try:
                yield (f"random_biconnected({n}, {m}, {seed})",
                       random_biconnected(n, m, seed))
            except InfeasibleParameters:
                pass


def relabeled(g, seed):
    """g with its vertices renamed to a shuffled 0..n-1, so numeric and
    string order disagree from n = 11 on."""
    names = [str(i) for i in range(g.n)]
    random.Random(seed).shuffle(names)
    new = dict(zip(g.rotation, names))
    return build({new[v]: [new[u] for u in nbrs]
                  for v, nbrs in g.rotation.items()})


FAMILIES = dict(family_graphs())


@pytest.mark.parametrize("name", FAMILIES)
def test_trace_matches_sorted_slots_on_every_family(name):
    assert_same_trace(FAMILIES[name].rotation)


@pytest.mark.parametrize("name", FAMILIES)
def test_trace_matches_sorted_slots_on_relabelings(name):
    for seed in range(2):
        assert_same_trace(relabeled(FAMILIES[name], seed).rotation)


def test_trace_matches_sorted_slots_with_copy_names():
    # replay names copies v.1, v.2, ..., and "." sorts below every digit
    # and letter, so "v.1" < "v0"
    graphs = [octahedron(), icosahedron(), complete_3tree(2),
              random_biconnected(12, 16, 0), random_biconnected(20, 30, 1)]
    graphs += [relabeled(random_triangulation(n, 0), n) for n in (12, 20)]
    for g in graphs:
        out = replay(g, solve_osn(g).splits)
        assert any("." in v for v in out.rotation)
        assert_same_trace(out.rotation)


def test_trace_matches_sorted_slots_with_bridges():
    path = {"a": ("b",), "b": ("a", "c"), "c": ("b",)}
    star = {"x": ("a", "b", "c", "d"), "a": ("x",), "b": ("x",),
            "c": ("x",), "d": ("x",)}
    bowtie = {"a": ("b", "x"), "b": ("x", "a"), "c": ("d", "x"),
              "d": ("x", "c"), "x": ("b", "a", "d", "c")}
    for rot in (path, star, bowtie):
        assert_same_trace(build(rot).rotation)
