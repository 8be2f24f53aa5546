"""Frozen split-sequence outputs of solve_osn, and the graphs their
replay makes.

The split digest was recorded before the split engine was refactored,
so a change to any cover or any split in this corpus shows up here.  The
replay digest covers the same corpus plus the five sparse_exact
instances of the benchmark, the latter also with a designated outer
face, and pins every face id, walk start and outer designation of the
replayed graphs.  Update either only for a
deliberate change of the outputs, and say so in CHANGES.md.
"""

import hashlib

from outersplit import (
    complete_3tree,
    cycle,
    fan,
    icosahedron,
    k4,
    octahedron,
    random_biconnected,
    random_triangulation,
    replay,
    serialize_rot,
    serialize_splits,
    solve_osn,
    with_outer_face,
)

GOLDEN = "ea26bd06a972e721847a20eb836d666d4a92cc56d0cab57ecf6fda9b4618f374"
GOLDEN_REPLAY = (
    "6ccc2eb7cde2d4ffed9cd0efb8a86a3564b5615ff652992c76221e7bad9e200d")


def corpus():
    yield k4()
    yield octahedron()
    yield icosahedron()
    yield fan(6)
    yield cycle(6)
    for d in (1, 2):
        yield complete_3tree(d)
    for n in range(5, 23):
        for s in range(4):
            yield random_triangulation(n, seed=s)
    for n in (20, 40):
        for k in (15, 25):
            for s in range(3):
                yield random_biconnected(n, n + k, seed=s)


def digest() -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for g in corpus():
        res = solve_osn(g)
        h.update(serialize_splits(res.splits).encode())
        h.update(repr(sorted(res.cover.faces)).encode())
        count += 1
    return count, h.hexdigest()


def test_solve_osn_outputs_are_frozen():
    count, value = digest()
    assert count == 91
    assert value == GOLDEN


def test_replayed_graphs_are_frozen():
    h = hashlib.sha256()
    count = 0
    sparse_exact = [random_biconnected(n, n + 30, 0)
                    for n in range(80, 121, 10)]
    outer = [with_outer_face(g, len(g.walks) // 2) for g in sparse_exact]
    for g in (*corpus(), *sparse_exact, *outer):
        h.update(serialize_rot(replay(g, solve_osn(g).splits)).encode())
        count += 1
    assert count == 101
    assert h.hexdigest() == GOLDEN_REPLAY
