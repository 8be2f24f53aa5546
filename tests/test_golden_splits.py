"""Frozen split-sequence outputs of solve_osn.

The digest was recorded before the split engine was refactored, so a
change to any cover or any split in this corpus shows up here.  Update
it only for a deliberate change of the realized sequences, and say so
in CHANGES.md.
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
    serialize_splits,
    solve_osn,
)

GOLDEN = "ea26bd06a972e721847a20eb836d666d4a92cc56d0cab57ecf6fda9b4618f374"


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
