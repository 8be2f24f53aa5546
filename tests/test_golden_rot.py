"""Frozen serialize_rot outputs of the parameterized generators.

The digest covers every family the solver tests draw from, including the
specs where random_biconnected runs out of attempts and raises
InfeasibleParameters (the exception's name and message are hashed in
place of a graph).  Update it only for a deliberate change of generator
output, and say so in CHANGES.md.  Print the current value with

    PYTHONPATH=src python3 tests/test_golden_rot.py
"""

import hashlib

import pytest

from outersplit import (
    complete_3tree,
    random_biconnected,
    random_triangulation,
    serialize_rot,
)
from outersplit.errors import InfeasibleParameters

GOLDEN = "3da746eec7d50999b4aea160802382f8206d490ae7ae8fbe7b951e058c3ef18a"


def specs():
    for n in range(4, 41):
        for s in range(3):
            yield random_triangulation, (n, s)
    for n in range(5, 31, 5):
        for k in (0, 2, 6, 12, 20):
            if n + k > 3 * n - 6:
                continue
            for s in range(3):
                yield random_biconnected, (n, n + k, s)
    for d in range(5):
        yield complete_3tree, (d,)


def digest() -> tuple[int, int, str]:
    h = hashlib.sha256()
    count = infeasible = 0
    for fn, args in specs():
        h.update(f"{fn.__name__}{args}\n".encode())
        try:
            text = serialize_rot(fn(*args))
        except InfeasibleParameters as exc:
            text = f"{type(exc).__name__}: {exc}\n"
            infeasible += 1
        h.update(text.encode())
        count += 1
    return count, infeasible, h.hexdigest()


# complete_3tree past the depths the digest above and bench/golden.json
# cover: vertex count and sha256 of serialize_rot
DEEP_3TREES = {
    7: (3283,
        "e40e48a47c8a15e00109cd15f991a8da21762dbd5808139edbf58c0bef927506"),
    8: (9844,
        "9a105ab54bb589cd9408fb6b77160ff53d1dc5aad7219860f73311fcb758cc19"),
}


@pytest.mark.parametrize("d", sorted(DEEP_3TREES))
def test_deep_3trees_are_frozen(d):
    n, want = DEEP_3TREES[d]
    g = complete_3tree(d)
    assert g.n == n
    assert hashlib.sha256(serialize_rot(g).encode()).hexdigest() == want


def test_generator_outputs_are_frozen():
    count, infeasible, value = digest()
    assert count == 111 + 78 + 5
    assert infeasible == 10
    assert value == GOLDEN


if __name__ == "__main__":
    print(*digest())
