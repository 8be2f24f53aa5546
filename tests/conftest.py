from itertools import combinations

import pytest

from outersplit import (
    fan,
    k4,
    octahedron,
    random_biconnected,
    random_triangulation,
)

_criterion_lines = []


@pytest.fixture(scope="session")
def criterion():
    """Collect one verdict line per acceptance criterion for the final
    terminal summary."""
    def record(line):
        _criterion_lines.append(line)
        print(line)
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.line(line)


def _connected_covers(g):
    """Face-id tuples of every connected face cover of g.

    Each face is a bitmask of its vertices; a subset is kept when the
    union of its masks is every vertex and its faces join up through
    shared vertices, which is what face_cover accepts."""
    pos = {v: i for i, v in enumerate(sorted(g.rotation))}
    masks = [sum(1 << pos[v] for v in f.incident_vertices) for f in g.faces]
    full = (1 << g.n) - 1
    for size in range(1, len(masks) + 1):
        for combo in combinations(range(len(masks)), size):
            reached, left = masks[combo[0]], [masks[i] for i in combo[1:]]
            grew = True
            while left and grew:
                rest = []
                for m in left:
                    if m & reached:
                        reached |= m
                    else:
                        rest.append(m)
                grew, left = len(rest) < len(left), rest
            if not left and reached == full:
                yield combo


@pytest.fixture(scope="session")
def every_connected_cover():
    """(graph, covers) for small graphs of up to 12 faces, with every
    connected cover of each.  Non-minimum covers merge faces that touch
    a vertex at several corners; (9, 12, 0), (9, 14, 0) and the 12-face
    graphs exercise that."""
    graphs = [k4(), octahedron(), fan(5)]
    graphs += [random_biconnected(n, m, seed=s) for n in (7, 8, 9)
               for m in (n + 3, n + 5) for s in (0, 1)]
    graphs += [random_triangulation(8, seed=1),
               random_biconnected(12, 22, seed=0),
               random_biconnected(14, 24, seed=0)]
    return [(g, list(_connected_covers(g))) for g in graphs]
