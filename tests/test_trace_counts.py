"""Face tracing happens once per graph that needs its faces.

Counting calls to _trace_faces is a machine-independent guard against
code that re-traces an embedding it has already traced, for instance
after designating an outer face or after a split.
"""

import pytest

import outersplit.plane_graph as plane_graph
from outersplit import (
    dual,
    is_outerplane,
    parse_rot,
    random_biconnected,
    random_triangulation,
    replay,
    serialize_rot,
    solve_osn,
)


@pytest.fixture
def traces(monkeypatch):
    calls = []
    real = plane_graph._trace_faces

    def counting(rotation):
        calls.append(len(rotation))
        return real(rotation)

    monkeypatch.setattr(plane_graph, "_trace_faces", counting)
    return calls


def test_replay_traces_once_per_split(traces):
    g = random_biconnected(100, 130, 0)
    seq = solve_osn(g).splits
    assert len(seq) == 12
    traces.clear()
    final = replay(g, seq)
    assert len(traces) == 12
    assert is_outerplane(final)
    assert len(traces) == 12


def test_generated_graph_serializes_without_retrace(traces):
    serialize_rot(random_triangulation(40, 0))
    assert len(traces) == 1


def test_parsed_graph_dual_without_retrace(traces):
    text = serialize_rot(random_triangulation(20, 0))
    traces.clear()
    dual(parse_rot(text))
    assert len(traces) == 1
