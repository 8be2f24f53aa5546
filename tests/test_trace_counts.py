"""Face tracing happens once per built graph that needs its faces.

Counting calls to _trace_faces is a machine-independent guard against
code that re-traces an embedding it has already traced, for instance
after designating an outer face.  A split derives its faces from its
parent's, so replaying or realizing a split sequence traces nothing.
A sequence edits one working copy of its input, so replaying it builds
a single graph, at the end, and solving, which returns no graph, builds
none.
"""

import pytest

import outersplit.plane_graph as plane_graph
from outersplit import (
    dual,
    is_outerplane,
    parse_rot,
    random_biconnected,
    random_triangulation,
    realize_cover,
    replay,
    serialize_rot,
    solve_osn,
)
from outersplit.plane_graph import PlaneGraph


@pytest.fixture
def traces(monkeypatch):
    calls = []
    real = plane_graph._trace_faces

    def counting(rotation):
        calls.append(len(rotation))
        return real(rotation)

    monkeypatch.setattr(plane_graph, "_trace_faces", counting)
    return calls


def test_replay_traces_nothing(traces):
    g = random_biconnected(100, 130, 0)
    seq = solve_osn(g).splits
    assert len(seq) == 12
    traces.clear()
    final = replay(g, seq)
    assert is_outerplane(final)
    assert traces == []


@pytest.fixture
def built(monkeypatch):
    calls = []
    real = PlaneGraph.__init__

    def counting(self, *args, **kwargs):
        calls.append(type(self).__name__)
        real(self, *args, **kwargs)

    monkeypatch.setattr(PlaneGraph, "__init__", counting)
    return calls


def test_replay_builds_one_graph(built):
    g = random_biconnected(100, 130, 0)
    seq = solve_osn(g).splits
    assert len(seq) == 12
    built.clear()
    replay(g, seq)
    assert built == ["PlaneGraph"]


def test_solve_builds_no_graph(built):
    g = parse_rot(serialize_rot(random_biconnected(100, 130, 0)))
    built.clear()
    res = solve_osn(g)
    assert len(res.splits) == 12
    assert built == []


def test_realize_cover_traces_nothing(traces):
    g = random_triangulation(60, 0)
    cover = solve_osn(g).cover
    traces.clear()
    seq = realize_cover(g, cover)
    assert len(seq) == len(cover.faces) - 1
    assert traces == []


def test_solve_from_text_traces_once(traces):
    text = serialize_rot(random_biconnected(100, 130, 0))
    traces.clear()
    res = solve_osn(parse_rot(text))
    assert len(res.splits) == 12
    assert len(traces) == 1


def test_generated_graph_serializes_without_retrace(traces):
    serialize_rot(random_triangulation(40, 0))
    assert len(traces) == 1


def test_parsed_graph_dual_without_retrace(traces):
    text = serialize_rot(random_triangulation(20, 0))
    traces.clear()
    dual(parse_rot(text))
    assert len(traces) == 1
