"""build checks a rotation system inside its face trace.

The face trace finds self-loops and repeated neighbors per vertex
before it starts and asymmetry as it walks.  These tests compare build
with a reference that runs the earlier separate pass over all 2m slots
before tracing, on rotation systems of every generator family with
faults put in: a dropped neighbor, a self-loop, a repeated neighbor, an
unknown vertex or a second component.  Every mutant must raise the
same exception class as the reference; a mutant with a single fault
must also raise the same message.  Valid inputs are compared with a
reference trace in test_trace_order.
"""

from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from outersplit.errors import (
    AsymmetricRotation,
    Disconnected,
    NotPlanar,
    OutersplitError,
    ParallelEdge,
    SelfLoop,
)


def reference_build(adjacency):
    """build with its checks in a separate pass over every slot before
    the trace: the first fault in the map's order of vertices, then of
    each vertex's neighbors, wins.  Returns (walks, slot_face)."""
    rotation = {v: tuple(nbrs) for v, nbrs in adjacency.items()}
    nbr_sets = {v: set(nbrs) for v, nbrs in rotation.items()}
    for v, nbrs in rotation.items():
        seen_nbrs = set()
        for u in nbrs:
            if u == v:
                raise SelfLoop(f"vertex {v!r} lists itself")
            if u in seen_nbrs:
                raise ParallelEdge(f"vertex {v!r} lists {u!r} twice")
            seen_nbrs.add(u)
            if u not in rotation:
                raise AsymmetricRotation(f"{v!r} lists unknown vertex {u!r}")
            if v not in nbr_sets[u]:
                raise AsymmetricRotation(
                    f"{v!r} lists {u!r} but {u!r} does not list {v!r}")

    if rotation:
        start = next(iter(rotation))
        seen, stack = {start}, [start]
        while stack:
            for u in rotation[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(rotation):
            raise Disconnected(
                "rotation system describes a disconnected graph")
    n = len(rotation)
    m = sum(len(nbrs) for nbrs in rotation.values()) // 2
    if m == 0:
        raise NotPlanar(
            f"{n} vertices and no edges: a plane graph needs at least one "
            "edge to have a face")

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
    if n - m + len(walks) != 2:
        raise NotPlanar(
            f"V - E + F = {n - m + len(walks)}, not 2: rotation system "
            "does not embed in the sphere")
    return tuple(walks), slot_face


def outcome(make, adjacency):
    """(walks, slot_face items) of make(adjacency), or the error it
    raised."""
    try:
        walks, slot_face = make(adjacency)
    except OutersplitError as exc:
        return exc
    return walks, list(slot_face.items())


def traced(adjacency):
    g = build(adjacency)
    return g.walks, g.slot_face


GRAPHS = [k4(), octahedron(), icosahedron(), cycle(3), cycle(8), fan(4),
          fan(7), complete_3tree(1), complete_3tree(2)]
GRAPHS += [random_triangulation(n, seed) for n in (5, 11) for seed in (0, 1)]
GRAPHS += [random_biconnected(n, m, seed) for n, m in ((8, 11), (12, 16))
           for seed in (0, 1)]


def fresh(adj):
    """A name that is no vertex and that no vertex lists."""
    listed = {u for nbrs in adj.values() for u in nbrs}
    return next(name for name in map("unknown{}".format, count())
                if name not in listed)


def listing(adj, draw):
    """A vertex with at least one neighbor."""
    return draw(st.sampled_from([v for v in sorted(adj) if adj[v]]))


def drop(adj, draw):
    v = listing(adj, draw)
    del adj[v][draw(st.integers(0, len(adj[v]) - 1))]


def self_loop(adj, draw):
    v = draw(st.sampled_from(sorted(adj)))
    adj[v].insert(draw(st.integers(0, len(adj[v]))), v)


def repeat(adj, draw):
    v = listing(adj, draw)
    u = draw(st.sampled_from(adj[v]))
    adj[v].insert(draw(st.integers(0, len(adj[v]))), u)


def unknown(adj, draw):
    v = draw(st.sampled_from(sorted(adj)))
    adj[v].insert(draw(st.integers(0, len(adj[v]))), fresh(adj))


def unknown_in_place(adj, draw):
    # two faults: the unknown vertex, and the replaced neighbor, which
    # still lists v
    v = listing(adj, draw)
    adj[v][draw(st.integers(0, len(adj[v]) - 1))] = fresh(adj)


def second_component(adj, draw):
    # a renamed copy of the graph so far, faults included; the copy's
    # vertices go before or after the originals in the map's order
    copy = {f"{v}'": [f"{u}'" for u in nbrs] for v, nbrs in adj.items()}
    if draw(st.booleans()):
        adj.update(copy)
    else:
        rest = dict(adj)
        adj.clear()
        adj.update(copy)
        adj.update(rest)


SINGLE = (drop, self_loop, repeat, unknown, second_component)
# Faults from one group raise the same class in either order of checks;
# a self-loop or repeated neighbor in one place and asymmetry in
# another are found in a different order.
GROUPS = ((drop, unknown, unknown_in_place, second_component),
          (self_loop, repeat, second_component))


def mutant(draw, mutations):
    g = draw(st.sampled_from(GRAPHS))
    adj = {v: list(nbrs) for v, nbrs in g.rotation.items()}
    for mutate in mutations:
        mutate(adj, draw)
    return adj


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_single_fault_raises_the_reference_error(data):
    adj = mutant(data.draw, [data.draw(st.sampled_from(SINGLE))])
    want = outcome(reference_build, adj)
    got = outcome(traced, adj)
    assert isinstance(want, OutersplitError)
    assert type(got) is type(want)
    assert str(got) == str(want)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_several_faults_raise_the_reference_class(data):
    group = data.draw(st.sampled_from(GROUPS))
    mutations = data.draw(st.lists(st.sampled_from(group), min_size=2,
                                   max_size=4))
    adj = mutant(data.draw, mutations)
    want = outcome(reference_build, adj)
    got = outcome(traced, adj)
    if isinstance(want, OutersplitError):
        assert type(got) is type(want)
    else:
        # dropping both sides of an edge leaves a symmetric system
        assert got == want


@pytest.mark.parametrize("adj, error", [
    # a self-loop or a repeated neighbor wins over asymmetry listed
    # earlier in the map
    ({"a": ["b", "c"], "b": ["c"], "c": ["a", "b", "c"]}, SelfLoop),
    ({"a": ["b", "x"], "b": ["a", "a"]}, ParallelEdge),
    # asymmetry wins over a second component
    ({"a": ["b"], "b": [], "c": ["d"], "d": ["c"]}, AsymmetricRotation),
])
def test_error_precedence(adj, error):
    with pytest.raises(error):
        build(adj)
