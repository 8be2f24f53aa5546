"""The dynamic programme of cover_solver, the one exact feedback vertex
set solver, its min-fill elimination order, and min_fvs itself, pinned
against a brute force on small random multigraphs, with timing and
determinism checks on larger triangulations.

The graphs have up to 9 nodes and mix doubled and tripled edges, chains
of degree-2 nodes, isolated nodes and several components.  The programme
keeps its steps across solves, so it also runs with that memo emptied
again and again.
"""

import heapq
import os
import random
import subprocess
import sys
import time
from collections import Counter
from functools import reduce
from itertools import combinations
from operator import xor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import outersplit
from outersplit import (
    complete_3tree,
    cover_solver,
    dual,
    is_outerplane,
    random_biconnected,
    random_triangulation,
    replay,
    solve_osn,
)
from outersplit.cover_solver import (
    _dp_fvs,
    _eliminate,
    _find,
    _is_forest,
    min_fvs,
)
from outersplit.plane_graph import DualGraph


def random_multigraph(rnd):
    nodes = list(range(rnd.randint(1, 9)))
    order = nodes[:]
    rnd.shuffle(order)
    edges = []
    # cut the shuffled nodes into up to three components
    cuts = sorted(rnd.sample(range(1, len(order) + 1),
                             min(len(order), rnd.randint(1, 3))))
    start = 0
    for stop in cuts:
        block = order[start:stop]
        start = stop
        if len(block) < 2:
            continue
        if rnd.random() < 0.5:
            # a cycle through the block: a chain of degree-2 nodes where
            # no chord lands, and a doubled edge when the block has two
            edges += [(block[i - 1], block[i]) for i in range(len(block))]
        for _ in range(rnd.randint(0, len(block) + 2)):
            a, b = rnd.sample(block, 2)
            edges += [(a, b)] * rnd.choice((1, 1, 1, 2, 3))
    edges = [(min(a, b), max(a, b)) for a, b in edges]
    return DualGraph(nodes=tuple(nodes), edges=tuple(sorted(edges)))


def acyclic_without(d, out):
    parent = {u: u for u in d.nodes if u not in out}

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    for a, b in d.edges:
        if a in out or b in out:
            continue
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def cyclic_components(d):
    """The number of components that hold a cycle."""
    parent = {u: u for u in d.nodes}

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    closing = []
    for a, b in d.edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            closing.append(a)
        else:
            parent[ra] = rb
    return len({find(u) for u in closing})


def brute_fvs(d):
    """The lexicographically least among the smallest feedback sets."""
    nodes = sorted(d.nodes)
    for size in range(len(nodes) + 1):
        for combo in combinations(nodes, size):
            if acyclic_without(d, set(combo)):
                return list(combo)
    raise AssertionError("unreachable")


def brute_corpus():
    """The 1,000 multigraphs of the brute-force tests, with their answers."""
    rnd = random.Random(2024)
    for _ in range(1000):
        d = random_multigraph(rnd)
        yield d, brute_fvs(d)


@st.composite
def multigraphs(draw):
    """Loopless multigraphs of up to 10 nodes and any degree, with
    doubled and tripled edges."""
    n = draw(st.integers(1, 10))
    ends = st.integers(0, n - 1)
    edges = sorted((min(a, b), max(a, b))
                   for a, b in draw(st.lists(st.tuples(ends, ends),
                                             max_size=30))
                   if a != b)
    return DualGraph(nodes=tuple(range(n)), edges=tuple(edges))


def closes_a_cycle(edges):
    """Whether some nonempty set of the edges meets every node an even
    number of times; a set that does holds a cycle, and a cycle is one."""
    ends = [(1 << a) ^ (1 << b) for a, b in edges]
    return any(not reduce(xor, combo)
               for size in range(1, len(ends) + 1)
               for combo in combinations(ends, size))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_is_forest_matches_brute_force(data):
    """_is_forest, on which min_fvs checks its answer, against a brute
    force on loopless multigraphs of up to 8 nodes with parallel pairs."""
    n = data.draw(st.integers(2, 8))
    ends = st.integers(0, n - 1)
    edges = [(a, b) for a, b in data.draw(
        st.lists(st.tuples(ends, ends), max_size=10)) if a != b]
    if edges:
        edges += data.draw(st.lists(st.sampled_from(edges), max_size=2))
    assert _is_forest(edges) == (not closes_a_cycle(edges))


def test_is_forest_takes_a_triangle_and_a_doubled_edge_for_cycles():
    assert not _is_forest([(0, 1), (1, 2), (0, 2)])
    assert not _is_forest([(3, 5), (3, 5)])
    assert _is_forest([(0, 1), (1, 2), (3, 5)])


def test_find_points_the_path_at_the_root():
    parent = {0: 1, 1: 2, 2: 3, 3: 4}
    assert _find(parent, 0) == 4
    assert parent == {0: 4, 1: 4, 2: 4, 3: 4}


def test_is_forest_on_a_large_star_and_path():
    star = [(leaf, 0) for leaf in range(1, 3001)]
    path = [(i, i + 1) for i in range(2999)]
    assert _is_forest(star)
    assert _is_forest(path)
    assert not _is_forest(star + [star[1500]])
    assert not _is_forest(path + [path[1500]])


def test_search_matches_brute_force_on_random_multigraphs():
    """min_fvs, the exact search as callers see it."""
    seen_triple = seen_split = 0
    for d, want in brute_corpus():
        sol = min_fvs(d)
        assert sorted(sol.nodes) == want, d
        assert acyclic_without(d, sol.nodes), d
        seen_triple += any(d.edges[i] == d.edges[i + 2]
                           for i in range(len(d.edges) - 2))
        seen_split += cyclic_components(d) >= 2
    # the corpus does hold the shapes it is meant to
    assert seen_triple > 300 and seen_split > 100


def test_dp_matches_brute_force_on_random_multigraphs():
    for d, want in brute_corpus():
        assert _dp_fvs(d) == (len(want), want), d


def stored_results(steps):
    """Every result that the memos of steps hold, with the states it
    leads to: a bare state leads to itself, a tuple to its states."""
    for memo in steps.memos.values():
        for value in memo.values():
            for nxt in value.values() if isinstance(value, dict) else (value,):
                yield nxt, nxt if isinstance(nxt, tuple) else ()


def test_dp_with_its_steps_emptied_gives_the_same_answers(monkeypatch):
    """Room for 7 steps, so every memo is emptied many times within one
    solve, each time while one of them is in use; the table of shared
    values is emptied with them, so it holds just what they hold."""
    steps = cover_solver._Steps(7)
    monkeypatch.setattr(cover_solver, "_DP_STEPS", steps)
    for d, want in brute_corpus():
        assert _dp_fvs(d) == (len(want), want), d
        assert sum(map(len, steps.memos.values())) <= 7
        held = set()
        for nxt, states in stored_results(steps):
            held.add(nxt)
            held.update(states)
        assert steps.shared.keys() == held


def test_dp_stores_each_distinct_result_once(monkeypatch):
    """Equal results of different steps, and equal states in them, are
    one object in the memos."""
    steps = cover_solver._Steps(cover_solver._DP_MAX_STEPS)
    monkeypatch.setattr(cover_solver, "_DP_STEPS", steps)
    for g in (random_triangulation(30, 0), complete_3tree(3),
              random_biconnected(100, 290, 0)):
        min_fvs(dual(g))
    first = {}
    count = 0
    for nxt, states in stored_results(steps):
        count += 1
        assert first.setdefault(nxt, nxt) is nxt
        for r in states:
            assert first.setdefault(r, r) is r
    # the memos do hold many equal results, in few distinct values
    assert count > 10 * len(first)


def test_each_kind_of_step_has_one_stored_form(monkeypatch):
    """A join step, alone or taken with a forget that covers its bag,
    stores its one state bare, or _NONE; a forget step taken alone
    stores a tuple of states."""
    steps = cover_solver._Steps(cover_solver._DP_MAX_STEPS)
    monkeypatch.setattr(cover_solver, "_DP_STEPS", steps)
    for g in (random_triangulation(30, 0), random_biconnected(100, 290, 0)):
        min_fvs(dual(g))
    kinds = Counter()
    for key, memo in steps.memos.items():
        if key[0] == 4:
            kinds["forget"] += 1
            assert all(type(nxt) is tuple for nxt in memo.values()), key
            continue
        if type(key[0]) is tuple:
            kinds["fused"] += 1
            key, forget = key
            assert forget[0] == 4 and cover_solver._covers(forget), forget
        else:
            kinds["join"] += 1
        assert set(key) <= {1, 2, 3}, key
        for row in memo.values():
            assert all(type(r) is int for r in row.values()), key
    assert min(kinds["forget"], kinds["fused"], kinds["join"]) > 0


@st.composite
def states(draw, width):
    """A state over width positions, from random block labels, 0 for a
    deleted position."""
    labels = draw(st.lists(st.integers(0, width), min_size=width,
                           max_size=width))
    return cover_solver._canonical(labels)


def is_state(r, width):
    labels = [r >> 4 * i & 15 for i in range(width)]
    return r >> 4 * width == 0 and cover_solver._canonical(labels) == r


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_join_and_covering_forget_steps_lead_to_at_most_one_state(data):
    """What the bare storage of step results rests on: a join step leads
    to one state or none, and so does a forget step whose pattern covers
    every node of its bag, the state that _forget_one gives bare."""
    pattern = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1,
                                       max_size=8)))
    s1 = data.draw(states(sum(code & 1 for code in pattern)))
    s2 = data.draw(states(sum(code >> 1 for code in pattern)))
    r = cover_solver._join_step(pattern, s1, s2)
    assert r is None or is_state(r, len(pattern))
    # v first, then each node of the bag covered, with 0-2 edges to v
    forget = (4, *data.draw(st.lists(st.integers(4, 6), max_size=8)))
    s = data.draw(states(len(forget)))
    out = cover_solver._forget_step(forget, s)
    assert len(out) <= 1
    assert all(is_state(r, len(forget) - 1) for r in out)
    assert cover_solver._forget_one(forget, s) == (
        out[0] if out else cover_solver._NONE)


def test_dp_declines_above_its_width_cap(monkeypatch):
    # K5 has elimination width 4
    k5 = DualGraph(tuple(range(5)), tuple(combinations(range(5), 2)))
    monkeypatch.setattr(cover_solver, "_DP_MAX_WIDTH", 4)
    assert _dp_fvs(k5) == (3, [0, 1, 2])
    monkeypatch.setattr(cover_solver, "_DP_MAX_WIDTH", 3)
    assert _dp_fvs(k5) is None


@st.composite
def hub_multigraphs(draw):
    """Multigraphs as multigraphs() draws them, on 2 to 10 nodes, plus
    four edges at node 0, so that its degree is above 3."""
    d = draw(multigraphs().filter(lambda d: len(d.nodes) >= 2))
    ends = draw(st.lists(st.integers(1, len(d.nodes) - 1),
                         min_size=4, max_size=4))
    return DualGraph(d.nodes, tuple(sorted(d.edges + tuple(
        (0, b) for b in ends))))


@given(hub_multigraphs())
def test_dp_matches_brute_force_on_duals_of_degree_above_3(d):
    want = brute_fvs(d)
    assert _dp_fvs(d) == (len(want), want)


# -- the elimination order -------------------------------------------------------
#
# The programme runs over a min-fill elimination order, but its answer,
# the lexicographically least optimum, does not depend on the order; only
# the width, the time and the memory do.  The orders below are built by
# plain elimination with fill, node by node, as a reference.

def eliminate_along(pick, nodes, pairs, cap):
    """Eliminate the simple graph on nodes with the given pairs as edges,
    each time the node that pick chooses from the adjacency left, and
    join its neighbours into a clique: the order and each node's later
    neighbours, as _eliminate gives them, or None once a node has more
    than cap."""
    adj = {u: set() for u in nodes}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    order, later = [], {}
    while adj:
        u = pick(adj)
        nbrs = adj.pop(u)
        if len(nbrs) > cap:
            return None
        for a in nbrs:
            adj[a] |= nbrs - {a}
            adj[a].discard(u)
        order.append(u)
        later[u] = nbrs
    return order, later


def fill_of(adj, u):
    return sum(b not in adj[a] for a, b in combinations(adj[u], 2))


def min_fill_order(nodes, pairs, cap):
    """Min-fill with every fill counted afresh at every step, ties broken
    by degree, then node id."""
    return eliminate_along(
        lambda adj: min(adj, key=lambda u: (fill_of(adj, u), len(adj[u]), u)),
        nodes, pairs, cap)


def min_degree_order(nodes, pairs, cap):
    """Min-degree with fill, ties broken by node id: the order the
    programme ran over before min-fill.  A heap keeps it fast enough for
    duals of a few thousand nodes."""
    adj = {u: set() for u in nodes}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    heap = [(len(nbrs), u) for u, nbrs in adj.items()]
    heapq.heapify(heap)
    order, later = [], {}
    while heap:
        deg, u = heapq.heappop(heap)
        if u not in adj or deg != len(adj[u]):
            continue
        nbrs = adj.pop(u)
        if deg > cap:
            return None
        for a in nbrs:
            adj[a] |= nbrs - {a}
            adj[a].discard(u)
            heapq.heappush(heap, (len(adj[a]), a))
        order.append(u)
        later[u] = nbrs
    return order, later


def random_order(seed):
    rnd = random.Random(seed)
    return lambda nodes, pairs, cap: eliminate_along(
        lambda adj: rnd.choice(sorted(adj)), nodes, pairs, cap)


def width(plan):
    return max(map(len, plan[1].values()), default=0)


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1))
                         .filter(lambda p: p[0] < p[1]), max_size=40))
    return tuple(range(n)), sorted(pairs)


@settings(max_examples=300, deadline=None)
@given(simple_graphs())
def test_incremental_fill_counts_give_the_min_fill_order(graph):
    nodes, pairs = graph
    assert _eliminate(nodes, pairs, len(nodes)) == min_fill_order(
        nodes, pairs, len(nodes))
    for cap in range(4):
        assert (_eliminate(nodes, pairs, cap) is None) == (
            width(min_fill_order(nodes, pairs, len(nodes))) > cap)


def test_min_fill_order_on_benchmark_duals():
    # the last two join neighbourhoods with several fill edges that
    # share a common neighbour
    for d in [dual(random_triangulation(26, 0)),
              dual(random_biconnected(80, 110, 0)),
              dual(random_biconnected(40, 110, 0)),
              dual(complete_3tree(2))]:
        pairs = Counter(d.edges)
        assert _eliminate(d.nodes, pairs, 9) == min_fill_order(
            d.nodes, pairs, 9)


@pytest.mark.parametrize("order", ["min_degree", "random"])
def test_dp_answer_does_not_depend_on_the_order(monkeypatch, order):
    for i, (d, want) in enumerate(brute_corpus()):
        monkeypatch.setattr(cover_solver, "_eliminate",
                            min_degree_order if order == "min_degree"
                            else random_order(i))
        assert _dp_fvs(d) == (len(want), want), d


@given(hub_multigraphs(), st.integers(0, 2**32))
def test_dp_answer_does_not_depend_on_the_order_above_degree_3(d, seed):
    want = _dp_fvs(d)
    with pytest.MonkeyPatch.context() as mp:
        for order in (min_degree_order, random_order(seed)):
            mp.setattr(cover_solver, "_eliminate", order)
            assert _dp_fvs(d) == want


# dual of: (graph, nodes, min-degree width, min-fill width)
WIDTHS = {
    "random_triangulation(100, 0)":
        (lambda: random_triangulation(100, 0), 196, 8, 6),
    "random_triangulation(200, 0)":
        (lambda: random_triangulation(200, 0), 396, 6, 5),
    "random_triangulation(400, 0)":
        (lambda: random_triangulation(400, 0), 796, 8, 7),
    "random_triangulation(800, 0)":
        (lambda: random_triangulation(800, 0), 1596, 10, 8),
    "random_triangulation(1600, 0)":
        (lambda: random_triangulation(1600, 0), 3196, 12, 9),
    "random_biconnected(180, 500, 0)":
        (lambda: random_biconnected(180, 500, 0), 322, 10, 7),
    "random_biconnected(250, 700, 0)":
        (lambda: random_biconnected(250, 700, 0), 452, 11, 8),
    "complete_3tree(4)": (lambda: complete_3tree(4), 244, 8, 4),
    "complete_3tree(5)": (lambda: complete_3tree(5), 730, 12, 4),
    "complete_3tree(6)": (lambda: complete_3tree(6), 2188, 14, 4),
}


@pytest.mark.parametrize("name", WIDTHS)
def test_min_fill_width_is_at_most_the_min_degree_width(name):
    graph, nodes, degree_width, fill_width = WIDTHS[name]
    d = dual(graph())
    pairs = Counter(d.edges)
    assert len(d.nodes) == nodes
    assert width(min_degree_order(d.nodes, pairs, nodes)) == degree_width
    assert width(_eliminate(d.nodes, pairs, nodes)) == fill_width
    assert fill_width <= degree_width


def test_min_fill_width_on_the_tri_exact_duals():
    specs = [(24, 0), (24, 1), (25, 0), (25, 1), (26, 0), (26, 1), (27, 0),
             (27, 1), (28, 0), (28, 1), (29, 0), (29, 3), (30, 0), (30, 1)]
    degree, fill = [], []
    for n, seed in specs:
        d = dual(random_triangulation(n, seed))
        pairs = Counter(d.edges)
        degree.append(width(min_degree_order(d.nodes, pairs, d.n)))
        fill.append(width(_eliminate(d.nodes, pairs, d.n)))
    assert degree == [6, 6, 5, 5, 6, 5, 5, 6, 7, 5, 5, 6, 6, 5]
    assert fill == [5, 6, 5, 4, 5, 4, 5, 5, 6, 4, 4, 5, 5, 5]


@pytest.mark.parametrize("depth, optimum", [(1, 3), (2, 9), (3, 27)])
def test_dp_value_on_complete_3trees(depth, optimum):
    # the optimum lies above the degree lower bound from depth 2 on: 9
    # against 8, and 27 against 21
    d = dual(complete_3tree(depth))
    assert _dp_fvs(d)[0] == optimum
    assert len(min_fvs(d).nodes) == optimum


def test_dp_counts_parallel_pairs_in_either_orientation():
    # DualGraph promises (min, max) pairs, but a pair given the other way
    # round is still the same edge: (0, 1) and (1, 0) make a 2-cycle
    d = DualGraph((0, 1, 2), ((0, 1), (1, 0), (1, 2)))
    assert _dp_fvs(d) == (1, [0])
    assert min_fvs(d).nodes == {0}


@pytest.mark.parametrize("n, seed, osn", [(29, 1, 13), (29, 2, 13),
                                          (100, 0, 49)])
def test_large_triangulations_solve_quickly(n, seed, osn):
    # the benchmark leaves out n=29 seeds 1 and 2, which an earlier
    # branch and bound took 52 s and 27 s to solve
    g = random_triangulation(n, seed=seed)
    start = time.perf_counter()
    res = solve_osn(g)
    elapsed = time.perf_counter() - start
    assert res.osn == osn
    assert is_outerplane(replay(g, res.splits))
    if n == 29:
        assert elapsed < 2.0


def test_cli_output_does_not_depend_on_the_hash_seed(tmp_path):
    src = Path(outersplit.__file__).resolve().parent.parent
    rot = tmp_path / "t.rot"

    def cli(*argv, hash_seed="0"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "outersplit.cli", *argv], env=env,
            capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    cli("gen", "random_triangulation", "-n", "30", "--seed", "1",
        "-o", str(rot))
    first = cli("osn", str(rot), "--porcelain", hash_seed="1")
    second = cli("osn", str(rot), "--porcelain", hash_seed="2")
    assert first == second
    assert b"osn=14\n" in first
