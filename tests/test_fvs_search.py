"""The dynamic programme of cover_solver, the exact feedback vertex set
solver for every dual the matroid parity rank does not take, and
min_fvs, which dispatches to it, pinned against a brute force on small
random multigraphs, together with the reductions and lower bounds that
certify the rank.

The graphs have up to 9 nodes and mix doubled and tripled edges, chains
of degree-2 nodes, isolated nodes and several components.  The programme
keeps its steps across solves, so it also runs with that memo emptied
again and again.
"""

import random
from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

from outersplit import cover_solver
from outersplit.cover_solver import (
    _dp_fvs,
    _lower_bound,
    _Multi,
    _peel_bound,
    _reduce,
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


def test_reduce_follows_a_capped_doubled_edge():
    # u = 2 is the one node of degree 2; its edges a-u-b would double
    # a=b, which is doubled already, so a and b each lose one degree, and
    # the reduction then takes one of them
    mg = _Multi.from_dual(DualGraph((0, 1, 2), ((0, 1), (0, 1), (0, 2),
                                                (1, 2))))
    taken = []
    assert _reduce(mg, 3, taken)
    assert mg.adj == {} and len(taken) == 1


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


@given(multigraphs(), st.data())
def test_lower_bound_skipping_a_node_equals_it_removed(d, data):
    mg = _Multi.from_dual(d)
    x = data.draw(st.sampled_from(d.nodes))
    adj = {u: dict(nbrs) for u, nbrs in mg.adj.items()}
    rest = mg.copy()
    rest.remove(x)
    assert _lower_bound(mg, skip=x) == _lower_bound(rest)
    assert mg.adj == adj


def test_search_matches_brute_force_on_random_multigraphs():
    """min_fvs, the exact search as callers see it, together with the
    peel bound it certifies the rank with."""
    seen_triple = seen_split = 0
    for d, want in brute_corpus():
        assert _peel_bound(_Multi.from_dual(d)) <= len(want), d
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


def test_dp_with_its_steps_emptied_gives_the_same_answers(monkeypatch):
    """Room for 7 steps, so every memo is emptied many times within one
    solve, each time while one of them is in use."""
    steps = cover_solver._Steps(7)
    monkeypatch.setattr(cover_solver, "_DP_STEPS", steps)
    for d, want in brute_corpus():
        assert _dp_fvs(d) == (len(want), want), d
        assert sum(map(len, steps.memos.values())) <= 7


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
