"""The exact feedback vertex set search of cover_solver, pinned against a
brute force on small random multigraphs.

The graphs have up to 9 nodes and mix doubled and tripled edges, chains
of degree-2 nodes, isolated nodes and several components.
"""

import random
from itertools import combinations

from outersplit.cover_solver import _decide, _Multi, _peel_bound, _search_fvs
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


def test_search_matches_brute_force_on_random_multigraphs():
    rnd = random.Random(2024)
    seen_triple = seen_split = 0
    for _ in range(1000):
        d = random_multigraph(rnd)
        want = brute_fvs(d)
        opt = len(want)
        for budget in range(len(d.nodes) + 1):
            got = _decide(_Multi.from_dual(d), budget)
            assert (got is not None) == (budget >= opt), (d, budget)
            if got is not None:
                assert len(got) == len(set(got)) <= budget, (d, budget)
                assert acyclic_without(d, set(got)), (d, budget)
        assert _peel_bound(_Multi.from_dual(d)) <= opt, d
        k, chosen = _search_fvs(_Multi.from_dual(d))
        assert (k, chosen) == (opt, want), d
        seen_triple += any(d.edges[i] == d.edges[i + 2]
                           for i in range(len(d.edges) - 2))
        seen_split += cyclic_components(d) >= 2
    # the corpus does hold the shapes it is meant to
    assert seen_triple > 300 and seen_split > 100
