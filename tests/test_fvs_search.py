"""The exact feedback vertex set solvers of cover_solver, the search and
the dynamic programme, pinned against a brute force on small random
multigraphs.

The graphs have up to 9 nodes and mix doubled and tripled edges, chains
of degree-2 nodes, isolated nodes and several components.  The search
memoizes the kernels it branches on, so the brute force also runs with
one memo shared by every budget and with the memo capped to nothing.
The programme keeps its steps across solves, so it also runs with that
memo emptied again and again.
"""

import random
from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

from outersplit import cover_solver
from outersplit.cover_solver import (
    _decide,
    _dp_fvs,
    _lower_bound,
    _Memo,
    _Multi,
    _peel_bound,
    _reduce,
    _search_fvs,
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


def check_budgets(d, opt, budgets, memo=None):
    """_decide meets each budget exactly when it is opt or more, with a
    feedback set within it."""
    for budget in budgets:
        got = _decide(_Multi.from_dual(d), budget, memo)
        assert (got is not None) == (budget >= opt), (d, budget)
        if got is not None:
            assert len(got) == len(set(got)) <= budget, (d, budget)
            assert acyclic_without(d, set(got)), (d, budget)


def test_search_matches_brute_force_on_random_multigraphs():
    seen_triple = seen_split = 0
    for d, want in brute_corpus():
        opt = len(want)
        check_budgets(d, opt, range(len(d.nodes) + 1))
        assert _peel_bound(_Multi.from_dual(d)) <= opt, d
        k, chosen = _search_fvs(_Multi.from_dual(d))
        assert (k, chosen) == (opt, want), d
        seen_triple += any(d.edges[i] == d.edges[i + 2]
                           for i in range(len(d.edges) - 2))
        seen_split += cyclic_components(d) >= 2
    # the corpus does hold the shapes it is meant to
    assert seen_triple > 300 and seen_split > 100


def test_reduce_from_the_neighbours_of_a_deleted_node():
    """A branch deletes one node of a reduced kernel and reduces from its
    neighbours only; that leaves every degree at 3 or more again."""
    checked = 0
    for d, _ in brute_corpus():
        mg = _Multi.from_dual(d)
        _reduce(mg, len(d.nodes), [])
        for x in sorted(mg.adj):
            trial = mg.copy()
            trial.remove(x)
            _reduce(trial, len(d.nodes), [], list(mg.adj[x]))
            assert all(deg >= 3 for deg in trial.deg.values()), (d, x)
            checked += 1
    assert checked > 500


def test_reduce_follows_a_capped_doubled_edge():
    # u's edges a-u-b would double a=b, which is doubled already, so a
    # and b each lose one degree; the reduction then takes one of them
    mg = _Multi.from_dual(DualGraph((0, 1, 2), ((0, 1), (0, 1), (0, 2),
                                                (1, 2))))
    taken = []
    assert _reduce(mg, 3, taken, [2])
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


def test_one_memo_serves_every_budget(monkeypatch):
    """Every budget up, then every budget down, with one memo: the way
    up stores refuted budgets and found sets, and the way down is
    answered from them without branching."""
    branched = []
    short_cycle = cover_solver._short_cycle

    def counted(mg):
        branched.append(mg)
        return short_cycle(mg)

    monkeypatch.setattr(cover_solver, "_short_cycle", counted)
    refuted = found = 0
    for d, want in brute_corpus():
        opt = len(want)
        memo = _Memo()
        budgets = list(range(len(d.nodes) + 1))
        check_budgets(d, opt, budgets, memo)
        branched.clear()
        check_budgets(d, opt, budgets[::-1], memo)
        assert not branched, d
        refuted += any(e[1] >= 0 for e in memo.kernels.values())
        found += any(e[2] is not None for e in memo.kernels.values())
    # most refutations come from the degree bound, before any lookup
    assert refuted > 10 and found > 150


def test_search_without_memo_room_gives_the_same_answers(monkeypatch):
    monkeypatch.setattr(cover_solver, "_MEMO_MAX_NODES", 0)
    for d, want in brute_corpus():
        opt = len(want)
        memo = _Memo()
        check_budgets(d, opt, range(len(d.nodes) + 1), memo)
        assert memo.kernels == {}
        assert _search_fvs(_Multi.from_dual(d)) == (opt, want), d


def test_kernels_on_one_node_set_keep_their_own_answers():
    """Two a-u-b, a-w-b paths reduce to a doubled edge a=b, and one path
    to a single edge, on the same kernel nodes 0..5 with a=0 and b=1.
    The single edge needs 2 nodes and the doubled one 3; at budget 2
    both kernels pass the degree bound, so both are stored."""
    base = [(0, 2), (0, 5), (1, 2), (1, 5), (2, 3), (2, 4), (3, 4),
            (3, 5), (4, 5)]
    one = DualGraph(tuple(range(7)), tuple(sorted(base + [(0, 6), (1, 6)])))
    two = DualGraph(tuple(range(8)), tuple(sorted(
        base + [(0, 6), (1, 6), (0, 7), (1, 7)])))
    kernel = frozenset(range(6))
    for first, second in ((one, two), (two, one)):
        memo = _Memo()
        for d in (first, second):
            # a found set of one is no feedback set of two, and a
            # refutation of two does not hold for one
            got = _decide(_Multi.from_dual(d), 2, memo)
            assert kernel in memo.kernels
            if d is one:
                assert len(got) == 2 and acyclic_without(d, set(got))
            else:
                assert got is None
        got = _decide(_Multi.from_dual(two), 3, memo)
        assert len(got) == 3 and acyclic_without(two, set(got))
    assert _search_fvs(_Multi.from_dual(one))[0] == 2
    assert _search_fvs(_Multi.from_dual(two))[0] == 3


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
def test_dp_matches_the_search_on_duals_of_degree_above_3(d):
    assert _dp_fvs(d) == _search_fvs(_Multi.from_dual(d))
