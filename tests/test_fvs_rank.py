"""The matroid parity rank that min_fvs uses on a dual of maximum degree
3 when the dynamic programme declines it, pinned against the programme.

For a multigraph H of maximum degree 3 the minimum feedback vertex set
has size beta(H) - nu(H), and the rank of a random Lovasz matrix gives
nu(H) with high probability.  The reference here is the programme,
_dp_fvs, which gives the optimum and the lexicographically least
optimal node set exactly.  The programme takes every dual within its
width cap, so the rank path is called directly here, or reached through
min_fvs with _DP_MAX_WIDTH lowered.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import outersplit
from outersplit import (
    complete_3tree,
    dual,
    is_outerplane,
    min_fvs,
    random_triangulation,
    replay,
    solve_osn,
)
from outersplit import cover_solver
from outersplit.cover_solver import (
    _dp_fvs,
    _lower_bound,
    _Multi,
    _ParityRank,
    _peel_bound,
    _rank_fvs,
)
from outersplit.errors import CapExceeded
from outersplit.plane_graph import DualGraph


def as_dual(mg):
    """The multigraph as a DualGraph, each edge as often as mg holds it."""
    edges = [(u, w) for u, nbrs in mg.adj.items()
             for w, mult in nbrs.items() if u < w for _ in range(mult)]
    return DualGraph(nodes=tuple(mg.adj), edges=tuple(edges))


def rank_value(mg, rng):
    """beta - nu of the multigraph from one fresh draw."""
    d = as_dual(mg)
    return _ParityRank(list(d.nodes), d.edges, rng).value


def dp_optimum(mg):
    """Minimum feedback vertex set size by the dynamic programme."""
    return _dp_fvs(as_dual(mg))[0]


def triangulation_duals(n_max, seeds=(0, 1, 2)):
    for n in range(4, n_max + 1):
        for seed in seeds:
            yield n, seed, dual(random_triangulation(n, seed=seed))


def test_rank_value_matches_search_on_triangulation_duals():
    checked = 0
    for n, seed, d in triangulation_duals(26):
        mg = _Multi.from_dual(d)
        rng = random.Random(f"{n}/{seed}")
        assert rank_value(mg, rng) == dp_optimum(mg), (n, seed)
        checked += 1
    assert checked == 69


@pytest.mark.parametrize("depth, optimum", [(1, 3), (2, 9), (3, 27)])
def test_rank_value_on_complete_3trees(depth, optimum):
    # the value lies above the degree lower bound from depth 2 on: 9
    # against 8, and 27 against 21
    mg = _Multi.from_dual(dual(complete_3tree(depth)))
    assert dp_optimum(mg) == optimum
    assert rank_value(mg, random.Random(depth)) == optimum
    assert len(min_fvs(dual(complete_3tree(depth))).nodes) == optimum


@pytest.mark.parametrize("depth, degree, peel", [(1, 3, 3), (2, 8, 9),
                                                  (3, 21, 27), (4, 62, 81)])
def test_peel_bound_on_complete_3trees(depth, degree, peel):
    # peeling reaches the optimum 3^depth, which the degree bound misses
    mg = _Multi.from_dual(dual(complete_3tree(depth)))
    assert _lower_bound(mg) == degree
    assert _peel_bound(mg) == peel


def test_complete_3tree_depth_4_needs_no_refutation(monkeypatch):
    # the peel bound certifies the rank value, so the rank path, reached
    # once the programme declines the dual, raises no CapExceeded
    d = dual(complete_3tree(4))
    k, chosen = _dp_fvs(d)
    assert _rank_fvs(d, _Multi.from_dual(d)) == (81, chosen)
    monkeypatch.setattr(cover_solver, "_DP_MAX_WIDTH", 2)
    assert min_fvs(d).nodes == frozenset(chosen)


def test_rank_value_matches_search_on_subgraphs():
    """Subcubic graphs D - X with at most 30 nodes, from a fresh
    evaluation and from the bordered one that deletes X node by node."""
    rnd = random.Random(7)
    checked = 0
    for n in range(5, 17):
        for seed in range(3):
            d = dual(random_triangulation(n, seed=seed))
            nodes = sorted(d.nodes)
            for _ in range(6):
                size = rnd.randint(1, min(5, len(nodes) - 1))
                gone = rnd.sample(nodes, size)
                mg = _Multi.from_dual(d)
                for x in gone:
                    mg.remove(x)
                want = dp_optimum(mg)
                assert rank_value(mg, random.Random(checked)) == want

                oracle = _ParityRank(nodes, d.edges, random.Random(checked))
                done = set()
                for x in gone:
                    new = [e for e in oracle.inc[nodes.index(x)]
                           if e not in done]
                    before = oracle.value_without(new)
                    oracle.delete(new)
                    done.update(new)
                    assert oracle.value == before
                assert oracle.value == want
                checked += 1
    assert checked >= 200


def test_node_sets_match_the_search_completion():
    """The rank path's node sets are the programme's, the
    lexicographically least optimal ones."""
    cases = [(n, s) for n in range(4, 27) for s in (0, 1, 2)]
    cases += [(29, 1), (29, 2)]
    for n, seed in cases:
        d = dual(random_triangulation(n, seed=seed))
        k, chosen = _dp_fvs(d)
        assert len(chosen) == k
        assert _rank_fvs(d, _Multi.from_dual(d)) == (k, chosen), (n, seed)


@pytest.fixture
def built(monkeypatch):
    """Every _ParityRank built while the test runs, in order."""
    made = []

    class Counted(_ParityRank):
        def __init__(self, *args):
            made.append(self)
            super().__init__(*args)

    monkeypatch.setattr(cover_solver, "_ParityRank", Counted)
    return made


def numbered(n, edges):
    """The graph on nodes 0..n-1 with the given edges, each once."""
    return DualGraph(nodes=tuple(range(n)),
                     edges=tuple(sorted({tuple(sorted(e)) for e in edges})))


def lcf(jumps, repeats):
    """The cubic graph of LCF notation [jumps]^repeats: a Hamiltonian
    cycle 0, 1, ..., n - 1 plus a chord from i to i + jumps[i]."""
    n = len(jumps) * repeats
    return numbered(n, [(i, (i + 1) % n) for i in range(n)]
                    + [(i, (i + jumps[i % len(jumps)]) % n)
                       for i in range(n)])


def petersen():
    # the Petersen graph has no Hamiltonian cycle and so no LCF notation:
    # an outer 5-cycle, spokes, and an inner pentagram
    return numbered(10, [(i, (i + 1) % 5) for i in range(5)]
                    + [(i, i + 5) for i in range(5)]
                    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


CAGES = {
    # name: (graph, nodes, optimum)
    "Petersen": (petersen(), 10, 3),
    "Heawood": (lcf([5, -5], 7), 14, 4),
    "McGee": (lcf([12, 7, -7], 8), 24, 7),
    "Tutte-Coxeter": (lcf([-13, -9, 7, -7, 9, 13], 5), 30, 8),
}


def test_min_fvs_sends_cubic_duals_of_at_most_24_nodes_to_the_dp(built,
                                                                monkeypatch):
    """Every triangulation dual with n <= 15 and every cage solves on
    the programme with no rank oracle built, to the node set the rank
    path finds; with the programme's width cap lowered below each of
    them, min_fvs builds the same oracles, one per draw, as the rank
    path does."""
    cases = {(n, seed): dual(random_triangulation(n, seed=seed))
             for n in range(4, 16) for seed in range(5)}
    for name, (d, nodes, optimum) in CAGES.items():
        assert len(d.nodes) == nodes
        assert set(d.degrees().values()) == {3}, name
        cases[name] = d
    routed = {"dp": 0, "rank": 0}
    cap = cover_solver._DP_MAX_WIDTH
    for key, d in cases.items():
        del built[:]
        k, chosen = _rank_fvs(d, _Multi.from_dual(d))
        if key in CAGES:
            assert k == CAGES[key][2], key
        draws = len(built)
        assert draws in (1, 2)
        del built[:]
        assert min_fvs(d).nodes == frozenset(chosen), key
        assert built == [], key
        routed["dp"] += 1
        monkeypatch.setattr(cover_solver, "_DP_MAX_WIDTH", 2)
        assert min_fvs(d).nodes == frozenset(chosen), key
        assert len(built) == draws, key
        routed["rank"] += 1
        monkeypatch.setattr(cover_solver, "_DP_MAX_WIDTH", cap)
    # n = 4..15 with 5 seeds and four cages
    assert routed == {"dp": 64, "rank": 64}


def test_rank_path_makes_no_delete_after_the_last_node(built,
                                                       monkeypatch):
    """A delete after the k-th node is chosen would feed no later query,
    so none is made: every delete leaves an oracle with a positive
    value, since at least one node is still to find, and the first
    oracle is deleted from once per chosen node but the last."""
    deleted = []
    delete = _ParityRank.delete

    def counted(self, edges):
        delete(self, edges)
        deleted.append(self)
        assert self.value > 0

    monkeypatch.setattr(_ParityRank, "delete", counted)
    total = 0
    for n, seed in [(24, 0), (25, 1), (27, 0), (30, 1)]:
        del built[:], deleted[:]
        d = dual(random_triangulation(n, seed=seed))
        k = len(_rank_fvs(d, _Multi.from_dual(d))[1])
        assert deleted.count(built[0]) == k - 1, (n, seed)
        total += len(deleted)
    # 5 oracles, one each for the first three and two for (30, 1): a
    # delete after the last node on each would make 62
    assert total == 57


# the triangulations (n, seed) of the tri_exact benchmark
TRI_EXACT = [(24, 0), (24, 1), (25, 0), (25, 1), (26, 0), (26, 1), (27, 0),
             (27, 1), (28, 0), (28, 1), (29, 0), (29, 3), (30, 0), (30, 1)]


def test_peel_bound_saves_second_draws(monkeypatch):
    """On the 14 triangulations of the tri_exact benchmark, the peel bound
    certifies most rejections the degree bound cannot, so few second
    draws are built: 17 rank oracles in all, 14 first draws and 3
    second ones (23 with the degree bound alone)."""
    built = []

    class Counted(_ParityRank):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(cover_solver, "_ParityRank", Counted)
    for n, seed in TRI_EXACT:
        d = dual(random_triangulation(n, seed=seed))
        assert _rank_fvs(d, _Multi.from_dual(d)) == _dp_fvs(d), (n, seed)
    assert len(built) <= 17


class HighValue(_ParityRank):
    """A rank whose value is one above the optimum, as a draw that lost
    rank would give; neither lower bound can certify it."""

    @property
    def value(self):
        return super().value + 1


def test_rank_value_above_its_bounds_falls_back_to_the_dp(monkeypatch):
    """The programme solves each dual before the rank could; the rank
    path, reached only once the programme declines, refuses a value
    that neither lower bound certifies, since its own completion would
    return one node too many."""
    monkeypatch.setattr(cover_solver, "_ParityRank", HighValue)
    duals = [dual(random_triangulation(n, seed=seed))
             for n, seed in TRI_EXACT]
    duals.append(dual(complete_3tree(2)))
    for d in duals:
        k, chosen = _dp_fvs(d)
        assert min_fvs(d).nodes == frozenset(chosen), d.n
        with pytest.raises(CapExceeded, match="rank value above"):
            _rank_fvs(d, _Multi.from_dual(d))
    monkeypatch.setattr(cover_solver, "_DP_MAX_WIDTH", 2)
    for d in duals:
        with pytest.raises(CapExceeded, match="rank value above"):
            min_fvs(d)


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
