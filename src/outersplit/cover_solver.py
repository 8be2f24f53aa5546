"""Minimum connected face covers via feedback vertex sets of the dual.

The splitting number of a plane biconnected graph is one less than the size
of a minimum connected face cover, and that in turn equals the size of a
minimum feedback vertex set of the dual multigraph.  min_fvs solves the
dual problem exactly; fvs_to_cover certifies the resulting face set as a
connected cover; solve_osn chains both and realizes that cover as
realize_cover does, without certifying it a second time.

min_fvs has three exact solvers and picks one by the dual's largest
degree, parallel edges counted.  A dual with a node of degree above 3,
where the problem is NP-hard, goes to a dynamic programme over a
min-degree elimination order when its elimination width is at most 9,
and to a branch and bound otherwise.  The programme is linear in the
number of nodes at fixed width and finds the lexicographically least
optimum directly; it solves random_biconnected(60, 170, 0), (100, 290,
0), (200, 350, 1) and (300, 893, 0), which the branch and bound did not
finish in a minute, in 0.02-4 s.  A dual of maximum degree 3 and more
than 24 nodes (the dual of a triangulation on more than 14 vertices,
among others) goes to a polynomial solver: there fvs = beta - nu, the
cycle rank minus a matroid parity value, and nu is read off the rank of
a random matrix over GF(p), p = 4194301, the largest prime below 2**22.
The matrix is held as float64 residues in the symmetric range, so a
product of two is below 2**42 and BLAS sums up to 2048 of them exactly,
below 2**53.  A node is passed over on the rank alone only when a
second independent draw agrees, which errs with probability below
(number of nodes / 4194301)**2.  That rank is the only numpy user here,
and numpy is imported the first time a _ParityRank is built, so
importing this module does not load it.  Every other dual, a cubic one
of at most 24 nodes or one above the programme's width cap, goes to the
branch and bound, which solves the small cubic ones faster than the
rank and with no random draw.  It branches on the nodes of one short
cycle, as every feedback set holds one of them, and one solve keeps a
memo of the reduced multigraphs (kernels) it has branched on, with the
largest budget refuted on each and a feedback set found for it.

Two independent brute-force oracles cross-check the theory on small
instances: brute_min_cfc enumerates face subsets by size, and
brute_osn_by_splits searches the raw split space with iterative deepening.
Both are deliberately free of dual-graph reasoning.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING

from .errors import (
    CapExceeded,
    CertificateFailure,
    InfeasibleParameters,
    InvalidCover,
    NotBiconnected,
    SelfLoopPresent,
)
from .plane_graph import (
    DualGraph,
    FaceId,
    PlaneGraph,
    dual,
    is_biconnected,
    is_outerplane,
)
from .split_engine import (
    FaceCover,
    SplitSequence,
    _realize,
    _split_at_gaps,
    face_cover,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ForestCertificate:
    """What remains of the dual after removing the solution nodes."""

    nodes: tuple[FaceId, ...]
    edges: tuple[tuple[FaceId, FaceId], ...]


@dataclass(frozen=True)
class FvsSolution:
    """A feedback vertex set of a dual graph plus the acyclic remainder."""

    nodes: frozenset[FaceId]
    certificate: ForestCertificate


@dataclass(frozen=True)
class OsnResult:
    """Exact splitting number with its cover and realizing splits."""

    osn: int
    cover: FaceCover
    splits: SplitSequence


# -- exact feedback vertex set -------------------------------------------------

class _Multi:
    """Small mutable multigraph; multiplicities are capped at 2 because a
    third parallel edge changes no cycle-hitting question.  deg caches
    each node's degree with multiplicity."""

    __slots__ = ("adj", "deg")

    def __init__(self, adj, deg):
        self.adj = adj
        self.deg = deg

    @classmethod
    def from_dual(cls, d: DualGraph) -> "_Multi":
        mg = cls({u: {} for u in d.nodes}, dict.fromkeys(d.nodes, 0))
        for a, b in d.edges:
            mg.add_edge(a, b)
        return mg

    def copy(self) -> "_Multi":
        return _Multi({u: dict(nbrs) for u, nbrs in self.adj.items()},
                      dict(self.deg))

    def remove(self, u: int) -> None:
        for w, mult in self.adj[u].items():
            del self.adj[w][u]
            self.deg[w] -= mult
        del self.adj[u]
        del self.deg[u]

    def add_edge(self, a: int, b: int) -> None:
        old = self.adj[a].get(b, 0)
        if old < 2:
            self.adj[a][b] = self.adj[b][a] = old + 1
            self.deg[a] += 1
            self.deg[b] += 1


def _lower_bound(mg: _Multi, skip: int | None = None) -> int:
    """The degree bound of mg, or of mg less the node skip when one is
    given, which leaves mg as it is."""
    # Per component: removing a node of degree <= D kills <= D edges, and
    # a forest on n' nodes has < n' edges, so any feedback set has at
    # least ceil((m - n + 1) / (D - 1)) nodes.
    total = 0
    seen = {skip}
    lost = mg.adj[skip] if skip is not None else {}  # degree lost to skip
    for start in mg.adj:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        ends = top = 0  # edge ends and largest degree in the component
        for u in comp:
            deg = mg.deg[u] - lost.get(u, 0)
            ends += deg
            if deg > top:
                top = deg
            for w in mg.adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        excess = ends // 2 - len(comp) + 1
        if excess > 0:
            total += -(-excess // (top - 1))
    return total


def _is_forest(edges) -> bool:
    """Whether a multigraph given by its edges has no cycle; a parallel
    pair is a cycle."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def _reduce(mg: _Multi, budget: int, taken: list[int],
            todo: list[int] | None = None) -> bool:
    """Exhaustively apply safe reductions; False when provably infeasible.
    todo holds every node of degree 2 or less, all nodes by default; a
    node joins it whenever its degree drops."""
    if todo is None:
        todo = list(mg.adj)
    while todo:
        u = todo.pop()
        if u not in mg.adj:
            continue
        deg = mg.deg[u]
        if deg <= 1:
            todo.extend(mg.adj[u])
            mg.remove(u)
        elif deg == 2:
            nbrs = mg.adj[u]
            if len(nbrs) == 1:
                # 2-cycle u=a: u's cycles all pass a, so take a
                (a,) = nbrs
                todo.extend(mg.adj[a])
                taken.append(a)
                mg.remove(a)
                if len(taken) > budget:
                    return False
            else:
                # a and b lose u, and gain each other unless already doubled
                a, b = nbrs
                mg.remove(u)
                mg.add_edge(a, b)
                todo += (a, b)
    return True


def _short_cycle(mg: _Multi) -> list[int]:
    """The nodes of a doubled edge, or else of the first cycle that a BFS
    from the first node closes; every degree must be 3 or more."""
    for u, nbrs in mg.adj.items():
        for w, mult in nbrs.items():
            if mult == 2:
                return [u, w]
    root = next(iter(mg.adj))
    parent = {root: root}
    queue = [root]
    for v in queue:
        for w in mg.adj[v]:
            if w == parent[v]:
                continue
            if w not in parent:
                parent[w] = v
                queue.append(w)
                continue
            # v-w closes a cycle: both tree paths up to where they meet
            path = [v]
            while path[-1] != root:
                path.append(parent[path[-1]])
            cycle = [w]
            while cycle[-1] not in path:
                cycle.append(parent[cycle[-1]])
            return path[:path.index(cycle[-1])] + cycle


# The most kernel nodes one solve's memo keeps, summed over its kernels;
# a stored node costs about 0.34 KB.  The memo serves only the duals the
# search still takes: those above _DP_MAX_WIDTH and the cubic ones of at
# most 24 nodes.  On a 2-vCPU Xeon VM the dual of random_biconnected(60,
# 170, 0), which the search does not solve within a minute, filled this
# cap with 6,208 kernels and peaked at 109 MB RSS after 60 s (17 MB with
# no memo); with no cap it held 1.59M nodes and 551 MB after 8 s.  The
# search solves (40, 110, 0) storing 70,326 nodes, (100, 200, 0) 133,490
# and (150, 250, 0) 163,827.
_MEMO_MAX_NODES = 1 << 18


class _Memo:
    """What the searches of one solve learned, by kernel: kernels maps
    the node set of a reduced multigraph to [its adjacency, the largest
    budget refuted on it or -1, a feedback set found for it or None].
    A stored adjacency is the kernel's own and is never edited, as
    branches work on copies; room counts the kernel nodes still to
    store, and a kernel that does not fit is not stored."""

    __slots__ = ("kernels", "room")

    def __init__(self):
        self.kernels: dict[frozenset[int], list] = {}
        self.room = _MEMO_MAX_NODES


def _decide(mg: _Multi, budget: int, memo: _Memo | None = None,
            todo: list[int] | None = None):
    """Nodes of a feedback vertex set of at most budget nodes, or None;
    consumes mg, and reduces it from todo as _reduce does.  Every
    feedback set holds a node of each cycle, so once the reductions leave
    every degree at 3 or more, the search branches on the nodes of one
    short cycle, by descending degree and then id.  A branch deletes a
    node from the reduced kernel, so only its neighbours need reducing.
    Each kernel the search branches on is looked up in memo (a fresh
    one by default) by its node set, and counts as met only when its
    adjacency is equal too: a budget at or below one refuted on it is
    refuted again, and a feedback set found for it is reused when it
    fits the budget."""
    taken: list[int] = []
    if not _reduce(mg, budget, taken, todo):
        return None
    if not mg.adj:
        return taken
    rem = budget - len(taken)
    if rem <= 0 or _lower_bound(mg) > rem:
        return None
    if memo is None:
        memo = _Memo()
    key = frozenset(mg.adj)
    entry = memo.kernels.get(key)
    if entry is not None and entry[0] == mg.adj:
        if rem <= entry[1]:
            return None
        if entry[2] is not None and len(entry[2]) <= rem:
            return taken + entry[2]
    elif entry is not None or len(key) <= memo.room:
        # a kernel on the same nodes but with other edges is replaced
        if entry is None:
            memo.room -= len(key)
        entry = memo.kernels[key] = [mg.adj, -1, None]
    for x in sorted(_short_cycle(mg), key=lambda u: (-mg.deg[u], u)):
        trial = mg.copy()
        trial.remove(x)
        sub = _decide(trial, rem - 1, memo, list(mg.adj[x]))
        if sub is not None:
            if entry is not None:
                entry[2] = [x] + sub
            return taken + [x] + sub
    if entry is not None:
        entry[1] = rem
    return None


def _peel_bound(mg: _Multi) -> int:
    """A lower bound on the feedback vertex set size; consumes mg.  Every
    feedback set holds a node of each cycle C, so fvs(G) >= 1 +
    fvs(G - V(C)), and the reductions keep fvs, counting each node they
    take.  So peel short cycles off one by one and keep the best of the
    count so far plus the degree bound of what is left."""
    count = best = 0
    while True:
        taken: list[int] = []
        _reduce(mg, len(mg.adj), taken)
        count += len(taken)
        best = max(best, count + _lower_bound(mg))
        if not mg.adj:
            return best
        for x in _short_cycle(mg):
            mg.remove(x)
        count += 1


def _search_fvs(base: _Multi) -> tuple[int, list[int]]:
    """Optimum size and lexicographically least optimal node set by
    branch and bound: the least feasible budget from the peel bound up,
    then the nodes in order, each kept when the witness holds it or else
    when _decide meets the rest of the budget.  Every _decide call shares
    one memo."""
    memo = _Memo()
    k = _peel_bound(base.copy())
    while (found := _decide(base.copy(), k, memo)) is None:
        k += 1

    # the witness is the last feedback set _decide found: it holds every
    # chosen node and, k being optimal, has k nodes, so a node in it can
    # be kept without a search
    witness = set(found)
    chosen: list[int] = []
    rest = base.copy()  # the dual minus the chosen nodes
    for x in sorted(base.adj):
        if len(chosen) == k:
            break
        if x not in witness:
            trial = rest.copy()
            trial.remove(x)
            sub = _decide(trial, k - len(chosen) - 1, memo)
            if sub is None:
                continue
            witness = {*chosen, x, *sub}
        chosen.append(x)
        rest.remove(x)
    return k, chosen


# -- dynamic programme over an elimination order -------------------------------
#
# Eliminating the nodes one at a time, each time joining the eliminated
# node's remaining neighbours into a clique (fill), gives a tree
# decomposition: the bag of v is v plus its later neighbours N(v), and
# its parent is the bag of the earliest node of N(v).  Its width is the
# largest |N(v)|.  The table of v maps each state of N(v), taken in
# elimination order, to the least cost of the nodes eliminated under v.
# A state says which nodes of its scope are deleted, and which kept ones
# the forest below joins into one tree.  It is an int with 4 bits per
# position: 0 for deleted, else a block label, labels numbered 1, 2, ...
# in order of first position.  v's table is the join of its children's
# tables; then v's edges to N(v) are introduced and v is forgotten.  Two
# kept nodes joined twice close a cycle, a doubled edge included.
#
# Deleting node x costs 2**n - 2**(n - 1 - r), with r the rank of x
# among the n nodes, so a set of k nodes costs k 2**n less a mask with
# the least node on its highest bit.  Costs add over disjoint sets, and
# the least cost is that of the lexicographically least smallest set.
#
# A step of a join or of a forget depends only on the pattern of its
# scopes and on its states, never on the instance, so the steps are kept
# across solves in _DP_STEPS, one memo per pattern, filled lazily.  What
# the memos hold changes the speed of a solve, never its answer.

# The largest elimination width the programme takes; a dual of larger
# width goes to _search_fvs.  A bag of w + 1 nodes has at most B(w + 2)
# states, the Bell number: 678,570 at w = 9 and 4,213,597 at w = 10.
# Measured on a 2-vCPU Xeon VM, the largest table at width 9 held
# 114,223 states, on the dual of random_biconnected(400, 1150, 0),
# solved in 11.5 s at 80 MB peak RSS; at width 10 the dual of
# random_biconnected(180, 500, 0) reached 490,975 states and took 54 s
# at 141 MB, too close to a minute.  A state holds 4 bits per position
# and a join keys a pair of states on 64 bits each, so the cap stays
# below 15.
_DP_MAX_WIDTH = 9

# The most steps _DP_STEPS holds; once full it is emptied.  A step costs
# about 110 bytes, so this is about 28 MB: with no cap, the dual of
# random_biconnected(300, 893, 0) stored 470,235 steps and peaked at
# 76.5 MB RSS, against 24.7 MB with room for one step (same VM).  The
# five duals of random_biconnected(n, n + 30, 0), n = 80..120 (32 nodes,
# width 3), need 664 steps together.
_DP_MAX_STEPS = 1 << 18


class _Steps:
    """The steps of the programme, kept across solves: memos maps each
    pattern to its memo, from the states of a step to what they lead
    to.  room counts the steps still to store; when none is left, every
    memo is dropped before the next step is stored."""

    __slots__ = ("memos", "size", "room")

    def __init__(self, size: int):
        self.memos: dict[tuple[int, ...], dict[int, object]] = {}
        self.size = self.room = size

    def remember(self, pattern: tuple[int, ...], memo: dict, key: int,
                 step):
        """Store a step in memo, the memo of pattern, and return it; the
        caller holds no other memo, so only this one is kept in use."""
        if self.room <= 0:
            self.memos.clear()
            memo.clear()
            self.memos[pattern] = memo
            self.room = self.size
        memo[key] = step
        self.room -= 1
        return step


_DP_STEPS = _Steps(_DP_MAX_STEPS)


def _eliminate(nodes, pairs, cap: int):
    """A min-degree elimination order of the simple graph on nodes with
    the given pairs as edges, with fill and ties broken by node id, and
    each node's later neighbours; None once a node has more than cap."""
    adj: dict[int, set[int]] = {u: set() for u in nodes}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    by_degree: dict[int, set[int]] = {}
    for u, nbrs in adj.items():
        by_degree.setdefault(len(nbrs), set()).add(u)
    low = 0  # no node has a smaller degree
    order: list[int] = []
    later: dict[int, set[int]] = {}
    while adj:
        while not by_degree.get(low):
            low += 1
        u = min(by_degree[low])
        by_degree[low].remove(u)
        nbrs = adj.pop(u)
        if len(nbrs) > cap:
            return None
        for a in nbrs:
            fill = adj[a]
            before = len(fill)
            fill |= nbrs
            fill.discard(a)
            fill.discard(u)
            if len(fill) != before:
                by_degree[before].remove(a)
                by_degree.setdefault(len(fill), set()).add(a)
                low = min(low, len(fill))
        order.append(u)
        later[u] = nbrs
    return order, later


def _canonical(labels) -> int:
    """The state of a scope whose kept positions carry block labels and
    whose deleted ones carry 0."""
    names: dict[int, int] = {}
    s = 0
    for i, lab in enumerate(labels):
        if lab:
            s |= names.setdefault(lab, len(names) + 1) << 4 * i
    return s


def _find(parent: dict[int, int], x: int) -> int:
    while x in parent:
        x = parent[x]
    return x


def _join_step(pattern: tuple[int, ...], s1: int, s2: int) -> int | None:
    """The join of s1, over the positions that pattern marks 1 or 3,
    with s2, over those it marks 2 or 3; None when they disagree on a
    deletion or close a cycle.  s2's labels are moved past s1's."""
    parent: dict[int, int] = {}
    labels = []
    for code in pattern:
        if code & 1:
            a, s1 = s1 & 15, s1 >> 4
        if code & 2:
            b, s2 = s2 & 15, s2 >> 4
            b = b and b + 16
        if code == 3:
            if (a == 0) != (b == 0):
                return None
            if a:
                ra, rb = _find(parent, a), _find(parent, b)
                if ra == rb:
                    return None
                parent[ra] = rb
        labels.append(a if code & 1 else b)
    return _canonical([lab and _find(parent, lab) for lab in labels])


def _forget_step(pattern: tuple[int, ...], s: int) -> tuple[int, ...]:
    """The states of N(v) that a state s of v's joined scope leads to.
    pattern holds, for each node of v's bag, v first, 4 when s covers
    it plus the multiplicity of its edge to v, at most 2.  A node that
    s does not cover is taken both deleted and kept alone; then v's
    edges are introduced, dropping a choice that closes a cycle, and v
    is forgotten."""
    base = []
    new = []
    for p, code in enumerate(pattern):
        if code & 4:
            base.append(s & 15)
            s >>= 4
        else:
            base.append(0)
            new.append(p)
    out = []
    for choice in range(1 << len(new)):
        labels = base[:]
        for j, p in enumerate(new):
            if choice >> j & 1:
                labels[p] = 16 + p
        parent: dict[int, int] = {}
        if labels[0]:
            for code, lab in zip(pattern[1:], labels[1:]):
                if code & 3 and lab:
                    ra, rb = _find(parent, labels[0]), _find(parent, lab)
                    if code & 3 == 2 or ra == rb:
                        break
                    parent[rb] = ra
            else:
                out.append(_canonical(
                    [lab and _find(parent, lab) for lab in labels[1:]]))
        else:
            out.append(_canonical(labels[1:]))
    return tuple(out)


_NIBBLE_BASES = int("1" * 16, 16)


def _kept(s: int) -> int:
    """Bit 4i set for each kept position i of the state s."""
    return (s | s >> 1 | s >> 2 | s >> 3) & _NIBBLE_BASES


def _join(scope1, t1, scope2, t2, pos):
    """The join of two tables, over the union of their scopes.  Only
    states that keep the same common nodes are paired."""
    in1, in2 = set(scope1), set(scope2)
    scope = sorted(in1 | in2, key=pos.__getitem__)
    pattern = tuple([(u in in1) | (u in in2) << 1 for u in scope])
    steps = _DP_STEPS
    memo = steps.memos.setdefault(pattern, {})
    # the common nodes, as bits 4i of the states on either side
    at1 = [4 * i for i, u in enumerate(scope1) if u in in2]
    at2 = [4 * i for i, u in enumerate(scope2) if u in in1]
    common1 = sum(1 << i for i in at1)
    common2 = sum(1 << i for i in at2)
    groups: dict[int, list] = {}
    for item in t2.items():
        groups.setdefault(_kept(item[0]) & common2, []).append(item)
    # the same common nodes kept, as bits of the states of either side
    match = {}
    for kept in groups:
        match[sum(1 << i for i, j in zip(at1, at2) if kept >> j & 1)] = kept
    out: dict[int, int] = {}
    for s1, c1 in t1.items():
        group = groups.get(match.get(_kept(s1) & common1), ())
        s1 <<= 64
        for s2, c2 in group:
            r = memo.get(s1 | s2, -1)
            if r == -1:
                r = steps.remember(pattern, memo, s1 | s2,
                                   _join_step(pattern, s1 >> 64, s2))
            if r is not None:
                c = c1 + c2
                if c < out.get(r, c + 1):
                    out[r] = c
    return scope, out


def _forget(table: dict[int, int], pattern: tuple[int, ...],
            cost: int) -> dict[int, int]:
    """The table of N(v) from v's joined table, as _forget_step gives
    it by pattern; a state that deletes v adds cost, v's own."""
    steps = _DP_STEPS
    memo = steps.memos.setdefault(pattern, {})
    out: dict[int, int] = {}
    for s, c in table.items():
        if not s & 15:
            c += cost
        nxt = memo.get(s)
        if nxt is None:
            nxt = steps.remember(pattern, memo, s, _forget_step(pattern, s))
        for r in nxt:
            if c < out.get(r, c + 1):
                out[r] = c
    return out


def _dp_fvs(d: DualGraph) -> tuple[int, list[int]] | None:
    """Optimum size and lexicographically least optimal node set by the
    dynamic programme, or None when the elimination width of d exceeds
    _DP_MAX_WIDTH."""
    mult = Counter(d.edges)
    plan = _eliminate(d.nodes, mult, _DP_MAX_WIDTH)
    if plan is None:
        return None
    order, later = plan
    n = len(d.nodes)
    ranked = sorted(d.nodes)
    weight = {u: (1 << n) - (1 << (n - 1 - r)) for r, u in enumerate(ranked)}
    pos = {u: i for i, u in enumerate(order)}
    ends: dict[int, dict[int, int]] = {u: {} for u in order}
    for (a, b), m in mult.items():
        if pos[a] > pos[b]:
            a, b = b, a
        ends[a][b] = min(m, 2)
    pending: dict[int, list] = {u: [] for u in order}
    total = 0
    for v in order:
        tables = pending.pop(v)
        if tables:
            scope, table = tables[0]
            for other, t in tables[1:]:
                scope, table = _join(scope, table, other, t, pos)
        else:
            scope, table = (v,), {0: 0, 1: 0}
        mine = ends[v]
        bag = [v, *sorted(later[v], key=pos.__getitem__)]
        covered = set(scope)
        pattern = tuple([(u in covered) << 2 | mine.get(u, 0) for u in bag])
        table = _forget(table, pattern, weight[v])
        if len(bag) > 1:
            pending[bag[1]].append((bag[1:], table))
        else:
            total += table[0]
    k = -(-total >> n)
    mask = (k << n) - total
    return k, [u for r, u in enumerate(ranked) if mask >> (n - 1 - r) & 1]


# -- matroid parity rank for subcubic duals ------------------------------------
#
# For a multigraph H of maximum degree 3, fvs(H) = beta(H) - nu(H) (Ueno,
# Kajitani & Gotoh 1988), where beta is the cycle rank and nu the largest
# number of disjoint pairs of adjacent edges whose deletion leaves as many
# components.  nu is a matroid parity value on the cographic matroid, and
# 2 nu is the rank of Lovasz's matrix sum_l x_l (b_l c_l^T - c_l b_l^T) for
# random x_l over GF(p), with high probability (Lovasz 1979).  Deleting
# nodes S from H contracts the matroid by the edges at S, so with T the
# vectors of those edges
#     f(H - S) = beta(H) - rank [[A, T], [-T^T, 0]] / 2.
# A random evaluation can only lose rank, so the computed f is never below
# the true one.

# The prime of the rank, the largest below 2**22.  Residues are held as
# float64 integers in the symmetric range |r| <= (p - 1) / 2, so a product
# of two is below 2**42, and a sum of up to _BLOCK products plus one
# residue stays below 2**31 p < 2**53.  Every float64 integer that size is
# exact, so BLAS sums such products exactly in any order, and _mod maps
# the sum back into the range.  A draw errs with probability below
# (number of nodes) / p, so a pass-over that two independent draws agree
# on errs with probability below (number of nodes / 4194301)**2.
_P = 4194301
_BLOCK = 2048  # products a read of S sums before reducing: 1024 pivots


def _mod(x: np.ndarray) -> np.ndarray:
    """x mod p in the symmetric range, in place, for float64 integers
    below 2**31 p in magnitude.  There x / p is below 2**31, so its
    rounding error, at most 2**-23, is less than its distance 1 / (2p)
    from any half-integer, and rint finds the nearest multiple of p.  A
    product by a rounded 1 / p errs by up to twice as much, which near
    2**53 lands on the wrong multiple."""
    import numpy as np

    q = np.rint(x / _P)
    q *= _P
    x -= q
    return x


def _cycle_vectors(nodes, edges):
    """Signed fundamental cycles of a BFS forest, one row per non-tree
    edge, and the edge indices at each node.  Column e of the rows
    represents edge e in the cographic matroid: a set of edges is
    independent exactly when deleting it leaves as many components."""
    import numpy as np

    index = {u: i for i, u in enumerate(nodes)}
    ends = [(index[a], index[b]) for a, b in edges]
    inc: list[list[int]] = [[] for _ in nodes]
    for e, (a, b) in enumerate(ends):
        inc[a].append(e)
        inc[b].append(e)
    # path[v] marks the tree edges from the root of v's tree down to v,
    # each oriented away from the root
    path = np.zeros((len(nodes), len(edges)), np.int8)
    tree = [False] * len(edges)
    seen = [False] * len(nodes)
    for root in range(len(nodes)):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for v in queue:
            for e in inc[v]:
                a, b = ends[e]
                w = b if a == v else a
                if not seen[w]:
                    seen[w] = True
                    tree[e] = True
                    path[w] = path[v]
                    path[w, e] = 1
                    queue.append(w)
    cotree = [e for e, t in enumerate(tree) if not t]
    # the cycle of a non-tree edge a -> b runs back from b to a in the tree
    z = (path[[ends[e][0] for e in cotree]].astype(np.float64)
         - path[[ends[e][1] for e in cotree]])
    z[np.arange(len(cotree)), cotree] = 1
    return z, inc


def _draw(rng: random.Random, n: int) -> np.ndarray:
    """n values in [1, p) from one call of rng."""
    import numpy as np

    raw = rng.getrandbits(32 * n).to_bytes(4 * n, "little")
    return np.frombuffer(raw, np.uint32) % (_P - 1) + 1.0


def _rank_mod_p(rows: list[list[int]]) -> int:
    """Rank over GF(p) of a small matrix given as lists, by
    fraction-free elimination."""
    rank = 0
    while rows:
        row = rows.pop()
        c = next((i for i, a in enumerate(row) if a), None)
        if c is None:
            continue
        rank += 1
        piv = row[c]
        rows = [[(a * piv - r[c] * b) % _P for a, b in zip(r, row)]
                if r[c] else r for r in rows]
    return rank


class _ParityRank:
    """f of a loopless multigraph of maximum degree 3 minus deleted
    nodes, from one random evaluation over GF(p).

    With the cycle vectors z, one line per pair of edges at a node and
    values x_l drawn from rng, A = sum_l x_l (b_l c_l^T - c_l b_l^T) is
    bordered by every edge vector: base = [[A, z], [-z^T, 0]] on the beta
    coordinates followed by the edges.  Absorbing indices (first the
    coordinates, then the edges at each deleted node) pivots out a
    maximal nonsingular principal block of them.  The Schur complement S
    left over is kept as base plus one rank-2 update v u^T - u v^T per
    pivot, so rows of S are base plus one float64 matrix product of the
    stacked factors [v_t; -u_t] and [u_t; v_t] (see _P).  The absorbed
    indices that were not pivoted form the free set, on which S
    vanishes, and f is beta minus the number of pivots."""

    def __init__(self, nodes, edges, rng: random.Random):
        import numpy as np

        z, self.inc = _cycle_vectors(nodes, edges)
        pairs = [(es[i], es[j]) for es in self.inc
                 for i in range(len(es)) for j in range(i + 1, len(es))]
        e1 = np.array([b for b, _ in pairs], np.intp)
        e2 = np.array([c for _, c in pairs], np.intp)
        # the entries of z are 0 and +-1, so the sum stays below len * p
        a = (z[:, e1] * _draw(rng, len(pairs))) @ z[:, e2].T
        beta, m = z.shape
        self.base = np.zeros((beta + m, beta + m))
        self.base[:beta, :beta] = _mod(a - a.T)
        self.base[:beta, beta:] = z
        self.base[beta:, :beta] = -z.T
        self.beta = beta
        self.pivots = 0
        # rows 2t of left and right hold v and u of pivot t, and rows
        # 2t + 1 its -u and v; a principal block of base has rank at
        # most 2 beta, as base is zero below and right of the
        # coordinates, so there are at most beta pivots
        self.left = np.zeros((2 * beta, beta + m))
        self.right = np.zeros((2 * beta, beta + m))
        self.free: list[int] = []
        # the edges of the last value_without and the rows of S it read,
        # until the next delete
        self._query: tuple[list[int], np.ndarray] | None = None
        self._absorb(list(range(beta)), self.base[:beta])

    @property
    def value(self) -> int:
        return self.beta - self.pivots

    def value_without(self, edges: list[int]) -> int:
        """The value once the given edges are deleted too."""
        idx = self.free + [self.beta + e for e in edges]
        rows = self._read(idx)
        self._query = (list(edges), rows)
        block = rows.take(idx, 1).astype(int).tolist()
        return self.value - _rank_mod_p(block) // 2

    def delete(self, edges: list[int]) -> None:
        """Delete the given edges, those at a deleted node, from the rows
        of S that a value_without on the same edges read, if it was the
        last query."""
        pool = self.free + [self.beta + e for e in edges]
        query, self._query = self._query, None
        if query is not None and query[0] == list(edges):
            self._absorb(pool, query[1])
        else:
            self._absorb(pool, self._read(pool))

    def _read(self, rows: list[int]) -> np.ndarray:
        """S on the given rows and every column."""
        out = self.base.take(rows, 0)
        stop = 2 * self.pivots
        for s in range(0, stop, _BLOCK):
            end = min(s + _BLOCK, stop)
            out = _mod(out + self.left[s:end].take(rows, 1).T
                       @ self.right[s:end])
        return out

    def _absorb(self, pool: list[int], rows: np.ndarray) -> None:
        """Pivot out of pool until S vanishes on it; rows holds S on the
        rows pool, the free set followed by the new indices."""
        import numpy as np

        while True:
            hits = np.flatnonzero(rows.take(pool, 1))
            if not len(hits):
                break
            a, b = divmod(int(hits[0]), len(pool))
            # S' = S + v u^T - u v^T with u = S[:, i], v = S[:, j] / S[i, j]
            # clears rows and columns i = pool[a] and j = pool[b]
            u = -rows[a]
            v = _mod(-rows[b] * pow(int(rows[a, pool[b]]), -1, _P))
            t = 2 * self.pivots
            self.left[t] = v
            self.left[t + 1] = rows[a]
            self.right[t] = u
            self.right[t + 1] = v
            self.pivots += 1
            keep = [c for c in range(len(pool)) if c != a and c != b]
            pool = [pool[c] for c in keep]
            rows = _mod(rows.take(keep, 0) + np.outer(v[pool], u)
                        - np.outer(u[pool], v))
        # a row of S that is zero stays zero under later pivots, so such
        # an index can never matter again
        self.free = [i for i, row in zip(pool, rows) if row.any()]


# The most nodes a dual of maximum degree 3 may have and still go to the
# branch and bound.  Measured with the float64 rank and numpy loaded, on
# a 2-vCPU 2.0 GHz Xeon VM, best of 3 per instance over seeds 0-99 of
# random_triangulation(n): on duals of 12-24 nodes (n = 8..14) the
# search's median was 0.21-0.70 ms against 0.43-0.93 ms for the rank,
# and its slowest instance at 24 nodes 1.37 ms against 2.11 ms; on the
# cubic cages Petersen (10 nodes), Heawood (14), McGee (24) and
# Tutte-Coxeter (30) the search took 0.14-0.71 ms and the rank
# 0.34-0.89 ms.  The search's tail begins at 28 nodes (n=16), where its
# slowest instance took 4.19 ms against 3.32 ms, and at 30-32 nodes the
# medians are 0.97-1.17 ms against 1.14-1.27 ms.  The cap stays at 24,
# so that every triangulation on at most 14 vertices solves without
# numpy.
_SEARCH_MAX_CUBIC = 24


def _rank_fvs(d: DualGraph, base: _Multi) -> tuple[int, list[int]]:
    """Optimum size and lexicographically least optimal node set of a
    dual of maximum degree 3, by matroid parity ranks."""
    nodes = sorted(d.nodes)
    # a str seed goes through SHA-512, so the draws depend on the graph only
    rng = random.Random(repr((d.nodes, d.edges)))
    oracle = _ParityRank(nodes, d.edges, rng)

    k = oracle.value
    # k is never below the optimum; it is certified by the degree bound,
    # else by the peel bound, else by refuting k - 1
    floor = _lower_bound(base)
    if k > floor:
        floor = _peel_bound(base.copy())
    while k > floor and _decide(base.copy(), k - 1) is not None:
        k -= 1

    # a lower bound on the cycle rank of the dual minus the chosen nodes
    cycles = oracle.beta
    done: set[int] = set()  # edges at chosen nodes
    rest = base.copy()      # the dual minus the chosen nodes
    second = None           # an independent draw on rest, made when needed
    chosen: list[int] = []
    for x, edges in zip(nodes, oracle.inc):
        if len(chosen) == k:
            break
        budget = k - len(chosen) - 1
        new = [e for e in edges if e not in done]
        # x on no cycle, or too many cycles left for the budget: deleting
        # a node of degree g lowers the cycle rank by at most g - 1 <= 2
        if len(new) <= 1 or cycles - len(new) + 1 > 2 * budget:
            continue
        if oracle.value_without(new) != budget:
            # the rank says no: a lower bound on rest - x may prove it (the
            # degree bound, read without a copy, then that of its
            # reduction, else the peel bound), and otherwise the second
            # draw has to agree
            if _lower_bound(rest, skip=x) > budget:
                continue
            trial = rest.copy()
            trial.remove(x)
            taken: list[int] = []
            if (not _reduce(trial, budget, taken)
                    or len(taken) + _lower_bound(trial) > budget
                    or len(taken) + _peel_bound(trial) > budget):
                continue
            if second is None:
                left = [e for e in range(len(d.edges)) if e not in done]
                second = _ParityRank(nodes, [d.edges[e] for e in left], rng)
                renumber = {e: i for i, e in enumerate(left)}
            if second.value_without([renumber[e] for e in new]) != budget:
                continue
        chosen.append(x)
        if len(chosen) == k:
            break  # nothing reads the state left after the last node
        rest.remove(x)
        done.update(new)
        cycles -= len(new) - 1
        oracle.delete(new)
        if second is not None:
            second.delete([renumber[e] for e in new])
    return k, chosen


def min_fvs(d: DualGraph) -> FvsSolution:
    """Exact minimum feedback vertex set of a dual multigraph, returning
    the lexicographically least optimal node set.

    Parallel edges are honored as 2-cycles; a self-loop makes the problem
    ill-posed for that node and raises SelfLoopPresent, and an edge with
    an end that is not a node raises UnknownNode; both are checked
    before a solver is chosen.

    A dual with a node of degree above 3, parallel edges counted, goes
    to the dynamic programme over a min-degree elimination order with
    fill, ties broken by node id, when no node has more than
    _DP_MAX_WIDTH = 9 later neighbours there.  Its table over a bag
    holds, per state (the deleted nodes and the partition of the kept
    ones into trees), the least cost below, where a node set costs its
    size times 2**n less a mask with the least node on the highest bit.
    So the least total cost is the lexicographically least optimum, read
    off with no completion loop.  The programme keeps the steps of its
    joins and forgets, which depend only on local patterns and states,
    across solves, at most _DP_MAX_STEPS of them.

    A dual of more than 24 nodes, every one of degree at most 3, goes to
    a matroid parity rank: the size k comes from the rank and the nodes
    are taken in order, each kept when the rank says one node fewer
    remains to find.  A random evaluation can only lose rank, so these
    steps are certified: k, once it meets the degree lower bound, else
    the peel bound (short cycles deleted one by one, each counting one
    node), or else _decide refutes k - 1; every node taken; and every
    node passed over because a lower bound on what would remain exceeds
    the budget: the degree bound, read off the dual less the chosen
    nodes and the node without a copy, then the degree bound of its
    reduction, else the peel bound.  A node passed over on the rank
    alone, confirmed by a second independent draw, is right with high
    probability: each draw errs with probability below (number of
    nodes) / p, so both err together with probability below (number of
    nodes / 4194301)**2.  p = 4194301 is the largest prime below 2**22,
    small enough that the rank runs on float64 BLAS products exactly
    (see _P).  A slip there could only return an optimum that is not
    the least one, or raise AssertionError; the size stays exact.

    Every other dual, a cubic one of at most 24 nodes or one whose
    elimination width is above the programme's cap, goes to branch and
    bound.  Neither it nor the programme draws anything at random, so
    they carry no such caveat, and neither needs numpy; on the small
    cubic duals the search is also faster than the rank.  k is the least
    budget _decide meets, counting up from the peel bound, and a node is
    kept when the witness holds it, or else when _decide meets the rest
    of the budget with it and the nodes kept before it.  The witness is
    the last feedback set _decide found; it holds every node kept so
    far, so a node in it is kept without a search.  Every _decide call
    of the solve shares one memo: a kernel met again with equal
    adjacency is refuted at or below a budget refuted on it before, and
    takes a feedback set found for it before when that fits, so the
    searches for k and for each node do not repeat one another.  The
    memo keeps at most _MEMO_MAX_NODES kernel nodes.  The returned set
    is verified as a feedback set whatever the solver."""
    if d.has_self_loop():
        raise SelfLoopPresent("dual graph has a self-loop")
    top = max(d.degrees().values(), default=0)
    found = _dp_fvs(d) if top > 3 else None
    if found is not None:
        k, chosen = found
    elif top <= 3 and len(d.nodes) > _SEARCH_MAX_CUBIC:
        k, chosen = _rank_fvs(d, _Multi.from_dual(d))
    else:
        k, chosen = _search_fvs(_Multi.from_dual(d))
    if len(chosen) != k:
        raise AssertionError("lexicographic completion lost the optimum")

    sol = frozenset(chosen)
    forest_nodes = tuple(sorted(set(d.nodes) - sol))
    forest_edges = tuple(
        e for e in d.edges if e[0] not in sol and e[1] not in sol)
    if not _is_forest(forest_edges):
        raise AssertionError("solver returned a non-feedback set")
    return FvsSolution(
        nodes=sol,
        certificate=ForestCertificate(nodes=forest_nodes, edges=forest_edges))


# -- from feedback sets to covers and splits -----------------------------------

def fvs_to_cover(g: PlaneGraph, sol: FvsSolution) -> FaceCover:
    """Certify the nodes of a feedback vertex set of the dual as a
    connected face cover of the primal.  Any feedback set qualifies, so a
    failure here is an implementation bug and raises CertificateFailure."""
    try:
        return face_cover(g, sol.nodes)
    except InvalidCover as exc:
        raise CertificateFailure(
            f"feedback set {sorted(sol.nodes)} is not a connected face "
            f"cover: {exc}") from exc


def solve_osn(g: PlaneGraph) -> OsnResult:
    """Exact outerplane splitting number of a plane biconnected graph,
    with a minimum connected face cover and a realizing split sequence."""
    if not is_biconnected(g):
        raise NotBiconnected(
            "splitting numbers are defined here for biconnected graphs")
    sol = min_fvs(dual(g))
    cover = fvs_to_cover(g, sol)
    # fvs_to_cover has just certified the cover, so it is realized as is
    return OsnResult(osn=len(sol.nodes) - 1, cover=cover,
                     splits=_realize(g, cover))


# -- independent brute-force oracles -------------------------------------------

_ENUM_CAP = 20  # most faces brute_min_cfc enumerates subsets of


def brute_min_cfc(g: PlaneGraph) -> FaceCover:
    """Minimum connected face cover by exhaustive enumeration of face
    subsets in increasing size and lexicographic order."""
    walks = g.walks
    if len(walks) > _ENUM_CAP:
        raise CapExceeded(
            f"{len(walks)} faces exceeds the enumeration cap of {_ENUM_CAP}")
    order = sorted(set(g.rotation))
    pos = {v: i for i, v in enumerate(order)}
    masks = [sum(1 << pos[v] for v in set(walk)) for walk in walks]
    full = (1 << len(order)) - 1

    for size in range(1, len(walks) + 1):
        for combo in combinations(range(len(walks)), size):
            union = 0
            for i in combo:
                union |= masks[i]
            if union != full:
                continue
            if _touch_connected(combo, masks):
                return face_cover(g, combo)
    raise AssertionError("no face subset covers the graph")


def _touch_connected(combo, masks) -> bool:
    todo = list(combo)
    seen_mask = masks[todo[0]]
    seen = {todo[0]}
    grew = True
    while grew:
        grew = False
        for i in todo:
            if i not in seen and masks[i] & seen_mask:
                seen.add(i)
                seen_mask |= masks[i]
                grew = True
    return len(seen) == len(todo)


def brute_osn_by_splits(g: PlaneGraph, k_max: int | None = None,
                        face_cap: int = 8) -> int | None:
    """Least number of splits reaching an outerplane graph, found by
    iterative deepening over every (vertex, corner pair) split.  Returns
    None when k_max is exhausted; a negative k_max raises
    InfeasibleParameters.  Independent of covers and duals."""
    if k_max is not None and k_max < 0:
        raise InfeasibleParameters("k_max must be nonnegative")
    faces = len(g.walks)
    if faces > face_cap:
        raise CapExceeded(
            f"{faces} faces exceeds the split-search cap of {face_cap}")
    if k_max is None:
        k_max = faces - 1
    for depth in range(k_max + 1):
        if _split_search(g, depth, {}):
            return depth
    return None


def _split_search(g: PlaneGraph, depth: int, visited: dict) -> bool:
    if is_outerplane(g):
        return True
    if depth == 0:
        return False
    key = tuple(sorted(g.rotation.items()))
    if visited.get(key, -1) >= depth:
        return False
    visited[key] = depth
    for v in sorted(g.rotation):
        rot = g.rotation[v]
        d = len(rot)
        if d < 2:
            continue
        for i in range(d):
            fi = g.face_of_slot((rot[i], v))
            for j in range(i + 1, d):
                if g.face_of_slot((rot[j], v)) == fi:
                    continue
                child = _split_at_gaps(g, v, i, j)
                if _split_search(child, depth - 1, visited):
                    return True
    return False
