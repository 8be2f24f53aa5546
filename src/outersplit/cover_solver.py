"""Minimum connected face covers via feedback vertex sets of the dual.

The splitting number of a plane biconnected graph is one less than the size
of a minimum connected face cover, and that in turn equals the size of a
minimum feedback vertex set of the dual multigraph.  min_fvs solves the
dual problem exactly; fvs_to_cover certifies the resulting face set as a
connected cover; solve_osn chains both and realizes that cover as
realize_cover does, without certifying it a second time.

min_fvs has two exact solvers.  Every dual goes first to a dynamic
programme over a tree decomposition from a min-fill elimination order,
linear in the number of nodes at fixed elimination width and capped at
width 9.  A dual it declines raises CapExceeded at once unless it is
cubic.  A cubic one goes to the other solver, which is polynomial:
there fvs = beta - nu, the cycle rank minus a matroid parity value, and
nu is read off the rank of a random matrix over GF(p).  That rank is
the only numpy user here, and numpy is imported the first time a
_ParityRank is built, so importing this module does not load it, and
neither does a solve the programme takes.

Two independent brute-force oracles cross-check the theory on small
instances: brute_min_cfc enumerates face subsets by size, and
brute_osn_by_splits searches the raw split space with iterative deepening.
Both are deliberately free of dual-graph reasoning.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import TYPE_CHECKING

from .errors import (
    CapExceeded,
    CertificateFailure,
    DuplicateNode,
    InfeasibleParameters,
    InvalidCover,
    NotBiconnected,
    SelfLoopPresent,
)
from .plane_graph import (
    DualGraph,
    FaceId,
    PlaneGraph,
    _Value,
    _set,
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


class ForestCertificate(_Value):
    """What remains of the dual after removing the solution nodes."""

    nodes: tuple[FaceId, ...]
    edges: tuple[tuple[FaceId, FaceId], ...]

    def __init__(self, nodes: tuple[FaceId, ...],
                 edges: tuple[tuple[FaceId, FaceId], ...]):
        _set(self, "nodes", nodes)
        _set(self, "edges", edges)


class FvsSolution(_Value):
    """A feedback vertex set of a dual graph plus the acyclic remainder."""

    nodes: frozenset[FaceId]
    certificate: ForestCertificate

    def __init__(self, nodes: frozenset[FaceId],
                 certificate: ForestCertificate):
        _set(self, "nodes", nodes)
        _set(self, "certificate", certificate)


# the one dataclass: callers copy it with dataclasses.replace
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


def _reduce(mg: _Multi, budget: int, taken: list[int]) -> bool:
    """Exhaustively apply safe reductions; False when provably infeasible.
    Every node is looked at, and a node again whenever its degree drops."""
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
# kept nodes joined twice close a cycle, a doubled edge included.  When
# v has two children or more, the last join and the forget are taken as
# one step, so v's joined table is never built.  Nodes are named by
# their elimination positions, and a scope is a sorted list of them.
#
# Deleting node x costs 2**n - 2**(n - 1 - r), with r the rank of x
# among the n nodes, so a set of k nodes costs k 2**n less a mask with
# the least node on its highest bit.  Costs add over disjoint sets, and
# the least cost is that of the lexicographically least smallest set.
#
# A step of a join, of a forget, or of both at once depends only on the
# pattern of its scopes and on its states, never on the instance, so the
# steps are kept across solves in _DP_STEPS, one memo per pattern, filled
# lazily.  What the memos hold changes the speed of a solve, never its
# answer.

# The largest elimination width the programme takes; min_fvs sends a
# wider dual to the rank when it is cubic and raises CapExceeded
# otherwise.  A bag of w + 1 nodes has at most B(w + 2) states, the Bell
# number: 678,570 at w = 9 and 4,213,597 at w = 10.  Measured on a
# 2-vCPU Xeon VM with the min-fill order: the dual of
# random_triangulation(1600, 0), 3,196 nodes at width 9, solved in 28 s
# at 81 MB peak RSS, its largest table holding 55,146 states; the dual
# of random_biconnected(2000, 5950, 0), 3,952 nodes at width 10, had not
# finished after 150 s.  A state holds 4 bits per position, so the cap
# stays below 15.
_DP_MAX_WIDTH = 9

# The most steps _DP_STEPS holds; once full it is emptied.  A step costs
# about 110 bytes, so this is about 28 MB: with no cap, the dual of
# random_biconnected(400, 1150, 0) stored 129,544 steps and peaked at
# 30.7 MB RSS (same VM).  The 14 duals of the tri_exact benchmark
# (44-56 nodes, width 4-6) need 42,982 steps together, and the five
# duals of random_biconnected(n, n + 30, 0), n = 80..120 (32 nodes,
# width 3), need 577.
_DP_MAX_STEPS = 1 << 18


class _Steps:
    """The steps of the programme, kept across solves: memos maps each
    pattern to its memo, from the state of a forget to the states it
    leads to, or from the first state of a join to a row, from the
    second state to the states the two lead to.  room counts the steps
    still to store; when none is left, every memo is dropped before the
    next step is stored."""

    __slots__ = ("memos", "size", "room")

    def __init__(self, size: int):
        self.memos: dict[tuple, dict[int, object]] = {}
        self.size = self.room = size

    def memo(self, pattern: tuple) -> dict[int, object]:
        memo = self.memos.get(pattern)
        if memo is None:
            memo = self.memos[pattern] = {}
        return memo

    def spend(self, pattern: tuple, memo: dict) -> bool:
        """Count a step about to be stored in memo, the memo of pattern.
        When no room is left, every memo is emptied first, memo is kept
        as the memo of pattern, and True is returned; the caller holds no
        other memo, so only this one is kept in use."""
        self.room -= 1
        if self.room >= 0:
            return False
        self.memos.clear()
        memo.clear()
        self.memos[pattern] = memo
        self.room = self.size - 1
        return True


_DP_STEPS = _Steps(_DP_MAX_STEPS)
_ABOVE = float("inf")  # above every cost, as a table's default


def _eliminate(nodes, pairs, cap: int):
    """A min-fill elimination order of the simple graph on nodes with
    the given pairs as edges, ties broken by degree, then node id, and
    each node's later neighbours; None once a node has more than cap.

    The fill of a node is the number of pairs of its neighbours that are
    not adjacent; it is counted once for every node, then kept up to
    date.  Eliminating u joins its neighbours N into a clique.  Each new
    pair lowers the fill of every common neighbour of its two ends by
    one.  A node a of N loses u, its neighbours R outside N, none of
    them adjacent to u, and gains the nodes M of N it was not adjacent
    to, each adjacent to all of N; so its fill drops by |R| and by one
    per new pair of two of its neighbours, and rises by the pairs of
    R x M that are not adjacent.  No other fill moves.  A heap holds (fill, degree,
    node) entries, and one that no longer matches its node is skipped."""
    adj: dict[int, set[int]] = {u: set() for u in nodes}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    # every pair of neighbours, less one per edge between two of them
    fill = {u: len(nbrs) * (len(nbrs) - 1) >> 1 for u, nbrs in adj.items()}
    for u, nbrs in adj.items():
        for w in nbrs:
            if u < w:
                for x in nbrs & adj[w]:
                    fill[x] -= 1
    heap = [(f, len(adj[u]), u) for u, f in fill.items()]
    heapify(heap)
    order: list[int] = []
    later: dict[int, set[int]] = {}
    while heap:
        f, deg, u = heappop(heap)
        nbrs = adj.get(u)
        if nbrs is None or f != fill[u] or deg != len(nbrs):
            continue
        if deg > cap:
            return None
        del adj[u]
        order.append(u)
        later[u] = nbrs
        if not f:
            # N is a clique already: a loses u and R, |R| = |near| - |N| + 1
            for a in nbrs:
                near = adj[a]
                near.discard(u)
                fill[a] -= len(near) + 1 - deg
                heappush(heap, (fill[a], len(near), a))
            continue
        for a in nbrs:
            adj[a].discard(u)
        grow = []
        moved = set()  # the common neighbours of new pairs
        for a in nbrs:
            near = adj[a]
            out = near - nbrs
            new = nbrs - near
            new.discard(a)
            g = fill[a] - len(out)
            if new:
                g += len(out) * len(new)
                for b in new:
                    far = adj[b]
                    g -= len(far & out)
                    if a < b:
                        # adjacency as it was before the fill
                        for w in near & far:
                            fill[w] -= 1
                            moved.add(w)
                grow.append((a, new))
            fill[a] = g
        for a, new in grow:
            adj[a] |= new
        for w in moved - nbrs:
            heappush(heap, (fill[w], len(adj[w]), w))
        for a in nbrs:
            heappush(heap, (fill[a], len(adj[a]), a))
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


def _join(scope1, t1, scope2, t2, forget=None, cost=0):
    """The join of two tables, over the union of their scopes, each a
    sorted list of elimination positions.  Only states that keep the
    same common nodes are paired.  Given a forget pattern and v's cost,
    the join is forgotten by it at once, as _forget would do."""
    codes = dict.fromkeys(scope1, 1)
    for p in scope2:
        codes[p] = codes.get(p, 0) | 2
    scope = sorted(codes)
    pattern = tuple(map(codes.__getitem__, scope))
    # the common nodes, as bits 4i of the states on either side
    at1 = [4 * i for i, p in enumerate(scope1) if codes[p] == 3]
    at2 = [4 * i for i, p in enumerate(scope2) if codes[p] == 3]
    common1 = sum(map((1).__lshift__, at1))
    common2 = sum(map((1).__lshift__, at2))
    # t2's states by the common nodes they keep: bit 4i is set in
    # s | s >> 1 | s >> 2 | s >> 3 when position i of s is kept
    groups: dict[int, list] = {}
    for item in t2.items():
        s2 = item[0]
        kept = (s2 | s2 >> 1 | s2 >> 2 | s2 >> 3) & common2
        group = groups.get(kept)
        if group is None:
            groups[kept] = [item]
        else:
            group.append(item)
    # the groups by the common nodes they keep, as bits of t1's states
    if at1 == at2:
        match = groups
    else:
        match = {sum(1 << i for i, j in zip(at1, at2) if kept >> j & 1):
                 group for kept, group in groups.items()}
    steps = _DP_STEPS
    key = pattern if forget is None else (pattern, forget)
    memo = steps.memo(key)
    out: dict[int, int] = {}
    best = out.get
    above = _ABOVE
    for s1, c1 in t1.items():
        group = match.get((s1 | s1 >> 1 | s1 >> 2 | s1 >> 3) & common1)
        if group is None:
            continue
        if not s1 & 15:
            c1 += cost
        row = memo.get(s1)
        if row is None:
            row = memo[s1] = {}
        known = row.get
        for s2, c2 in group:
            nxt = known(s2)
            if nxt is None:
                if steps.spend(key, memo):
                    memo[s1] = row
                    row.clear()
                r = _join_step(pattern, s1, s2)
                nxt = row[s2] = (() if r is None else (r,) if forget is None
                                 else _forget_step(forget, r))
            c = c1 + c2
            for r in nxt:
                if c < best(r, above):
                    out[r] = c
    return scope, out


def _forget(table: dict[int, int], pattern: tuple[int, ...],
            cost: int) -> dict[int, int]:
    """The table of N(v) from v's joined table, as _forget_step gives
    it by pattern; a state that deletes v adds cost, v's own."""
    steps = _DP_STEPS
    memo = steps.memo(pattern)
    known = memo.get
    out: dict[int, int] = {}
    best = out.get
    above = _ABOVE
    for s, c in table.items():
        if not s & 15:
            c += cost
        nxt = known(s)
        if nxt is None:
            steps.spend(pattern, memo)
            nxt = memo[s] = _forget_step(pattern, s)
        for r in nxt:
            if c < best(r, above):
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
    # nodes are named by their elimination positions from here on
    pos = {u: i for i, u in enumerate(order)}
    n = len(order)
    ranked = sorted(d.nodes)
    weight = [0] * n
    for r, u in enumerate(ranked):
        weight[pos[u]] = (1 << n) - (1 << (n - 1 - r))
    ends: list[dict[int, int]] = [{} for _ in order]
    for (a, b), m in mult.items():
        a, b = pos[a], pos[b]
        if a > b:
            a, b = b, a
        ends[a][b] = min(ends[a].get(b, 0) + m, 2)
    pending: dict[int, list] = {}
    total = 0
    for v, u in enumerate(order):
        tables = pending.pop(v, None) or [((v,), {0: 0, 1: 0})]
        if len(tables) == 1:
            covered = tables[0][0]
        else:
            covered = set().union(*[scope for scope, _ in tables])
        mine = ends[v]
        bag = sorted(map(pos.__getitem__, later[u]))
        pattern = (4, *[(p in covered) << 2 | mine.get(p, 0) for p in bag])
        scope, table = tables[0]
        if len(tables) == 1:
            table = _forget(table, pattern, weight[v])
        else:
            for other, t in tables[1:-1]:
                scope, table = _join(scope, table, other, t)
            other, t = tables[-1]
            table = _join(scope, table, other, t, pattern, weight[v])[1]
        if bag:
            pending.setdefault(bag[0], []).append((bag, table))
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


def _rank_fvs(d: DualGraph, base: _Multi) -> tuple[int, list[int]]:
    """Optimum size and lexicographically least optimal node set of a
    dual of maximum degree 3, by matroid parity ranks; CapExceeded when
    the rank value meets neither lower bound, as min_fvs calls this
    only once the programme has declined the dual."""
    nodes = sorted(d.nodes)
    # a str seed goes through SHA-512, so the draws depend on the graph only
    rng = random.Random(repr((d.nodes, d.edges)))
    oracle = _ParityRank(nodes, d.edges, rng)

    k = oracle.value
    # k is never below the optimum; it is certified by the degree bound,
    # else by the peel bound
    floor = _lower_bound(base)
    if k > floor:
        floor = _peel_bound(base.copy())
    if k > floor:
        raise CapExceeded(
            f"a dual of {len(nodes)} nodes has a rank value above its "
            f"bounds and elimination width above {_DP_MAX_WIDTH}")

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
    ill-posed for that node and raises SelfLoopPresent, an edge with an
    end that is not a node raises UnknownNode, and a node listed twice
    raises DuplicateNode; all three are checked before a solver is
    chosen.

    Every dual goes first to the dynamic programme over a min-fill
    elimination order with fill, ties broken by degree, then node id.
    Its table over a bag holds, per state (the deleted nodes and the
    partition of the kept ones into trees), the least cost below, where
    a node set costs its size times 2**n less a mask with the least node
    on the highest bit.  So the least total cost is the
    lexicographically least optimum, read off with no completion loop,
    whatever the order.  The programme keeps the steps of its joins and
    forgets, which depend only on local patterns and states, across
    solves, at most _DP_MAX_STEPS of them.  It draws nothing at random
    and needs no numpy.  It declines a dual where some node has more
    than _DP_MAX_WIDTH = 9 later neighbours in the order: such a dual
    raises CapExceeded at once when it has a node of degree above 3,
    parallel edges counted, and goes to the rank below when it is cubic.

    The rank finds the size k and then takes the nodes in order, each
    kept when the rank says one node fewer remains to find.  A random
    evaluation can only lose rank, so these steps are certified: k, once
    it meets the degree lower bound, else the peel bound (short cycles
    deleted one by one, each counting one node); every node taken; and
    every node passed over because a lower bound on what would remain
    exceeds the budget: the degree bound, read off the dual less the
    chosen nodes and the node without a copy, then the degree bound of
    its reduction, else the peel bound.  When k meets neither bound,
    CapExceeded is raised.  A node passed over on the rank alone,
    confirmed by a second independent draw, is right with high
    probability: each draw errs with probability below (number of
    nodes) / p, so both err together with probability below (number of
    nodes / 4194301)**2.  p = 4194301 is the largest prime below 2**22,
    small enough that the rank runs on float64 BLAS products exactly
    (see _P).  A slip there could only return an optimum that is not the
    least one, or raise AssertionError; the size stays exact.  The
    returned set is verified as a feedback set whatever the solver."""
    if d.has_self_loop():
        raise SelfLoopPresent("dual graph has a self-loop")
    degrees = d.degrees()
    if len(degrees) != len(d.nodes):
        twice = next(f for f, c in Counter(d.nodes).items() if c > 1)
        raise DuplicateNode(f"dual node {twice!r} is listed twice")
    found = _dp_fvs(d)
    if found is None:
        if max(degrees.values()) > 3:
            raise CapExceeded(
                f"a dual of {len(d.nodes)} nodes has a node of degree above "
                f"3 and elimination width above the cap of {_DP_MAX_WIDTH}")
        found = _rank_fvs(d, _Multi.from_dual(d))
    k, chosen = found
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
