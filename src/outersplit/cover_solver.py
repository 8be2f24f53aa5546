"""Minimum connected face covers via feedback vertex sets of the dual.

The splitting number of a plane biconnected graph is one less than the size
of a minimum connected face cover, and that in turn equals the size of a
minimum feedback vertex set of the dual multigraph.  min_fvs solves the
dual problem exactly; fvs_to_cover certifies the resulting face set as a
connected cover; solve_osn chains both and realizes that cover as
realize_cover does, without certifying it a second time.

min_fvs has one exact solver: a dynamic programme over a tree
decomposition from a min-fill elimination order, linear in the number
of nodes at fixed elimination width and capped at width 9.  A dual it
declines, cubic or not, raises CapExceeded at once.  It draws nothing at
random, so a solve depends on the dual alone.

Two independent brute-force oracles cross-check the theory on small
instances: brute_min_cfc enumerates face subsets by size, and
brute_osn_by_splits searches the raw split space with iterative deepening.
Both are deliberately free of dual-graph reasoning.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations

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

def _find(parent: dict[int, int], x: int) -> int:
    """The root of x in a union-find where a root has no parent; the
    nodes on the path from x are pointed straight at the root."""
    if x not in parent:
        return x
    root = parent[x]
    while root in parent:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _is_forest(edges) -> bool:
    """Whether a multigraph given by its edges has no cycle; a parallel
    pair is a cycle."""
    parent: dict[int, int] = {}
    for a, b in edges:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


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
# v has two children or more and the joined scope covers every node of
# v's bag, the last join and the forget are taken as one step, so v's
# joined table is never built.  Nodes are named by their elimination
# positions, and a scope is a sorted list of them.
#
# Deleting node x costs 2**n - 2**(n - 1 - r), with r the rank of x
# among the n nodes, so a set of k nodes costs k 2**n less a mask with
# the least node on its highest bit.  Costs add over disjoint sets, and
# the least cost is that of the lexicographically least smallest set.
#
# A step of a join, of a forget, or of both at once depends only on the
# pattern of its scopes and on its states, never on the instance, so the
# steps are kept across solves in _DP_STEPS, one memo per pattern, filled
# lazily.  Each kind of step has one stored form.  A join step leads to
# at most one state, and so does a forget whose pattern covers every
# node of its bag, as it has no choice to make; so a join step, alone or
# taken with such a forget, stores its state bare, or _NONE when it
# leads to none.  A forget step taken alone stores a tuple of states.
# Many steps have equal results, so a new step's result, and each state
# in a tuple, is stored as the first equal one stored, shared by all the
# memos.  What the memos hold changes the speed of a solve, never its
# answer.

# The largest elimination width the programme takes; min_fvs raises
# CapExceeded for any wider dual, cubic or not.  A bag of w + 1 nodes
# has at most B(w + 2) states, the Bell number: 678,570 at w = 9 and
# 4,213,597 at w = 10.  Measured on a 2-vCPU Xeon VM with the min-fill
# order: the dual of random_triangulation(1600, 0), 3,196 nodes at width
# 9, solved in 28 s at 81 MB peak RSS, its largest table holding 55,146
# states; the dual of random_biconnected(2000, 5950, 0), 3,952 nodes at
# width 10, had not finished after 150 s.  With the cap raised to 10,
# the duals of random_triangulation(1200, 6) and (2000, 0), both at
# width 10, took 334 s at 203 MB and 295 s at 214 MB.  A state holds 4
# bits per position, so the cap stays below 15.
_DP_MAX_WIDTH = 9

# The most steps _DP_STEPS holds; once full it is emptied.  With join
# steps stored bare and equal results shared, a step costs about 44
# bytes, so this is about 11.6 MB: with no cap, the dual of
# random_biconnected(400, 1150, 0) stored 129,189 steps in 5.6 MB and
# peaked at 22.4 MB RSS (same VM).  The 14 duals of the tri_exact
# benchmark (44-56 nodes, width 4-6) need 42,749 steps together, whose
# results are 1,524 distinct objects, tuples and states, and the five
# duals of random_biconnected(n, n + 30, 0), n = 80..120 (32 nodes,
# width 3), need 563.
_DP_MAX_STEPS = 1 << 18


class _Steps:
    """The steps of the programme, kept across solves: memos maps each
    pattern to its memo, from the state of a forget to its result, or
    from the first state of a join to a row, from the second state to
    the result of the two.  A join memo, keyed by a pattern of codes
    1-3 or by that and the covering forget pattern taken with it, holds
    one state or _NONE per result; a forget memo, keyed by a pattern
    that starts with 4, holds a tuple of states.  The stored results,
    and the states in the tuples, are shared: shared maps each to the
    first equal one stored.  room counts the steps still to store; when
    none is left, every memo is dropped, and shared with them, before
    the next step is stored."""

    __slots__ = ("memos", "shared", "size", "room")

    def __init__(self, size: int):
        self.memos: dict[tuple, dict[int, object]] = {}
        self.shared: dict = {}
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
        self.shared.clear()
        memo.clear()
        self.memos[pattern] = memo
        self.room = self.size - 1
        return True

    def share(self, result):
        """The first stored result equal to result; else result itself,
        a tuple rebuilt from the first stored states equal to its own,
        which is stored from now on."""
        shared = self.shared
        kept = shared.get(result)
        if kept is None:
            if type(result) is tuple:
                result = tuple([shared.setdefault(s, s) for s in result])
            kept = shared[result] = result
        return kept


_DP_STEPS = _Steps(_DP_MAX_STEPS)
_ABOVE = float("inf")  # above every cost, as a table's default
_NONE = -1  # the bare result of a step that leads to no state


def _eliminate(nodes, pairs, cap: int):
    """A min-fill elimination order of the simple graph on nodes with
    the given pairs as edges, ties broken by degree, then node id, and
    each node's later neighbours; None once a node has more than cap.

    Let tri(x) be the number of edges between two neighbours of x, so
    the fill of x, the pairs of its neighbours that are not adjacent, is
    C(deg x, 2) - tri(x).  tri is counted once, then kept up to date by
    two rules.  A new edge ab adds 1 to tri(a), to tri(b) and to tri(w)
    for every common neighbour w of a and b.  Eliminating u subtracts
    from each neighbour a of u the number of u's other neighbours that
    a is adjacent to; then u's neighbours N are joined into a clique
    edge by edge, by the first rule.  Only N and the common neighbours
    of the new edges move.  A heap holds (fill, degree, node) entries,
    and one that is not its node's latest is skipped."""
    adj: dict[int, set[int]] = {u: set() for u in nodes}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    tri = dict.fromkeys(adj, 0)
    for u, nbrs in adj.items():
        for w in nbrs:
            if u < w:
                for x in nbrs & adj[w]:
                    tri[x] += 1
    latest = {u: ((len(nbrs) * (len(nbrs) - 1) >> 1) - tri[u], len(nbrs), u)
              for u, nbrs in adj.items()}
    heap = list(latest.values())
    heapify(heap)
    order: list[int] = []
    later: dict[int, set[int]] = {}
    while heap:
        entry = heappop(heap)
        u = entry[2]
        if latest[u] is not entry:
            continue
        if entry[1] > cap:
            return None
        nbrs = later[u] = adj.pop(u)
        order.append(u)
        for a in nbrs:
            near = adj[a]
            near.discard(u)
            tri[a] -= len(near & nbrs)
        moved = set(nbrs)
        for a in nbrs:
            near = adj[a]
            for b in nbrs:
                if a < b and b not in near:
                    far = adj[b]
                    common = near & far
                    t = len(common)
                    tri[a] += t
                    tri[b] += t
                    for w in common:
                        tri[w] += 1
                    moved |= common
                    near.add(b)
                    far.add(a)
        for x in moved:
            deg = len(adj[x])
            latest[x] = entry = ((deg * (deg - 1) >> 1) - tri[x], deg, x)
            heappush(heap, entry)
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


def _introduce(pattern: tuple[int, ...], labels: list[int]) -> int:
    """The state of N(v) once v's edges, as pattern gives them, are
    introduced into a scope labelled by labels, v first, and v is
    forgotten; _NONE when an edge closes a cycle."""
    v = labels[0]
    rest = labels[1:]
    if not v:
        return _canonical(rest)
    parent: dict[int, int] = {}
    for code, lab in zip(pattern[1:], rest):
        if code & 3 and lab:
            ra, rb = _find(parent, v), _find(parent, lab)
            if code & 3 == 2 or ra == rb:
                return _NONE
            parent[rb] = ra
    return _canonical([lab and _find(parent, lab) for lab in rest])


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
        r = _introduce(pattern, labels)
        if r != _NONE:
            out.append(r)
    return tuple(out)


def _covers(pattern: tuple[int, ...]) -> bool:
    """Whether a forget pattern covers every node of v's bag, so that
    its steps lead to at most one state."""
    return min(pattern) >= 4


def _forget_one(pattern: tuple[int, ...], s: int) -> int:
    """The one state that _forget_step leads to, or _NONE for none, when
    pattern covers every node of v's bag."""
    return _introduce(pattern, [s >> 4 * i & 15 for i in range(len(pattern))])


def _join(scope1, t1, scope2, t2, forget=None, cost=0):
    """The join of two tables, over the union of their scopes, each a
    sorted list of elimination positions.  Only states that keep the
    same common nodes are paired.  Given a forget pattern that covers
    every node of v's bag and v's cost, the join is forgotten by it at
    once, as _forget would do."""
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
        group = match[(s1 | s1 >> 1 | s1 >> 2 | s1 >> 3) & common1]
        if not s1 & 15:
            c1 += cost
        row = memo.get(s1)
        if row is None:
            row = memo[s1] = {}
        known = row.get
        # _NONE goes into out like a state, and is taken out at the end
        for s2, c2 in group:
            r = known(s2)
            if r is None:
                if steps.spend(key, memo):
                    memo[s1] = row
                    row.clear()
                r = _join_step(pattern, s1, s2)
                if r is None:
                    r = _NONE
                elif forget is not None:
                    r = _forget_one(forget, r)
                r = row[s2] = steps.share(r)
            c = c1 + c2
            if c < best(r, above):
                out[r] = c
    out.pop(_NONE, None)
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
            nxt = memo[s] = steps.share(_forget_step(pattern, s))
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
        if len(tables) > 1 and _covers(pattern):
            for other, t in tables[1:-1]:
                scope, table = _join(scope, table, other, t)
            other, t = tables[-1]
            table = _join(scope, table, other, t, pattern, weight[v])[1]
        else:
            for other, t in tables[1:]:
                scope, table = _join(scope, table, other, t)
            table = _forget(table, pattern, weight[v])
        if bag:
            pending.setdefault(bag[0], []).append((bag, table))
        else:
            total += table[0]
    k = -(-total >> n)
    mask = (k << n) - total
    return k, [u for r, u in enumerate(ranked) if mask >> (n - 1 - r) & 1]


def min_fvs(d: DualGraph) -> FvsSolution:
    """Exact minimum feedback vertex set of a dual multigraph, returning
    the lexicographically least optimal node set.

    Parallel edges are honored as 2-cycles; a self-loop makes the problem
    ill-posed for that node and raises SelfLoopPresent, an edge with an
    end that is not a node raises UnknownNode, and a node listed twice
    raises DuplicateNode; all three are checked before the programme
    runs.

    The solver is the dynamic programme over a min-fill elimination
    order with fill, ties broken by degree, then node id.  Its table
    over a bag holds, per state (the deleted nodes and the partition of
    the kept ones into trees), the least cost below, where a node set
    costs its size times 2**n less a mask with the least node on the
    highest bit.  So the least total cost is the lexicographically least
    optimum, whatever the order.  The programme keeps the steps of its
    joins and forgets, which depend only on local patterns and states,
    across solves, at most _DP_MAX_STEPS of them.  It draws nothing at
    random.  A dual where some node has more than _DP_MAX_WIDTH = 9 later
    neighbours in the order, cubic or not, raises CapExceeded at once.
    The returned set is verified as a feedback set."""
    if d.has_self_loop():
        raise SelfLoopPresent("dual graph has a self-loop")
    # degrees() raises UnknownNode, and keeps a node listed twice once
    if len(d.degrees()) != len(d.nodes):
        twice = next(f for f, c in Counter(d.nodes).items() if c > 1)
        raise DuplicateNode(f"dual node {twice!r} is listed twice")
    found = _dp_fvs(d)
    if found is None:
        raise CapExceeded(
            f"a dual of {len(d.nodes)} nodes has elimination width above "
            f"the cap of {_DP_MAX_WIDTH}")
    k, chosen = found
    if len(chosen) != k:
        raise AssertionError("the programme's node set and optimum disagree")

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

# most faces brute_min_cfc, and most vertices reductions.brute_min_vc,
# enumerate subsets of
_ENUM_CAP = 20


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
