"""Minimum connected face covers via feedback vertex sets of the dual.

The splitting number of a plane biconnected graph is one less than the size
of a minimum connected face cover, and that in turn equals the size of a
minimum feedback vertex set of the dual multigraph.  min_fvs solves the
dual problem exactly; fvs_to_cover certifies the resulting face set as a
connected cover; solve_osn chains both with realize_cover.

Two independent brute-force oracles cross-check the theory on small
instances: brute_min_cfc enumerates face subsets by size, and
brute_osn_by_splits searches the raw split space with iterative deepening.
Both are deliberately free of dual-graph reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    CapExceeded,
    CertificateFailure,
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
    _split_at_gaps,
    face_cover,
    realize_cover,
)


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
    third parallel edge changes no cycle-hitting question."""

    __slots__ = ("adj",)

    def __init__(self, adj=None):
        self.adj = adj if adj is not None else {}

    @classmethod
    def from_dual(cls, d: DualGraph) -> "_Multi":
        adj: dict[int, dict[int, int]] = {u: {} for u in d.nodes}
        for a, b in d.edges:
            adj[a][b] = min(2, adj[a].get(b, 0) + 1)
            adj[b][a] = min(2, adj[b].get(a, 0) + 1)
        return cls(adj)

    def copy(self) -> "_Multi":
        return _Multi({u: dict(nbrs) for u, nbrs in self.adj.items()})

    def remove(self, u: int) -> None:
        for w in self.adj[u]:
            del self.adj[w][u]
        del self.adj[u]

    def add_edge(self, a: int, b: int) -> None:
        self.adj[a][b] = min(2, self.adj[a].get(b, 0) + 1)
        self.adj[b][a] = min(2, self.adj[b].get(a, 0) + 1)

    def degree(self, u: int) -> int:
        return sum(self.adj[u].values())


def _components(mg: _Multi):
    seen: set[int] = set()
    for start in mg.adj:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        i = 0
        while i < len(comp):
            for w in mg.adj[comp[i]]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
            i += 1
        yield comp


def _lower_bound(mg: _Multi) -> int:
    # Per component: removing a node of degree <= D kills <= D edges, and
    # a forest on n' nodes has < n' edges, so any feedback set has at
    # least ceil((m - n + 1) / (D - 1)) nodes.
    total = 0
    for comp in _components(mg):
        n = len(comp)
        m = sum(mg.degree(u) for u in comp) // 2
        excess = m - n + 1
        if excess <= 0:
            continue
        max_deg = max(mg.degree(u) for u in comp)
        total += -(-excess // (max_deg - 1))
    return total


def _acyclic_under(mg: _Multi, keep) -> bool:
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for u in mg.adj:
        if u not in keep:
            continue
        for w, mult in mg.adj[u].items():
            if w < u or w not in keep:
                continue
            if mult >= 2:
                return False
            ru, rw = find(u), find(w)
            if ru == rw:
                return False
            parent[ru] = rw
    return True


def _reduce(mg: _Multi, budget: int, forbidden: frozenset[int],
            taken: list[int]) -> bool:
    """Exhaustively apply safe reductions; False when provably infeasible."""
    changed = True
    while changed:
        changed = False
        for u in list(mg.adj):
            if u not in mg.adj:
                continue
            deg = mg.degree(u)
            if deg <= 1:
                mg.remove(u)
                changed = True
                continue
            if deg == 2:
                nbrs = mg.adj[u]
                if len(nbrs) == 1:
                    # 2-cycle u=a: u's cycles all pass a, so prefer a
                    (a,) = nbrs
                    if a not in forbidden:
                        taken.append(a)
                        mg.remove(a)
                    elif u not in forbidden:
                        taken.append(u)
                        mg.remove(u)
                    else:
                        return False
                    if len(taken) > budget:
                        return False
                    changed = True
                    continue
                a, b = nbrs
                # Bypassing u assumes some witness avoids u, which needs u
                # excluded anyway or an allowed neighbor to swap onto.
                if u in forbidden or a not in forbidden or b not in forbidden:
                    mg.remove(u)
                    mg.add_edge(a, b)
                    changed = True
    return True


def _decide(mg: _Multi, budget: int, forbidden: frozenset[int]):
    """Nodes of a feedback vertex set of size <= budget avoiding the
    forbidden set, or None.  Consumes mg."""
    taken: list[int] = []
    if not _reduce(mg, budget, forbidden, taken):
        return None
    if len(taken) > budget:
        return None
    if not mg.adj:
        return taken
    rem = budget - len(taken)
    if rem <= 0 or _lower_bound(mg) > rem:
        return None
    if not _acyclic_under(mg, forbidden):
        return None
    cands = [u for u in mg.adj if u not in forbidden]
    if not cands:
        return None
    x = max(cands, key=lambda u: (mg.degree(u), -u))
    m_in = mg.copy()
    m_in.remove(x)
    sub = _decide(m_in, rem - 1, forbidden)
    if sub is not None:
        return taken + [x] + sub
    sub = _decide(mg, rem, forbidden | {x})
    if sub is not None:
        return taken + sub
    return None


def min_fvs(d: DualGraph) -> FvsSolution:
    """Exact minimum feedback vertex set of a dual multigraph, returning
    the lexicographically least optimal node set.

    Parallel edges are honored as 2-cycles; a self-loop makes the problem
    ill-posed for that node and raises SelfLoopPresent."""
    if d.has_self_loop():
        raise SelfLoopPresent("dual graph has a self-loop")
    base = _Multi.from_dual(d)

    k = _lower_bound(base)
    while _decide(base.copy(), k, frozenset()) is None:
        k += 1

    chosen: list[int] = []
    forbidden: set[int] = set()
    for x in sorted(d.nodes):
        if len(chosen) == k:
            break
        trial = base.copy()
        for y in chosen:
            trial.remove(y)
        trial.remove(x)
        if _decide(trial, k - len(chosen) - 1, frozenset(forbidden)) is not None:
            chosen.append(x)
        else:
            forbidden.add(x)
    if len(chosen) != k:
        raise AssertionError("lexicographic completion lost the optimum")

    sol = frozenset(chosen)
    forest_nodes = tuple(sorted(set(d.nodes) - sol))
    forest_edges = tuple(
        e for e in d.edges if e[0] not in sol and e[1] not in sol)
    rest = _Multi({u: {} for u in forest_nodes})
    for a, b in forest_edges:
        rest.add_edge(a, b)
    if not _acyclic_under(rest, set(forest_nodes)):
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
    return OsnResult(osn=len(sol.nodes) - 1, cover=cover,
                     splits=realize_cover(g, cover))


# -- independent brute-force oracles -------------------------------------------

def brute_min_cfc(g: PlaneGraph, cap: int = 20) -> FaceCover:
    """Minimum connected face cover by exhaustive enumeration of face
    subsets in increasing size and lexicographic order."""
    faces = g.faces
    if len(faces) > cap:
        raise CapExceeded(
            f"{len(faces)} faces exceeds the enumeration cap of {cap}")
    order = sorted(set(g.rotation))
    pos = {v: i for i, v in enumerate(order)}
    masks = []
    for f in faces:
        m = 0
        for v in f.incident_vertices:
            m |= 1 << pos[v]
        masks.append(m)
    full = (1 << len(order)) - 1

    for size in range(1, len(faces) + 1):
        for combo in combinations(range(len(faces)), size):
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
    None when k_max is exhausted.  Independent of covers and duals."""
    if len(g.faces) > face_cap:
        raise CapExceeded(
            f"{len(g.faces)} faces exceeds the split-search cap of "
            f"{face_cap}")
    if k_max is None:
        k_max = len(g.faces) - 1
    base = PlaneGraph(rotation=dict(g.rotation), outer_face=None)
    for depth in range(k_max + 1):
        if _split_search(base, depth, {}):
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
                child, _ = _split_at_gaps(g, v, i, j)
                if _split_search(child, depth - 1, visited):
                    return True
    return False
