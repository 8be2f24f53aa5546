"""Vertex cover on cubic plane graphs, rephrased as connected face cover.

For a biconnected cubic plane graph G, subdividing every edge of the dual
once yields a plane graph D* whose faces correspond one-to-one with the
vertices of G, and whose minimum connected face covers correspond
one-to-one with minimum vertex covers of G.  build_cfc_instance(G)
builds D* with its correspondence map, and cfc_to_vc and vc_to_cfc
translate covers in both directions.  No budget is part of the instance,
since a cover keeps its size in both directions.

D* is assembled directly from G's faces and edges rather than by
subdividing a dual PlaneGraph: duals of graphs that are merely biconnected
can have parallel edges, which the PlaneGraph type refuses, while the
subdivided result is always simple.
"""

from __future__ import annotations

from itertools import combinations

from .cover_solver import _ENUM_CAP
from .errors import (
    CapExceeded,
    NotACover,
    NotAVertexCover,
    NotBiconnected,
    NotCubic,
)
from .plane_graph import (
    FaceId,
    PlaneGraph,
    Vertex,
    _Value,
    _set,
    build,
    is_biconnected,
)
from .split_engine import FaceCover, face_cover


class CfcInstance(_Value):
    """The face-cover counterpart of a cubic biconnected plane graph.

    dstar is the subdivided dual; vertex_of_face and face_of_vertex tie
    its faces to the primal vertices they stand for."""

    primal: PlaneGraph
    dstar: PlaneGraph
    vertex_of_face: dict[FaceId, Vertex]
    face_of_vertex: dict[Vertex, FaceId]

    def __init__(self, primal: PlaneGraph, dstar: PlaneGraph,
                 vertex_of_face: dict[FaceId, Vertex],
                 face_of_vertex: dict[Vertex, FaceId]):
        _set(self, "primal", primal)
        _set(self, "dstar", dstar)
        _set(self, "vertex_of_face", vertex_of_face)
        _set(self, "face_of_vertex", face_of_vertex)


def build_cfc_instance(g: PlaneGraph) -> CfcInstance:
    """Build the subdivided dual D* of a cubic biconnected plane graph,
    with the bijection between D* faces and primal vertices.

    D* has one node per primal face and one degree-2 node per primal
    edge, joined by incidence; a face node's rotation lists its edge
    nodes in facial-walk order.  Every face of D* is a hexagon wrapping
    one primal vertex.

    Face nodes are named f<id>, after the primal face id.  The node of
    edge (u, v), u < v, is named u~v, with '~' appended while the name
    is taken by the node of an earlier edge in sorted order; face names
    hold no '~', so they never collide with edge names."""
    degs = {v: len(nbrs) for v, nbrs in g.rotation.items()}
    bad = sorted(v for v, d in degs.items() if d != 3)
    if bad:
        raise NotCubic(f"vertices {bad} do not have degree 3")
    if not is_biconnected(g):
        raise NotBiconnected("the construction needs a biconnected input")

    walks = g.walks
    face_name = [f"f{fid}" for fid in range(len(walks))]
    edge_name: dict[tuple[Vertex, Vertex], str] = {}
    taken: set[str] = set()
    for u, v in g.edges():
        name = f"{u}~{v}"
        while name in taken:
            name += "~"
        taken.add(name)
        edge_name[(u, v)] = name

    def name_of(slot) -> str:
        u, v = slot
        return edge_name[(min(u, v), max(u, v))]

    rot: dict[str, list[str]] = {}
    for fid, walk in enumerate(walks):
        rot[face_name[fid]] = [name_of(s)
                               for s in zip(walk, walk[1:] + walk[:1])]
    for (u, v), w in edge_name.items():
        fa = g.face_of_slot((u, v))
        fb = g.face_of_slot((v, u))
        rot[w] = [face_name[fa], face_name[fb]]

    dstar = build(rot)
    if len(dstar.walks) != g.n:
        raise AssertionError(
            f"subdivided dual has {len(dstar.walks)} faces for "
            f"{g.n} primal vertices")

    # for each primal slot (x, v) on face F, the D* slot from the edge
    # node of xv to the node of F runs along the hexagon around v
    face_of_vertex: dict[Vertex, FaceId] = {}
    for v, nbrs in g.rotation.items():
        corners = {dstar.face_of_slot((name_of((x, v)),
                                       face_name[g.face_of_slot((x, v))]))
                   for x in nbrs}
        if len(corners) != 1:
            raise AssertionError(
                f"corners of vertex {v} lie on D* faces {sorted(corners)}")
        face_of_vertex[v] = corners.pop()
    vertex_of_face = {f: v for v, f in face_of_vertex.items()}
    if len(vertex_of_face) != g.n:
        raise AssertionError("face-to-vertex map is not a bijection")
    return CfcInstance(primal=g, dstar=dstar,
                       vertex_of_face=vertex_of_face,
                       face_of_vertex=face_of_vertex)


def cfc_to_vc(inst: CfcInstance, cover: FaceCover) -> frozenset[Vertex]:
    """Translate a connected face cover of D* into the vertex set it
    stands for, verified to be a vertex cover of the primal of equal size.

    A valid cover always translates; NotACover means the construction
    itself is broken."""
    chosen = frozenset(inst.vertex_of_face[f] for f in cover.faces)
    for u, v in inst.primal.edges():
        if u not in chosen and v not in chosen:
            raise NotACover(
                f"edge {u}-{v} of the primal is missed by "
                f"{sorted(chosen)}")
    return chosen


def vc_to_cfc(inst: CfcInstance, chosen) -> FaceCover:
    """Translate a vertex cover of the primal into the corresponding
    connected face cover of D*.

    Each chosen vertex contributes its hexagon; covering every primal
    edge makes the hexagons cover all of D*, and connectivity comes for
    free because edge nodes touch only two faces."""
    chosen = set(chosen)
    unknown = chosen - set(inst.primal.rotation)
    if unknown:
        raise NotAVertexCover(f"unknown vertices {sorted(unknown)}")
    for u, v in inst.primal.edges():
        if u not in chosen and v not in chosen:
            raise NotAVertexCover(f"edge {u}-{v} is uncovered")
    return face_cover(inst.dstar,
                      sorted(inst.face_of_vertex[v] for v in chosen))


def brute_min_vc(g: PlaneGraph) -> frozenset[Vertex]:
    """Lexicographically least minimum vertex cover, by exhaustive
    enumeration in increasing size."""
    order = sorted(g.rotation)
    if len(order) > _ENUM_CAP:
        raise CapExceeded(
            f"{len(order)} vertices exceeds the enumeration cap of "
            f"{_ENUM_CAP}")
    edges = g.edges()
    for size in range(len(order) + 1):
        for combo in combinations(order, size):
            s = set(combo)
            if all(u in s or v in s for u, v in edges):
                return frozenset(combo)
    raise AssertionError("unreachable: the full vertex set is a cover")
