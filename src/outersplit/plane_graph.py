"""Plane graphs stored as rotation systems.

A plane graph is a map from each vertex to the cyclic clockwise order of its
neighbors.  That map is the single source of truth for the embedding: faces
and the dual are derived from it and never edited independently.  The
embedding lives on the sphere, so the outer face is a designation (an
ordinary face id picked by the caller), not a structural property.

Faces are traced through directed edge slots.  The slot (u, v) is the side
of edge {u, v} walked from u to v; each slot belongs to exactly one face,
and the walk continues from (u, v) to (v, w) where w follows u in the
clockwise rotation at v.  Face ids are assigned deterministically by sorting
the walks by their lexicographically smallest slot.

Every PlaneGraph holds its faces as two fields, walks and slot_face.
build traces the rotation system once, and the trace is also where the
rotation system is checked: each vertex's neighbors are tested for
itself and for repeats before the walks start, and a slot (u, v) whose
head does not list u back has no successor, which the walk through it
finds.  Connectivity and Euler's formula are checked on what the trace
returns.  A split changes only the faces through the split vertex, so
split_engine derives the faces after a split from those before instead
of tracing again; the derived faces equal what a trace of the new
rotation system gives.  It edits one working copy of the maps through a
whole split sequence and builds a PlaneGraph once, at the end, so a
graph is built only where the API returns one.  Designating an outer
face shares the fields unchanged.

The package reads faces from those fields: face i's vertices are
walks[i], and the face on each side of an edge comes from slot_face.
Face records, with their slot tuples and vertex sets, are made only for
callers of PlaneGraph.faces.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping

from .errors import (
    AsymmetricRotation,
    Disconnected,
    NotPlanar,
    OuterFaceUnset,
    ParallelEdge,
    SelfLoop,
    UnknownNode,
)

Vertex = str
FaceId = int
Slot = tuple[Vertex, Vertex]

# sets a _Value's field past its __setattr__; the field is stored as any
# attribute is, so reading it costs what reading any attribute does
_set = object.__setattr__


class _Value:
    """Base of the package's immutable value types.

    The fields are the names a subclass annotates, in order; each
    subclass sets them in its own __init__ through _set.  Instances
    compare equal when they are of the same class and their fields are
    equal, hash their fields' tuple, repr as ClassName(field=value, ...),
    and raise AttributeError on any assignment or deletion: the
    behaviour of a frozen dataclass, without the code it generates and
    compiles for every class at import."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Face(_Value):
    """One face of a plane graph.

    boundary holds the facial walk as directed slots, starting at the
    lexicographically smallest slot.  A degree-1 vertex contributes a slot
    whose edge the walk traverses once in each direction.
    """

    id: FaceId
    boundary: tuple[Slot, ...]
    incident_vertices: frozenset[Vertex]

    def __init__(self, id: FaceId, boundary: tuple[Slot, ...],
                 incident_vertices: frozenset[Vertex]):
        _set(self, "id", id)
        _set(self, "boundary", boundary)
        _set(self, "incident_vertices", incident_vertices)

    def __len__(self) -> int:
        return len(self.boundary)


class PlaneGraph(_Value):
    """Immutable rotation system, its faces and an optional outer-face
    designation.

    rotation maps each vertex to the tuple of its neighbors in clockwise
    order.  walks[i] holds the vertices of face i's walk, in walk order
    from the tail of its smallest slot: the walk (u0, u1, ...) has the
    slots (u0, u1), (u1, u2), ... and (u_last, u0).  slot_face maps
    every slot to the id of its face.  Both are traced by build or
    derived by a split.  outer_face is None or the int id of one of the
    faces; any other value raises OuterFaceUnset when the graph is made.
    Instances compare by identity; two graphs are the same labeled
    embedding when their rotation and outer_face are equal.
    """

    rotation: Mapping[Vertex, tuple[Vertex, ...]]
    walks: tuple[tuple[Vertex, ...], ...]
    slot_face: dict[Slot, FaceId]
    outer_face: FaceId | None

    # by identity
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, rotation: Mapping[Vertex, tuple[Vertex, ...]],
                 walks: tuple[tuple[Vertex, ...], ...],
                 slot_face: dict[Slot, FaceId],
                 outer_face: FaceId | None = None):
        outer = outer_face
        if outer is not None:
            # bool is an int, but serialize_rot would write it as a word
            if isinstance(outer, bool) or not isinstance(outer, int):
                raise OuterFaceUnset(f"face id {outer!r} is not an integer")
            count = len(walks)
            if not 0 <= outer < count:
                raise OuterFaceUnset(
                    f"face {outer} does not exist (graph has {count} faces)")
        _set(self, "rotation", rotation)
        _set(self, "walks", walks)
        _set(self, "slot_face", slot_face)
        _set(self, "outer_face", outer_face)

    @property
    def n(self) -> int:
        return len(self.rotation)

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.rotation.values()) // 2

    def degree(self, v: Vertex) -> int:
        return len(self.rotation[v])

    def edges(self) -> tuple[Slot, ...]:
        """Undirected edges as sorted (min, max) pairs, sorted overall."""
        out = set()
        for v, nbrs in self.rotation.items():
            for u in nbrs:
                out.add((u, v) if u < v else (v, u))
        return tuple(sorted(out))

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """Face records of walks, made when first asked for."""
        return tuple(
            Face(id=i, boundary=tuple(zip(walk, walk[1:] + walk[:1])),
                 incident_vertices=frozenset(walk))
            for i, walk in enumerate(self.walks))

    def face_of_slot(self, slot: Slot) -> FaceId:
        return self.slot_face[slot]


def _trace_faces(
        rotation: Mapping[Vertex, tuple[Vertex, ...]]
) -> tuple[tuple[tuple[Vertex, ...], ...], dict[Slot, FaceId]]:
    """walks and slot_face of a rotation system, as PlaneGraph holds them.

    Raises SelfLoop or ParallelEdge for the first vertex, in the map's
    order, whose list holds itself or a neighbor twice, and otherwise
    AsymmetricRotation for the first slot (u, v) the trace reaches
    whose head v does not list u back or is not a vertex."""
    # after[v][u] follows u in the clockwise rotation at v: the slot
    # (u, v) is followed by (v, after[v][u])
    after: dict[Vertex, dict[Vertex, Vertex]] = {}
    for v, nbrs in rotation.items():
        nxt = dict(zip(nbrs, nbrs[1:] + nbrs[:1]))
        if v in nxt or len(nxt) != len(nbrs):
            _raise_not_simple(v, nbrs)
        after[v] = nxt

    walks: list[tuple[Vertex, ...]] = []
    slot_face: dict[Slot, FaceId] = {}
    # Slots are consumed in sorted order, so every walk starts at its own
    # lexicographically smallest slot and face ids come out sorted.  The
    # slots are the (t, h) with h in rotation[t], so sorting the tails,
    # then each tail's heads, gives the sorted slots without sorting all
    # 2m.
    #
    # With no vertex listing a neighbor twice, a slot is the successor
    # of at most one slot, so a walk either comes back to its start
    # slot or stops at a slot that has no successor, and it never
    # enters a face already traced.  Every slot is walked through, so
    # every slot whose head does not list its tail back is found.
    for t in sorted(rotation):
        for h in sorted(rotation[t]):
            if (t, h) in slot_face:
                continue
            fid = len(walks)
            walk: list[Vertex] = []
            u, v = t, h
            try:
                while True:
                    slot_face[u, v] = fid
                    walk.append(u)
                    u, v = v, after[v][u]
                    if u == t and v == h:
                        break
            except KeyError:
                if v not in rotation:
                    raise AsymmetricRotation(
                        f"{u!r} lists unknown vertex {v!r}") from None
                raise AsymmetricRotation(
                    f"{u!r} lists {v!r} but {v!r} does not list {u!r}"
                ) from None
            walks.append(tuple(walk))
    return tuple(walks), slot_face


def _raise_not_simple(v: Vertex, nbrs: tuple[Vertex, ...]) -> None:
    """Raise SelfLoop or ParallelEdge for the first neighbor of v that
    is v or repeats an earlier one."""
    seen = set()
    for u in nbrs:
        if u == v:
            raise SelfLoop(f"vertex {v!r} lists itself")
        if u in seen:
            raise ParallelEdge(f"vertex {v!r} lists {u!r} twice", v)
        seen.add(u)


def build(adjacency: Mapping[Vertex, Iterable[Vertex]]) -> PlaneGraph:
    """Validate a rotation system and wrap it in a PlaneGraph.

    The neighbor order of each vertex is kept exactly as given (clockwise).
    Raises SelfLoop, ParallelEdge, AsymmetricRotation, Disconnected or
    NotPlanar when the map does not describe a connected sphere embedding
    with at least one edge.  When several apply, the first in that list
    wins: the face trace finds self-loops and repeated neighbors before
    it starts and asymmetry as it walks, and the graph-wide checks run
    on the symmetric system it leaves.  The trace names the first
    faulty vertex in the map's order, or the first asymmetric slot it
    reaches.
    """
    rotation: dict[Vertex, tuple[Vertex, ...]] = {}
    for v, nbrs in adjacency.items():
        rotation[v] = tuple(nbrs)

    walks, slot_face = _trace_faces(rotation)
    if rotation and not _connected(rotation):
        raise Disconnected("rotation system describes a disconnected graph")

    n = len(rotation)
    m = sum(len(nbrs) for nbrs in rotation.values()) // 2
    if m == 0:
        raise NotPlanar(
            f"{n} vertices and no edges: a plane graph needs at least one "
            "edge to have a face")
    f = len(walks)
    if n - m + f != 2:
        raise NotPlanar(
            f"V - E + F = {n - m + f}, not 2: rotation system does not "
            "embed in the sphere")
    return PlaneGraph(rotation, walks, slot_face)


def _connected(rotation: Mapping[Vertex, tuple[Vertex, ...]]) -> bool:
    start = next(iter(rotation))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in rotation[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(rotation)


def with_outer_face(g: PlaneGraph, face_id: FaceId) -> PlaneGraph:
    """Return the same embedding with face_id designated as outer,
    sharing g's rotation and faces.  None, or an id that is not one of
    g's faces, raises OuterFaceUnset; PlaneGraph checks the latter."""
    if face_id is None:
        raise OuterFaceUnset("no face id given")
    return PlaneGraph(g.rotation, g.walks, g.slot_face, face_id)


class DualGraph(_Value):
    """Multigraph on face ids; edges holds unordered pairs, and a
    repeated pair is a parallel edge.

    dual(g) gives one edge per primal edge, as (min, max) pairs, sorted:
    two faces sharing k primal edges appear as k parallel pairs, and a
    self-loop (f, f) appears exactly when the primal edge is a bridge.
    min_fvs certifies its solution with the DualGraph its input leaves
    once the solution's nodes are removed.
    """

    nodes: tuple[FaceId, ...]
    edges: tuple[tuple[FaceId, FaceId], ...]

    def __init__(self, nodes: tuple[FaceId, ...],
                 edges: tuple[tuple[FaceId, FaceId], ...]):
        _set(self, "nodes", nodes)
        _set(self, "edges", edges)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> dict[FaceId, int]:
        """Each node's degree, parallel edges counted; an edge with an end
        that is not a node raises UnknownNode."""
        deg = {f: 0 for f in self.nodes}
        try:
            for a, b in self.edges:
                deg[a] += 1
                deg[b] += 1
        except KeyError as exc:
            raise UnknownNode(
                f"dual edge end {exc.args[0]!r} is not a node") from None
        return deg

    def has_self_loop(self) -> bool:
        return any(a == b for a, b in self.edges)


def dual(g: PlaneGraph) -> DualGraph:
    """Dual multigraph of the embedding: one node per face, the outer one
    included, and one edge per primal edge: the faces of its two slots."""
    slot_face = g.slot_face
    edges = []
    for (u, v), a in slot_face.items():
        if u < v:
            b = slot_face[(v, u)]
            edges.append((a, b) if a <= b else (b, a))
    return DualGraph(nodes=tuple(range(len(g.walks))),
                     edges=tuple(sorted(edges)))


def is_biconnected(g: PlaneGraph) -> bool:
    """True when g has at least 3 vertices and every face is bounded by a
    cycle, that is, no facial walk visits a vertex twice.

    For a connected sphere embedding this is exactly biconnectivity: a
    cut vertex appears twice on some facial walk, and a graph whose faces
    are all cycles has none.  build accepts only connected sphere
    embeddings, and splits keep both properties, so every PlaneGraph
    meets the precondition."""
    return g.n >= 3 and all(
        len(walk) == len(set(walk)) for walk in g.walks)


def _touches_all(walk: tuple[Vertex, ...], n: int) -> bool:
    # a walk holds vertices of its graph only, so n distinct ones are all
    return len(walk) >= n and len(set(walk)) == n


def outerplane_face(g: PlaneGraph) -> FaceId | None:
    """Face incident to every vertex: the designated outer face when it
    qualifies, else the smallest qualifying id, else None."""
    n, walks = g.n, g.walks
    if g.outer_face is not None and _touches_all(walks[g.outer_face], n):
        return g.outer_face
    return next((fid for fid, walk in enumerate(walks)
                 if _touches_all(walk, n)), None)


def is_outerplane(g: PlaneGraph) -> bool:
    """True when some face touches every vertex."""
    return outerplane_face(g) is not None
