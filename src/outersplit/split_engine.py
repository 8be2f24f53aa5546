"""Embedding-preserving vertex splits and their bookkeeping.

A split replaces a vertex v by two copies and distributes the clockwise
neighbor arc between them.  The cut points are two rotation gaps of v: the
corner of face_a at v and the corner of face_b at v.  The two faces merge
into one; every other face keeps its boundary up to renaming v into one of
its copies.  One split therefore adds a vertex, keeps the edge count, and
removes exactly one face.

Faces are followed through slots, not through face-id maps.  A split
renames v in every slot at v to the copy owning that slot's edge and
otherwise keeps every slot, so mapping each copy back to its origin (the
vertex of the original graph it descends from) sends every slot of a
later graph to a slot of the original.  The original faces merged into a
current face are the faces of its slots mapped back this way.

merge_faces_at_vertex chains splits around one vertex so that a whole set
of faces incident to it becomes a single face.  realize_cover walks a
spanning tree of a connected face cover and applies such merges root to
leaf, producing |cover| - 1 splits that leave the graph outerplane.
extract_cover is the reverse direction: it replays a split sequence and
maps the slots of the final all-incident face back to original faces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    CertificateFailure,
    CopyNameCollision,
    DanglingVertex,
    InvalidCover,
    NotIncident,
    NotOuterplane,
    OutersplitError,
    ReplayFailure,
    SameFace,
)
from .plane_graph import (
    FaceId,
    PlaneGraph,
    Vertex,
    is_outerplane,
    outerplane_face,
    with_outer_face,
)


@dataclass(frozen=True)
class SplitOp:
    """One vertex split, recorded with the face ids of the graph it was
    applied to (ids shift after every split, so ops only make sense in
    sequence order)."""

    vertex: Vertex
    face_a: FaceId
    face_b: FaceId
    copy_1: Vertex
    copy_2: Vertex


@dataclass(frozen=True)
class SplitSequence:
    """Ordered splits plus the map from every created copy back to the
    vertex of the original graph it descends from."""

    ops: tuple[SplitOp, ...]
    origin: Mapping[Vertex, Vertex]

    def __len__(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class FaceCover:
    """A set of faces covering every vertex, with a spanning tree of the
    induced incidence subgraph as the connectivity certificate.

    tree holds bipartite (vertex, face) edges; root is the face the tree
    is rooted at."""

    faces: frozenset[FaceId]
    tree: tuple[tuple[Vertex, FaceId], ...]
    root: FaceId


# -- the split primitive -----------------------------------------------------

def _cyclic_slice(items: tuple, start: int, end: int) -> tuple:
    # inclusive slice from start to end, wrapping
    d = len(items)
    if start <= end:
        return items[start:end + 1]
    return items[start:] + items[:end + 1]


def _corner_gap(g: PlaneGraph, v: Vertex, fid: FaceId) -> int:
    """Rotation gap index of the first corner of face fid at v.

    Gap i sits between rotation[v][i] and rotation[v][i+1]; a corner of a
    face at v occupies exactly one gap.  Walk order makes the choice
    deterministic when the face touches v more than once."""
    if not 0 <= fid < len(g.faces):
        raise NotIncident(f"face {fid} does not exist")
    for x, y in g.faces[fid].boundary:
        if y == v:
            return g.rotation[v].index(x)
    raise NotIncident(f"vertex {v!r} is not on the boundary of face {fid}")


def _split_at_gaps(g: PlaneGraph, v: Vertex, gap_a: int,
                   gap_b: int) -> tuple[PlaneGraph, SplitOp]:
    """Split v at two rotation gaps owned by two distinct faces.

    Returns (graph, op).  Every slot of g survives, with v renamed to the
    copy that owns the slot's edge, so an outer designation carries over
    through the old outer face's first slot."""
    rot = g.rotation[v]
    d = len(rot)
    copy_1 = f"{v}.1"
    copy_2 = f"{v}.2"
    if copy_1 in g.rotation or copy_2 in g.rotation:
        raise CopyNameCollision(
            f"copy name {copy_1!r} or {copy_2!r} already taken")

    # Arc conventions follow the corner picture: with face_a's corner in
    # gap_a and face_b's in gap_b, copy_2 takes the clockwise arc right
    # after gap_a up to gap_b's entry, copy_1 the rest.
    arc_2 = _cyclic_slice(rot, (gap_a + 1) % d, gap_b)
    arc_1 = _cyclic_slice(rot, (gap_b + 1) % d, gap_a)
    owner = {w: copy_2 for w in arc_2}
    owner.update({w: copy_1 for w in arc_1})

    new_rot: dict[Vertex, tuple[Vertex, ...]] = dict(g.rotation)
    del new_rot[v]
    new_rot[copy_1] = arc_1
    new_rot[copy_2] = arc_2
    for w in rot:
        new_rot[w] = tuple(owner[w] if x == v else x for x in new_rot[w])

    op = SplitOp(vertex=v, face_a=g.face_of_slot((rot[gap_a], v)),
                 face_b=g.face_of_slot((rot[gap_b], v)),
                 copy_1=copy_1, copy_2=copy_2)
    result = PlaneGraph(rotation=new_rot, outer_face=None)
    if len(result.faces) != len(g.faces) - 1:
        raise AssertionError("split did not merge exactly two faces")
    if g.outer_face is not None:
        x, y = g.faces[g.outer_face].boundary[0]
        slot = ((owner[y], y) if x == v else
                (x, owner[x]) if y == v else (x, y))
        result = with_outer_face(result, result.face_of_slot(slot))
    return result, op


def split_vertex(g: PlaneGraph, v: Vertex, face_a: FaceId,
                 face_b: FaceId) -> tuple[PlaneGraph, SplitOp]:
    """Split v with respect to two distinct incident faces.

    The faces merge into one; the result has one more vertex, the same
    edges, and one face fewer.  Copies are named v.1 and v.2."""
    if v not in g.rotation:
        raise NotIncident(f"vertex {v!r} does not exist")
    if face_a == face_b:
        raise SameFace(f"split needs two distinct faces, got {face_a} twice")
    if len(g.rotation[v]) < 2:
        raise DanglingVertex(
            f"vertex {v!r} has degree {len(g.rotation[v])}, cannot split")
    return _split_at_gaps(g, v, _corner_gap(g, v, face_a),
                          _corner_gap(g, v, face_b))


def _origin(ops: Iterable[SplitOp]) -> dict[Vertex, Vertex]:
    """Map every copy the ops create to the original vertex it descends
    from; ops must be in sequence order."""
    origin: dict[Vertex, Vertex] = {}
    for op in ops:
        base = origin.get(op.vertex, op.vertex)
        origin[op.copy_1] = base
        origin[op.copy_2] = base
    return origin


# -- merging several faces at one vertex --------------------------------------

def merge_faces_at_vertex(
        g: PlaneGraph, v: Vertex, faces: Iterable[FaceId]
) -> tuple[PlaneGraph, list[SplitOp]]:
    """Merge all given faces incident to v into one face using exactly
    len(faces) - 1 splits, iterating clockwise around v.

    Returns (graph, ops).  Each face is held by the neighbor y of its
    first clockwise corner (y, v): a split only renames v, so the slot
    from y to its copy of v stays on that face."""
    wanted = set(faces)
    if v not in g.rotation:
        raise NotIncident(f"vertex {v!r} does not exist")
    for fid in wanted:
        _corner_gap(g, v, fid)  # raises NotIncident when it has no corner
    if len(wanted) <= 1:
        return g, []

    # Faces of the set in clockwise order of their first corner around v,
    # rotated so the smallest id leads.
    corner: dict[FaceId, Vertex] = {}
    for y in g.rotation[v]:
        fid = g.face_of_slot((y, v))
        if fid in wanted:
            corner.setdefault(fid, y)
    ordered = list(corner)
    lead = ordered.index(min(wanted))
    ordered = ordered[lead:] + ordered[:lead]

    cur = g
    copies = [v]  # current copies of v, the newest copy_1 last

    def now(fid: FaceId) -> FaceId:
        y = corner[fid]
        return cur.face_of_slot(
            (y, next(x for x in cur.rotation[y] if x in copies)))

    ops: list[SplitOp] = []
    for fid in ordered[1:]:
        merged = now(ordered[0])
        target = now(fid)
        # The merged face touches every copy of v, but a face merged at
        # an earlier vertex may have corners at several of them; split a
        # copy the next face touches.
        c = next(c for c in reversed(copies)
                 if c in cur.faces[target].incident_vertices)
        cur, op = _split_at_gaps(cur, c, _corner_gap(cur, c, merged),
                                 _corner_gap(cur, c, target))
        ops.append(op)
        copies.remove(c)
        copies += [op.copy_2, op.copy_1]
    return cur, ops


# -- covers and their realization ---------------------------------------------

def _cover_tree(g: PlaneGraph, faces: frozenset[FaceId]):
    """BFS spanning tree of the incidence subgraph on faces plus all
    vertices; root is the smallest face id, neighbors explored in sorted
    order.  Returns (tree_edges, root) or None when the subgraph is
    disconnected."""
    faces_of: dict[Vertex, list[FaceId]] = {}
    for f in sorted(faces):
        for v in g.faces[f].incident_vertices:
            faces_of.setdefault(v, []).append(f)
    root = min(faces)
    seen_f = {root}
    seen_v: set[Vertex] = set()
    tree: list[tuple[Vertex, FaceId]] = []
    queue: deque = deque([("f", root)])
    while queue:
        kind, node = queue.popleft()
        if kind == "f":
            for v in sorted(g.faces[node].incident_vertices):
                if v not in seen_v:
                    seen_v.add(v)
                    tree.append((v, node))
                    queue.append(("v", v))
        else:
            for f in faces_of[node]:
                if f not in seen_f:
                    seen_f.add(f)
                    tree.append((node, f))
                    queue.append(("f", f))
    if len(seen_f) != len(faces) or len(seen_v) != g.n:
        return None
    return tuple(tree), root


def face_cover(g: PlaneGraph, faces: Iterable[FaceId]) -> FaceCover:
    """Validate a face set as a connected face cover and certify it with
    a spanning tree.  Raises InvalidCover otherwise."""
    fset = frozenset(faces)
    if not fset:
        raise InvalidCover("a cover needs at least one face")
    for fid in fset:
        if not 0 <= fid < len(g.faces):
            raise InvalidCover(f"face {fid} does not exist")
    covered: set[Vertex] = set()
    for fid in fset:
        covered |= g.faces[fid].incident_vertices
    missing = set(g.rotation) - covered
    if missing:
        raise InvalidCover(
            f"vertices not covered: {sorted(missing)[:5]}")
    built = _cover_tree(g, fset)
    if built is None:
        raise InvalidCover("incidence subgraph of the cover is disconnected")
    tree, root = built
    return FaceCover(faces=fset, tree=tree, root=root)


def realize_cover(g: PlaneGraph, cover: FaceCover) -> SplitSequence:
    """Turn any connected face cover of size k+1 into exactly k splits
    whose replay leaves the graph outerplane.

    Re-certifies cover.faces with face_cover, so a malformed cover fails
    with InvalidCover, and walks the tree of that certificate rather than
    cover.tree.  The walk goes root to leaf and merges, at every vertex,
    the faces joined to it by tree edges.  Tree leaves are vertices of
    tree degree one and are never split."""
    cover = face_cover(g, cover.faces)
    # vertices in order of first appearance, which is BFS discovery order
    tree_faces: dict[Vertex, list[FaceId]] = {}
    for v, f in cover.tree:
        tree_faces.setdefault(v, []).append(f)

    cur = g
    ops: list[SplitOp] = []
    origin: dict[Vertex, Vertex] = {}
    for v, group in tree_faces.items():
        if len(group) < 2:
            continue
        # v is still unsplit at its turn, so each original face cornered
        # at v is found through a slot into v.
        now = {g.face_of_slot((origin.get(y, y), v)): cur.face_of_slot((y, v))
               for y in cur.rotation[v]}
        cur, new_ops = merge_faces_at_vertex(
            cur, v, sorted(now[f] for f in group))
        ops += new_ops
        origin.update(_origin(new_ops))  # every new copy descends from v

    if len(ops) != len(cover.faces) - 1:
        raise AssertionError(
            f"realization used {len(ops)} splits for a cover of "
            f"{len(cover.faces)} faces")
    if not is_outerplane(cur):
        raise AssertionError("realized graph is not outerplane")
    return SplitSequence(ops=tuple(ops), origin=origin)


# -- replay and cover extraction ----------------------------------------------

def replay(g: PlaneGraph, seq: SplitSequence) -> PlaneGraph:
    """Apply a recorded split sequence step by step; ReplayFailure when a
    step does not apply or produces different copy names."""
    cur = g
    for step, op in enumerate(seq.ops):
        try:
            cur, applied = split_vertex(cur, op.vertex, op.face_a, op.face_b)
        except OutersplitError as exc:
            raise ReplayFailure(f"step {step} ({op}): {exc}") from exc
        if (applied.copy_1, applied.copy_2) != (op.copy_1, op.copy_2):
            raise ReplayFailure(
                f"step {step}: expected copies {op.copy_1}/{op.copy_2}, "
                f"got {applied.copy_1}/{applied.copy_2}")
    return cur


def extract_cover(g: PlaneGraph, seq: SplitSequence) -> FaceCover:
    """Recover the connected face cover realized by a split sequence.

    Replays the sequence and finds the face incident to every vertex of
    the result.  Mapping each of its slots back through the copies'
    origins gives a slot of g, whose face was merged into it.  The cover
    has at most len(seq) + 1 faces."""
    final = replay(g, seq)
    qualifying = outerplane_face(final)
    if qualifying is None:
        raise NotOuterplane("replayed graph has no all-incident face")
    origin = _origin(seq.ops)
    originals = {g.face_of_slot((origin.get(x, x), origin.get(y, y)))
                 for x, y in final.faces[qualifying].boundary}
    try:
        return face_cover(g, originals)
    except InvalidCover as exc:
        raise CertificateFailure(
            f"extracted face set is not a connected cover: {exc}") from exc
