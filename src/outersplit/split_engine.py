"""Embedding-preserving vertex splits and their bookkeeping.

A split replaces a vertex v by two copies and distributes the clockwise
neighbor arc between them.  The cut points are two rotation gaps of v: the
corner of face_a at v and the corner of face_b at v.  The two faces merge
into one; every other face keeps its boundary up to renaming v into one of
its copies.  One split therefore adds a vertex, keeps the edge count, and
removes exactly one face.  The copies are named v.1 and v.2, or the first
pair v.3 v.4, v.5 v.6, ... whose names are both free.  Either way a
copy's name extends v's, and the choice depends on the graph alone, so a
replay makes it again.

Faces are followed through slots, not through face-id maps.  A split
renames v in every slot at v to the copy owning that slot's edge and
otherwise keeps every slot, so mapping each copy back to its origin (the
vertex of the original graph it descends from) sends every slot of a
later graph to a slot of the original.  The original faces merged into a
current face are the faces of its slots mapped back this way.

A split's faces are derived from the faces before it, not traced: faces
with no corner at v are untouched, faces with a corner at v get v renamed
there, and the two cut faces are spliced into one walk.  A renamed slot
sorts after the slot it replaces, so a face's smallest slot, start and
rank change only when v begins or ends that slot; only such a face is
searched for its new smallest slot and ranked again, and the merged face
starts at the smaller of its two parts' smallest slots.  Only graphs made
by build are ever traced, once each.

A sequence of splits edits one working state in place: the rotation, the
slot map, the walks by key, the id order and one slot of the outer face,
copied once from the input graph, which is never changed.  Each of these
facts is held once: a face's rank is found by searching the id order by
walk, and the outer face is whichever face holds the outer slot.  The
state holds faces by keys, which start as the input's face ids and which
a split keeps for every face it does not merge.  Graphs are built only
where the API returns one, once the sequence is done, with the faces
renumbered by id, so replay builds a single PlaneGraph, split_vertex is
a sequence of one split, and realize_cover, which returns only the ops,
checks that its final walks are outerplane and builds no graph.  Within
a sequence faces are followed by key, through the slots into the split
vertex; a face id, which costs a search of the id order once keys and
ids part, is computed only where _merge records a SplitOp, as replay and
split_vertex are given the ids.  Copy origins are read off the ops only
by extract_cover and SplitSequence.origin; realize_cover finds the
current face of an original one by rotation position instead.

realize_cover walks a spanning tree of a connected face cover root to
leaf; at each vertex, _merge chains splits clockwise around it so that
the faces the tree joins there become a single face.  That makes
|cover| - 1 splits, which leave the graph outerplane.  extract_cover is
the reverse direction: it replays a split sequence and maps the slots of
the final all-incident face back to original faces.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Iterable, Mapping

from .errors import (
    CertificateFailure,
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
    _Value,
    _set,
    _touches_all,
    outerplane_face,
)


class SplitOp(_Value):
    """One vertex split, recorded with the face ids of the graph it was
    applied to (ids shift after every split, so ops only make sense in
    sequence order)."""

    vertex: Vertex
    face_a: FaceId
    face_b: FaceId
    copy_1: Vertex
    copy_2: Vertex

    def __init__(self, vertex: Vertex, face_a: FaceId, face_b: FaceId,
                 copy_1: Vertex, copy_2: Vertex):
        _set(self, "vertex", vertex)
        _set(self, "face_a", face_a)
        _set(self, "face_b", face_b)
        _set(self, "copy_1", copy_1)
        _set(self, "copy_2", copy_2)


class SplitSequence(_Value):
    """Ordered splits.  origin maps every copy they create back to the
    vertex of the original graph it descends from, and is read off the
    ops, so it always agrees with them."""

    ops: tuple[SplitOp, ...]

    def __init__(self, ops: tuple[SplitOp, ...]):
        _set(self, "ops", ops)

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def origin(self) -> dict[Vertex, Vertex]:
        origin: dict[Vertex, Vertex] = {}
        for op in self.ops:
            base = origin.get(op.vertex, op.vertex)
            origin[op.copy_1] = base
            origin[op.copy_2] = base
        return origin


class FaceCover(_Value):
    """A set of faces covering every vertex, with a spanning tree of the
    induced incidence subgraph as the connectivity certificate.

    tree holds bipartite (vertex, face) edges, rooted at the smallest
    face, which its first edge holds."""

    faces: frozenset[FaceId]
    tree: tuple[tuple[Vertex, FaceId], ...]

    def __init__(self, faces: frozenset[FaceId],
                 tree: tuple[tuple[Vertex, FaceId], ...]):
        _set(self, "faces", faces)
        _set(self, "tree", tree)


# -- the working state and its split primitive ------------------------------

def _cyclic_slice(items: tuple, start: int, end: int) -> tuple:
    # inclusive slice from start to end, wrapping
    if start <= end:
        return items[start:end + 1]
    return items[start:] + items[:end + 1]


def _visits(walk: tuple[Vertex, ...], v: Vertex, count: int) -> list[int]:
    """The positions of the count visits of v in walk."""
    at = [walk.index(v)]
    for _ in range(count - 1):
        at.append(walk.index(v, at[-1] + 1))
    return at


def _rename(walk: tuple[Vertex, ...], at: list[int],
            owner: Mapping[Vertex, Vertex]) -> list[Vertex]:
    """The walk with its visits of v, at the positions at, renamed each
    to the copy owning the edge into it."""
    out = list(walk)
    for i in at:
        out[i] = owner[walk[i - 1]]
    return out


def _smallest(walk: tuple[Vertex, ...], lo: int, hi: int) -> int:
    """The position p in range(lo, hi) that begins the smallest slot
    (walk[p], walk[p + 1]) of the cyclic walk among those positions.

    The slot's tail is the smallest vertex there.  When the walk visits
    that vertex once among the positions, its slot is the smallest;
    else a walk passes each slot once, so the slots from its several
    visits differ in their heads, and the least head decides."""
    part = walk[lo:hi]
    first = min(part)
    p = q = part.index(first)
    more = part.count(first) - 1
    if not more:
        return lo + p
    d = len(walk)
    for _ in range(more):
        q = part.index(first, q + 1)
        if walk[(lo + q + 1) % d] < walk[(lo + p + 1) % d]:
            p = q
    return lo + p


class _SplitState:
    """A rotation system and its faces, edited in place by the splits of
    one sequence.

    walks maps a key to its face's walk, slot_face maps every slot to
    the key of its face, and outer is one slot of the outer face, if one
    is designated, renamed like every other slot.  order lists the keys
    by walk, so the position of a key there is its face id: every walk
    starts at its smallest slot and no two faces share a slot, so walks
    sort exactly as their smallest slots do.  The state starts as a copy
    of one graph, keyed by its face ids, so the splits never change that
    graph; a split keeps the key of every face it does not merge, so
    keys and ids part.  graph renumbers the faces by id once the
    sequence is done."""

    __slots__ = ("rotation", "walks", "slot_face", "order", "outer")

    def __init__(self, g: PlaneGraph):
        self.rotation = dict(g.rotation)
        self.walks = dict(enumerate(g.walks))
        self.slot_face = g.slot_face.copy()
        self.order = list(range(len(g.walks)))
        self.outer = (None if g.outer_face is None
                      else g.walks[g.outer_face][:2])

    def face_id(self, key: int) -> FaceId:
        # a key found at its own position is its own id, as every key is
        # until a split moves faces in the id order
        order, walks = self.order, self.walks
        if key < len(order) and order[key] == key:
            return key
        return bisect_left(order, walks[key], key=walks.__getitem__)

    def graph(self) -> PlaneGraph:
        """The graph of the current state, with its faces renumbered by
        id.  The state must not be split again, as the graph shares its
        rotation."""
        id_of = {key: i for i, key in enumerate(self.order)}
        outer = (None if self.outer is None
                 else id_of[self.slot_face[self.outer]])
        return PlaneGraph(self.rotation,
                          tuple(map(self.walks.__getitem__, self.order)),
                          {slot: id_of[key]
                           for slot, key in self.slot_face.items()},
                          outer)

    def key(self, fid: FaceId) -> int:
        if not 0 <= fid < len(self.order):
            raise NotIncident(f"face {fid} does not exist")
        return self.order[fid]

    def corner_gaps(self, v: Vertex, *keys: int) -> list[int]:
        """Rotation gap index of the first corner at v of each face key.

        Gap i sits between rotation[v][i] and rotation[v][i+1]; a corner
        of a face at v occupies exactly one gap.  One pass over v's
        rotation finds the faces with a single corner there; walk order
        makes the choice deterministic when a face touches v more than
        once."""
        rot = self.rotation[v]
        at_v = [self.slot_face[(x, v)] for x in rot]
        gaps = []
        for key in keys:
            corners = at_v.count(key)
            if corners == 1:
                gaps.append(at_v.index(key))
                continue
            if not corners:
                raise NotIncident(f"vertex {v!r} is not on the boundary of "
                                  f"face {self.face_id(key)}")
            # The first slot into v is the one before the first v after
            # the walk's start; with two corners at v the walk visits v
            # twice, so there is one.
            walk = self.walks[key]
            gaps.append(rot.index(walk[walk.index(v, 1) - 1]))
        return gaps

    def split(self, v: Vertex, gap_a: int,
              gap_b: int) -> tuple[Vertex, Vertex]:
        """Split v at two rotation gaps owned by two distinct faces and
        return the names of its two copies.

        Every slot survives, with v renamed to the copy that owns the
        slot's edge, so the outer slot is renamed the same way and stays
        on the face that absorbed the old outer face.  The faces are
        derived from the faces before, not traced, and equal what a
        trace of the new rotation system would give."""
        rotation = self.rotation
        rot = rotation[v]
        d = len(rot)
        # the first pair v.1 v.2, v.3 v.4, ... whose names are both free
        i = 1
        copy_1, copy_2 = f"{v}.1", f"{v}.2"
        while copy_1 in rotation or copy_2 in rotation:
            i += 2
            copy_1, copy_2 = f"{v}.{i}", f"{v}.{i + 1}"

        # Arc conventions follow the corner picture: with face_a's corner
        # in gap_a and face_b's in gap_b, copy_2 takes the clockwise arc
        # right after gap_a up to gap_b's entry, copy_1 the rest.
        arc_2 = _cyclic_slice(rot, (gap_a + 1) % d, gap_b)
        arc_1 = _cyclic_slice(rot, (gap_b + 1) % d, gap_a)
        owner = dict.fromkeys(arc_2, copy_2)
        owner.update(dict.fromkeys(arc_1, copy_1))

        self._split_faces(v, rot[gap_a], rot[gap_b], owner)
        if self.outer is not None:
            x, y = self.outer
            if x == v:
                self.outer = (owner[y], y)
            elif y == v:
                self.outer = (x, owner[x])

        del rotation[v]
        rotation[copy_1] = arc_1
        rotation[copy_2] = arc_2
        for w, c in owner.items():
            nbrs = list(rotation[w])
            nbrs[nbrs.index(v)] = c
            rotation[w] = tuple(nbrs)
        return copy_1, copy_2

    def _split_faces(self, v: Vertex, x_a: Vertex, x_b: Vertex,
                     owner: Mapping[Vertex, Vertex]) -> None:
        """Update the faces for splitting v, touching only the faces with
        a corner at v.

        owner maps each neighbor of v to the copy that takes its edge;
        (x_a, v) and (x_b, v) are the slots into v at the corners where
        the split cuts, on the two faces that merge.  A face with corners
        at v has v renamed there.  The two cut faces are spliced into one
        walk: the tail of face_a after its corner joins the head of
        face_b, and the tail of face_b joins the head of face_a.  The
        merged face keeps the key of the longer face, so only the shorter
        one's slots are entered again.

        A copy's name extends v's, so a renamed slot sorts after the slot
        it replaces, and a face keeps its smallest slot, its start and
        its rank unless v begins or ends that slot: unless v is at walk
        position 0 or 1.  Only such a face is rotated to its new smallest
        slot and ranked again."""
        slot_face, walks, order = self.slot_face, self.walks, self.order
        key_a = slot_face[(x_a, v)]
        key_b = slot_face[(x_b, v)]
        if key_a == key_b:
            raise AssertionError("split did not merge exactly two faces")
        # the faces at v, each with the copy at one of its corners, and
        # the visits of v of each face with several corners there, as a
        # face has at a cut vertex
        at_v: dict[int, Vertex] = {}
        several: dict[int, int] = {}
        for x, c in owner.items():
            slot_face[(x, c)] = slot_face.pop((x, v))
            key = slot_face[(c, x)] = slot_face.pop((v, x))
            if key in at_v:
                several[key] = several.get(key, 1) + 1
            else:
                at_v[key] = c
        count = len(order)

        def rank(key: int, walk: tuple[Vertex, ...]) -> None:
            # take key out of the id order by its old walk and put it
            # back by its new one
            del order[bisect_left(order, walks[key], key=walks.__getitem__)]
            walks[key] = walk
            insort(order, key, key=walks.__getitem__)

        del at_v[key_a], at_v[key_b]
        for key, c in at_v.items():
            walk = walks[key]
            if key in several:
                at = _visits(walk, v, several[key])
                i = at[0]
                walk = tuple(_rename(walk, at, owner))
            else:
                i = walk.index(v)
                renamed = list(walk)
                renamed[i] = c
                walk = tuple(renamed)
            if i > 1:
                walks[key] = walk
            else:
                p = _smallest(walk, 0, len(walk))
                rank(key, walk[p:] + walk[:p])

        # Splice at the cut visits of v: the shorter walk, from just after
        # its cut round to its cut, goes into the longer one just after
        # its cut.  Each part is its walk, the positions of its visits of
        # v and the position of its cut.
        parts = []
        for key, x in ((key_a, x_a), (key_b, x_b)):
            walk = walks[key]
            if key in several:
                at = _visits(walk, v, several[key])
                cut = next(i for i in at if walk[i - 1] == x)
            else:
                at = [walk.index(v)]
                cut = at[0]
            parts.append((key, walk, at, cut))
        if len(parts[0][1]) < len(parts[1][1]):
            parts.reverse()
        (keep, long, at, cut), (drop, short, at_s, cut_s) = parts
        first, first_s = at[0], at_s[0]
        k = len(short)
        size = len(long) + k
        walk = _rename(long, at, owner)
        short = _rename(short, at_s, owner)
        walk[cut + 1:cut + 1] = short[cut_s + 1:] + short[:cut_s + 1]
        walk = tuple(walk)
        # walk now runs ..., copy, (short's walk), other copy, ...; each
        # copy must own the edges on both sides of it
        if (walk[cut] == walk[cut + k] or owner[walk[cut + 1]] != walk[cut]
                or owner[walk[(cut + k + 1) % size]] != walk[cut + k]):
            raise AssertionError("spliced walk does not close")
        slot_face.update(dict.fromkeys(
            zip(walk[cut:cut + k], walk[cut + 1:cut + k + 1]), keep))

        # The merged face's smallest slot is the smaller of the parts'.
        # The longer part holds the slots at positions 0..cut - 1 and
        # cut + k.., the shorter the k from cut on; a part whose smallest
        # slot was not renamed still has it at its old start, which for
        # the shorter part has moved to cut + k - cut_s.
        if first > 1:
            starts = [0]
        else:
            starts = [_smallest(walk, cut + k, size)]
            if cut:
                starts.append(_smallest(walk, 0, cut))
        starts.append(cut + k - cut_s if first_s > 1
                      else _smallest(walk, cut, cut + k))
        p = min(starts, key=lambda p: (walk[p], walk[(p + 1) % size]))

        del order[bisect_left(order, walks[drop], key=walks.__getitem__)]
        del walks[drop]
        if p == 0 and first > 1:
            walks[keep] = walk
        else:
            rank(keep, walk[p:] + walk[:p])
        if len(order) != count - 1:
            raise AssertionError("split did not merge exactly two faces")


def _split_at_gaps(g: PlaneGraph, v: Vertex, gap_a: int,
                   gap_b: int) -> PlaneGraph:
    """Split v at two rotation gaps owned by two distinct faces, as a
    sequence of one split, and return the graph."""
    st = _SplitState(g)
    st.split(v, gap_a, gap_b)
    return st.graph()


def _split_by_ids(st: _SplitState, v: Vertex, face_a: FaceId,
                  face_b: FaceId) -> SplitOp:
    """Split v of st with respect to two distinct incident faces, given
    by their ids."""
    if v not in st.rotation:
        raise NotIncident(f"vertex {v!r} does not exist")
    if face_a == face_b:
        raise SameFace(f"split needs two distinct faces, got {face_a} twice")
    if len(st.rotation[v]) < 2:
        raise DanglingVertex(
            f"vertex {v!r} has degree {len(st.rotation[v])}, cannot split")
    copy_1, copy_2 = st.split(
        v, *st.corner_gaps(v, st.key(face_a), st.key(face_b)))
    return SplitOp(v, face_a, face_b, copy_1, copy_2)


def split_vertex(g: PlaneGraph, v: Vertex, face_a: FaceId,
                 face_b: FaceId) -> tuple[PlaneGraph, SplitOp]:
    """Split v with respect to two distinct incident faces.

    The faces merge into one; the result has one more vertex, the same
    edges, and one face fewer.  The copies are named v.1 and v.2, or
    the first pair v.3 v.4, v.5 v.6, ... whose names are both free."""
    st = _SplitState(g)
    op = _split_by_ids(st, v, face_a, face_b)
    return st.graph(), op


# -- merging several faces at one vertex --------------------------------------

def _merge(st: _SplitState, v: Vertex, keys: set[int]) -> list[SplitOp]:
    """Merge the faces of st with the given keys, all incident to v, into
    one face with len(keys) - 1 splits, iterating clockwise around v.

    A split keeps the key of every face it does not merge, so each face
    keeps its key until its turn, and the merged face has the key of the
    longer of the two faces each split joins."""
    # Faces in clockwise order of their first corner around v, rotated
    # so the smallest id, which has the smallest walk, leads.
    around = [key for key in dict.fromkeys(
        [st.slot_face[(y, v)] for y in st.rotation[v]]) if key in keys]
    lead = around.index(min(around, key=st.walks.__getitem__))
    merged, *targets = around[lead:] + around[:lead]

    copies = [v]  # current copies of v, the newest copy_1 last
    ops: list[SplitOp] = []
    for target in targets:
        # The merged face touches every copy of v, but a face merged at
        # an earlier vertex may have corners at several of them; split a
        # copy the next face touches.
        c = next(c for c in reversed(copies) if c in st.walks[target])
        face_a, face_b = st.face_id(merged), st.face_id(target)
        copy_1, copy_2 = st.split(c, *st.corner_gaps(c, merged, target))
        ops.append(SplitOp(c, face_a, face_b, copy_1, copy_2))
        if merged not in st.walks:
            merged = target
        copies.remove(c)
        copies += [copy_2, copy_1]
    return ops


# -- covers and their realization ---------------------------------------------

def _cover_tree(vertices_of: Mapping[FaceId, set[Vertex]],
                faces_of: Mapping[Vertex, list[FaceId]]):
    """BFS spanning tree of the incidence subgraph on the faces of
    vertices_of plus all vertices, for faces that cover every vertex;
    vertices_of maps each face to its vertices and faces_of lists the
    faces at each vertex in id order.  root is the smallest face id,
    neighbors are explored in sorted order.  Returns the tree edges, or
    None when the subgraph is disconnected."""
    root = min(vertices_of)
    seen_f = {root}
    seen_v: set[Vertex] = set()
    tree: list[tuple[Vertex, FaceId]] = []
    queue: deque = deque([("f", root)])
    while queue:
        kind, node = queue.popleft()
        if kind == "f":
            for v in sorted(vertices_of[node]):
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
    # every vertex lies on a face, so reaching every face reaches them all
    if len(seen_f) != len(vertices_of):
        return None
    return tuple(tree)


def face_cover(g: PlaneGraph, faces: Iterable[FaceId]) -> FaceCover:
    """Validate a face set as a connected face cover and certify it with
    a spanning tree.  Raises InvalidCover otherwise."""
    fset = frozenset(faces)
    if not fset:
        raise InvalidCover("a cover needs at least one face")
    walks = g.walks
    for fid in fset:
        if not 0 <= fid < len(walks):
            raise InvalidCover(f"face {fid} does not exist")
    vertices_of = {fid: set(walks[fid]) for fid in sorted(fset)}
    faces_of: dict[Vertex, list[FaceId]] = {}
    for fid, vertices in vertices_of.items():
        for v in vertices:
            faces_of.setdefault(v, []).append(fid)
    missing = g.rotation.keys() - faces_of.keys()
    if missing:
        raise InvalidCover(
            f"vertices not covered: {sorted(missing)[:5]}")
    tree = _cover_tree(vertices_of, faces_of)
    if tree is None:
        raise InvalidCover("incidence subgraph of the cover is disconnected")
    return FaceCover(faces=fset, tree=tree)


def realize_cover(g: PlaneGraph, cover: FaceCover) -> SplitSequence:
    """Turn any connected face cover of size k+1 into exactly k splits
    whose replay leaves the graph outerplane.

    Re-certifies cover.faces with face_cover, so a malformed cover fails
    with InvalidCover, and walks the tree of that certificate rather than
    cover.tree.  The walk goes root to leaf and merges, at every vertex,
    the faces joined to it by tree edges.  Tree leaves are vertices of
    tree degree one and are never split."""
    return _realize(g, face_cover(g, cover.faces))


def _realize(g: PlaneGraph, cover: FaceCover) -> SplitSequence:
    """realize_cover for a cover that face_cover made on g, whose tree is
    therefore the certificate's own."""
    # vertices in order of first appearance, which is BFS discovery order
    tree_faces: dict[Vertex, list[FaceId]] = {}
    for v, f in cover.tree:
        tree_faces.setdefault(v, []).append(f)

    slot_face = g.slot_face
    st = _SplitState(g)
    ops: list[SplitOp] = []
    for v, group in tree_faces.items():
        if len(group) < 2:
            continue
        # v is still unsplit at its turn, and splits elsewhere only rename
        # entries of its rotation in place, so the slot into v at each
        # rotation position holds the current key of the original face
        # at the same position.
        now = {slot_face[(x, v)]: st.slot_face[(y, v)]
               for x, y in zip(g.rotation[v], st.rotation[v])}
        ops += _merge(st, v, {now[f] for f in group})

    if len(ops) != len(cover.faces) - 1:
        raise AssertionError(
            f"realization used {len(ops)} splits for a cover of "
            f"{len(cover.faces)} faces")
    n = len(st.rotation)
    if not any(_touches_all(walk, n) for walk in st.walks.values()):
        raise AssertionError("realized graph is not outerplane")
    return SplitSequence(ops=tuple(ops))


# -- replay and cover extraction ----------------------------------------------

def replay(g: PlaneGraph, seq: SplitSequence) -> PlaneGraph:
    """Apply a recorded split sequence step by step; ReplayFailure when a
    step does not apply or produces different copy names."""
    st = _SplitState(g)
    for step, op in enumerate(seq.ops):
        try:
            applied = _split_by_ids(st, op.vertex, op.face_a, op.face_b)
        except OutersplitError as exc:
            raise ReplayFailure(f"step {step} ({op}): {exc}") from exc
        if (applied.copy_1, applied.copy_2) != (op.copy_1, op.copy_2):
            raise ReplayFailure(
                f"step {step}: expected copies {op.copy_1}/{op.copy_2}, "
                f"got {applied.copy_1}/{applied.copy_2}")
    return st.graph()


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
    origin = seq.origin
    walk = [origin.get(x, x) for x in final.walks[qualifying]]
    originals = {g.face_of_slot(slot)
                 for slot in zip(walk, walk[1:] + walk[:1])}
    try:
        return face_cover(g, originals)
    except InvalidCover as exc:
        raise CertificateFailure(
            f"extracted face set is not a connected cover: {exc}") from exc
