"""Constructors for embedded test families.

All generators return validated PlaneGraphs with a designated outer face
and deterministic labels, so serialized output is byte-identical for the
same parameters.  Randomized families draw only from random.Random(seed),
and random_biconnected's retries from streams seeded by (seed, attempt).
The draws go through _below and _shuffle in place of the stdlib's
randrange and shuffle.  They ask getrandbits for exactly the bits the
stdlib would, so they return the same values and leave the same state,
with one Python call fewer per draw.

The stacked and random families edit plain rotation lists in place and
keep only the indexes their random choices need (the sorted inner faces,
the sorted edge list, one slot of the outer face), so every edit is
local.  An inner face is held as its vertex triple, starting at its
least vertex, so the triples sort as the faces' ids do in a built graph.
complete_3tree derives and sorts a level's faces only when a further
level subdivides them, so its last level lists no faces.
Thinning tests each edge drop before making it: it collects the vertices
of the face on one side of the edge and walks the face on the other side
only up to the first vertex the two share.  Each output is validated and
traced by a single build.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort

from .errors import CapExceeded, InfeasibleParameters, UnknownFamily
from .plane_graph import (
    PlaneGraph,
    Slot,
    Vertex,
    _Value,
    _set,
    build,
    with_outer_face,
)

Rotation = dict[Vertex, list[Vertex]]
Triangle = tuple[Vertex, Vertex, Vertex]


class FamilySpec(_Value):
    """A named family plus whichever parameters it takes."""

    family: str
    d: int | None
    n: int | None
    m: int | None
    seed: int

    def __init__(self, family: str, d: int | None = None,
                 n: int | None = None, m: int | None = None, seed: int = 0):
        _set(self, "family", family)
        _set(self, "d", d)
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "seed", seed)


# The stacked families start from K4: the triangle 0,1,2 with vertex 3
# stacked into its inner face.  The face 0,2,1 stays the outer one, and
# ("0", "2") is its least slot.
_OUTER_SLOT: Slot = ("0", "2")
_OUTER_VERTICES = frozenset(("0", "1", "2"))
_DEPTH_CAP = 9  # deepest complete_3tree: (3^10 + 5) / 2 = 29,527 vertices
_SIZE_CAP = (3 ** (_DEPTH_CAP + 1) + 5) // 2  # largest n of a sized family
_ATTEMPTS = 20  # thinnings random_biconnected tries before it gives up


def _base_k4() -> tuple[Rotation, list[Triangle]]:
    """K4's rotation lists and its inner faces, sorted."""
    rot = {"0": ["1", "2"], "1": ["2", "0"], "2": ["0", "1"]}
    # starting the face at "1" makes vertex 3's list 0 2 1
    faces = _subdivide_face(rot, ("1", "2", "0"), "3")
    return rot, sorted(faces)


def _stack(rot: Rotation, face: Triangle, label: Vertex) -> None:
    """Join a new vertex to all three corners of a triangular face,
    embedded inside it.  The face (a, b, c) is the walk through the slots
    (a, b), (b, c) and (c, a)."""
    a, b, c = face
    for u, v in ((a, b), (b, c), (c, a)):
        lst = rot[v]
        lst.insert(lst.index(u) + 1, label)
    rot[label] = [c, b, a]


def _subdivide_face(rot: Rotation, face: Triangle,
                    label: Vertex) -> list[Triangle]:
    """_stack a new vertex into a triangular face.  Returns the three new
    faces, each starting at its least vertex, which starts its least slot
    too."""
    _stack(rot, face, label)
    a, b, c = face
    out = []
    for u, v in ((a, b), (b, c), (c, a)):
        if u < v and u < label:
            out.append((u, v, label))
        elif v < label:
            out.append((v, label, u))
        else:
            out.append((label, u, v))
    return out


def _with_outer_slot(rot: Rotation, slot: Slot) -> PlaneGraph:
    g = build(rot)
    return with_outer_face(g, g.face_of_slot(slot))


def complete_3tree(d: int) -> PlaneGraph:
    """Depth-d complete planar 3-tree: K4 with every inner triangle
    recursively subdivided d times.  (3^(d+1)+5)/2 vertices."""
    if d < 0:
        raise InfeasibleParameters("depth must be nonnegative")
    if d > _DEPTH_CAP:
        raise CapExceeded(f"depth {d} exceeds the cap of {_DEPTH_CAP}")
    rot, faces = _base_k4()
    for _ in range(d - 1):
        level = []
        for face in faces:
            level += _subdivide_face(rot, face, str(len(rot)))
        faces = sorted(level)
    # no level subdivides the last one's faces, so they go unlisted
    if d:
        for face in faces:
            _stack(rot, face, str(len(rot)))
    return _with_outer_slot(rot, _OUTER_SLOT)


def random_triangulation(n: int, seed: int = 0) -> PlaneGraph:
    """Maximal planar graph on n vertices: random inner-face insertions
    into K4 followed by random legal edge flips.  Deterministic per
    nonnegative seed; InfeasibleParameters for a negative one, which
    random.Random would read as its absolute value."""
    _check_seed(seed)
    _check_size(n)
    if n < 4:
        raise InfeasibleParameters("triangulations need at least 4 vertices")
    rot, _ = _triangulation(n, random.Random(seed))
    return _with_outer_slot(rot, _OUTER_SLOT)


def _check_seed(seed: int) -> None:
    # random.Random seeds an int by its absolute value, so -s would
    # repeat the stream of s
    if seed < 0:
        raise InfeasibleParameters(f"seed must be nonnegative, got {seed}")


def _check_size(n: int) -> None:
    # the sized families stop where complete_3tree does
    if n > _SIZE_CAP:
        raise CapExceeded(f"n={n} exceeds the cap of {_SIZE_CAP}")


def _below(rng: random.Random, n: int) -> int:
    """The value Random.randrange would draw below n > 0, from the same
    bits: k-bit draws until one is below n, as
    Random._randbelow_with_getrandbits makes them."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _shuffle(rng: random.Random, x: list) -> None:
    """Shuffle x in place as Random.shuffle does, drawing each index as
    _below draws it."""
    getrandbits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _triangulation(n: int, rng: random.Random) -> tuple[Rotation, list[Slot]]:
    """A random triangulation's rotation lists and its sorted edges."""
    # faces holds the inner faces sorted, which is the order of their ids
    # in a built graph
    rot, faces = _base_k4()
    while len(rot) < n:
        face = faces.pop(_below(rng, len(faces)))
        for new in _subdivide_face(rot, face, str(len(rot))):
            insort(faces, new)
    edges = sorted((u, v) for u, nbrs in rot.items() for v in nbrs if u < v)
    for _ in range(3 * n):
        _try_flip(rot, edges, rng)
    return rot, edges


def _try_flip(rot: Rotation, edges: list[Slot], rng: random.Random) -> None:
    i = _below(rng, len(edges))
    u, v = edges[i]
    # the outer triangle's edges are the only ones on the outer face
    if u in _OUTER_VERTICES and v in _OUTER_VERTICES:
        return
    ru, rv = rot[u], rot[v]
    if len(ru) <= 3 or len(rv) <= 3:
        return
    # apexes of the two triangles on uv; the flip replaces uv with ab
    a = rv[(rv.index(u) + 1) % len(rv)]
    b = ru[(ru.index(v) + 1) % len(ru)]
    ra = rot[a]
    if a == b or b in ra:
        return
    ru.remove(v)
    rv.remove(u)
    ra.insert(ra.index(v) + 1, b)
    rb = rot[b]
    rb.insert(rb.index(u) + 1, a)
    del edges[i]
    insort(edges, (a, b) if a < b else (b, a))


def random_biconnected(n: int, m: int, seed: int = 0) -> PlaneGraph:
    """Biconnected plane graph with n vertices and m edges, made by
    thinning a random triangulation.  Retries with sub-seeds derived from
    (seed, attempt) when a greedy thinning dead-ends; InfeasibleParameters
    when out of luck or out of range, or for a negative seed."""
    _check_seed(seed)
    _check_size(n)
    if n == 3 and m == 3:
        return cycle(3)
    if n < 4 or not n <= m <= 3 * n - 6:
        raise InfeasibleParameters(
            f"no biconnected plane graph with n={n}, m={m}")
    for attempt in range(_ATTEMPTS):
        if attempt == 0:
            tri, thin = random.Random(seed), random.Random(2 * seed + 1)
        else:
            # a str seed goes through SHA-512, so a retry shares no
            # stream with another seed or attempt
            tri, thin = (random.Random(f"{seed}/{attempt}/{use}")
                         for use in ("tri", "thin"))
        rot, edges = _triangulation(n, tri)
        outer = _thin(rot, edges, m, thin)
        if outer is not None:
            return _with_outer_slot(rot, outer)
    raise InfeasibleParameters(
        f"could not thin to m={m} in {_ATTEMPTS} attempts (n={n}, "
        f"seed={seed})")


def _thin(rot: Rotation, edges: list[Slot], m: int,
          rng: random.Random) -> Slot | None:
    """Greedily drop random edges from rot in place, keeping it
    biconnected (every face a cycle), until it has m edges.  edges holds
    rot's edges sorted and loses each one dropped.  Returns a slot of the
    outer face, or None when no edge can go."""
    outer = _OUTER_SLOT
    while len(edges) > m:
        candidates = list(edges)
        _shuffle(rng, candidates)
        for u, v in candidates:
            if outer in ((u, v), (v, u)):
                # keep a slot that survives the drop: the next one on the
                # outer face, which then absorbs the face across uv.  It
                # is on the outer face whether or not the drop is kept.
                x, y = outer
                outer = (y, rot[y][(rot[y].index(x) + 1) % len(rot[y])])
            if _faces_meet_only_at(rot, u, v):
                rot[u].remove(v)
                rot[v].remove(u)
                del edges[bisect_left(edges, (u, v))]
                break
        else:
            return None
    return outer


def _faces_meet_only_at(rot: Rotation, u: Vertex, v: Vertex) -> bool:
    """Whether the faces on the two sides of the edge uv share no vertex
    but u and v, so that dropping uv, which merges them, keeps every face
    a cycle.  Both faces must be cycles."""
    # the vertices of the face of slot (u, v), but u and v
    side = set()
    x, y = u, v
    while True:
        nbrs = rot[y]
        x, y = y, nbrs[(nbrs.index(x) + 1) % len(nbrs)]
        if y == u:
            break
        side.add(y)
    # the face of slot (v, u) from u: a cycle meets v once, at its end
    x, y = v, u
    while True:
        nbrs = rot[y]
        x, y = y, nbrs[(nbrs.index(x) + 1) % len(nbrs)]
        if y == v:
            return True
        if y in side:
            return False


def cycle(n: int) -> PlaneGraph:
    _check_size(n)
    if n < 3:
        raise InfeasibleParameters("cycles need at least 3 vertices")
    rot = {str(i): (str((i - 1) % n), str((i + 1) % n)) for i in range(n)}
    return with_outer_face(build(rot), 0)


def fan(n: int) -> PlaneGraph:
    """Path on n vertices plus an apex joined to all of them."""
    _check_size(n)
    if n < 3:
        raise InfeasibleParameters("fans need a path of at least 3 vertices")
    rot: dict[Vertex, tuple[Vertex, ...]] = {
        "0": tuple(str(i) for i in range(1, n + 1)),
        "1": ("2", "0"),
        str(n): ("0", str(n - 1)),
    }
    for i in range(2, n):
        rot[str(i)] = (str(i + 1), "0", str(i - 1))
    g = build(rot)
    big, _ = max(enumerate(g.walks), key=lambda fw: len(fw[1]))
    return with_outer_face(g, big)


def octahedron() -> PlaneGraph:
    """Octahedron; 0 and 1, 2 and 3, 4 and 5 are the opposite pairs."""
    rot = {
        "0": ("5", "2", "4", "3"),
        "1": ("5", "3", "4", "2"),
        "2": ("5", "1", "4", "0"),
        "3": ("5", "0", "4", "1"),
        "4": ("3", "0", "2", "1"),
        "5": ("3", "1", "2", "0"),
    }
    return with_outer_face(build(rot), 0)


def icosahedron() -> PlaneGraph:
    """Icosahedron; i and 3 - i, 4 + i and 7 - i, 8 + i and 11 - i are
    the opposite pairs."""
    rot = {
        "0": ("4", "6", "9", "2", "8"),
        "4": ("10", "1", "6", "0", "8"),
        "8": ("5", "10", "4", "0", "2"),
        "1": ("10", "3", "11", "6", "4"),
        "5": ("3", "10", "8", "2", "7"),
        "9": ("6", "11", "7", "2", "0"),
        "2": ("7", "5", "8", "0", "9"),
        "6": ("1", "11", "9", "0", "4"),
        "10": ("3", "1", "4", "8", "5"),
        "3": ("11", "1", "10", "5", "7"),
        "7": ("11", "3", "5", "2", "9"),
        "11": ("1", "3", "7", "9", "6"),
    }
    return with_outer_face(build(rot), 0)


def k4() -> PlaneGraph:
    rot = {
        "a": ("b", "c", "d"),
        "b": ("c", "a", "d"),
        "c": ("a", "b", "d"),
        "d": ("a", "c", "b"),
    }
    return with_outer_face(build(rot), 0)


def _need(spec: FamilySpec, field: str) -> int:
    value = getattr(spec, field)
    if value is None:
        raise InfeasibleParameters(
            f"family {spec.family!r} needs parameter {field!r}")
    return value


# each family's builder and the FamilySpec fields it takes, in call order
_FAMILIES = {
    "k4": (k4, ()),
    "octahedron": (octahedron, ()),
    "icosahedron": (icosahedron, ()),
    "cycle": (cycle, ("n",)),
    "fan": (fan, ("n",)),
    "complete_3tree": (complete_3tree, ("d",)),
    "random_triangulation": (random_triangulation, ("n", "seed")),
    "random_biconnected": (random_biconnected, ("n", "m", "seed")),
}


def generate(spec: FamilySpec) -> PlaneGraph:
    """Build any family from its spec.  A size parameter (d, n or m) the
    family does not take raises InfeasibleParameters, as does one it
    needs and lacks; seed is read by the random families only."""
    if spec.family not in _FAMILIES:
        raise UnknownFamily(f"no family named {spec.family!r}")
    builder, fields = _FAMILIES[spec.family]
    for field in ("d", "n", "m"):
        if field not in fields and getattr(spec, field) is not None:
            raise InfeasibleParameters(
                f"family {spec.family!r} takes no parameter {field!r}")
    return builder(*(_need(spec, field) for field in fields))
