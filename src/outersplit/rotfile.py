"""The ".rot" text format and the replayable split-sequence format.

A .rot file is:

    # comment
    4 6
    a: b c d
    b: c a d
    c: a b d
    d: a c b
    faces
    # 0: a b d
    outer: 0

Line one holds the vertex and edge counts, then one line per vertex with
its clockwise neighbors.  The trailing block after the `faces` marker is
optional; only its `outer:` line carries information, face listings are
comments for human readers.

A split-sequence file has one op per line:

    SPLIT a 0 1 -> a.1 a.2
"""

from __future__ import annotations

from .errors import OuterFaceUnset, ParallelEdge, ParseError, UnwritableName
from .plane_graph import PlaneGraph, build, with_outer_face
from .split_engine import SplitOp, SplitSequence


def _is_count(token: str) -> bool:
    # ASCII digits only: str.isdigit also accepts digits such as "²",
    # which int rejects
    return token.isascii() and token.isdigit()


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_rot(text: str) -> PlaneGraph:
    """Parse a .rot file into a validated PlaneGraph."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty input", line=0)

    header_line, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or not all(map(_is_count, parts)):
        raise ParseError("expected header 'n m'", line=header_line)
    n, m = int(parts[0]), int(parts[1])

    adjacency: dict[str, list[str]] = {}
    line_of: dict[str, int] = {}
    for lineno, line in lines[1:n + 1]:
        tokens = line.split()
        name = tokens[0]
        if not name.endswith(":") or len(name) == 1:
            raise ParseError("expected 'vertex: neighbors...'", line=lineno)
        name = name[:-1]
        if name in adjacency:
            raise ParseError(f"duplicate vertex {name!r}", line=lineno)
        adjacency[name] = tokens[1:]
        line_of[name] = lineno
    if len(adjacency) < n:
        raise ParseError(
            f"expected {n} vertex lines, found {len(adjacency)}",
            line=lines[-1][0])

    # the tail holds nothing, 'faces', or 'faces' then one 'outer:' line
    tail = lines[n + 1:]
    if tail and tail[0][1] != "faces":
        raise ParseError(
            f"unexpected line after vertex block: {tail[0][1]!r}",
            line=tail[0][0])
    outer = None
    if len(tail) > 1:
        tokens = tail[1][1].split()
        if tokens[0] != "outer:" or len(tokens) != 2 \
                or not _is_count(tokens[1]):
            raise ParseError("expected 'outer: <face id>'", line=tail[1][0])
        outer = int(tokens[1])
    if len(tail) > 2:
        raise ParseError(f"trailing content: {tail[2][1]!r}", line=tail[2][0])

    try:
        g = build(adjacency)
    except ParallelEdge as exc:
        raise ParseError(f"vertex {exc.vertex!r} repeats a neighbor",
                         line=line_of[exc.vertex]) from exc
    if g.m != m:
        raise ParseError(
            f"header declares {m} edges but rotations describe {g.m}",
            line=header_line)
    if outer is None:
        return g
    try:
        return with_outer_face(g, outer)
    except OuterFaceUnset as exc:
        raise ParseError(str(exc), line=tail[1][0]) from exc


def _check_names(names: list[str]) -> None:
    """Raise UnwritableName unless every name reads back as one token:
    non-empty, without whitespace and without '#', which starts a
    comment.  The names are checked together, each between two '#': the
    text then holds len(names) + 1 of them exactly when no name holds
    one, '##' exactly when a name is empty, and whitespace exactly when
    a name does."""
    if not names:
        return
    text = f"#{'#'.join(names)}#"
    if (text.count("#") != len(names) + 1 or "##" in text
            or text.split(None, 1) != [text]):
        bad = next(v for v in names if "#" in v or v.split() != [v])
        raise UnwritableName(
            f"vertex name {bad!r} cannot be written: a name must be "
            "non-empty, without whitespace and without '#'")


def serialize_rot(g: PlaneGraph) -> str:
    """Render a PlaneGraph in the .rot format; parse_rot inverts this.

    Raises UnwritableName for a vertex name the format cannot carry."""
    rotation = g.rotation
    names = sorted(rotation)
    _check_names(names)
    vertices = [f"{v}: {' '.join(rotation[v])}" if rotation[v] else f"{v}:"
                for v in names]
    faces = [f"# {fid}: {' '.join(walk)}" for fid, walk in enumerate(g.walks)]
    out = [f"{g.n} {g.m}", *vertices, "faces", *faces]
    if g.outer_face is not None:
        out.append(f"outer: {g.outer_face}")
    return "\n".join(out) + "\n"


def parse_splits(text: str) -> SplitSequence:
    """Parse a split-sequence file."""
    ops = []
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if (len(tokens) != 7 or tokens[0] != "SPLIT" or tokens[4] != "->"
                or not _is_count(tokens[2]) or not _is_count(tokens[3])):
            raise ParseError(
                "expected 'SPLIT <v> <f_a> <f_b> -> <copy1> <copy2>'",
                line=lineno)
        ops.append(SplitOp(vertex=tokens[1], face_a=int(tokens[2]),
                           face_b=int(tokens[3]), copy_1=tokens[5],
                           copy_2=tokens[6]))
    return SplitSequence(ops=tuple(ops))


def serialize_splits(seq: SplitSequence) -> str:
    """Render a split sequence; parse_splits inverts this.

    Raises UnwritableName for a vertex name the format cannot carry."""
    _check_names([name for op in seq.ops
                  for name in (op.vertex, op.copy_1, op.copy_2)])
    out = [
        f"SPLIT {op.vertex} {op.face_a} {op.face_b} -> "
        f"{op.copy_1} {op.copy_2}"
        for op in seq.ops
    ]
    return "\n".join(out) + ("\n" if out else "")
