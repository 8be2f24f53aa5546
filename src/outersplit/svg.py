"""Embedding-faithful SVG drawings via barycentric (Tutte) layout.

layout places the vertices and render returns the SVG document as text;
the module writes no file.  The outer face's vertices are pinned to a
regular polygon and every other vertex solves to the weighted average of
its neighbors, by sparse elimination in pure Python.  The solve is
retried with perturbed random weights when positions degenerate; a
drawing that stays degenerate raises LayoutFailure.
"""

from __future__ import annotations

import math
import random

from .cover_solver import _eliminate
from .errors import LayoutFailure
from .plane_graph import PlaneGraph, Vertex

_W = 640.0
_MARGIN = 40.0
_SEED = 0  # seeds the weights of the perturbed layout retries
# XML's escapes for character data; xml.sax.saxutils would load urllib
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _outer_cycle(g: PlaneGraph) -> list[Vertex]:
    fid = g.outer_face if g.outer_face is not None else 0
    # the walk's vertices in order of first visit
    return list(dict.fromkeys(g.walks[fid]))


def layout(g: PlaneGraph) -> dict[Vertex, tuple[float, float]]:
    """Positions for every vertex in drawing coordinates."""
    if g.n == 0:
        return {}
    outer = _outer_cycle(g)
    order = sorted(g.rotation)
    rng = random.Random(_SEED)
    for attempt in range(4):
        pos = _solve(g, order, outer, rng if attempt else None)
        if not _degenerate(pos.values()):
            break
    else:
        raise LayoutFailure(
            "vertex positions stayed degenerate after perturbed retries")

    xs, ys = zip(*pos.values())
    lo_x, lo_y = min(xs), min(ys)
    span = max(max(xs) - lo_x, max(ys) - lo_y, 1e-9)
    scale = (_W - 2 * _MARGIN) / span
    return {
        v: (_MARGIN + (pos[v][0] - lo_x) * scale,
            _MARGIN + (pos[v][1] - lo_y) * scale)
        for v in order
    }


def _solve(g, order, outer, rng):
    """Unscaled positions: outer on the unit regular polygon, each other
    v at x_v = sum(c_vw * x_w), c_vw being vw's weight (1, or drawn from
    rng) over v's total.  Eliminating v in min-fill order divides its row
    by 1 - c_vv and substitutes it into its later neighbors' rows.  On a
    connected graph that is elimination of an irreducibly diagonally
    dominant M-matrix, so no divisor vanishes."""
    angle = {v: 2.0 * math.pi * i / len(outer) for i, v in enumerate(outer)}
    pos = {v: (math.cos(t), math.sin(t)) for v, t in angle.items()}
    rows: dict[Vertex, dict[Vertex, float]] = {}
    for v in order:
        if v not in pos:
            weights = {w: 1.0 if rng is None else rng.uniform(0.5, 1.5)
                       for w in g.rotation[v]}
            total = sum(weights.values())
            rows[v] = {w: wt / total for w, wt in weights.items()}
    pairs = ((v, w) for v in rows for w in rows[v] if w in rows)
    elim, later = _eliminate(rows, pairs, len(rows))
    for u in elim:
        d = 1.0 - rows[u].pop(u, 0.0)
        row = rows[u] = {w: c / d for w, c in rows[u].items()}
        for r in later[u]:
            other = rows[r]
            c = other.pop(u)
            for w, cw in row.items():
                other[w] = other.get(w, 0.0) + c * cw
    for u in reversed(elim):
        terms = rows[u].items()
        pos[u] = (sum(c * pos[w][0] for w, c in terms),
                  sum(c * pos[w][1] for w, c in terms))
    return pos


def _degenerate(points) -> bool:
    """Whether a coordinate is not finite or two points lie within 1e-6;
    in x order, a point meets only those less than 1e-6 to its right."""
    pts = sorted(points)
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in pts):
        return True
    for i, (x, y) in enumerate(pts):
        for j in range(i + 1, len(pts)):
            dx, dy = pts[j][0] - x, pts[j][1] - y
            if dx >= 1e-6:
                break
            if dx * dx + dy * dy < 1e-12:
                return True
    return False


def render(g: PlaneGraph) -> str:
    """Standalone SVG text for one graph, each vertex labeled by name."""
    pos = layout(g)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:g}" '
        f'height="{_W:g}" viewBox="0 0 {_W:g} {_W:g}">',
        f'<rect width="{_W:g}" height="{_W:g}" fill="white"/>',
    ]
    for u, v in g.edges():
        x1, y1 = pos[u]
        x2, y2 = pos[v]
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
            f'y2="{y2:.2f}" stroke="black" stroke-width="1.5"/>')
    for v, (x, y) in pos.items():
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="6" fill="#1f6feb"/>')
        parts.append(
            f'<text x="{x + 8:.2f}" y="{y - 8:.2f}" font-family="monospace" '
            f'font-size="14">{v.translate(_ESCAPES)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
