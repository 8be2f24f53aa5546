"""Embedding-faithful SVG drawings via barycentric (Tutte) layout.

The outer face's vertices are pinned to a regular polygon and every other
vertex solves to the weighted average of its neighbors.  The solve is
retried with perturbed random weights when positions degenerate; a drawing
that stays degenerate raises LayoutFailure.  numpy does the solve, and it
is imported the first time layout solves positions, not with this module.
"""

from __future__ import annotations

import math
import random

from .errors import LayoutFailure, WriteFailure
from .plane_graph import PlaneGraph, Vertex

_W = 640.0
_MARGIN = 40.0
_SEED = 0  # seeds the weights of the perturbed layout retries


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
    index = {v: i for i, v in enumerate(order)}
    rng = random.Random(_SEED)

    for attempt in range(4):
        pos = _solve(g, order, index, outer, rng if attempt else None)
        if pos is not None and not _degenerate(pos, order):
            break
    else:
        raise LayoutFailure(
            "vertex positions stayed degenerate after perturbed retries")

    xs = [pos[index[v]][0] for v in order]
    ys = [pos[index[v]][1] for v in order]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    scale = (_W - 2 * _MARGIN) / span
    return {
        v: (_MARGIN + (pos[index[v]][0] - lo_x) * scale,
            _MARGIN + (pos[index[v]][1] - lo_y) * scale)
        for v in order
    }


def _solve(g, order, index, outer, rng):
    import numpy as np

    n = len(order)
    a = np.zeros((n, n))
    bx = np.zeros(n)
    by = np.zeros(n)
    pinned = set(outer)
    k = len(outer)
    for i, v in enumerate(outer):
        t = 2.0 * math.pi * i / k
        j = index[v]
        a[j, j] = 1.0
        bx[j] = math.cos(t)
        by[j] = math.sin(t)
    for v in order:
        if v in pinned:
            continue
        j = index[v]
        nbrs = g.rotation[v]
        total = 0.0
        for w in nbrs:
            wt = 1.0 if rng is None else rng.uniform(0.5, 1.5)
            a[j, index[w]] -= wt
            total += wt
        a[j, j] = total if total else 1.0
    try:
        x = np.linalg.solve(a, bx)
        y = np.linalg.solve(a, by)
    except np.linalg.LinAlgError:
        return None
    return np.stack([x, y], axis=1)


def _degenerate(pos, order) -> bool:
    import numpy as np

    if not np.all(np.isfinite(pos)):
        return True
    n = len(order)
    for i in range(n):
        for j in range(i + 1, n):
            d = pos[i] - pos[j]
            if float(d @ d) < 1e-12:
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
            f'<text x="{x + 8:.2f}" y="{y - 8:.2f}" '
            f'font-family="monospace" font-size="14">{v}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(g: PlaneGraph, path: str) -> None:
    """Write the drawing of g to path; WriteFailure when that fails."""
    text = render(g)
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise WriteFailure(
            f"cannot write {path}: {exc.strerror or exc}") from exc
