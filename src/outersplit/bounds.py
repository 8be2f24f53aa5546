"""Closed-form bounds on the outerplane splitting number.

Values are exact Fractions; integer comparisons go through ceil/floor so
tests never touch floats.  The triangulation upper bounds come from known
feedback-vertex-set bounds on the dual and are family-level statements:
tiny graphs can beat them (osn(K4) = 1 > 1/2), so violations below
ADVISORY_N are reported as notes instead of hard failures.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InfeasibleParameters, NotMaximalPlanar
from .plane_graph import PlaneGraph, _Value, _set

ADVISORY_N = 8


class BoundReport(_Value):
    n: int
    min_degree: int
    lower_generic: Fraction
    lower_family: Fraction | None
    upper: Fraction | None
    osn: int | None

    def __init__(self, n: int, min_degree: int, lower_generic: Fraction,
                 lower_family: Fraction | None, upper: Fraction | None,
                 osn: int | None):
        _set(self, "n", n)
        _set(self, "min_degree", min_degree)
        _set(self, "lower_generic", lower_generic)
        _set(self, "lower_family", lower_family)
        _set(self, "upper", upper)
        _set(self, "osn", osn)


def upper_bound(g: PlaneGraph) -> Fraction:
    """Upper bound for triangulations, chosen by minimum degree:
    3 -> (3n-10)/4, 4 -> (2n-7)/3, 5 -> (4n-13)/7."""
    n = g.n
    if g.m != 3 * n - 6:
        raise NotMaximalPlanar(
            f"{g.m} edges on {n} vertices; a triangulation has {3 * n - 6}")
    dmin = min(g.degree(v) for v in g.rotation)
    if dmin == 3:
        return Fraction(3 * n - 10, 4)
    if dmin == 4:
        return Fraction(2 * n - 7, 3)
    if dmin == 5:
        return Fraction(4 * n - 13, 7)
    raise NotMaximalPlanar(f"minimum degree {dmin} is outside 3..5")


def lower_bound_generic(n: int, max_face: int) -> Fraction:
    """Every n-vertex plane biconnected graph whose faces touch at most
    max_face = L vertices needs at least (n-L)/(L-1) splits to become
    outerplane, and never fewer than 0.

    k splits need a connected cover of k+1 faces; ordered so that each
    face touches an earlier one, the first face covers at most L vertices
    and every later one at most L-1 new ones.  On triangulations this is
    (n-3)/2."""
    if n <= max_face:
        return Fraction(0)
    return Fraction(n - max_face, max_face - 1)


def lower_bound_3tree(d: int) -> Fraction:
    """The depth-d complete planar 3-tree needs at least 3^d - 1 splits;
    equals (2 n_d - 8)/3 for its vertex count n_d.  InfeasibleParameters
    for a negative depth, which names no 3-tree."""
    if d < 0:
        raise InfeasibleParameters("depth must be nonnegative")
    return Fraction(3 ** d - 1)


def report(g: PlaneGraph, osn: int | None = None,
           tree_depth: int | None = None) -> BoundReport:
    """Collect every applicable bound for one graph.  tree_depth adds the
    3-tree family bound, and InfeasibleParameters when it is negative or
    g does not have the (3^(d+1)+5)/2 vertices of the depth-d 3-tree;
    osn is the solved value when available."""
    family = None
    if tree_depth is not None:
        # every 3-tree has more vertices than its depth, so a depth above
        # n is rejected before 3^(d+1) is formed
        if tree_depth >= 0 and (tree_depth > g.n
                                or (3 ** (tree_depth + 1) + 5) // 2 != g.n):
            raise InfeasibleParameters(
                f"a depth-{tree_depth} complete 3-tree does not have "
                f"{g.n} vertices")
        family = lower_bound_3tree(tree_depth)
    try:
        upper = upper_bound(g)
    except NotMaximalPlanar:
        upper = None
    return BoundReport(
        n=g.n,
        min_degree=min(g.degree(v) for v in g.rotation),
        lower_generic=lower_bound_generic(
            g.n, max(len(set(walk)) for walk in g.walks)),
        lower_family=family,
        upper=upper,
        osn=osn,
    )


def violations(rep: BoundReport) -> tuple[str, ...]:
    """Bound comparisons the report fails.  Upper-bound misses on graphs
    below ADVISORY_N vertices are prefixed 'advisory:' because the
    triangulation bounds only claim family-level validity."""
    if rep.osn is None:
        return ()
    out = []
    if rep.osn < math.ceil(rep.lower_generic):
        out.append(
            f"osn {rep.osn} below generic lower bound {rep.lower_generic}")
    if rep.lower_family is not None and rep.osn < math.ceil(rep.lower_family):
        out.append(
            f"osn {rep.osn} below family lower bound {rep.lower_family}")
    if rep.upper is not None and rep.osn > math.floor(rep.upper):
        msg = f"osn {rep.osn} above upper bound {rep.upper}"
        out.append(f"advisory: {msg}" if rep.n < ADVISORY_N else msg)
    return tuple(out)
