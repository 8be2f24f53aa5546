"""Outerplane splitting numbers of plane biconnected graphs.

A plane graph becomes outerplane after k vertex splits exactly when k+1
of its faces form a connected cover of the vertices; minimum covers are
feedback vertex sets of the dual.  This package computes the exact
splitting number, realizes it as replayable split operations, and ships
the brute-force oracles, graph families, closed-form bounds, and file
formats used to cross-check it.
"""

from .bounds import (
    BoundReport,
    lower_bound_3tree,
    lower_bound_generic,
    report,
    upper_bound,
    violations,
)
from .cover_solver import (
    ForestCertificate,
    FvsSolution,
    OsnResult,
    brute_min_cfc,
    brute_osn_by_splits,
    fvs_to_cover,
    min_fvs,
    solve_osn,
)
from .errors import OutersplitError
from .generators import (
    FamilySpec,
    complete_3tree,
    cycle,
    fan,
    generate,
    icosahedron,
    k4,
    octahedron,
    random_biconnected,
    random_triangulation,
)
from .plane_graph import (
    DualGraph,
    Face,
    FaceId,
    PlaneGraph,
    Slot,
    Vertex,
    build,
    dual,
    is_biconnected,
    is_outerplane,
    outerplane_face,
    with_outer_face,
)
from .reductions import (
    CfcInstance,
    brute_min_vc,
    build_cfc_instance,
    cfc_to_vc,
    vc_to_cfc,
)
from .rotfile import parse_rot, parse_splits, serialize_rot, serialize_splits
from .split_engine import (
    FaceCover,
    SplitOp,
    SplitSequence,
    extract_cover,
    face_cover,
    merge_faces_at_vertex,
    realize_cover,
    replay,
    split_vertex,
)
from .svg import emit_svg, layout, render
