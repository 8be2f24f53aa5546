from fractions import Fraction

import pytest

from outersplit import (
    build,
    complete_3tree,
    cycle,
    dual,
    icosahedron,
    is_outerplane,
    k4,
    lower_bound_3tree,
    lower_bound_generic,
    min_fvs,
    octahedron,
    random_biconnected,
    random_triangulation,
    replay,
    report,
    solve_osn,
    upper_bound,
    violations,
)
from outersplit.errors import InfeasibleParameters, NotMaximalPlanar


def test_upper_bound_by_min_degree():
    assert upper_bound(k4()) == Fraction(1, 2)
    assert upper_bound(octahedron()) == Fraction(5, 3)
    assert upper_bound(icosahedron()) == Fraction(5)
    assert upper_bound(complete_3tree(1)) == Fraction(11, 4)


def test_upper_bound_rejects_non_triangulations():
    with pytest.raises(NotMaximalPlanar):
        upper_bound(cycle(5))
    # the triangle has 3n - 6 edges but minimum degree 2
    tri = build({"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b")})
    with pytest.raises(NotMaximalPlanar):
        upper_bound(tri)


def test_lower_bounds():
    assert lower_bound_generic(3, 3) == 0
    assert lower_bound_generic(7, 3) == 2
    assert lower_bound_generic(21, 3) == 9
    assert lower_bound_3tree(0) == 0
    assert lower_bound_3tree(1) == 2
    assert lower_bound_3tree(2) == 8


@pytest.mark.parametrize("d", [-1, -3])
def test_negative_3tree_depth_is_rejected(d):
    with pytest.raises(InfeasibleParameters, match="nonnegative"):
        lower_bound_3tree(d)
    with pytest.raises(InfeasibleParameters):
        report(k4(), tree_depth=d)


def test_3tree_depth_must_match_the_vertex_count():
    # K4 is the depth-0 3-tree, whose bound is 0
    assert report(k4(), tree_depth=0).lower_family == 0
    assert report(complete_3tree(2), tree_depth=2).lower_family == 8
    # a depth above n is rejected before 3^(d+1) is formed, so the
    # last two return at once instead of overflowing or running on
    for g, d in ((k4(), 1), (k4(), 3), (complete_3tree(2), 1),
                 (complete_3tree(1), 2), (k4(), 10_000),
                 (k4(), 100_000_000)):
        with pytest.raises(InfeasibleParameters, match="does not have"):
            report(g, osn=1, tree_depth=d)


def test_generic_lower_bound_holds_on_sparse_graphs():
    # faces longer than triangles lower the bound; a cycle needs no split
    assert report(cycle(6)).lower_generic == 0
    assert lower_bound_generic(1, 1) == 0
    for g in [cycle(6)] + [random_biconnected(n, n + 30, seed=0)
                           for n in (80, 90, 100, 110, 120)]:
        assert violations(report(g, osn=solve_osn(g).osn)) == ()


def test_report_fields():
    rep = report(complete_3tree(1), osn=2, tree_depth=1)
    assert rep.n == 7
    assert rep.min_degree == 3
    assert rep.lower_generic == Fraction(2)
    assert rep.lower_family == Fraction(2)
    assert rep.upper == Fraction(11, 4)
    assert rep.osn == 2
    assert violations(rep) == ()
    assert violations(report(complete_3tree(1), osn=1, tree_depth=1)) == (
        "osn 1 below generic lower bound 2",
        "osn 1 below family lower bound 2")


def test_report_without_osn_never_flags():
    assert violations(report(k4())) == ()
    assert report(cycle(5)).upper is None


def test_small_triangulations_beat_the_bound_advisorily():
    rep4 = report(k4(), osn=solve_osn(k4()).osn)
    flagged = violations(rep4)
    assert len(flagged) == 1
    assert flagged[0].startswith("advisory:")
    rep6 = report(octahedron(), osn=solve_osn(octahedron()).osn)
    flagged6 = violations(rep6)
    assert len(flagged6) == 1
    assert flagged6[0].startswith("advisory:")


def test_large_solids_respect_all_bounds():
    rep = report(icosahedron(), osn=solve_osn(icosahedron()).osn)
    assert violations(rep) == ()
    assert rep.osn == 5


def test_complete_3tree_depth_3_meets_its_bound():
    # beside the bound sweep of acceptance criterion 7, which stops at
    # depth 2; the cover of 27 faces is certified by refuting 26
    g = complete_3tree(3)
    res = solve_osn(g)
    assert res.osn == 26 == lower_bound_3tree(3)
    assert is_outerplane(replay(g, res.splits))


@pytest.mark.parametrize("n", [20, 50, 100, 200])
def test_random_triangulations_lie_inside_both_bounds(n):
    # beside the bound sweep of acceptance criterion 7, which stops at
    # n = 14, with the exact osn of a certified cover
    for seed in range(3):
        g = random_triangulation(n, seed)
        assert violations(report(g, osn=solve_osn(g).osn)) == ()


@pytest.mark.parametrize("depth", [3, 4, 5])
def test_complete_3tree_meets_its_family_bound(depth):
    # the paper's lower bound 3^d - 1 is tight through depth 5: a dual
    # of min-fill elimination width 4 at every depth, solved exactly
    assert len(min_fvs(dual(complete_3tree(depth))).nodes) == 3 ** depth
    assert lower_bound_3tree(depth) == 3 ** depth - 1


def test_lower_violation_is_always_hard():
    rep = report(icosahedron(), osn=1)
    flagged = violations(rep)
    assert any("below generic lower bound" in v for v in flagged)
    assert not any(v.startswith("advisory") and "below" in v
                   for v in flagged)
