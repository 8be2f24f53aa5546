import pytest

from outersplit import (
    emit_svg,
    icosahedron,
    k4,
    layout,
    octahedron,
    random_triangulation,
    render,
)
from outersplit.errors import WriteFailure


def test_layout_covers_all_vertices_in_the_box():
    for g in [k4(), octahedron(), icosahedron(),
              random_triangulation(9, seed=4)]:
        pos = layout(g)
        assert set(pos) == set(g.rotation)
        for x, y in pos.values():
            assert 0.0 <= x <= 640.0
            assert 0.0 <= y <= 640.0
        # no two vertices collapse onto each other
        pts = list(pos.values())
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                dx = pts[i][0] - pts[j][0]
                dy = pts[i][1] - pts[j][1]
                assert dx * dx + dy * dy > 1e-6


def test_render_shape():
    g = k4()
    doc = render(g)
    assert doc.startswith("<svg")
    assert doc.rstrip().endswith("</svg>")
    assert doc.count("<line") == g.m
    assert doc.count("<circle") == g.n
    assert doc.count("<text") == g.n
    assert render(g) == doc  # deterministic


def test_emit_svg_writes_the_document(tmp_path):
    path = tmp_path / "k4.svg"
    emit_svg(k4(), str(path))
    assert path.read_text() == render(k4())


def test_emit_svg_into_a_missing_directory_fails_by_name(tmp_path):
    path = tmp_path / "missing" / "k4.svg"
    with pytest.raises(WriteFailure, match="cannot write"):
        emit_svg(k4(), str(path))
