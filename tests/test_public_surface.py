"""Every name the package exports is one the package or its benchmark
uses: no public entry point stands beside the path that does the job.

A name counts as used when it appears as a name, an attribute or an
import in a module of src/outersplit other than __init__.py, or in a
script under bench/.  Tests do not count, since a name only the tests
reach is a second path kept for its own sake.
"""

import ast
import importlib
from pathlib import Path

import pytest

import outersplit

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "outersplit"

# Acceptance criterion 8 splits one vertex of each instance by hand, so
# split_vertex is public for the tests alone.
EXCEPTIONS = {"split_vertex"}


def exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def used():
    files = [p for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py"))
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used_inside_the_package_or_the_benchmark():
    names = exported()
    assert len(names) > 40  # the parse found the export list
    assert names - used() == EXCEPTIONS


def test_no_export_is_a_second_name_for_another():
    # an alias would keep a retired name alive as a fork of the one kept
    objects = {}
    for name in sorted(exported()):
        objects.setdefault(id(getattr(outersplit, name)), []).append(name)
    assert [names for names in objects.values() if len(names) > 1] == []


@pytest.mark.parametrize("module, name", [
    ("split_engine", "merge_faces_at_vertex"),
    ("svg", "emit_svg"),
    ("cover_solver", "ForestCertificate"),
])
def test_retired_paths_are_gone(module, name):
    assert not hasattr(outersplit, name)
    assert not hasattr(importlib.import_module(f"outersplit.{module}"), name)
