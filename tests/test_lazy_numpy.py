"""The package never imports numpy: solving and drawing run on the
standard library alone, and a dual the dynamic programme declines
raises CapExceeded.

Each check runs in a fresh interpreter, because this one has numpy loaded
already.  Setting sys.modules["numpy"] to None makes any import of numpy
raise ImportError, so everything that runs there provably does without
it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import outersplit
from outersplit import (
    icosahedron,
    k4,
    octahedron,
    random_biconnected,
    random_triangulation,
    render,
    serialize_splits,
    solve_osn,
)

SRC = Path(outersplit.__file__).resolve().parent.parent


def run_python(code, *args):
    """Run code with args in a fresh interpreter importing outersplit
    from this checkout, and return what it prints as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


BLOCKED = """
import json, sys
sys.modules["numpy"] = None
import outersplit as o

out = {}
g = o.generate(o.FamilySpec("random_biconnected", n=12, m=16, seed=0))
h = o.parse_rot(o.serialize_rot(g))
out["rot"] = o.serialize_rot(h)
# the dual has a node of degree above 3, so the dynamic programme solves it
out["max_dual_degree"] = max(o.dual(h).degrees().values())
res = o.solve_osn(h)
out["osn"] = res.osn
out["splits"] = o.serialize_splits(res.splits)
split = o.replay(h, o.parse_splits(out["splits"]))
out["outerplane"] = o.is_outerplane(split) and not o.is_outerplane(h)
out["violations"] = list(o.violations(o.report(h, osn=res.osn)))
out["render"] = [o.render(o.k4()), o.render(h)]

inst = o.build_cfc_instance(o.k4())
vc = o.brute_min_vc(o.k4())
out["round_trip"] = o.cfc_to_vc(inst, o.vc_to_cfc(inst, vc)) == vc

# cubic duals go to the dynamic programme too
out["small_cubic"] = {}
for name in ("k4", "octahedron", "icosahedron"):
    res = o.solve_osn(getattr(o, name)())
    out["small_cubic"][name] = [res.osn, sorted(res.cover.faces),
                                o.serialize_splits(res.splits)]
out["n_le_14"] = [o.serialize_splits(o.solve_osn(
    o.random_triangulation(n, seed)).splits)
    for n in range(4, 15) for seed in range(5)]

# the dual of a triangulation on 20 vertices has 36 nodes; the programme
# solves it, and once it declines, the solve fails with a named error
out["n_20_dp"] = o.serialize_splits(
    o.solve_osn(o.random_triangulation(20, 0)).splits)
o.cover_solver._DP_MAX_WIDTH = 2
try:
    o.solve_osn(o.random_triangulation(20, 0))
    out["n_20"] = "solved"
except o.errors.CapExceeded:
    out["n_20"] = "CapExceeded"
print(json.dumps(out))
"""


def solved(g):
    res = solve_osn(g)
    return [res.osn, sorted(res.cover.faces), serialize_splits(res.splits)]


def test_everything_runs_without_numpy():
    out = run_python(BLOCKED)
    g = random_biconnected(12, 16, 0)
    res = solve_osn(g)
    assert out["render"] == [render(k4()), render(g)]
    assert out["max_dual_degree"] > 3
    assert out["osn"] == res.osn
    assert out["splits"] == serialize_splits(res.splits)
    assert out["outerplane"] is True
    assert out["violations"] == []
    assert out["round_trip"] is True
    assert out["small_cubic"] == {
        "k4": solved(k4()), "octahedron": solved(octahedron()),
        "icosahedron": solved(icosahedron())}
    assert [osn for osn, _, _ in out["small_cubic"].values()] == [1, 2, 5]
    assert out["n_le_14"] == [
        serialize_splits(solve_osn(random_triangulation(n, seed)).splits)
        for n in range(4, 15) for seed in range(5)]
    assert out["n_20_dp"] == serialize_splits(
        solve_osn(random_triangulation(20, 0)).splits)
    # a cubic dual the programme declines is refused, numpy or not
    assert out["n_20"] == "CapExceeded"


TRI_EXACT = """
import json, sys
if sys.argv[2] == "blocked":
    sys.modules["numpy"] = None
import outersplit as o
from outersplit import cover_solver

out = {}
for n, seed in json.loads(sys.argv[1]):
    res = o.solve_osn(o.random_triangulation(n, seed))
    out[f"{n}/{seed}"] = [res.osn, o.serialize_splits(res.splits)]
steps = cover_solver._DP_STEPS
# the distinct objects the memos hold as results: states, tuples of
# states and the states in those
held = set()
for memo in steps.memos.values():
    for value in memo.values():
        for nxt in value.values() if isinstance(value, dict) else (value,):
            held.add(id(nxt))
            if isinstance(nxt, tuple):
                held.update(map(id, nxt))
print(json.dumps({"solved": out, "numpy": "numpy" in sys.modules,
                  "steps": steps.size - steps.room, "objects": len(held)}))
"""

# the triangulations (n, seed) of the tri_exact benchmark
TRI_EXACT_SPECS = [(24, 0), (24, 1), (25, 0), (25, 1), (26, 0), (26, 1),
                   (27, 0), (27, 1), (28, 0), (28, 1), (29, 0), (29, 3),
                   (30, 0), (30, 1)]


def test_tri_exact_triangulations_solve_without_numpy():
    """Every triangulation of the tri_exact benchmark solves on the
    programme with numpy blocked, to the splits this interpreter finds,
    storing fewer than 50,000 steps together, whose results share a few
    thousand objects; unblocked, numpy is never imported."""
    specs = json.dumps(TRI_EXACT_SPECS)
    out = run_python(TRI_EXACT, specs, "blocked")
    assert out["steps"] < 50_000
    assert out["objects"] < 5_000
    assert run_python(TRI_EXACT, specs, "free") == dict(out, numpy=False)
    want = {}
    for n, seed in TRI_EXACT_SPECS:
        res = solve_osn(random_triangulation(n, seed))
        want[f"{n}/{seed}"] = [res.osn, serialize_splits(res.splits)]
        # a triangulation's osn is ceil((n - 3) / 2)
        assert res.osn == (n - 2) // 2
    assert out["solved"] == want


FIRST_USE = """
import json, sys
import outersplit as o
import outersplit.cli

out = {"after_import": "numpy" in sys.modules}
# solves, a declined one included, and drawing leave numpy unloaded
for n, seed in [(20, 0), (1200, 6)]:
    try:
        o.solve_osn(o.random_triangulation(n, seed))
    except o.errors.CapExceeded:
        pass
out["after_solve"] = "numpy" in sys.modules
out["result"] = o.render(o.k4())
out["after_use"] = "numpy" in sys.modules
print(json.dumps(out))
"""


def test_numpy_is_never_imported_with_unchanged_results():
    out = run_python(FIRST_USE)
    assert out == {"after_import": False, "after_solve": False,
                   "result": render(k4()), "after_use": False}
