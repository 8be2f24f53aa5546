"""numpy is loaded only where a computation needs it: the matroid parity
rank that min_fvs uses on duals of more than 24 nodes and maximum degree
3, and the SVG layout.  Cubic duals of at most 24 nodes, those of K4,
the octahedron, the icosahedron and every triangulation on at most 14
vertices, go to the branch and bound and solve without it.

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
# the dual has a node of degree above 3, so the branch and bound solves it
out["max_dual_degree"] = max(o.dual(h).degrees().values())
res = o.solve_osn(h)
out["osn"] = res.osn
out["splits"] = o.serialize_splits(res.splits)
split = o.replay(h, o.parse_splits(out["splits"]))
out["outerplane"] = o.is_outerplane(split) and not o.is_outerplane(h)
out["violations"] = list(o.violations(o.report(h, osn=res.osn)))

inst = o.build_cfc_instance(o.k4())
vc = o.brute_min_vc(o.k4())
out["round_trip"] = o.cfc_to_vc(inst, o.vc_to_cfc(inst, vc)) == vc

# cubic duals of at most 24 nodes go to the branch and bound
out["small_cubic"] = {}
for name in ("k4", "octahedron", "icosahedron"):
    res = o.solve_osn(getattr(o, name)())
    out["small_cubic"][name] = [res.osn, sorted(res.cover.faces),
                                o.serialize_splits(res.splits)]
out["n_le_14"] = [o.serialize_splits(o.solve_osn(
    o.random_triangulation(n, seed)).splits)
    for n in range(4, 15) for seed in range(5)]

# the dual of a triangulation on 20 vertices has 36 nodes
try:
    o.solve_osn(o.random_triangulation(20, 0))
    out["n_20"] = "solved"
except ImportError:
    out["n_20"] = "ImportError"
print(json.dumps(out))
"""


def solved(g):
    res = solve_osn(g)
    return [res.osn, sorted(res.cover.faces), serialize_splits(res.splits)]


def test_everything_but_the_rank_path_and_layout_runs_without_numpy():
    out = run_python(BLOCKED)
    g = random_biconnected(12, 16, 0)
    res = solve_osn(g)
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
    # a cubic dual of more than 24 nodes needs the rank and with it numpy
    assert out["n_20"] == "ImportError"


FIRST_USE = """
import json, sys
import outersplit as o
import outersplit.cli

out = {"after_import": "numpy" in sys.modules}
if sys.argv[1] == "solve":
    res = o.solve_osn(o.random_triangulation(20, 0))
    out["result"] = [res.osn, sorted(res.cover.faces),
                     o.serialize_splits(res.splits)]
else:
    out["result"] = o.render(o.k4())
out["after_use"] = "numpy" in sys.modules
print(json.dumps(out))
"""


def test_numpy_loads_on_first_use_with_unchanged_results():
    expected = {
        "solve": solved(random_triangulation(20, 0)),
        "render": render(k4()),
    }
    for use, result in expected.items():
        out = run_python(FIRST_USE, use)
        assert out == {"after_import": False, "result": result,
                       "after_use": True}, use
