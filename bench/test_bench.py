"""Smoke test of the benchmark on its small corpora.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    lines, result = run_bench(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert f"{m['name']} {got['value']} {m['unit']}" in lines
    assert "fail_ratio 0.0 ratio" in lines


def solve_workload_corpus():
    w = wl.workload("tri_exact", tiny=True)
    golden = wl.load_golden()
    tally = wl.Tally()
    entries = wl.build_corpus(w, golden, tally)
    assert len(entries) == len(w.specs) and tally.failed == 0
    return w, golden, tally, entries


def test_solver_off_by_one_raises_fail_ratio():
    w, golden, tally, entries = solve_workload_corpus()

    def off_by_one(g):
        res = wl.solve_osn(g)
        return replace(res, osn=res.osn + 1)

    wl.run_passes(w, entries, golden, tally, seed=0, seconds=0,
                  solve=off_by_one)
    assert tally.attempted >= len(entries) * w.min_passes
    assert tally.failed == tally.attempted


def test_correct_solver_passes_the_gate():
    w, golden, tally, entries = solve_workload_corpus()
    wl.run_passes(w, entries, golden, tally, seed=0, seconds=0)
    assert tally.attempted >= len(entries) * w.min_passes
    assert tally.failed == 0


def test_infeasible_spec_is_a_failed_instance():
    bad = wl.FamilySpec("random_biconnected", n=10, m=40, seed=0)
    w = wl.Workload("bad", (bad,) + wl.TINY["tri_exact"], True, 1)
    tally = wl.Tally()
    entries = wl.build_corpus(w, wl.load_golden(), tally)
    assert [e.key for e in entries] == [
        wl.spec_key(s) for s in wl.TINY["tri_exact"]]
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "InfeasibleParameters" in tally.messages[0]


def test_generator_output_must_match_golden():
    w = wl.workload("generate", tiny=True)
    golden = wl.load_golden()
    key = wl.spec_key(w.specs[0])
    golden[key] = {"sha256": "0" * 64}
    tally = wl.Tally()
    entries = wl.build_corpus(w, golden, tally)
    wl.run_passes(w, entries, golden, tally, seed=0, seconds=0)
    assert tally.failed == w.min_passes
    assert all(key in msg for msg in tally.messages)
