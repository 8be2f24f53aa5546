"""Benchmark of the exact osn pipeline: one workload per run.

    python3 bench/run.py --workload tri_exact --seed 0 --seconds 25 --trace 0

Workloads are tri_exact, sparse_exact and generate (see NOTES.md).  Every
workload runs in fresh single-threaded processes as a closed loop with one
caller.  With --trace 0 the run measures the end-to-end metrics: it starts
SETUPS fresh processes, each timing its set-up from before `import
outersplit` until the corpus is built and warm, and the last of them then
runs the timed loop.  With --trace 1 one process runs the same work
composed from the public calls of each module inside in-memory spans, and
reports per-layer metrics.  Times are in reference seconds (see speed.py);
the raw wall-clock figures are printed beside them.

Each metric is printed on its own line with its unit; the last line of
standard output is a JSON object with the keys correct, attempted, failed
and metrics.  Exits non-zero, printing no result, when the package source
is missing or a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORKLOAD_NAMES = ("tri_exact", "sparse_exact", "generate")
SETUPS = 3
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "instances_per_s": "1/s",
    "instance_s.p50": "s",
    "instance_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.startswith("workload.") or name == "split_engine.splits":
        return "count"
    return "ratio"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="use the small smoke-test corpus")
    p.add_argument("--worker", choices=("setup", "measure", "trace"),
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- worker process ----------------------------------------------------------------

def worker(args) -> int:
    import gc
    import resource

    from speed import SpeedProbe

    with SpeedProbe() as probe:
        t0 = perf_counter()
        import workloads as wl

        w = wl.workload(args.workload, args.tiny)
        golden = wl.load_golden()
        tally = wl.Tally()
        tracer = wl.Tracer() if args.worker == "trace" else None
        entries = wl.build_corpus(w, golden, tally, tracer or wl.NO_TRACE)
        wl.warm(w)
        t1 = perf_counter()
        if args.worker != "setup":
            gc.collect()
            gc.freeze()
            run = wl.run_passes(w, entries, golden, tally, args.seed,
                                args.seconds, traced=tracer)
    out = {"setup_s": probe.scaled(t0, t1), "setup_raw_s": t1 - t0,
           "speed": probe.factor}
    if args.worker != "setup":
        if tracer is None:
            samples = any(run.plain.values())
            out["metrics"] = wl.end_to_end(w, run, probe) if samples else None
        else:
            out["metrics"] = wl.per_layer(tracer, run, probe)
            RESULTS_DIR.mkdir(exist_ok=True)
            path = RESULTS_DIR / f"spans_{w.name}_seed{args.seed}.json"
            path.write_text(json.dumps(wl.spans_json(tracer)))
        out.update(
            attempted=tally.attempted, failed=tally.failed,
            known_defects=tally.known_defects, messages=tally.messages,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(out))
    return 0


# -- driver process ------------------------------------------------------------------

def spawn(mode: str, args, deadline: float):
    """Run one worker process to completion; its JSON result, or None."""
    cmd = [sys.executable, "-s", str(Path(__file__).resolve()),
           "--worker", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.tiny:
        cmd.append("--tiny")
    # One interpreter thread, no BLAS pool, and a fixed string hash order
    # so that every run of a workload does identical work.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        print(f"{mode} worker exceeded the time limit", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{mode} worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    if not (ROOT / "src" / "outersplit" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + TIME_LIMIT_S

    if args.trace:
        res = spawn("trace", args, deadline)
        if res is None:
            return 1
        metrics = {k: (v, layer_unit(k)) for k, v in res["metrics"].items()}
        extra = {"speed_factor": (res["speed"], "ratio")}
    else:
        setups, raw_setups = [], []
        for mode in ["setup"] * (SETUPS - 1) + ["measure"]:
            res = spawn(mode, args, deadline)
            if res is None:
                return 1
            setups.append(res["setup_s"])
            raw_setups.append(res["setup_raw_s"])
        e2e = res["metrics"]
        if e2e is None:
            print("no instance completed", file=sys.stderr)
            for msg in res["messages"]:
                print(f"failure {msg}", file=sys.stderr)
            return 1
        values = {
            "instances_per_s": e2e["instances_per_s"],
            "instance_s.p50": e2e["instance_s.p50"],
            "instance_s.tail": e2e["instance_s.tail"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}
        extra = {
            "speed_factor": (res["speed"], "ratio"),
            **{f"raw.{k}": (e2e[f"raw.{k}"], END_TO_END_UNITS[k])
               for k in ("instances_per_s", "instance_s.p50",
                         "instance_s.tail")},
            "raw.setup_s": (statistics.median(raw_setups), "s"),
            "instance_s.tail.percentile": (e2e["tail_percentile"], "%"),
            "instance_s.tail.beyond": (e2e["tail_beyond"], "count"),
            "instance_s.samples": (e2e["samples"], "count"),
            "setup_s.runs": (len(setups), "count"),
        }

    attempted, failed = res["attempted"], res["failed"]
    extra["fail_ratio"] = (failed / attempted if attempted else 1.0, "ratio")
    extra["known_defects.bounds_generic_lower"] = (
        res["known_defects"], "count")
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace} attempted {attempted} failed {failed}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value} {unit}")
    for msg in res["messages"]:
        print(f"failure {msg}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
