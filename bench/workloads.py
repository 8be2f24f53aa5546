"""Workloads of the outersplit benchmark.

Each workload is a fixed corpus of generator specs plus the work done on
every instance of it:

- tri_exact and sparse_exact build their corpus once (generator call and
  serialize_rot, checked against golden SHA-256s), then run the README flow
  from text on every instance: parse_rot -> solve_osn ->
  serialize_splits/parse_splits -> replay -> is_outerplane.
- generate runs the `gen` verb's work on every instance: a generator call
  plus serialize_rot.

A pass visits every corpus instance once, in an order drawn from the
workload seed.  Runs are made of whole passes, so every run of a workload
does the same work and only the visiting order depends on the seed.  See
NOTES.md for why the corpora are fixed and what each workload is for.

This module imports outersplit from the checkout's src directory; run.py
times that import as part of set-up.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

from speed import SpeedProbe  # noqa: E402

import outersplit  # noqa: E402
from outersplit import (  # noqa: E402
    FamilySpec,
    OsnResult,
    build,
    dual,
    face_cover,
    fvs_to_cover,
    generate,
    is_biconnected,
    is_outerplane,
    min_fvs,
    parse_rot,
    parse_splits,
    realize_cover,
    replay,
    report,
    serialize_rot,
    serialize_splits,
    solve_osn,
    violations,
    with_outer_face,
)

if Path(outersplit.__file__).resolve().parent.parent != SRC_DIR:
    raise ImportError(
        f"outersplit was imported from {outersplit.__file__}, not from "
        f"{SRC_DIR}")


# -- corpora -------------------------------------------------------------------

def _tri(n, seed):
    return FamilySpec("random_triangulation", n=n, seed=seed)


def _bic(n, m, seed):
    return FamilySpec("random_biconnected", n=n, m=m, seed=seed)


def _tree(d):
    return FamilySpec("complete_3tree", d=d)


# At each n in 24..30, the first two seeds whose solve finishes within 5 s.
# Excluded: n=29 seeds 1 and 2 (52 s and 27 s), which would not fit one
# pass into a run; ROADMAP item 3 is about exactly those.
TRI_EXACT = tuple(_tri(n, s) for n, s in (
    (24, 0), (24, 1), (25, 0), (25, 1), (26, 0), (26, 1), (27, 0),
    (27, 1), (28, 0), (28, 1), (29, 0), (29, 3), (30, 0), (30, 1)))
SPARSE_EXACT = tuple(_bic(n, n + 30, 0) for n in (80, 90, 100, 110, 120))
GENERATE = (_tree(5), _tree(6), _bic(80, 110, 0), _bic(80, 110, 1),
            _bic(80, 110, 2), _tri(100, 0), _tri(125, 0), _tri(150, 0))

# Small corpora of the same families for the smoke test.
TINY = {
    "tri_exact": (_tri(8, 0), _tri(9, 1)),
    "sparse_exact": (_bic(12, 16, 0), _bic(14, 19, 1)),
    "generate": (_tree(1), _bic(10, 14, 0), _tri(10, 0)),
}

# The tail is reported at a fixed percentile per workload: the highest on
# this grid that leaves at least ten samples beyond it after min_passes
# passes.  Fixing it keeps the tail comparable between runs and commits.
TAIL_GRID = (50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 99, 99.5, 99.9)
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[FamilySpec, ...]
    solves: bool
    min_passes: int

    @property
    def tail_percentile(self) -> float:
        samples = len(self.specs) * self.min_passes
        return max((q for q in TAIL_GRID
                    if samples * (100 - q) / 100 >= TAIL_BEYOND), default=50)


WORKLOADS = {
    "tri_exact": Workload("tri_exact", TRI_EXACT, True, 3),
    "sparse_exact": Workload("sparse_exact", SPARSE_EXACT, True, 40),
    "generate": Workload("generate", GENERATE, False, 3),
}


def workload(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, specs=TINY[name]) if tiny else w


def spec_key(spec: FamilySpec) -> str:
    """Stable name of a generator spec, used as the golden-data key."""
    parts = [spec.family]
    for name in ("n", "m", "d"):
        value = getattr(spec, name)
        if value is not None:
            parts.append(f"{name}={value}")
    if spec.family != "complete_3tree":
        parts.append(f"seed={spec.seed}")
    return " ".join(parts)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


# -- tracing ---------------------------------------------------------------------

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    key: str | None


class Tracer:
    """In-memory spans around calls into the package's modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, key: str | None = None):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), 0.0, parent, key))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = perf_counter()


class _NoTrace:
    def span(self, name, key=None):
        return nullcontext()


NO_TRACE = _NoTrace()


# -- set-up ----------------------------------------------------------------------

@dataclass(frozen=True)
class Entry:
    """One corpus instance: its spec, and for solving workloads its text."""

    spec: FamilySpec
    key: str
    text: str | None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    known_defects: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, key: str, why: str, attempt: bool = False,
             exc: BaseException | None = None) -> None:
        """Count one failed instance; attempt=True when it was not already
        counted as attempted (a corpus spec that could not be built).  The
        first few failures keep their message and traceback."""
        self.attempted += attempt
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(f"{key}: {why}")
            if exc is not None:
                traceback.print_exception(exc, file=sys.stderr)


def generate_traced(spec: FamilySpec, tr, key: str):
    with tr.span(f"generators.{spec.family}", key):
        g = generate(spec)
    with tr.span("rotfile.serialize_rot", key):
        text = serialize_rot(g)
    return g, text


def build_corpus(w: Workload, golden: dict, tally: Tally, tr=NO_TRACE):
    """Corpus entries of a workload.  A spec whose generator raises, or
    whose output differs from the golden SHA-256, counts as one failed
    instance and is left out of the runs."""
    entries = []
    for spec in w.specs:
        key = spec_key(spec)
        if not w.solves:
            entries.append(Entry(spec, key, None))
            continue
        try:
            g, text = generate_traced(spec, tr, key)
            if tr is not NO_TRACE:
                with tr.span("plane_graph.build", key):
                    build(g.rotation)
        except Exception as exc:  # a bad spec must show up, not crash
            tally.fail(key, f"corpus build raised {type(exc).__name__}: {exc}",
                       attempt=True, exc=exc)
            continue
        if golden.get(key, {}).get("sha256") != sha256(text):
            tally.fail(key, "serialize_rot output differs from golden",
                       attempt=True)
            continue
        entries.append(Entry(spec, key, text))
    return entries


def warm(w: Workload) -> None:
    """Run one tiny instance so lazy imports and first-call costs land in
    set-up rather than in the first timed instance."""
    if w.solves:
        text = serialize_rot(generate(FamilySpec("k4")))
        g = parse_rot(text)
        replay(g, parse_splits(serialize_splits(solve_osn(g).splits)))
    else:
        serialize_rot(generate(_tree(1)))


# -- one instance ----------------------------------------------------------------

@dataclass
class Outcome:
    """One timed instance: its wall-clock interval and what it produced."""

    start: float
    end: float
    splits: int
    n: int
    m: int
    faces: int
    osn: int


def solve_traced(g, tr):
    """solve_osn composed from the public calls of each module."""
    with tr.span("plane_graph.is_biconnected"):
        if not is_biconnected(g):
            raise ValueError("instance is not biconnected")
    gg = g if g.outer_face is not None else with_outer_face(g, 0)
    with tr.span("plane_graph.dual"):
        d = dual(gg)
    with tr.span("cover_solver.min_fvs"):
        sol = min_fvs(d)
    with tr.span("cover_solver.fvs_to_cover"):
        cover = fvs_to_cover(gg, sol)
    with tr.span("split_engine.realize_cover"):
        seq = realize_cover(gg, cover)
    return OsnResult(osn=len(sol.nodes) - 1, cover=cover, splits=seq)


def run_solve(entry: Entry, golden: dict, tally: Tally, solve=None,
              tr=NO_TRACE) -> Outcome | None:
    """The README flow from text on one instance, then the correctness
    gate.  Only the flow is timed."""
    tally.attempted += 1
    try:
        t0 = perf_counter()
        with tr.span("instance", entry.key):
            with tr.span("rotfile.parse_rot"):
                g = parse_rot(entry.text)
            res = solve(g) if solve is not None else (
                solve_osn(g) if tr is NO_TRACE else solve_traced(g, tr))
            with tr.span("rotfile.split_io"):
                seq = parse_splits(serialize_splits(res.splits))
            with tr.span("split_engine.replay"):
                final = replay(g, seq)
            with tr.span("plane_graph.is_outerplane"):
                outer = is_outerplane(final)
        t1 = perf_counter()
        problems = gate(g, res, outer, golden.get(entry.key, {}), tally)
    except Exception as exc:  # an instance that raises is a failure
        tally.fail(entry.key, f"raised {type(exc).__name__}: {exc}", exc=exc)
        return None
    if problems:
        tally.fail(entry.key, "; ".join(problems))
    return Outcome(t0, t1, len(seq), g.n, g.m, len(g.faces), res.osn)


def gate(g, res, outer: bool, golden: dict, tally: Tally) -> list[str]:
    """Problems with one solved instance; empty when it is correct."""
    problems = []
    if not res.osn == len(res.splits) == len(res.cover.faces) - 1:
        problems.append(
            f"osn {res.osn}, {len(res.splits)} splits, cover of "
            f"{len(res.cover.faces)} faces")
    try:
        face_cover(g, res.cover.faces)
    except outersplit.OutersplitError as exc:
        problems.append(f"face_cover rejects the cover: {exc}")
    if not outer:
        problems.append("replayed graph is not outerplane")
    found = violations(report(g, res.osn))
    if g.m != 3 * g.n - 6:
        # bounds.lower_bound_generic claims (n-3)/2 splits for every plane
        # biconnected graph, but that only holds for triangulations (a
        # cycle needs none).  Counted as a known defect of bounds, not as a
        # wrong answer of the solver.
        misapplied = [v for v in found if "generic lower bound" in v]
        tally.known_defects += len(misapplied)
        found = [v for v in found if v not in misapplied]
    problems.extend(f"bounds: {v}" for v in found)
    if golden.get("osn") != res.osn:
        problems.append(f"osn {res.osn}, golden {golden.get('osn')}")
    return problems


def run_generate(entry: Entry, golden: dict, tally: Tally,
                 tr=NO_TRACE) -> Outcome | None:
    """The `gen` verb's work on one spec, then its correctness gate.  Only
    the generator call and serialize_rot are timed."""
    tally.attempted += 1
    try:
        t0 = perf_counter()
        with tr.span("instance", entry.key):
            g, text = generate_traced(entry.spec, tr, entry.key)
        t1 = perf_counter()
        problems = []
        if golden.get(entry.key, {}).get("sha256") != sha256(text):
            problems.append("serialize_rot output differs from golden")
        with tr.span("rotfile.parse_rot", entry.key):
            back = parse_rot(text)
        if (back.rotation != g.rotation or back.outer_face != g.outer_face):
            problems.append("parse_rot does not invert serialize_rot")
        with tr.span("plane_graph.is_biconnected", entry.key):
            if not is_biconnected(g):
                problems.append("output is not biconnected")
        with tr.span("plane_graph.build", entry.key):
            build(g.rotation)
    except Exception as exc:  # an instance that raises is a failure
        tally.fail(entry.key, f"raised {type(exc).__name__}: {exc}", exc=exc)
        return None
    if problems:
        tally.fail(entry.key, "; ".join(problems))
    return Outcome(t0, t1, 0, g.n, g.m, len(g.faces), 0)


def run_one(w: Workload, entry: Entry, golden: dict, tally: Tally,
            solve=None, tr=NO_TRACE) -> Outcome | None:
    if w.solves:
        return run_solve(entry, golden, tally, solve, tr)
    return run_generate(entry, golden, tally, tr)


# -- runs ------------------------------------------------------------------------

@dataclass
class Run:
    """Outcomes of one run per corpus key, in untraced (plain) and traced
    (spanned) passes."""

    plain: dict[str, list[Outcome]]
    spanned: dict[str, list[Outcome]]


def run_passes(w: Workload, entries: list[Entry], golden: dict, tally: Tally,
               seed: int, seconds: float, solve=None,
               traced: Tracer | None = None) -> Run:
    """Whole passes over the corpus until `seconds` have passed and at least
    min_passes are done.  With a tracer, passes alternate traced and
    untraced."""
    rng = random.Random(seed)
    run = Run({e.key: [] for e in entries}, {e.key: [] for e in entries})
    if not entries:
        return run
    passes = 0
    start = perf_counter()
    min_passes = 2 if traced is not None else w.min_passes
    while passes < min_passes or perf_counter() - start < seconds:
        tr = traced if traced is not None and passes % 2 == 0 else NO_TRACE
        out = run.spanned if tr is not NO_TRACE else run.plain
        order = list(entries)
        rng.shuffle(order)
        for entry in order:
            # Start each instance from the same collector state, so that a
            # collection of an earlier instance's garbage, which depends on
            # the visiting order, does not land in its time.
            gc.collect()
            result = run_one(w, entry, golden, tally, solve, tr)
            if result is not None:
                out[entry.key].append(result)
        passes += 1
    return run


def tail(samples: list[float], percentile: float):
    """Value at the percentile and the number of samples beyond it."""
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    value = cuts[round(percentile * 10) - 1]
    return value, sum(1 for s in samples if s > value)


def instance_medians(outcomes: dict, seconds) -> list[float]:
    """Each corpus entry's median instance time, with seconds(outcome)
    giving the time of one instance."""
    return [statistics.median(seconds(o) for o in outs)
            for outs in outcomes.values() if outs]


def end_to_end(w: Workload, run: Run, probe: SpeedProbe) -> dict:
    """End-to-end metrics of an untraced run in reference seconds, with the
    raw wall-clock figures beside them."""
    def scaled(o):
        return probe.scaled(o.start, o.end)

    def raw(o):
        return o.end - o.start

    outcomes = run.plain
    out = {"tail_percentile": w.tail_percentile}
    for prefix, seconds in (("", scaled), ("raw.", raw)):
        samples = [seconds(o) for outs in outcomes.values() for o in outs]
        medians = instance_medians(outcomes, seconds)
        value, beyond = tail(samples, w.tail_percentile)
        out[prefix + "instances_per_s"] = len(medians) / sum(medians)
        out[prefix + "instance_s.p50"] = statistics.median(medians)
        out[prefix + "instance_s.tail"] = value
        out[prefix + "tail_beyond"] = beyond
        out["samples"] = len(samples)
    return out


FAMILIES = ("random_triangulation", "random_biconnected", "complete_3tree")
MODULES = ("rotfile", "plane_graph", "cover_solver", "split_engine",
           "generators")
LAYER_CALLS = (
    "rotfile.parse_rot", "rotfile.serialize_rot", "rotfile.split_io",
    "plane_graph.build", "plane_graph.dual", "plane_graph.is_biconnected",
    "plane_graph.is_outerplane", "cover_solver.min_fvs",
    "cover_solver.fvs_to_cover", "split_engine.realize_cover",
    "split_engine.replay")


def per_layer(tracer: Tracer, run: Run, probe: SpeedProbe) -> dict:
    """Per-layer metrics from the spans of a traced run, in reference
    seconds like the end-to-end times.

    NAME.s is the mean duration of one call; MODULE.share is the module's
    part of the time inside instance spans.  A layer the workload never
    calls reads 0."""
    spans = tracer.spans
    duration = [probe.scaled(s.start, s.end) for s in spans]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    inside: dict[str, float] = {}
    gen_build: dict[str, float] = {}
    for s, d in zip(spans, duration):
        total[s.name] = total.get(s.name, 0.0) + d
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.parent is not None and spans[s.parent].name == "instance":
            module = s.name.split(".")[0]
            inside[module] = inside.get(module, 0.0) + d
        if s.name == "plane_graph.build" and s.key is not None:
            family = s.key.split()[0]
            gen_build[family] = gen_build.get(family, 0.0) + d
    instance_total = total.get("instance", 0.0)

    def mean(name):
        return total.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    def share(seconds):
        return seconds / instance_total if instance_total else 0.0

    out = {f"{name}.s": mean(name) for name in LAYER_CALLS}
    for module in MODULES:
        out[f"{module}.share"] = share(inside.get(module, 0.0))
    out["cover_solver.min_fvs.share"] = share(
        total.get("cover_solver.min_fvs", 0.0))

    traced = [o for outs in run.spanned.values() for o in outs]
    first = [outs[0] for outs in run.spanned.values() if outs]
    splits = sum(o.splits for o in traced)
    out["split_engine.splits"] = sum(o.splits for o in first)
    build_s = mean("plane_graph.build")
    out["split_engine.replay.retraces_per_split"] = (
        total.get("split_engine.replay", 0.0) / (splits * build_s)
        if splits and build_s else 0.0)

    for family in FAMILIES:
        name = f"generators.{family}"
        out[f"{name}.s"] = mean(name)
        out[f"{name}.build_equiv"] = (
            total[name] / gen_build[family]
            if name in total and gen_build.get(family) else 0.0)

    for name in ("n", "m", "faces", "osn"):
        out[f"workload.{name}"] = (
            statistics.mean(getattr(o, name) for o in first)
            if first else 0.0)

    def scaled(o):
        return probe.scaled(o.start, o.end)

    untraced_pass = sum(instance_medians(run.plain, scaled))
    overhead = sum(instance_medians(run.spanned, scaled)) - untraced_pass
    out["trace.overhead_s"] = overhead
    out["trace.overhead.share"] = (
        overhead / untraced_pass if untraced_pass else 0.0)
    return out


def spans_json(tracer: Tracer) -> list[dict]:
    return [{"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "key": s.key} for s in tracer.spans]
