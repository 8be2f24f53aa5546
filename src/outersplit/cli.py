"""Command-line driver.

Verbs: osn, split, verify, gen, bounds, reduce, oracle.  Exit codes:
0 success, 1 domain error (the failing operation's error name goes to
stderr), 2 usage or parse error or an output file that cannot be
written.  --porcelain switches reports to key=value lines for scripting.
"""

from __future__ import annotations

import argparse
import sys

from .bounds import report, violations
from .cover_solver import brute_min_cfc, brute_osn_by_splits, min_fvs, solve_osn
from .errors import CapExceeded, OutersplitError, ParseError, WriteFailure
from .generators import FamilySpec, generate
from .plane_graph import (
    PlaneGraph,
    dual,
    is_biconnected,
    outerplane_face,
    with_outer_face,
)
from .reductions import brute_min_vc, build_cfc_instance, cfc_to_vc, vc_to_cfc
from .rotfile import parse_rot, parse_splits, serialize_rot, serialize_splits
from .split_engine import extract_cover, replay
from .svg import emit_svg


def _read(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}", line=0) from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the bad byte decodes; it ends on the byte's line,
        # counted as the parsers count lines
        before = data[:exc.start].decode("utf-8")
        raise ParseError(
            f"{path} is not UTF-8: cannot decode byte "
            f"{data[exc.start]:#04x}",
            line=len(f"{before}?".splitlines())) from None


def _load(path: str) -> PlaneGraph:
    return parse_rot(_read(path))


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise WriteFailure(
            f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_osn(args) -> int:
    g = _load(args.file)
    res = solve_osn(g)
    seq_text = serialize_splits(res.splits)
    cover = sorted(res.cover.faces)
    if args.porcelain:
        print(f"osn={res.osn}")
        print("cover=" + ",".join(str(f) for f in cover))
        for line in seq_text.splitlines():
            print(f"split={line}")
    else:
        print(f"osn {res.osn}")
        print("cover " + " ".join(str(f) for f in cover))
        sys.stdout.write(seq_text)
    if args.seq:
        _write(args.seq, seq_text)
    if args.svg:
        before, after = args.svg
        emit_svg(g, before)
        final = replay(g, res.splits)
        emit_svg(with_outer_face(final, outerplane_face(final)), after)
    return 0


def _cmd_split(args) -> int:
    if not args.apply:
        raise ParseError("split requires --apply", line=0)
    g = _load(args.file)
    seq = parse_splits(_read(args.seqfile))
    _write(args.out, serialize_rot(replay(g, seq)))
    return 0


def _cmd_verify(args) -> int:
    g = _load(args.file)
    fid = outerplane_face(g)
    ok = fid is not None
    faces = len(g.walks)
    if args.porcelain:
        print(f"n={g.n}")
        print(f"m={g.m}")
        print(f"faces={faces}")
        print(f"outerplane={'true' if ok else 'false'}")
        if ok:
            print(f"face={fid}")
    else:
        print(f"n {g.n} m {g.m} faces {faces}")
        tail = f" (face {fid})" if ok else ""
        print(f"outerplane {'true' if ok else 'false'}{tail}")
    return 0


def _cmd_gen(args) -> int:
    spec = FamilySpec(family=args.family, d=args.d, n=args.n, m=args.m,
                      seed=args.seed)
    _write(args.out, serialize_rot(generate(spec)))
    return 0


def _fmt(x) -> str:
    return "-" if x is None else str(x)


def _cmd_bounds(args) -> int:
    g = _load(args.file)
    # the report checks --depth, so a wrong one fails before the solve
    rep = report(g, tree_depth=args.depth)
    if args.solve:
        rep = report(g, osn=solve_osn(g).osn, tree_depth=args.depth)
    notes = violations(rep)
    if args.porcelain:
        print(f"n={rep.n}")
        print(f"min_degree={rep.min_degree}")
        print(f"lower_generic={rep.lower_generic}")
        if rep.lower_family is not None:
            print(f"lower_family={rep.lower_family}")
        if rep.upper is not None:
            print(f"upper={rep.upper}")
        if rep.osn is not None:
            print(f"osn={rep.osn}")
        for note in notes:
            print(f"violation={note}")
    else:
        print(f"n             {rep.n}")
        print(f"min degree    {rep.min_degree}")
        print(f"lower generic {rep.lower_generic}")
        print(f"lower family  {_fmt(rep.lower_family)}")
        print(f"upper         {_fmt(rep.upper)}")
        print(f"osn           {_fmt(rep.osn)}")
        for note in notes:
            print(f"violation     {note}")
    return 0


def _cmd_reduce(args) -> int:
    inst = build_cfc_instance(_load(args.file))
    lines = [f"# face {f} ~ vertex {v}"
             for f, v in sorted(inst.vertex_of_face.items())]
    _write(args.out, serialize_rot(inst.dstar) + "\n".join(lines) + "\n")
    return 0


def _vc_round_trip(g: PlaneGraph, vc: frozenset) -> bool:
    """Whether the minimum vertex cover vc of the cubic biconnected g
    maps to a cover of the subdivided dual D* as small as its minimum
    one, which maps back to vc."""
    inst = build_cfc_instance(g)
    cover = vc_to_cfc(inst, vc)
    return (len(cover.faces) == len(brute_min_cfc(inst.dstar).faces)
            and cfc_to_vc(inst, cover) == vc)


def _cmd_oracle(args) -> int:
    g = _load(args.file)
    kv = args.porcelain

    def row(key, value):
        print(f"{key}={value}" if kv else f"{key} {value}")

    try:
        osn_val = brute_osn_by_splits(g, k_max=args.k_max)
    except CapExceeded:
        osn_val = "skipped"
    try:
        cfc_val = len(brute_min_cfc(g).faces)
    except CapExceeded:
        cfc_val = "skipped"
    row("cfc", cfc_val)
    # a bridge is a self-loop of the dual, which no vertex set breaks
    d = dual(g)
    fvs_val = "skipped" if d.has_self_loop() else len(min_fvs(d).nodes)
    row("fvs", fvs_val)
    row("osn", "none" if osn_val is None else osn_val)

    biconnected = is_biconnected(g)
    cubic = all(len(nbrs) == 3 for nbrs in g.rotation.values())
    vc = None
    if cubic and biconnected:
        try:
            vc = brute_min_vc(g)
            row("vc", len(vc))
        except CapExceeded:
            row("vc", "skipped")

    def verdict(ok):
        return ("true" if ok else "false") if kv \
            else ("yes" if ok else "NO")

    cfc_ok = isinstance(cfc_val, int)
    row("agree_fvs" if kv else "agree fvs==cfc",
        verdict(fvs_val == cfc_val)
        if cfc_ok and isinstance(fvs_val, int) else "skipped")
    row("agree_osn" if kv else "agree osn==cfc-1",
        verdict(osn_val == cfc_val - 1)
        if cfc_ok and isinstance(osn_val, int) else "skipped")
    # the cover read back off the solver's splits is the solver's cover
    if biconnected:
        res = solve_osn(g)
        extract = verdict(extract_cover(g, res.splits) == res.cover)
    else:
        extract = "skipped"
    row("agree_extract" if kv else "agree extract==cover", extract)
    if cubic and biconnected:
        # D* has one face per vertex of g, and brute_min_cfc and
        # brute_min_vc share the cap _ENUM_CAP, so D* is within it
        # whenever g is
        row("agree_vc" if kv else "agree vc==cfc(D*)",
            "skipped" if vc is None else verdict(_vc_round_trip(g, vc)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="outersplit",
        description="outerplane splitting numbers of plane biconnected "
                    "graphs")
    sub = p.add_subparsers(dest="verb", required=True)

    q = sub.add_parser("osn", help="solve one instance exactly")
    q.add_argument("file")
    q.add_argument("--svg", nargs=2, metavar=("BEFORE", "AFTER"),
                   help="write drawings of the input and the split result")
    q.add_argument("--seq", metavar="PATH",
                   help="also write the split sequence to PATH")
    q.add_argument("--porcelain", action="store_true")
    q.set_defaults(fn=_cmd_osn)

    q = sub.add_parser("split", help="replay a split sequence")
    q.add_argument("--apply", action="store_true",
                   help="apply the sequence (required)")
    q.add_argument("file")
    q.add_argument("seqfile")
    q.add_argument("-o", "--out", metavar="PATH")
    q.set_defaults(fn=_cmd_split)

    q = sub.add_parser("verify", help="report whether a graph is outerplane")
    q.add_argument("file")
    q.add_argument("--porcelain", action="store_true")
    q.set_defaults(fn=_cmd_verify)

    q = sub.add_parser("gen", help="generate a family instance")
    q.add_argument("family")
    q.add_argument("-d", type=int, default=None, help="3-tree depth")
    q.add_argument("-n", type=int, default=None,
                   help="vertex count; for fan, the path's vertex count "
                   "(N + 1 with the apex)")
    q.add_argument("-m", type=int, default=None, help="edge count")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("-o", "--out", metavar="PATH")
    q.set_defaults(fn=_cmd_gen)

    q = sub.add_parser("bounds", help="closed-form bound report")
    q.add_argument("file")
    q.add_argument("--solve", action="store_true",
                   help="also solve the instance exactly")
    q.add_argument("--depth", type=int, default=None,
                   help="3-tree depth for the family bound")
    q.add_argument("--porcelain", action="store_true")
    q.set_defaults(fn=_cmd_bounds)

    q = sub.add_parser("reduce",
                       help="vertex cover instance to face cover instance")
    q.add_argument("file")
    q.add_argument("-o", "--out", metavar="PATH")
    q.set_defaults(fn=_cmd_reduce)

    q = sub.add_parser("oracle", help="run brute-force cross-checks")
    q.add_argument("file")
    q.add_argument("--k-max", type=int, default=None, dest="k_max")
    q.add_argument("--porcelain", action="store_true")
    q.set_defaults(fn=_cmd_oracle)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except WriteFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OutersplitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
