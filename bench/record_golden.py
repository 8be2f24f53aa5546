"""Record bench/golden.json from the current source tree.

    python3 bench/record_golden.py

For every spec of every workload corpus (and the smoke-test corpora) it
stores the SHA-256 of serialize_rot of the generator output and, for
specs of solving workloads, the osn that solve_osn returns.  Re-record
only when a change is meant to alter generator output or osn values.
"""

from __future__ import annotations

import json

import workloads as wl


def main() -> None:
    golden: dict[str, dict] = {}
    for name, w in wl.WORKLOADS.items():
        for spec in w.specs + wl.TINY[name]:
            g = wl.generate(spec)
            entry = golden.setdefault(
                wl.spec_key(spec), {"sha256": wl.sha256(wl.serialize_rot(g))})
            if w.solves and "osn" not in entry:
                entry["osn"] = wl.solve_osn(g).osn
    wl.GOLDEN_PATH.write_text(
        json.dumps(dict(sorted(golden.items())), indent=1) + "\n")


if __name__ == "__main__":
    main()
