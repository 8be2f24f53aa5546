"""The generators reproduce every digest in bench/golden.json.

The benchmark corpora are the largest generator outputs with a recorded
digest: complete_3tree d = 5 and 6, random_triangulation n = 100..150
and random_biconnected n = 80..120, past what test_golden_rot reaches.
The file is only read here; bench/record_golden.py writes it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from outersplit import FamilySpec, generate, serialize_rot

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden.json")
    .read_text())


def spec_of(key: str) -> FamilySpec:
    """The spec a key such as "random_biconnected n=80 m=110 seed=0"
    names."""
    family, *params = key.split()
    return FamilySpec(family, **{name: int(value) for name, value in
                                 (p.split("=") for p in params)})


def test_golden_holds_every_corpus_spec():
    assert len(GOLDEN) == 33


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_generator_output_matches_the_bench_digest(key):
    text = serialize_rot(generate(spec_of(key)))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[key]["sha256"]
