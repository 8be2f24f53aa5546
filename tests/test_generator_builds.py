"""The parameterized generators validate and trace each output once.

Counting calls to build is a machine-independent guard against a
generator that rebuilds the graph after every insertion, flip or edge
drop.
"""

import pytest

import outersplit.generators as generators


@pytest.fixture
def build_calls(monkeypatch):
    calls = []
    real = generators.build

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(generators, "build", counting)
    return calls


@pytest.mark.parametrize("make", [
    lambda: generators.complete_3tree(3),
    lambda: generators.random_triangulation(40, 0),
    # thins the first triangulation it draws
    lambda: generators.random_biconnected(20, 35, 0),
    # needs a second triangulation before thinning succeeds
    lambda: generators.random_biconnected(12, 13, 0),
], ids=["complete_3tree", "random_triangulation", "random_biconnected",
        "random_biconnected_retry"])
def test_one_build_per_output(build_calls, make):
    g = make()
    assert len(build_calls) == 1
    assert g.outer_face is not None
