"""is_biconnected agrees with a vertex-deletion brute force.

The corpus is mostly graphs with cut vertices or bridges: random
triangulations thinned edge by edge down to spanning trees, keeping
every intermediate graph connected.  A drop that would disconnect the
graph is undone by putting the edge back at its old rotation index, so
every graph in the corpus is a valid connected sphere embedding.
"""

import random

from outersplit import build, fan, is_biconnected, random_triangulation


def _connected(rot, removed=None):
    verts = [v for v in rot if v != removed]
    if not verts:
        return True
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for u in rot[v]:
            if u != removed and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(verts)


def _brute_biconnected(rot):
    return (len(rot) >= 3 and _connected(rot)
            and all(_connected(rot, v) for v in rot))


def _thinned_corpus():
    """Every graph met while thinning triangulations to spanning trees."""
    out = []
    for n in range(4, 13):
        for seed in range(8):
            base = random_triangulation(n, seed).rotation
            for order_seed in range(4):
                rng = random.Random(1000 * n + 10 * seed + order_seed)
                rot = {v: list(nbrs) for v, nbrs in base.items()}
                edges = sorted((u, v) for u in rot for v in rot[u] if u < v)
                rng.shuffle(edges)
                for u, v in edges:
                    i, j = rot[u].index(v), rot[v].index(u)
                    del rot[u][i]
                    del rot[v][j]
                    if not _connected(rot):
                        rot[u].insert(i, v)
                        rot[v].insert(j, u)
                        continue
                    out.append({w: tuple(nbrs) for w, nbrs in rot.items()})
    return out


def test_is_biconnected_matches_vertex_deletion_on_thinned_triangulations():
    corpus = _thinned_corpus()
    verdicts = [_brute_biconnected(rot) for rot in corpus]
    assert len(corpus) > 2000
    assert verdicts.count(False) > len(corpus) // 2
    for rot, want in zip(corpus, verdicts):
        assert is_biconnected(build(rot)) == want, rot


def test_is_biconnected_on_small_shapes():
    bowtie = {
        "a": ("b", "x"), "b": ("x", "a"),
        "c": ("d", "x"), "d": ("x", "c"),
        "x": ("b", "a", "d", "c"),
    }
    path = {"a": ("b",), "b": ("a", "c"), "c": ("b", "d"), "d": ("c",)}
    # fan(4) with a pendant vertex p hung off the path end 4
    fan_rot = {v: list(nbrs) for v, nbrs in fan(4).rotation.items()}
    fan_rot["4"].append("p")
    fan_rot["p"] = ["4"]
    for rot, want in [(bowtie, False), (path, False), (fan_rot, False),
                      (fan(4).rotation, True)]:
        assert _brute_biconnected(rot) == want
        assert is_biconnected(build(rot)) == want
