"""The float64 kernel of the matroid parity rank, pinned against exact
integer arithmetic.

_ParityRank holds its bordered matrix and pivot factors as float64
residues mod p in the symmetric range and reads rows of its Schur
complement through BLAS products.  The reference here builds the same
bordered matrix from the same draw with Python ints and takes ranks of
its principal blocks by plain Gaussian elimination mod p.
"""

import random
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from outersplit import cover_solver
from outersplit.cover_solver import (
    _P,
    _cycle_vectors,
    _draw,
    _mod,
    _ParityRank,
)

HALF = (_P - 1) // 2


def test_mod_at_the_limits():
    # the largest quotient the kernel's sums reach is below 2**31; near
    # it, a product by a rounded 1 / p in place of the division by p
    # lands one past the range for every other quotient with residue
    # -(p - 1) / 2
    top = 2**31 - 1
    assert top * _P < 2**53
    assert _mod(np.array([float(top * _P), -float(top * _P)])).tolist() == [
        0, 0]
    q = np.arange(top - 4096, top + 1, dtype=np.float64)
    for r in (HALF, -HALF, HALF - 1, 1 - HALF, 1, -1, 0):
        for sign in (1, -1):
            x = sign * (q * _P + r)
            got = _mod(x.copy())
            assert (np.abs(got) <= HALF).all()
            assert (got == sign * r).all()


def rank_mod_p(rows):
    """Rank over GF(p) of a list of int rows, by Gaussian elimination."""
    rows = [[a % _P for a in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, _P)
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] * inv % _P
                rows[r] = [(a - f * b) % _P
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def bordered(nodes, edges, seed):
    """[[A, z], [-z^T, 0]] in Python ints, from the cycle vectors and the
    draw that a _ParityRank seeded the same way makes."""
    z, inc = _cycle_vectors(nodes, edges)
    z = z.astype(int).tolist()
    beta, m = len(z), len(edges)
    pairs = [(es[i], es[j]) for es in inc
             for i in range(len(es)) for j in range(i + 1, len(es))]
    xs = [int(x) for x in _draw(random.Random(seed), len(pairs))]
    size = beta + m
    mat = [[0] * size for _ in range(size)]
    for i in range(beta):
        for j in range(beta):
            mat[i][j] = sum(x * (z[i][b] * z[j][c] - z[i][c] * z[j][b])
                            for x, (b, c) in zip(xs, pairs)) % _P
        for e in range(m):
            mat[i][beta + e] = z[i][e]
            mat[beta + e][i] = -z[i][e]
    return beta, inc, mat


def value_of(beta, mat, edges):
    """beta minus half the rank of the block on the coordinates and the
    given edges."""
    idx = list(range(beta)) + [beta + e for e in sorted(edges)]
    return beta - rank_mod_p([[mat[i][j] for j in idx] for i in idx]) // 2


@st.composite
def subcubic_multigraphs(draw):
    """Loopless multigraphs of at most 16 nodes and maximum degree 3,
    doubled and tripled edges included: three stubs per node, paired in
    a random order, with the loops and a few pairs dropped."""
    n = draw(st.integers(1, 16))
    stubs = draw(st.permutations(range(3 * n)))
    dropped = draw(st.sets(st.integers(0, 3 * n // 2), max_size=4))
    edges = []
    for i in range(len(stubs) // 2):
        a, b = stubs[2 * i] // 3, stubs[2 * i + 1] // 3
        if a != b and i not in dropped:
            edges.append((min(a, b), max(a, b)))
    return list(range(n)), edges


@settings(deadline=None)
@given(subcubic_multigraphs(), st.randoms(use_true_random=False),
       st.integers(0, 2**32), st.sampled_from([2, 4, cover_solver._BLOCK]))
def test_kernel_matches_integer_elimination(graph, rnd, seed, block):
    """value and every value_without after each delete, with the pivot
    sum also cut into blocks of one and two pivots."""
    nodes, edges = graph
    beta, inc, mat = bordered(nodes, edges, seed)
    with patch.object(cover_solver, "_BLOCK", block):
        oracle = _ParityRank(nodes, edges, random.Random(seed))
        assert oracle.base.astype(int).tolist() == [
            [(a + HALF) % _P - HALF for a in row] for row in mat]

        done = set()  # edges at deleted nodes
        order = nodes[:]
        rnd.shuffle(order)
        for i, x in enumerate(order):
            assert oracle.value == value_of(beta, mat, done)
            # query x last half the time, so that delete reuses its rows
            left = order[i + 1:]
            for y in left + [x] if rnd.random() < 0.5 else [x] + left:
                new = [e for e in inc[y] if e not in done]
                assert oracle.value_without(new) == value_of(
                    beta, mat, done | set(new)), (x, y)
            new = [e for e in inc[x] if e not in done]
            oracle.delete(new)
            done.update(new)
        assert oracle.value == value_of(beta, mat, done)
