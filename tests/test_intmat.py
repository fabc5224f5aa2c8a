"""Exact matrix kernels: the determinant and adjugate from Bareiss on the
diagonal blocks, and the signature from symmetric fraction-free
elimination, checked against the Gauss-Jordan and Faddeev-LeVerrier
oracles of `fraction_kernels`."""

import random

import pytest

from charfive import intmat
from charfive.lattice import build_S0
from fraction_kernels import (
    charpoly, gauss_jordan, mat_mul, random_symmetric, signature_by_descartes)

A4_BLOCK = [[-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1], [0, 0, 1, -2]]
HL_BLOCK = [[2, 1], [1, -2]]


def assert_adjugate_matches_oracle(m):
    """`det_bareiss` and `adjugate` against Gauss-Jordan: the same
    determinant, adj = det * m^{-1}, and m adj = adj m = det I; a singular
    m has determinant 0 and makes `adjugate` raise ValueError."""
    det, inverse = gauss_jordan(m)
    assert intmat.det_bareiss(m) == det
    if not det:
        with pytest.raises(ValueError):
            intmat.adjugate(m)
        return
    adj, d = intmat.adjugate(m)
    assert d == det
    assert adj == [[x * det for x in row] for row in inverse]
    scaled = [[det * int(i == j) for j in range(len(m))] for i in range(len(m))]
    assert mat_mul(m, adj) == mat_mul(adj, m) == scaled


def test_adjugate():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 7)
        assert_adjugate_matches_oracle(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])


def block_diagonal(rng, sizes, singular=None):
    """A seeded integer matrix with nonsingular diagonal blocks of the given
    sizes, its indices shuffled; block `singular` gets a repeated row (a
    zero row when it is 1 x 1)."""
    n = sum(sizes)
    m = [[0] * n for _ in range(n)]
    start = 0
    for b, size in enumerate(sizes):
        while True:
            block = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
            if gauss_jordan(block)[0]:
                break
        if b == singular:
            block[-1] = block[0][:] if size > 1 else [0]
        for i in range(size):
            m[start + i][start:start + size] = block[i]
        start += size
    order = list(range(n))
    rng.shuffle(order)
    return [[m[i][j] for j in order] for i in order]


def test_block_bareiss_matches_the_whole_matrix_oracle():
    """On seeded block-diagonal matrices with shuffled indices and on the
    Gram matrix of S0, the adjugate and determinant from the diagonal
    blocks equal those of Gauss-Jordan on the whole matrix; a singular
    block gives det 0 and makes `adjugate` raise ValueError."""
    rng = random.Random(23)
    for _ in range(100):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
        m = block_diagonal(rng, sizes)
        # the components of the nonzero pattern refine the blocks
        assert len(intmat._blocks(m)) >= len(sizes)
        assert_adjugate_matches_oracle(m)
        m = block_diagonal(rng, sizes, singular=rng.randrange(len(sizes)))
        assert intmat.det_bareiss(m) == 0
        assert_adjugate_matches_oracle(m)
    gram = [list(r) for r in build_S0().gram]
    assert [len(b) for b in intmat._blocks(gram)] == [4] * 5 + [2]
    assert_adjugate_matches_oracle(gram)
    assert intmat.det_bareiss(gram) == -5 ** 6
    assert intmat.det_bareiss([]) == 1 and intmat.adjugate([]) == ([], 1)


def test_signature():
    assert intmat.signature_symmetric([[2, 0], [0, -2]]) == (1, 1)
    assert intmat.signature_symmetric([[0, 1], [1, 0]]) == (1, 1)
    assert intmat.signature_symmetric(A4_BLOCK) == (0, 4)
    assert intmat.signature_symmetric(HL_BLOCK) == (1, 1)
    with pytest.raises(ValueError):
        intmat.signature_symmetric([[0, 0], [0, 0]])


#: eigenvalues -7, -1 and 5; elimination that clears a pivot row while
#: later rows still read it gives (2, 1)
ROW_READ_AFTER_CLEAR = [[0, -4, -1], [-4, -3, 4], [-1, 4, 0]]


def test_signature_matches_the_descartes_oracle():
    """The signature against the sign changes of the characteristic
    polynomial: the counterexample above, whose polynomial is
    (x + 7)(x + 1)(x - 5), the cases of `test_signature`, S0, and 3000
    seeded symmetric matrices of size 1 to 6, one in three with a zero
    diagonal; a degenerate one raises ValueError."""
    assert charpoly(ROW_READ_AFTER_CLEAR) == [1, 3, -33, -35]
    assert intmat.signature_symmetric(ROW_READ_AFTER_CLEAR) == (1, 2)
    gram = [list(r) for r in build_S0().gram]
    for m in ([[2, 0], [0, -2]], [[0, 1], [1, 0]], A4_BLOCK, HL_BLOCK, gram):
        assert intmat.signature_symmetric(m) == signature_by_descartes(m)
    rng = random.Random(2024)
    seen = {"nondegenerate": 0, "zero diagonal": 0, "degenerate": 0}
    for _ in range(3000):
        n = rng.randint(1, 6)
        m = random_symmetric(rng, n)
        want = signature_by_descartes(m)
        if want is None:
            seen["degenerate"] += 1
            with pytest.raises(ValueError, match="degenerate"):
                intmat.signature_symmetric(m)
            continue
        assert intmat.signature_symmetric(m) == want, m
        seen["nondegenerate"] += 1
        seen["zero diagonal"] += not any(m[i][i] for i in range(n))
    assert seen["nondegenerate"] > 1500 and min(seen.values()) > 300, seen
