"""Exact matrix kernels: adjugates and signatures, and the Hermite form,
kernels, LLL, LDL and Fincke-Pohst of the retired enumeration path in
`lattice_kernels`.  The fraction-free kernels are checked against the
Fraction oracle in `fraction_kernels`; `minor_gcd_factors` is the oracle
for the exponent of a discriminant group in `test_lattice.py` and
`test_acceptance.py`."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

import fraction_kernels
import lattice_kernels as lk
from charfive import intmat
from charfive.lattice import build_S0

A4_BLOCK = [[-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1], [0, 0, 1, -2]]
HL_BLOCK = [[2, 1], [1, -2]]


def minor_gcd_factors(m):
    """Invariant factors from gcds of k x k minors (independent oracle)."""
    rows = len(m)
    cols = len(m[0])
    gcds = [1]
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[m[i][j] for j in ci] for i in ri]
                g = gcd(g, abs(intmat.det_bareiss(sub)))
        gcds.append(g)
    factors = []
    for k in range(1, len(gcds)):
        if gcds[k] == 0:
            factors.append(0)
        else:
            factors.append(gcds[k] // gcds[k - 1])
    return factors


def test_hermite_transform_and_kernel():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        h, u = lk.hermite_with_transform(mat)
        assert lk.mat_mul(u, mat) == h
        assert abs(intmat.det_bareiss(u)) == 1
        for row in lk.left_kernel(mat):
            assert all(x == 0 for x in lk.vec_mat(row, mat))


def test_solve_left():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        mat = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        x_true = [rng.randint(-4, 4) for _ in range(n)]
        b = lk.vec_mat(x_true, mat)
        x = lk.solve_left(mat, b)
        assert x is not None
        assert lk.vec_mat(x, mat) == b
    # insoluble case
    assert lk.solve_left([[2]], [1]) is None


def _random_pos_def(rng, n):
    m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    a = lk.mat_mul(m, lk.transpose(m))
    for i in range(n):
        a[i][i] += 1 + n
    return a


def test_lll_reduction_properties():
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randint(1, 7)
        a = _random_pos_def(rng, n)
        u, u_inv, _dets, _lam = lk.lll_gram(a)
        assert lk.mat_mul(u, u_inv) == lk.identity_matrix(n)
        red = lk.mat_mul(lk.mat_mul(u, a), lk.transpose(u))
        dets, lam = lk.ldl_positive(red)
        d = [Fraction(x, y) for x, y in zip(dets, [1] + dets[:-1])]
        for i in range(n):
            mu = [Fraction(lam[i][j], dets[j]) for j in range(i)]
            for j in range(i):
                assert abs(mu[j]) <= Fraction(1, 2)
            if i:
                lhs = d[i]
                rhs = (Fraction(3, 4) - mu[i - 1] ** 2) * d[i - 1]
                assert lhs >= rhs


def assert_ldl_matches_oracle(a):
    """The integer LDL data equal the oracle's d and mu as rationals."""
    dets, lam = lk.ldl_positive(a)
    d, mu = fraction_kernels.ldl_positive(a)
    lower = [1] + dets[:-1]
    assert [Fraction(x, y) for x, y in zip(dets, lower)] == d
    for i in range(len(a)):
        assert [Fraction(lam[i][j], dets[j]) for j in range(i)] == mu[i][:i]


def test_ldl_matches_fraction_oracle():
    rng = random.Random(4242)
    for _ in range(200):
        n = rng.randint(1, 8)
        a = _random_pos_def(rng, n)
        assert_ldl_matches_oracle(a)


def test_lll_matches_fraction_oracle():
    rng = random.Random(4243)
    for _ in range(200):
        n = rng.randint(1, 8)
        a = _random_pos_def(rng, n)
        assert lk.lll_gram(a)[:2] == fraction_kernels.lll_gram(a)


def test_lll_returns_ldl_of_reduced_gram():
    # the Gram-Schmidt data that the reduction carries are those of u a u^T
    rng = random.Random(4245)
    for _ in range(400):
        n = rng.randint(1, 8)
        a = _random_pos_def(rng, n)
        u, _u_inv, dets, lam = lk.lll_gram(a)
        reduced = lk.mat_mul(lk.mat_mul(u, a), lk.transpose(u))
        assert (dets, lam) == lk.ldl_positive(reduced)


def assert_enumeration_matches_oracle(a, target, shift, den):
    """enumerate_quadratic on the integer data of `a` and the oracle on
    its rational data find the same vectors (target/den^2, shift/den)."""
    dets, lam = lk.ldl_positive(a)
    d, mu = fraction_kernels.ldl_positive(a)
    got = lk.enumerate_quadratic(dets, lam, target, shift, den)
    want = fraction_kernels.enumerate_quadratic(
        d, mu, Fraction(target, den * den), [Fraction(x, den) for x in shift])
    assert sorted(got) == sorted(want)
    assert len(set(got)) == len(got)
    return got


def test_enumeration_matches_fraction_oracle():
    rng = random.Random(4244)
    found = {"zero shift": 0, "shift": 0}
    for _ in range(150):
        n = rng.randint(1, 6)
        a = _random_pos_def(rng, n)
        u, _u_inv, _dets, _lam = lk.lll_gram(a)
        red = lk.mat_mul(lk.mat_mul(u, a), lk.transpose(u))
        for target in range(0, 3 * n + 8):
            found["zero shift"] += len(
                assert_enumeration_matches_oracle(red, target, [0] * n, 1))
        den = rng.randint(2, 7)
        shift = [rng.randint(-den, den) for _ in range(n)]
        # targets at and around the norm of the coset point w = 0
        hit = sum(shift[i] * red[i][j] * shift[j] for i in range(n) for j in range(n))
        for target in range(max(0, hit - 3), hit + 4):
            found["shift"] += len(
                assert_enumeration_matches_oracle(red, target, shift, den))
    assert min(found.values()) > 100


def test_enumeration_edge_cases():
    assert lk.enumerate_quadratic([], [], 0, []) == [()]
    assert lk.enumerate_quadratic([], [], 1, []) == []
    assert lk.enumerate_quadratic([2], [[0]], -2, [0]) == []
    # 2 (3w + 1)^2 = 8 at w = -1 (3w + 1 = -2); 3w + 1 = 2 has no solution
    assert lk.enumerate_quadratic([2], [[0]], 8, [1], 3) == [(-1,)]


def test_adjugate():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 7)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        det = intmat.det_bareiss(m)
        if det == 0:
            with pytest.raises(ValueError):
                intmat.adjugate(m)
            continue
        adj, d = intmat.adjugate(m)
        assert d == det
        scaled = [[det * x for x in row] for row in lk.identity_matrix(n)]
        assert lk.mat_mul(m, adj) == scaled
        assert lk.mat_mul(adj, m) == scaled
        assert adj == [[x * det for x in row]
                       for row in fraction_kernels.fraction_inverse(m)]


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
            if lk.bareiss_det(block):
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
    blocks equal those of Bareiss on the whole matrix; a singular block
    gives det 0 and makes `adjugate` raise ValueError."""
    rng = random.Random(23)
    for _ in range(100):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
        m = block_diagonal(rng, sizes)
        # the components of the nonzero pattern refine the blocks
        assert len(intmat._blocks(m)) >= len(sizes)
        assert intmat.adjugate(m) == lk.bareiss_adjugate(m)
        assert intmat.det_bareiss(m) == lk.bareiss_det(m)
        m = block_diagonal(rng, sizes, singular=rng.randrange(len(sizes)))
        assert intmat.det_bareiss(m) == lk.bareiss_det(m) == 0
        with pytest.raises(ValueError):
            intmat.adjugate(m)
    gram = [list(r) for r in build_S0().gram]
    assert [len(b) for b in intmat._blocks(gram)] == [4] * 5 + [2]
    assert intmat.adjugate(gram) == lk.bareiss_adjugate(gram)
    assert intmat.det_bareiss(gram) == lk.bareiss_det(gram) == -5 ** 6
    assert intmat.det_bareiss([]) == 1 and intmat.adjugate([]) == ([], 1)


def test_ldl_rejects_indefinite():
    with pytest.raises(ValueError):
        lk.ldl_positive([[1, 0], [0, -1]])


def test_signature():
    assert intmat.signature_symmetric([[2, 0], [0, -2]]) == (1, 1)
    assert intmat.signature_symmetric([[0, 1], [1, 0]]) == (1, 1)
    assert intmat.signature_symmetric(A4_BLOCK) == (0, 4)
    assert intmat.signature_symmetric(HL_BLOCK) == (1, 1)
    with pytest.raises(ValueError):
        intmat.signature_symmetric([[0, 0], [0, 0]])
