"""Reference kernels over ``fractions.Fraction``: the test oracle.

These are the rational Gauss-Jordan inverse, LDL^T decomposition, LLL
reduction and Fincke-Pohst enumeration that `charfive.intmat` used before
its kernels became fraction-free, and an exhaustive box search for short
vectors.  They are slow and obviously exact, and the differential tests
in `test_intmat.py`, `test_lattice.py` and `test_acceptance.py` check the
integer kernels of `lattice_kernels` against them.
"""

from fractions import Fraction
from math import isqrt, prod

import numpy as np

from lattice_kernels import identity_matrix, mat_mul, transpose, vec_mat


def fraction_inverse(m):
    """Inverse of a square matrix as a Fraction matrix (Gauss-Jordan)."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def ldl_positive(m):
    """LDL^T data of a positive definite symmetric matrix.

    Returns (d, mu): Fractions with m = L D L^T, L unit lower triangular,
    L[i][j] = mu[i][j] for j < i.  Raises ValueError if m is not positive
    definite.
    """
    n = len(m)
    d = [Fraction(0)] * n
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        val = Fraction(m[i][i])
        for k in range(i):
            val -= mu[i][k] * mu[i][k] * d[k]
        if val <= 0:
            raise ValueError("matrix is not positive definite")
        d[i] = val
        for j in range(i + 1, n):
            s = Fraction(m[j][i])
            for k in range(i):
                s -= mu[j][k] * mu[i][k] * d[k]
            mu[j][i] = s / d[i]
    return d, mu


def lll_gram(gram, delta=Fraction(3, 4)):
    """Exact LLL on a positive definite Gram matrix.

    Returns (u, u_inv) with u unimodular such that u * gram * u^T is
    LLL-reduced; u_inv = u^{-1}.  Only the Gram matrix is used (no
    coordinate embedding).
    """
    n = len(gram)
    g = [[Fraction(x) for x in row] for row in gram]
    u = identity_matrix(n)
    u_inv = identity_matrix(n)

    def gram_entry(i, j):
        return g[i][j]

    # Gram-Schmidt data recomputed from scratch; updated incrementally below.
    def full_gs():
        b = [Fraction(0)] * n
        mu = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            b[i] = gram_entry(i, i)
            for j in range(i):
                s = gram_entry(i, j)
                for k in range(j):
                    s -= mu[i][k] * mu[j][k] * b[k]
                mu[i][j] = s / b[j]
                b[i] -= mu[i][j] * mu[i][j] * b[j]
            if b[i] <= 0:
                raise ValueError("matrix is not positive definite")
        return b, mu

    b, mu = full_gs()

    def row_sub(k, l, q):       # b_k -= q b_l
        for c in range(n):
            g[k][c] -= q * g[l][c]
        for r in range(n):
            g[r][k] -= q * g[r][l]
        u[k] = [x - q * y for x, y in zip(u[k], u[l])]
        for r in range(n):
            u_inv[r][l] += q * u_inv[r][k]

    def reduce_entry(k, l):
        q = (mu[k][l] + Fraction(1, 2)).__floor__()
        if q:
            row_sub(k, l, q)
            mu[k][l] -= q
            for i in range(l):
                mu[k][i] -= q * mu[l][i]

    k = 1
    while k < n:
        reduce_entry(k, k - 1)
        if b[k] < (delta - mu[k][k - 1] * mu[k][k - 1]) * b[k - 1]:
            # swap rows k-1 and k, update GS data in place
            g[k - 1], g[k] = g[k], g[k - 1]
            for r in range(n):
                g[r][k - 1], g[r][k] = g[r][k], g[r][k - 1]
            u[k - 1], u[k] = u[k], u[k - 1]
            for r in range(n):
                u_inv[r][k - 1], u_inv[r][k] = u_inv[r][k], u_inv[r][k - 1]
            m_ = mu[k][k - 1]
            b_new = b[k] + m_ * m_ * b[k - 1]
            mu[k][k - 1] = m_ * b[k - 1] / b_new
            b[k] = b[k - 1] * b[k] / b_new
            b[k - 1] = b_new
            for j in range(k - 1):
                mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
            for i in range(k + 1, n):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m_ * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce_entry(k, l)
            k += 1
    return u, u_inv


def enumerate_quadratic(d, mu, target, shift):
    """All integer w with Q(w + shift) == target, exactly.

    Q is the positive definite form given by its LDL data (d, mu):
    Q(z) = sum_j d[j] * (z_j + sum_{i>j} mu[i][j] z_i)^2.  `shift` is a
    rational vector, `target` a rational number.  Bounds on each
    coordinate are derived with integer square roots (conservative, then
    filtered by exact comparison), so the output is exact.
    """
    n = len(d)
    target = Fraction(target)
    if target < 0:
        return []
    if n == 0:
        return [()] if target == 0 else []
    out = []
    current = [0] * n

    def rec(level, rem, centers):
        alpha = shift[level] + centers[level]
        bound = rem / d[level]
        a, bden = alpha.numerator, alpha.denominator
        p, q = bound.numerator, bound.denominator
        s = isqrt((p * bden * bden) // q) + 1
        lo = -((a + s) // bden)
        hi = (s - a) // bden
        for w in range(lo, hi + 1):
            za = w + alpha
            term = d[level] * za * za
            if term > rem:
                continue
            current[level] = w
            new_rem = rem - term
            if level == 0:
                if new_rem == 0:
                    out.append(tuple(current))
            else:
                z = Fraction(w) + shift[level]
                if z:
                    new_centers = centers[:level]
                    murow = mu[level]
                    for j in range(level):
                        if murow[j]:
                            new_centers[j] = new_centers[j] + murow[j] * z
                else:
                    new_centers = centers[:level]
                rec(level - 1, new_rem, new_centers)

    rec(n - 1, target, [Fraction(0)] * n)
    return out


def coset_vectors(g, shift, n):
    """All integer u with (u + shift)^T g (u + shift) = n, g negative
    definite, sorted: the coset search as it ran on the kernels above."""
    a = [[-x for x in row] for row in g]
    u, u_inv = lll_gram(a)
    a_red = mat_mul(mat_mul(u, a), transpose(u))
    d, mu = ldl_positive(a_red)
    shift_red = [sum(Fraction(shift[i]) * u_inv[i][j] for i in range(len(shift)))
                 for j in range(len(shift))]
    found = enumerate_quadratic(d, mu, -Fraction(n), shift_red)
    return sorted(tuple(vec_mat(list(w), u)) for w in found)


def short_vectors_box(g, n):
    """All integer v with v^T g v = n, for negative definite g, sorted, by
    exhaustive box search (no pruning).

    Independent of the Fincke-Pohst path: coordinate bounds come from the
    diagonal of the inverse form (Cauchy-Schwarz in the dual), and every
    candidate in the box is checked by direct evaluation of v^T g v, exact
    in int64, one slice of the box per value of the first coordinate.
    Every such |v^T g v| is at most max|g| * (sum of the bounds)^2; a box
    where that could exceed 2^62 raises ValueError, as does a g that is
    not negative definite.  Intended for small ranks.
    """
    a = [[-x for x in row] for row in g]
    ldl_positive(a)                 # refuses a g that is not negative definite
    ainv = fraction_inverse(a)
    bounds = []
    for i in range(len(a)):
        val = Fraction(-n) * ainv[i][i]
        bounds.append(isqrt(val.numerator // val.denominator) + 1)
    if max(abs(x) for row in g for x in row) * sum(bounds) ** 2 > 2 ** 62:
        raise ValueError("box too large for exact int64 evaluation")
    gram = np.array(g, dtype=np.int64)
    # the box without its first coordinate, one row per point
    shape = [2 * b + 1 for b in bounds[1:]]
    rest = (np.indices(shape, dtype=np.int64).reshape(len(shape), prod(shape)).T
            - np.array(bounds[1:], dtype=np.int64))
    out = []
    for x0 in range(-bounds[0], bounds[0] + 1):
        v = np.concatenate([np.full((len(rest), 1), x0, dtype=np.int64), rest], axis=1)
        norms = np.einsum("ij,jk,ik->i", v, gram, v)
        out.extend(map(tuple, v[norms == n].tolist()))
    out.sort()
    return out
