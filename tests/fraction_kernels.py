"""Reference linear algebra over the rationals: the test oracle for
`charfive.intmat` and `charfive.lattice.dual_data`.

`gauss_jordan` is Gauss-Jordan elimination over ``fractions.Fraction``:
it gives the determinant and the inverse of a square integer matrix, the
oracle for `det_bareiss`, `adjugate` (adj = det * inverse) and
`dual_data` (the exponent of L^vee / L is the least m that clears the
denominators of gram^{-1}).  `charpoly` is the characteristic polynomial
by the Faddeev-LeVerrier recursion, and `signature_by_descartes` reads
the signature of a symmetric matrix off it: every root is real, so
Descartes' rule of signs counts the positive roots exactly.  Neither
shares code with the package, and neither uses floating point.
`random_nonsingular` and `random_symmetric` draw the seeded inputs.
"""

from fractions import Fraction


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def gauss_jordan(m):
    """(det, inverse) of a square integer matrix, the inverse a Fraction
    matrix, or (0, None) when the matrix is singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return 0, None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    assert det.denominator == 1
    return det.numerator, [row[n:] for row in a]


def random_nonsingular(rng, n, symmetric):
    """A seeded n x n matrix with entries in -6..6 and a nonzero determinant
    (the constant term of `charpoly`), symmetric on request."""
    while True:
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if symmetric:
            m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        if charpoly(m)[-1]:
            return m


def charpoly(m):
    """The coefficients of det(x I - m), leading first, by the
    Faddeev-LeVerrier recursion M_k = m M_(k-1) + c_(k-1) I,
    c_k = -tr(m M_k) / k, in integers: every division is exact."""
    n = len(m)
    coeffs, mk = [1], [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = mat_mul(m, mk)
        for i in range(n):
            mk[i][i] += coeffs[-1]
        trace = sum(x * y for i, row in enumerate(m) for x, y in zip(row, (r[i] for r in mk)))
        coeffs.append(-trace // k)
    return coeffs


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def signature_by_descartes(m):
    """(n_plus, n_minus) of a symmetric integer matrix, or None when it is
    degenerate (0 is an eigenvalue): the sign changes of p(x) and of
    p(-x), p the characteristic polynomial."""
    p = charpoly(m)
    if not p[-1]:
        return None
    return _sign_changes(p), _sign_changes([c * (-1) ** i for i, c in enumerate(p)])


def random_symmetric(rng, n):
    """A seeded symmetric n x n matrix with entries in -4..4, a third of
    them zero, and its whole diagonal zero for one matrix in three."""
    m = [[0] * n for _ in range(n)]
    zero_diagonal = rng.random() < 1 / 3
    for i in range(n):
        for j in range(i + 1):
            if (i != j or not zero_diagonal) and rng.random() < 2 / 3:
                m[i][j] = m[j][i] = rng.randint(-4, 4)
    return m

