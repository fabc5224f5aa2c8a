"""Exact linear algebra over the integers: the determinant, the adjugate
and the signature of a symmetric form.

All matrices are plain lists of lists of Python ints, and no floating
point is used anywhere.  The determinant and the adjugate come from
fraction-free Bareiss elimination; ``fractions.Fraction`` appears only in
`signature_symmetric`.  No normal form is needed: the exponent of a
discriminant group and the scaled inverse Gram matrix come from the
adjugate alone (`lattice.dual_data`).
"""

from fractions import Fraction


def copy_matrix(m):
    return [row[:] for row in m]


def is_symmetric(m):
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i)
    )


def det_bareiss(m):
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    n = len(m)
    if n == 0:
        return 1
    a = copy_matrix(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate(m):
    """Adjugate and determinant of a nonsingular square integer matrix.

    Returns (adj, det) with m * adj = adj * m = det * I.  Fraction-free
    Gauss-Jordan elimination on [m | I] (Bareiss): every division is
    exact, so all intermediate entries are integers.  Raises ValueError
    when m is singular.
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        rk = a[k]
        p = rk[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], rk)]
        prev = p
    # the left block is now prev * I with prev = sign * det(m)
    return [[sign * x for x in row[n:]] for row in a], sign * prev


# ---------------------------------------------------------------------------
# Symmetric forms
# ---------------------------------------------------------------------------

def signature_symmetric(m):
    """(n_plus, n_minus) of a nondegenerate symmetric matrix, exactly."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    pos = neg = 0
    idx = list(range(n))
    while idx:
        k = next((i for i in idx if a[i][i] != 0), None)
        if k is None:
            # all remaining diagonal entries vanish: find an off-diagonal
            pair = None
            for i in idx:
                for j in idx:
                    if i != j and a[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                raise ValueError("degenerate symmetric form")
            i, j = pair
            # replace e_i by e_i + e_j: diagonal becomes 2*a[i][j] != 0
            for r in range(n):
                a[r][i] += a[r][j]
            for c in range(n):
                a[i][c] += a[j][c]
            continue
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        idx.remove(k)
        for i in idx:
            f = a[i][k] / d
            if f:
                for j in idx:
                    a[i][j] -= f * a[k][j]
                a[i][k] = Fraction(0)
                a[k][i] = Fraction(0)
    return pos, neg
