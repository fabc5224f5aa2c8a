"""Exact linear algebra over the integers.

All matrices are plain lists of lists of Python ints, and no floating
point is used anywhere.  The determinant and the adjugate come from
fraction-free Bareiss elimination; ``fractions.Fraction`` appears only in
`signature_symmetric`.
"""

from fractions import Fraction


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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
# Smith and Hermite normal forms
# ---------------------------------------------------------------------------

def smith_normal_form(m):
    """Smith normal form with transforms.

    Returns (d, u, v) with u*m*v = d, d diagonal with d[0][0] | d[1][1] | ...,
    all diagonal entries nonnegative, and det(u), det(v) = +-1.
    """
    a = copy_matrix(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def row_op(i, j, q):        # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):        # col_i -= q * col_j
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for r in range(rows):
                a[r][i], a[r][j] = a[r][j], a[r][i]
            for r in range(cols):
                v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while t < min(rows, cols):
        # deterministic pivot: smallest |value| > 0, ties by position
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(a[i][j])
                if x and (piv is None or x < piv[0]):
                    piv = (x, i, j)
        if piv is None:
            break
        swap_rows(t, piv[1])
        swap_cols(t, piv[2])
        while True:
            # clear column t below, restarting if remainders appear
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] == 0:
                    continue
                q, r = divmod(a[i][t], a[t][t])
                row_op(i, t, q)
                if r:
                    swap_rows(t, i)
                    dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j] == 0:
                    continue
                q, r = divmod(a[t][j], a[t][t])
                col_op(j, t, q)
                if r:
                    swap_cols(t, j)
                    dirty = True
                    break
            if dirty:
                continue
            if any(a[i][t] for i in range(t + 1, rows)):
                continue
            break
        # enforce divisibility of the remaining block by the pivot
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            # add the offending row to row t and redo this pivot
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
            continue
        t += 1

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return a, u, v


def hermite_with_transform(m):
    """Row Hermite normal form with transform: returns (h, u), u*m = h.

    `u` is unimodular; `h` is in row echelon form with positive pivots and
    entries above each pivot reduced modulo the pivot.  Zero rows sink to
    the bottom.
    """
    h = copy_matrix(m)
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = identity_matrix(rows)
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if h[i][c] != 0), None)
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, rows):
            while h[i][c] != 0:
                if abs(h[i][c]) >= abs(h[r][c]):
                    q = h[i][c] // h[r][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                else:
                    h[r], h[i] = h[i], h[r]
                    u[r], u[i] = u[i], u[r]
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == rows:
            break
    return h, u


def row_basis_hnf(rows, ncols):
    """Canonical (HNF) basis of the integer row span; zero rows dropped."""
    if not rows:
        return []
    h, _ = hermite_with_transform([list(r) for r in rows])
    return [row for row in h if any(row)]


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
