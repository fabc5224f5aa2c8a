"""Exact linear algebra over the integers.

All matrices are plain lists of lists of Python ints, and no floating
point is used anywhere.  The lattice kernels are fraction-free: the
adjugate and the LDL^T data come from Bareiss elimination, LLL is the
integral version that keeps those integers, and Fincke-Pohst enumeration
scales its budget by one common denominator, so its bounds are
``math.isqrt`` of nonnegative integers.  ``fractions.Fraction`` appears
only in `signature_symmetric`.
"""

from fractions import Fraction
from math import isqrt, lcm


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(m):
    return [row[:] for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def vec_mat(v, m):
    return [sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0]))]


def is_symmetric(m):
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i)
    )


def xgcd(a, b):
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


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


def left_kernel(m):
    """Basis of {x : x*m = 0} over the integers (rows of the result)."""
    h, u = hermite_with_transform(m)
    return [u[i] for i in range(len(h)) if not any(h[i])]


def solve_left(m, b):
    """One integer solution x of x*m = b, or None if none exists."""
    h, u = hermite_with_transform(m)
    pivots = []
    for i, row in enumerate(h):
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is not None:
            pivots.append((i, piv))
    residual = list(b)
    coeffs = [0] * len(h)
    for i, piv in pivots:
        q, r = divmod(residual[piv], h[i][piv])
        if r:
            return None
        if q:
            coeffs[i] = q
            residual = [x - q * y for x, y in zip(residual, h[i])]
    if any(residual):
        return None
    x = [0] * len(u)
    for i, ci in enumerate(coeffs):
        if ci:
            x = [xx + ci * uu for xx, uu in zip(x, u[i])]
    return x


# ---------------------------------------------------------------------------
# Symmetric forms: signature, LDL, LLL on Gram matrices
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


def ldl_positive(m):
    """LDL^T data of a positive definite symmetric matrix, in integers.

    Returns (dets, lam): dets[i] is the leading principal minor of size
    i + 1, and lam[i][j] (j < i) is an integer with mu[i][j] = lam[i][j] /
    dets[j], where m = L D L^T, L unit lower triangular with entries mu,
    and D = diag(dets[i] / dets[i - 1]) (dets[-1] read as 1).  Every
    division is exact (Cohen, Alg. 2.6.7).  Raises ValueError if m is not
    positive definite.
    """
    n = len(m)
    dets = []
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        row, lam_i = m[i], lam[i]
        for j in range(i + 1):
            lam_j = lam[j]
            val = row[j]
            prev = 1
            for k in range(j):
                val = (dets[k] * val - lam_i[k] * lam_j[k]) // prev
                prev = dets[k]
            if j < i:
                lam_i[j] = val
            elif val <= 0:
                raise ValueError("matrix is not positive definite")
            else:
                dets.append(val)
    return dets, lam


def lll_gram(gram):
    """Exact LLL (delta = 3/4) on a positive definite Gram matrix.

    Returns (u, u_inv, dets, lam) with u unimodular such that
    u * gram * u^T is LLL-reduced, u_inv = u^{-1}, and (dets, lam) the
    `ldl_positive` data of that reduced matrix.  Only the Gram matrix is
    used (no coordinate embedding).  Integral LLL (Cohen, Alg. 2.6.7):
    the Gram-Schmidt data are kept as the integers of `ldl_positive` and
    updated with every step, and the size-reduction multiplier is
    q = floor(mu + 1/2).  Raises ValueError if gram is not positive
    definite.
    """
    n = len(gram)
    dets, lam = ldl_positive(gram)
    u = identity_matrix(n)
    u_inv_t = identity_matrix(n)        # transpose of u^{-1}: column ops become row ops

    def reduce_entry(k, l):
        dl = dets[l]
        q = (2 * lam[k][l] + dl) // (2 * dl)
        if q:
            u[k] = [x - q * y for x, y in zip(u[k], u[l])]
            u_inv_t[l] = [x + q * y for x, y in zip(u_inv_t[l], u_inv_t[k])]
            lam_k, lam_l = lam[k], lam[l]
            lam_k[l] -= q * dl
            for i in range(l):
                lam_k[i] -= q * lam_l[i]

    k = 1
    while k < n:
        reduce_entry(k, k - 1)
        d_prev = dets[k - 2] if k >= 2 else 1
        lk = lam[k][k - 1]
        # Lovasz: d[k] < (3/4 - mu^2) d[k-1], times 4 dets[k-1] dets[k-2]
        if 4 * dets[k] * d_prev < 3 * dets[k - 1] ** 2 - 4 * lk * lk:
            u[k - 1], u[k] = u[k], u[k - 1]
            u_inv_t[k - 1], u_inv_t[k] = u_inv_t[k], u_inv_t[k - 1]
            lam[k - 1][:k - 1], lam[k][:k - 1] = lam[k][:k - 1], lam[k - 1][:k - 1]
            b = (d_prev * dets[k] + lk * lk) // dets[k - 1]
            for i in range(k + 1, n):
                lam_i = lam[i]
                t = lam_i[k]
                lam_i[k] = (dets[k] * lam_i[k - 1] - lk * t) // dets[k - 1]
                lam_i[k - 1] = (b * t + lk * lam_i[k]) // dets[k]
            dets[k - 1] = b
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce_entry(k, l)
            k += 1
    return u, transpose(u_inv_t), dets, lam


# ---------------------------------------------------------------------------
# Norm-equation enumeration (Fincke-Pohst, over the integers)
# ---------------------------------------------------------------------------

def enumerate_quadratic(dets, lam, target, shift, den=1):
    """All integer w with Q(den * w + shift) == target, exactly.

    Q is the positive definite form with integral LDL data (dets, lam)
    from `ldl_positive`; `shift` is an integer vector, `den` a positive
    integer and `target` an integer.  With x = den * w + shift,

        Q(x) = sum_j Y_j^2 / (dets[j] dets[j-1]),
        Y_j = dets[j] x_j + sum_{i>j} lam[i][j] x_i,

    so after scaling by the common denominator P = lcm_j(dets[j]
    dets[j-1]) each level costs weight_j * Y_j^2 of an integer budget:
    the bound on Y_j is an `isqrt` and every comparison is between
    integers.  Solutions are listed with the last coordinate varying
    slowest, each coordinate ascending.
    """
    n = len(dets)
    if target < 0:
        return []
    if n == 0:
        return [()] if target == 0 else []
    minors = [a * b for a, b in zip(dets, [1] + dets[:-1])]
    scale = lcm(*minors)
    weights = [scale // x for x in minors]
    steps = [den * d for d in dets]         # Y_j = steps[j] * w_j + centre_j
    out = []
    current = [0] * n

    def rec(level, rem, centres):
        f, a, c = weights[level], steps[level], centres[level]
        if level == 0:
            # the last coordinate must use up the budget: Y_0 = +-sqrt(rem / f)
            q, r = divmod(rem, f)
            y = isqrt(q)
            if r or y * y != q:
                return
            for yy in ((-y, y) if y else (0,)):
                w, r = divmod(yy - c, a)
                if not r:
                    current[0] = w
                    out.append(tuple(current))
            return
        r = isqrt(rem // f)
        lam_row = lam[level]
        s = shift[level]
        for w in range(-((r + c) // a), (r - c) // a + 1):
            y = a * w + c
            current[level] = w
            x = den * w + s
            if x:
                below = [cj + lj * x for cj, lj in zip(centres, lam_row[:level])]
            else:
                below = centres[:level]
            rec(level - 1, rem - f * y * y, below)

    rec(n - 1, scale * target, [d * s for d, s in zip(dets, shift)])
    return out
