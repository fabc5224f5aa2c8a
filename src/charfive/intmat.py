"""Exact linear algebra over the integers and the rationals.

All matrices are plain lists of lists holding Python ints or
``fractions.Fraction`` entries.  No floating point is used anywhere;
square roots only ever appear as ``math.isqrt`` of nonnegative integers
when deriving enumeration bounds.
"""

from fractions import Fraction
from math import isqrt


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


def fraction_solve_right(a, b):
    """Solve x . a = b for a square nonsingular `a` (everything rational)."""
    ainv = fraction_inverse(a)
    return [sum(Fraction(b[i]) * ainv[i][j] for i in range(len(b)))
            for j in range(len(b))]


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


# ---------------------------------------------------------------------------
# Norm-equation enumeration (Fincke-Pohst style, exact)
# ---------------------------------------------------------------------------

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
