"""Exact linear algebra over the integers: the determinant, the adjugate
and the signature of a symmetric form.

All matrices are plain lists of lists of Python ints, and no floating
point is used anywhere.  The determinant and the adjugate come from
fraction-free Bareiss elimination on each diagonal block of the matrix
(the components of its nonzero pattern), the signature from symmetric
fraction-free elimination.  No normal form is needed: the exponent of a
discriminant group and the scaled inverse Gram matrix come from the
adjugate alone (`lattice.dual_data`).
"""

from math import prod


def is_symmetric(m):
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i)
    )


def _blocks(m):
    """The diagonal blocks of a square matrix: the connected components of
    its nonzero pattern (i ~ j when m[i][j] or m[j][i] is nonzero), as
    ascending index lists in the order of their smallest index."""
    n = len(m)
    seen, blocks = [False] * n, []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        block, stack = [start], [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if not seen[j] and (m[i][j] or m[j][i]):
                    seen[j] = True
                    block.append(j)
                    stack.append(j)
        blocks.append(sorted(block))
    return blocks


def _bareiss(m):
    """(adj, det) of a square integer matrix, with adj None when det = 0.

    Fraction-free Gauss-Jordan elimination on [m | I] (Bareiss): every
    division is exact, so all intermediate entries are integers.
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return None, 0
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


def _block_bareiss(m):
    """(indices, adj, det) of each diagonal block of a square integer
    matrix, from `_bareiss` on the block."""
    return [(idx, *_bareiss([[m[i][j] for j in idx] for i in idx])) for idx in _blocks(m)]


def det_bareiss(m):
    """Exact determinant of a square integer matrix: a simultaneous
    permutation of rows and columns keeps it, so it is the product of the
    determinants of the diagonal blocks (fraction-free elimination)."""
    return prod(det for _idx, _adj, det in _block_bareiss(m))


def adjugate(m):
    """Adjugate and determinant of a nonsingular square integer matrix.

    Returns (adj, det) with m * adj = adj * m = det * I, from Bareiss
    elimination on each diagonal block.  The adjugate of the direct sum of
    A and B is the direct sum of det B adj A and det A adj B, so block k
    of the adjugate is (det / det_k) adj_k.  Raises ValueError when m is
    singular.
    """
    parts = _block_bareiss(m)
    det = prod(d for _idx, _adj, d in parts)
    if det == 0:
        raise ValueError("matrix is singular")
    adj = [[0] * len(m) for _ in m]
    for idx, block_adj, d in parts:
        scale = det // d
        for i, row in zip(idx, block_adj):
            for j, x in zip(idx, row):
                adj[i][j] = scale * x
    return adj, det


# ---------------------------------------------------------------------------
# Symmetric forms
# ---------------------------------------------------------------------------

def signature_symmetric(m):
    """(n_plus, n_minus) of a nondegenerate symmetric integer matrix, exactly.

    Symmetric fraction-free elimination: each step pivots on a nonzero
    diagonal entry p of the remaining block and replaces the block by
    (p a_ij - a_ik a_kj) / prev, prev the previous pivot (1 at first),
    which divides exactly (Bareiss).  p / prev is a pivot of an LDL^T of a
    congruent matrix, so by Sylvester's law of inertia the signs of
    p * prev count the signature.  When every remaining diagonal entry
    vanishes, adding e_j to e_i (a congruence) makes a_ii = 2 a_ij nonzero.
    Raises ValueError when the form is degenerate.
    """
    a = [list(row) for row in m]
    pos = neg = 0
    prev = 1
    while a:
        k = next((i for i, row in enumerate(a) if row[i]), None)
        if k is None:
            i, j = next(((i, j) for i, row in enumerate(a) for j in range(i) if row[j]),
                        (None, None))
            if i is None:
                raise ValueError("degenerate symmetric form")
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            continue
        pivot_row = a.pop(k)
        p = pivot_row.pop(k)
        if p * prev > 0:
            pos += 1
        else:
            neg += 1
        for row in a:
            f = row.pop(k)
            row[:] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    return pos, neg
