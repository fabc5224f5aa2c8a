"""The overlattice enumeration path: the test oracle for the root catalogue.

This is the code `charfive` ran for the invariants of each isotropic
subgroup H before they came from one catalogue of the norm -2 vectors of
h^perp in S0^vee: it builds the overlattice S_H, reduces h^perp in it
with the integral LLL, and lists its roots and the degree-1 elliptic set
E by Fincke-Pohst enumeration.  `subgroup_invariants` gives the triple
that `discform._subgroup_invariants` now reads off the catalogue, and
`test_lattice.py`, `test_intmat.py` and `test_acceptance.py` check the
kernels themselves against `fraction_kernels` and the box oracle.
`hnf_root_type`, which names each root component by the Hermite-form
rank of its span, is the oracle for the Coxeter-number rank of
`RootSystemType.of_roots`.  `lift_to_dual` lifts a generator of H to S0^vee
for the overlattice construction.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd, isqrt, lcm

import numpy as np

from charfive.discform import CHAIN_LEN, H_INDEX, H_PRIMAL, N_CHAINS, RANK, build_S0
from charfive.intmat import adjugate, copy_matrix, det_bareiss, is_symmetric
from charfive.lattice import GramLattice, RootSystemType, dual_data


class IndefiniteLatticeError(ValueError):
    """A definite Gram matrix was required."""


class EvennessViolation(ValueError):
    """A generator set is not totally isotropic (odd or fractional norms)."""


class DivisibilityError(ValueError):
    """No lattice vector pairs to 1 with the given polarization vector."""


# ---------------------------------------------------------------------------
# Matrix products, gcds, Hermite forms and kernels
# ---------------------------------------------------------------------------

def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def vec_mat(v, m):
    return [sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0]))]


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
# LDL, LLL and Fincke-Pohst enumeration (fraction-free)
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Overlattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Overlattice:
    """An even overlattice S of an ambient lattice, inside the dual."""

    ambient: GramLattice
    basis_scaled: tuple     # rows = coordinates of scale * (basis of S), primal
    scale: int              # exponent of the ambient discriminant group
    gram_s: tuple
    index: int              # [S : ambient]
    disc: int
    artin_sigma: object     # int when disc == -5^(2 sigma), else None

    @property
    def rank(self):
        return self.ambient.rank

    def s_coords_of_primal(self, vec):
        """Coordinates in the S basis of a vector given in primal coordinates,
        or None when the vector does not lie in S."""
        target = [self.scale * x for x in vec]
        return solve_left([list(r) for r in self.basis_scaled], target)

    def scaled_primal_of_s(self, coords):
        """scale * (vector) in primal coordinates, from S-basis coordinates."""
        return [sum(coords[i] * self.basis_scaled[i][j] for i in range(self.rank))
                for j in range(self.rank)]


def overlattice_from_generators(l, gens):
    """Even overlattice generated over the `GramLattice` L by dual vectors.

    `gens` are integer vectors in dual coordinates.  Their classes must
    span a totally isotropic subgroup of the discriminant form, that is,
    the lattice they generate over L must be even: its Gram matrix must be
    integral with an even diagonal.  Raises EvennessViolation otherwise.
    """
    n = l.rank
    gram = [list(r) for r in l.gram]
    m, scaled_dual = dual_data(l.gram)

    gens = [list(g) for g in gens]
    for g in gens:
        if len(g) != n or any(not isinstance(x, int) for x in g):
            raise ValueError("generators must be integer dual-coordinate vectors")

    rows = [[m if i == j else 0 for j in range(n)] for i in range(n)]
    for g in gens:
        rows.append([sum(scaled_dual[j][i] * g[j] for j in range(n))
                     for i in range(n)])
    basis = row_basis_hnf(rows, n)
    if len(basis) != n:
        raise ValueError("overlattice basis has wrong rank")
    det_b = det_bareiss(basis)
    if (m ** n) % abs(det_b):
        raise ValueError("scaled basis determinant must divide the scale power")
    index = (m ** n) // abs(det_b)

    bg = mat_mul(basis, gram)
    gram_s_raw = mat_mul(bg, transpose(basis))
    gram_s = []
    for row in gram_s_raw:
        out_row = []
        for x in row:
            q, r = divmod(x, m * m)
            if r:
                raise EvennessViolation("overlattice pairing is not integral")
            out_row.append(q)
        gram_s.append(out_row)
    if any(gram_s[i][i] % 2 for i in range(n)):
        raise EvennessViolation("overlattice is not even")

    disc = det_bareiss(gram_s)
    if disc * index * index != l.det():
        raise ArithmeticError("discriminant/index consistency failed")
    sigma = None
    if disc < 0:
        e = 0
        x = -disc
        while x % 5 == 0:
            x //= 5
            e += 1
        if x == 1 and e % 2 == 0:
            sigma = e // 2
    return Overlattice(
        ambient=l,
        basis_scaled=tuple(tuple(r) for r in basis),
        scale=m,
        gram_s=tuple(tuple(r) for r in gram_s),
        index=index,
        disc=disc,
        artin_sigma=sigma,
    )


# ---------------------------------------------------------------------------
# Short vector enumeration
# ---------------------------------------------------------------------------

def _reduced_positive_form(g):
    """`lll_gram` of -g for a negative definite g: (u, u_inv, dets, lam).

    u * (-g) * u^T is LLL-reduced and (dets, lam) are its integral LDL
    data.  The LLL's own Gram-Schmidt pass rejects a g that is not
    negative definite.
    """
    if not is_symmetric(g):
        raise ValueError("Gram matrix must be symmetric")
    try:
        return lll_gram([[-x for x in row] for row in g])
    except ValueError as exc:
        raise IndefiniteLatticeError(
            "enumeration requires a negative definite Gram matrix") from exc


def short_vectors_of_norm(g, n):
    """All integer vectors v with v^T g v = n, for negative definite g.

    Both v and -v appear; the output is sorted lexicographically.
    """
    if not isinstance(n, int) or n >= 0:
        raise ValueError("norm must be a negative integer")
    return coset_vectors_of_norm(g, [0] * len(g), n)


def coset_vectors_of_norm(g, shift, n, den=1):
    """All integer u with (den*u + shift)^T g (den*u + shift) = n, for
    negative definite g.

    `shift` is a rational vector, `n` a rational number and `den` a
    positive integer; with den = 1 this is the coset u + shift of norm n.
    Rationals are read through their numerator and denominator, and the
    search runs over the integers.  The empty list is a legitimate result.
    """
    g = [list(r) for r in g]
    if len(shift) != len(g):
        raise ValueError("shift has wrong length")
    if den < 1:
        raise ValueError("den must be a positive integer")
    u, u_inv, dets, lam = _reduced_positive_form(g)
    # clear the denominators of shift: s * (den*u + shift) has norm s^2 n
    s = lcm(*(x.denominator for x in shift)) if shift else 1
    num = [x.numerator * (s // x.denominator) for x in shift]
    target, r = divmod(-n.numerator * s * s, n.denominator)
    if r or target < 0:
        return []
    found = enumerate_quadratic(dets, lam, target, vec_mat(num, u_inv), s * den)
    out = [tuple(vec_mat(list(w), u)) for w in found]
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Roots orthogonal to a polarization, and the degree-1 elliptic set
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _h_data(s, h_primal):
    """(h_s, gram_s, t, kernel, gram_perp) for the overlattice s and the
    polarization h, as tuples: h in S coordinates, the Gram matrix of S,
    t = gram_s h_s, a basis of h^perp in S and its Gram matrix.  The
    root type and the E set of one overlattice share one computation;
    `h_primal` must be a tuple (the cache key)."""
    gram = s.ambient.gram
    if sum(h_primal[i] * gram[i][j] * h_primal[j]
           for i in range(s.rank) for j in range(s.rank)) != 2:
        raise ValueError("polarization vector must have square 2")
    h_s = s.s_coords_of_primal(h_primal)
    if h_s is None:
        raise ValueError("polarization vector does not lie in the overlattice")
    gram_s = s.gram_s
    t = mat_vec(gram_s, h_s)
    kernel = left_kernel([[x] for x in t])
    gram_perp = mat_mul(mat_mul(kernel, gram_s), transpose(kernel))
    return (tuple(h_s), gram_s, tuple(t), tuple(map(tuple, kernel)),
            tuple(map(tuple, gram_perp)))


def hnf_root_type(roots, gram):
    """ADE type of the root system formed by the integer rows of `roots`,
    paired by `gram` up to a nonzero scale: components by union-find on
    non-orthogonality, each named by its root count and the rank of its
    span from the Hermite normal form."""
    half = [list(r) for r in roots if next(x for x in r if x) > 0]
    rows = np.array(half, dtype=np.int64).reshape(len(half), len(gram))
    pairings = rows @ np.array(gram, dtype=np.int64) @ rows.T
    parent = list(range(len(half)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in np.argwhere(np.triu(pairings, 1)).tolist():
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups = {}
    for i, row in enumerate(half):
        groups.setdefault(find(i), []).append(row)
    comps = []
    for vectors in groups.values():
        ncols = len(vectors[0])
        # fold the rows in, a few at a time, so that each Hermite
        # transform stays small
        basis = []
        for start in range(0, len(vectors), ncols):
            basis = row_basis_hnf(basis + vectors[start:start + ncols], ncols)
        comps.append(RootSystemType.identify_component(len(basis), 2 * len(vectors)))
    return RootSystemType(components=tuple(comps))


def root_type_orthogonal_to(s, h_primal):
    """ADE type of {r in S : r.h = 0, r^2 = -2}."""
    _h_s, _gram_s, _t, _kernel, gram_perp = _h_data(s, tuple(h_primal))
    return hnf_root_type(short_vectors_of_norm(gram_perp, -2), gram_perp)


def e_set(s, h_primal):
    """The finite set {e in S : e.h = 1, e^2 = 0}.

    Vectors are returned in scale-scaled primal coordinates (coordinates
    of scale * e in the ambient basis), sorted lexicographically.  Raises
    DivisibilityError when no vector of S pairs to 1 with h.
    """
    h_s, gram_s, t, kernel, gram_perp = _h_data(s, tuple(h_primal))
    if reduce(gcd, [abs(x) for x in h_s], 0) != 1:
        raise ValueError("polarization vector must be primitive in S")

    # build v1 with v1 . (gram_s h) = 1 by chaining extended gcds
    g_run, v1 = 0, [0] * len(t)
    for i, ti in enumerate(t):
        if ti == 0:
            continue
        g_new, a, b = xgcd(g_run, ti)
        v1 = [a * c for c in v1]
        v1[i] = b
        g_run = g_new
        if g_run == 1:
            break
    if g_run != 1:
        raise DivisibilityError("no vector pairs to 1 with h")

    # e = v1 + w.kernel has e^2 = v1^2 + 2 w.rhs + w gram_perp w^T, and
    # completing the square with shift = rhs gram_perp^{-1} = num / den gives
    # e^2 = 0  <=>  (den w + num) gram_perp (den w + num)^T = den^2 (shift^2 - v1^2)
    rhs = mat_vec(kernel, mat_vec(gram_s, v1))     # v1 gram_s kernel^T, gram_s symmetric
    adj, den = adjugate(gram_perp)
    num = vec_mat(rhs, adj)
    if den < 0:
        num, den = [-x for x in num], -den
    v1_sq = sum(v1[i] * gram_s[i][j] * v1[j]
                for i in range(len(v1)) for j in range(len(v1)))
    # num gram_perp num^T = den (rhs . num)
    n_target = den * sum(a * b for a, b in zip(rhs, num)) - den * den * v1_sq
    ws = coset_vectors_of_norm(gram_perp, num, n_target, den)
    out = []
    for w in ws:
        e_s = [a + b for a, b in zip(v1, vec_mat(list(w), kernel))]
        assert sum(a * b for a, b in zip(e_s, t)) == 1
        assert sum(e_s[i] * gram_s[i][j] * e_s[j]
                   for i in range(len(e_s)) for j in range(len(e_s))) == 0
        out.append(tuple(s.scaled_primal_of_s(e_s)))
    out.sort()
    return out


def lift_to_dual(v):
    """Dual-coordinate lift of [x1..x5 | y]: x_j at the first root of chain j,
    y at h."""
    coords = [0] * RANK
    for j in range(N_CHAINS):
        coords[CHAIN_LEN * j] = int(v[j]) % 5
    coords[H_INDEX] = int(v[5]) % 5
    return coords


def subgroup_overlattice(subgroup):
    """The even overlattice of the model lattice determined by the subgroup."""
    return overlattice_from_generators(
        build_S0(), [lift_to_dual(g) for g in subgroup.gens])


def subgroup_invariants(subgroup):
    """(root type, whether E is empty, disc exponent) of the overlattice of
    the subgroup, by enumeration in the overlattice itself."""
    s = subgroup_overlattice(subgroup)
    if s.artin_sigma is None:
        raise ArithmeticError(f"discriminant {s.disc} is not -5^(2 sigma)")
    rt = root_type_orthogonal_to(s, H_PRIMAL)
    es = e_set(s, H_PRIMAL)
    return str(rt), len(es) == 0, 2 * s.artin_sigma
