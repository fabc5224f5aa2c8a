"""Even integer lattices: Gram matrices, discriminant groups, overlattices,
and exact enumeration of vectors of prescribed norm.

Conventions
-----------
* A lattice is presented by its Gram matrix in a fixed labeled basis
  ("primal coordinates").
* Vectors of the dual lattice are written in the dual basis ("dual
  coordinates", integer vectors); primal coordinates of a dual vector are
  rational with denominators dividing the exponent of the discriminant
  group.
* An overlattice S of L stores an integer matrix whose rows are the
  coordinates of m * (basis of S) in the primal basis of L, where m is the
  exponent of the discriminant group of L (m = 5 for the lattices this
  package ships).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, isqrt, lcm, prod

import numpy as np

from . import intmat
from .intmat import (
    adjugate,
    det_bareiss,
    enumerate_quadratic,
    fraction_inverse,
    is_symmetric,
    left_kernel,
    lll_gram,
    mat_mul,
    mat_vec,
    row_basis_hnf,
    signature_symmetric,
    smith_normal_form,
    solve_left,
    transpose,
    xgcd,
)


class DegenerateLatticeError(ValueError):
    """The Gram matrix is singular."""


class IndefiniteLatticeError(ValueError):
    """A definite Gram matrix was required."""


class EvennessViolation(ValueError):
    """A generator set is not totally isotropic (odd or fractional norms)."""


class DivisibilityError(ValueError):
    """No lattice vector pairs to 1 with the given polarization vector."""


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramLattice:
    """An even integer lattice given by a symmetric Gram matrix."""

    gram: tuple
    labels: tuple

    def __post_init__(self):
        import operator

        gram = tuple(tuple(operator.index(x) for x in row) for row in self.gram)
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "labels", labels)
        n = len(gram)
        if len(labels) != n:
            raise ValueError("labels must match the rank")
        if not is_symmetric([list(r) for r in gram]):
            raise ValueError("Gram matrix must be symmetric")
        if any(gram[i][i] % 2 for i in range(n)):
            raise ValueError("lattice is not even")
        det = det_bareiss([list(r) for r in gram])
        if det == 0:
            raise DegenerateLatticeError("Gram matrix is singular")
        object.__setattr__(self, "_det", det)

    @property
    def rank(self):
        return len(self.gram)

    def det(self):
        return self._det

    def signature(self):
        return signature_symmetric([list(r) for r in self.gram])

    def to_json_dict(self):
        return {"labels": list(self.labels), "gram": [list(r) for r in self.gram]}

    @classmethod
    def from_json_dict(cls, data):
        return cls(gram=tuple(tuple(r) for r in data["gram"]),
                   labels=tuple(data["labels"]))


@dataclass(frozen=True)
class RootSystemType:
    """A multiset of ADE components, e.g. 5A4 or E8+3A4."""

    components: tuple    # tuple of (letter, rank), sorted

    def __post_init__(self):
        comps = tuple(sorted((str(l), int(r)) for l, r in self.components))
        for letter, rank in comps:
            if letter not in ("A", "D", "E") or rank < 1:
                raise ValueError(f"invalid component {letter}{rank}")
            if letter == "D" and rank < 4:
                raise ValueError("D components start at rank 4 (D3 = A3)")
            if letter == "E" and rank not in (6, 7, 8):
                raise ValueError("E components are E6, E7, E8")
        object.__setattr__(self, "components", comps)

    @property
    def total_rank(self):
        return sum(r for _, r in self.components)

    @staticmethod
    def identify_component(rank, count):
        """ADE symbol from (rank of span, number of roots).

        A_n has n^2+n roots, D_n has 2n(n-1), E6/E7/E8 have 72/126/240.
        A3 and D3 coincide and are reported as A3.
        """
        if count == rank * rank + rank:
            return ("A", rank)
        if rank >= 4 and count == 2 * rank * (rank - 1):
            return ("D", rank)
        e_table = {(6, 72): ("E", 6), (7, 126): ("E", 7), (8, 240): ("E", 8)}
        if (rank, count) in e_table:
            return e_table[(rank, count)]
        raise ValueError(f"no ADE system has rank {rank} with {count} roots")

    def __str__(self):
        if not self.components:
            return "(empty)"
        counts = {}
        for comp in self.components:
            counts[comp] = counts.get(comp, 0) + 1
        parts = []
        for (letter, rank), mult in sorted(
                counts.items(), key=lambda kv: (-kv[0][1], kv[0][0])):
            prefix = str(mult) if mult > 1 else ""
            parts.append(f"{prefix}{letter}{rank}")
        return "+".join(parts)


@dataclass(frozen=True)
class DiscriminantGroup:
    """Finite quotient L^vee / L with a projection map for dual vectors."""

    invariant_factors: tuple    # the nontrivial ones, ascending divisibility
    order: int
    _u: tuple                   # row transform of the SNF of the Gram matrix
    _diag: tuple                # all SNF diagonal entries

    def project(self, dual_coords):
        """Class of a dual-coordinate vector, as residues per invariant factor."""
        n = len(self._diag)
        if len(dual_coords) != n:
            raise ValueError("coordinate vector has wrong length")
        img = [sum(self._u[i][j] * dual_coords[j] for j in range(n))
               for i in range(n)]
        return tuple(img[i] % self._diag[i]
                     for i in range(n) if self._diag[i] != 1)


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

    def to_json_dict(self):
        data = self.ambient.to_json_dict()
        data["basis5"] = [list(r) for r in self.basis_scaled]
        data["disc"] = self.disc
        data["sigma"] = self.artin_sigma
        return data


# ---------------------------------------------------------------------------
# Discriminant machinery
# ---------------------------------------------------------------------------

def _gram_of(l):
    if isinstance(l, GramLattice):
        return [list(r) for r in l.gram]
    return [list(r) for r in l]


def discriminant_group(l):
    """Invariant factors and projection map of L^vee / L."""
    gram = _gram_of(l)
    det = det_bareiss(gram)
    if det == 0:
        raise DegenerateLatticeError("Gram matrix is singular")
    d, u, _v = smith_normal_form(gram)
    diag = tuple(d[i][i] for i in range(len(gram)))
    facs = tuple(x for x in diag if x != 1)
    return DiscriminantGroup(
        invariant_factors=facs,
        order=abs(det),
        _u=tuple(tuple(r) for r in u),
        _diag=diag,
    )


@lru_cache(maxsize=16)
def dual_data(gram):
    """(discriminant group, exponent m, m * gram^{-1}) of a Gram matrix.

    `gram` is a tuple of row tuples, the cache key.  m * gram^{-1} is an
    integer matrix (tuple of tuples) taken from the Bareiss adjugate; it
    maps dual coordinates to m times primal coordinates.  Computed once
    per Gram matrix, on first use.
    """
    dg = discriminant_group(gram)
    m = dg.invariant_factors[-1] if dg.invariant_factors else 1
    adj, det = adjugate([list(r) for r in gram])
    if any(m * x % det for row in adj for x in row):
        raise ValueError("exponent does not clear the dual denominators")
    return dg, m, tuple(tuple(m * x // det for x in row) for row in adj)


def overlattice_from_generators(l, gens):
    """Even overlattice generated over L by dual vectors.

    `gens` are integer vectors in dual coordinates.  Their classes must
    span a totally isotropic subgroup of the discriminant form: every
    element of the generated subgroup must have an even integral norm.
    Raises EvennessViolation otherwise.
    """
    if not isinstance(l, GramLattice):
        l = GramLattice(gram=tuple(tuple(r) for r in l),
                        labels=tuple(f"b{i}" for i in range(len(l))))
    n = l.rank
    gram = [list(r) for r in l.gram]
    dg, m, scaled_dual = dual_data(l.gram)

    gens = [list(g) for g in gens]
    for g in gens:
        if len(g) != n or any(not isinstance(x, int) for x in g):
            raise ValueError("generators must be integer dual-coordinate vectors")

    # close the generated subgroup and check q = 0 mod 2Z on every element
    seen = {dg.project([0] * n): [0] * n}
    frontier = [[0] * n]
    while frontier:
        new_frontier = []
        for base in frontier:
            for g in gens:
                cand = [a + b for a, b in zip(base, g)]
                key = dg.project(cand)
                if key not in seen:
                    seen[key] = cand
                    new_frontier.append(cand)
        frontier = new_frontier
    # norm(lift) = lift . gram^{-1} . lift lies in 2Z iff m * norm lies in 2mZ
    for lift in seen.values():
        support = [(i, x) for i, x in enumerate(lift) if x]
        scaled_norm = sum(x * y * scaled_dual[i][j]
                          for i, x in support for j, y in support)
        if scaled_norm % (2 * m):
            raise EvennessViolation(
                f"subgroup element with norm {scaled_norm}/{m} is not even integral")

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
    found = enumerate_quadratic(dets, lam, target, intmat.vec_mat(num, u_inv), s * den)
    out = [tuple(intmat.vec_mat(list(w), u)) for w in found]
    out.sort()
    return out


def short_vectors_box(g, n):
    """Reference enumeration by exhaustive box search (no pruning).

    Independent of the Fincke-Pohst path: coordinate bounds come from the
    diagonal of the inverse form (Cauchy-Schwarz in the dual), and every
    candidate in the box is checked by direct evaluation of v^T g v, exact
    in int64, one slice of the box per value of the first coordinate.
    Every such |v^T g v| is at most max|g| * (sum of the bounds)^2; a box
    where that could exceed 2^62 raises ValueError.  Intended for small
    ranks; used as the test oracle.
    """
    g = [list(r) for r in g]
    _reduced_positive_form(g)     # refuses a g that is not negative definite
    a = [[-x for x in row] for row in g]
    t = -n
    ainv = fraction_inverse(a)
    bounds = []
    for i in range(len(a)):
        val = Fraction(t) * ainv[i][i]
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


def root_type_orthogonal_to(s, h_primal):
    """ADE type of {r in S : r.h = 0, r^2 = -2}."""
    _h_s, _gram_s, _t, _kernel, gram_perp = _h_data(s, tuple(h_primal))
    roots_w = short_vectors_of_norm(gram_perp, -2)
    if not roots_w:
        return RootSystemType(components=())
    rmat = np.array(roots_w, dtype=np.int64)
    pairings = rmat @ np.array(gram_perp, dtype=np.int64) @ rmat.T
    nroots = len(roots_w)
    parent = list(range(nroots))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(nroots):
        for j in range(i + 1, nroots):
            if pairings[i, j] != 0:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(nroots):
        groups.setdefault(find(i), []).append(i)
    comps = []
    for members in groups.values():
        vectors = [list(roots_w[i]) for i in members]
        rank = len(row_basis_hnf(vectors, len(vectors[0])))
        comps.append(RootSystemType.identify_component(rank, len(members)))
    return RootSystemType(components=tuple(comps))


def e_set(s, h_primal, v1_primal=None):
    """The finite set {e in S : e.h = 1, e^2 = 0}.

    Vectors are returned in scale-scaled primal coordinates (coordinates
    of scale * e in the ambient basis), sorted lexicographically.  Raises
    DivisibilityError when no vector of S pairs to 1 with h.
    """
    h_s, gram_s, t, kernel, gram_perp = _h_data(s, tuple(h_primal))
    if reduce(gcd, [abs(x) for x in h_s], 0) != 1:
        raise ValueError("polarization vector must be primitive in S")

    if v1_primal is not None:
        v1 = s.s_coords_of_primal(list(v1_primal))
        if v1 is None:
            raise ValueError("v1 does not lie in the overlattice")
        if sum(a * b for a, b in zip(v1, t)) != 1:
            raise ValueError("v1 must satisfy v1.h = 1")
    else:
        # build v1 with v1 . (gram_s h) = 1 by chaining extended gcds
        g_run, coeffs = 0, [0] * len(t)
        for i, ti in enumerate(t):
            if ti == 0:
                continue
            g_new, a, b = xgcd(g_run, ti)
            coeffs = [a * c for c in coeffs]
            coeffs[i] = b
            g_run = g_new
            if g_run == 1:
                break
        if g_run != 1:
            raise DivisibilityError("no vector pairs to 1 with h")
        v1 = coeffs

    # e = v1 + w.kernel has e^2 = v1^2 + 2 w.rhs + w gram_perp w^T, and
    # completing the square with shift = rhs gram_perp^{-1} = num / den gives
    # e^2 = 0  <=>  (den w + num) gram_perp (den w + num)^T = den^2 (shift^2 - v1^2)
    rhs = intmat.vec_mat(v1, mat_mul(gram_s, transpose(kernel)))
    adj, den = adjugate(gram_perp)
    num = intmat.vec_mat(rhs, adj)
    if den < 0:
        num, den = [-x for x in num], -den
    v1_sq = sum(v1[i] * gram_s[i][j] * v1[j]
                for i in range(len(v1)) for j in range(len(v1)))
    # num gram_perp num^T = den (rhs . num)
    n_target = den * sum(a * b for a, b in zip(rhs, num)) - den * den * v1_sq
    ws = coset_vectors_of_norm(gram_perp, num, n_target, den)
    out = []
    for w in ws:
        e_s = [a + b for a, b in zip(v1, intmat.vec_mat(list(w), kernel))]
        assert sum(a * b for a, b in zip(e_s, t)) == 1
        assert sum(e_s[i] * gram_s[i][j] * e_s[j]
                   for i in range(len(e_s)) for j in range(len(e_s))) == 0
        out.append(tuple(s.scaled_primal_of_s(e_s)))
    out.sort()
    return out
