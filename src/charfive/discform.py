"""The rank-22 model lattice (five A4 chains plus a hyperbolic-like pair)
and the classification of its even overlattices.

The discriminant group G of the model lattice is F5^6.  Elements are
written [x1,...,x5 | y] in the reference basis (the classes of the first
dual root of each chain, plus the class of the dual of h); the quadratic
form is

    q([x|y]) = -(4/5)(x1^2 + ... + x5^2) + (2/5) y^2   mod 2Z.

q-values are encoded as integers mod 10 (value n means n/5 mod 2Z) and
bilinear values as integers mod 5 (n means n/5 mod Z).  That the encoded
formula agrees with the discriminant form computed from the Gram matrix
from first principles is checked by `verify_q_consistency`, which scans
all 15625 elements.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import index

import numpy as np

from .intmat import adjugate, det_bareiss
from .lattice import GramLattice, RootSystemType, dual_data

RANK = 22
N_CHAINS = 5
CHAIN_LEN = 4
H_INDEX = 20
L_INDEX = 21

#: primal coordinates of the degree-2 polarization vector h
H_PRIMAL = tuple(1 if i == H_INDEX else 0 for i in range(RANK))

#: (a, b, y)-types whose overlattices keep the 5A4 root system and an
#: empty degree-1 elliptic set; y is normalized to {0, 1, 2} (y ~ -y).
#: Cross-validated against the computed table by the acceptance suite.
STARRED_TYPES = frozenset({
    (0, 0, 0), (0, 3, 2), (0, 5, 0), (1, 3, 1), (1, 4, 2),
    (2, 2, 0), (3, 0, 1), (3, 1, 2), (4, 1, 1), (5, 0, 0),
})

#: generator sets of the nine reference orbit representatives
REFERENCE_SUBGROUPS = {
    "H_0": (),
    "H_1": ((0, 0, 2, 2, 2, 2),),
    "H_2": ((2, 2, 2, 2, 2, 0),),
    "H_3": ((0, 1, 2, 2, 2, 1),),
    "H_4": ((1, 2, 2, 2, 2, 2),),
    "H_5": ((0, 1, 1, 2, 2, 0),),
    "H_6": ((1, 0, 1, 2, 2, 0), (0, 1, 2, 1, 3, 0)),
    "H_7": ((1, 0, 0, 1, 1, 1), (0, 1, 1, 1, 3, 3)),
    "H_8": ((1, 0, 1, 1, 2, 2), (0, 1, 1, 3, 3, 0)),
}


# ---------------------------------------------------------------------------
# The model lattice
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def build_S0():
    """Gram matrix of the rank-22 lattice: five negative A4 chains plus the
    rank-2 block [[2,1],[1,-2]], with labeled basis."""
    gram = [[0] * RANK for _ in range(RANK)]
    labels = []
    for j in range(N_CHAINS):
        base = CHAIN_LEN * j
        for i in range(CHAIN_LEN):
            gram[base + i][base + i] = -2
            if i + 1 < CHAIN_LEN:
                gram[base + i][base + i + 1] = 1
                gram[base + i + 1][base + i] = 1
            labels.append(f"e_{i + 1}^({j + 1})")
    gram[H_INDEX][H_INDEX] = 2
    gram[H_INDEX][L_INDEX] = 1
    gram[L_INDEX][H_INDEX] = 1
    gram[L_INDEX][L_INDEX] = -2
    labels += ["h", "l"]
    return GramLattice(gram=tuple(tuple(r) for r in gram), labels=tuple(labels))


def lift_to_dual(v):
    """Dual-coordinate lift of [x1..x5 | y]: x_j at the first root of chain j,
    y at h."""
    coords = [0] * RANK
    for j in range(N_CHAINS):
        coords[CHAIN_LEN * j] = int(v[j]) % 5
    coords[H_INDEX] = int(v[5]) % 5
    return coords


# ---------------------------------------------------------------------------
# The discriminant form in the reference basis
# ---------------------------------------------------------------------------

def g_add(v, w):
    return tuple((a + b) % 5 for a, b in zip(v, w))


def g_scale(c, v):
    return tuple((c * a) % 5 for a in v)


def q_value(v):
    """q(v) encoded as an integer mod 10; value n means n/5 mod 2Z."""
    xs = v[:5]
    y = v[5]
    return (6 * sum(x * x for x in xs) + 2 * y * y) % 10


def b_value(v, w):
    """b(v, w) = (q(v+w) - q(v) - q(w))/2, encoded mod 5 (n means n/5 mod Z)."""
    return (sum(a * b for a, b in zip(v[:5], w[:5])) + 2 * v[5] * w[5]) % 5


def y_normalized(y):
    y = y % 5
    return y if y <= 2 else 5 - y


@dataclass(frozen=True)
class DeltaType:
    a: int
    b: int
    y: int
    starred: bool


def delta(v):
    """(a, b, y)-type: a counts coordinates in {1,4}, b counts {2,3}."""
    a = sum(1 for x in v[:5] if x % 5 in (1, 4))
    b = sum(1 for x in v[:5] if x % 5 in (2, 3))
    y = v[5] % 5
    return DeltaType(a=a, b=b, y=y, starred=(a, b, y_normalized(y)) in STARRED_TYPES)


# ---------------------------------------------------------------------------
# Isotropic subgroups
# ---------------------------------------------------------------------------

def _residue(x):
    """x mod 5 for an integer x; a bool, float or string raises TypeError."""
    if isinstance(x, bool) or not hasattr(x, "__index__"):
        raise TypeError(f"generator coordinate {x!r} is not an integer")
    return index(x) % 5


@dataclass(frozen=True)
class IsotropicSubgroup:
    """A totally isotropic subgroup of (G, q), given by independent generators."""

    gens: tuple

    def __post_init__(self):
        gens = tuple(tuple(_residue(x) for x in g) for g in self.gens)
        object.__setattr__(self, "gens", gens)
        if any(len(g) != 6 for g in gens):
            raise ValueError("generators must have six coordinates")
        # more than six vectors of F5^6 are never independent
        if len(gens) > 6:
            raise ValueError("generators are not independent")
        bad = [v for v in self.elements() if q_value(v) != 0]
        if bad:
            raise ValueError(f"subgroup is not totally isotropic at {bad[0]}")

    @property
    def dim(self):
        return len(self.gens)

    def elements(self):
        elems = {(0,) * 6}
        for g in self.gens:
            # stop at the first generator already in the span of the others
            if g in elems:
                raise ValueError("generators are not independent")
            elems = {g_add(v, g_scale(c, g)) for v in elems for c in range(5)}
        return tuple(sorted(elems))


def condition_II(subgroup):
    """True iff every element (including 0) has a starred (a,b,y)-type."""
    return all(delta(v).starred for v in subgroup.elements())


# ---------------------------------------------------------------------------
# Vectorized element tables
# ---------------------------------------------------------------------------

_POW = np.array([1, 5, 25, 125, 625, 3125], dtype=np.int64)


def decode(e):
    out = []
    for _ in range(6):
        out.append(int(e % 5))
        e //= 5
    return tuple(out)


@lru_cache(maxsize=1)
def _tables():
    enc = np.arange(5 ** 6, dtype=np.int64)
    digits = np.stack([(enc // int(_POW[i])) % 5 for i in range(6)], axis=1)
    xs = digits[:, :5]
    ys = digits[:, 5]
    qenc = (6 * (xs * xs).sum(axis=1) + 2 * ys * ys) % 10
    a_cnt = np.isin(xs, (1, 4)).sum(axis=1)
    b_cnt = np.isin(xs, (2, 3)).sum(axis=1)
    yn = np.minimum(ys, 5 - ys) % 5
    star_arr = np.zeros((6, 6, 3), dtype=bool)
    for (a, b, y) in STARRED_TYPES:
        star_arr[a, b, y] = True
    starred = star_arr[a_cnt, b_cnt, yn]
    return {
        "digits": digits, "q": qenc, "a": a_cnt, "b": b_cnt, "yn": yn,
        "starred": starred, "iso": qenc == 0,
    }


@lru_cache(maxsize=1)
def _aut_arrays():
    """The symmetry group {+-1}^5 x| S5 of the fundamental system, 3840
    elements in a fixed order, as (perms, signs), two (3840, 5) int16
    arrays: element g maps [x|y] to x'_i = signs[g, i] x[perms[g, i]]
    mod 5, with the sign -1 stored as 4, and fixes y."""
    perms = np.array(list(itertools.permutations(range(5))), dtype=np.int16)
    signs = np.array(list(itertools.product((1, 4), repeat=5)), dtype=np.int16)
    return np.tile(perms, (len(signs), 1)), np.repeat(signs, len(perms), axis=0)


def _orbit_images(elem_digits):
    """Encodings of g(M) for every group element g: shape (3840, m), rows sorted.

    `elem_digits` is an (m, 6) integer array of [x1..x5, y] rows.  The
    arithmetic runs in int16, which holds every encoding (below 5^6).
    """
    perms, signs = _aut_arrays()
    digits = elem_digits.astype(np.int16)
    moved = (digits[:, :5][:, perms] * signs) % 5          # (m, 3840, 5)
    enc = moved @ _POW[:5].astype(np.int16) + digits[:, 5:] * 3125
    return np.sort(enc.T, axis=1).astype(np.int64)


def _keys(images):
    """The key of each row of sorted element encodings, such as a row of
    an `_orbit_images` array: the row as uint16 bytes, which hold every
    encoding (below 5^6 < 2^16)."""
    rows = np.ascontiguousarray(images, dtype=np.uint16)
    return rows.view(np.dtype((np.void, 2 * rows.shape[1]))).ravel().tolist()


def _min_row(images):
    """The lexicographically smallest row of an `_orbit_images` array, as
    bytes: the key of the orbit."""
    return images[np.lexsort(images.T[::-1])[0]].tobytes()


def canonical_key(subgroup):
    """Orbit-invariant key: the minimum over the symmetry group of the sorted
    element list of the image subgroup, serialized to bytes."""
    return _min_row(_orbit_images(np.array(subgroup.elements(), dtype=np.int64)))


@lru_cache(maxsize=1)
def reference_orbits():
    """Key (see `_keys`) -> label of every subgroup in the orbits of
    H_0..H_8."""
    orbits = {}
    for label, gens in REFERENCE_SUBGROUPS.items():
        elems = np.array(IsotropicSubgroup(gens=gens).elements(), dtype=np.int64)
        orbits.update(dict.fromkeys(_keys(_orbit_images(elems)), label))
    return orbits


def reference_orbit(subgroup):
    """The label of the reference orbit holding the subgroup, or None."""
    elems = np.sort(np.array(subgroup.elements(), dtype=np.int64) @ _POW)
    return reference_orbits().get(_keys(elems[None])[0])


# ---------------------------------------------------------------------------
# Orbit candidates: admissible subgroups through one line per type
# ---------------------------------------------------------------------------

def _type_representatives():
    """{(a, b, y normalized): smallest isotropic encoding of that type}."""
    t = _tables()
    classes = {}
    for e in np.nonzero(t["iso"])[0]:        # ascending, so the first is smallest
        e = int(e)
        classes.setdefault((int(t["a"][e]), int(t["b"][e]), int(t["yn"][e])), e)
    return classes


def _orbit_candidates():
    """Admissible subgroups meeting every orbit, as (gens, elems) pairs:
    the generators as tuples and the sorted int64 array of the element
    encodings.

    A nonzero admissible subgroup holds some u != 0.  The symmetry group
    fixes y and moves the x-part of u onto that of any vector of the same
    (a, b) counts, so it carries u or -u onto the representative v of the
    type of u.  Every orbit therefore meets the zero subgroup, a starred
    line <v>, or a plane <v, w> with w admissible and b(v, w) = 0; the
    dimension bound rules out anything larger.
    """
    t = _tables()
    digits = t["digits"]
    admissible = t["iso"] & t["starred"]
    ws = np.nonzero(admissible)[0]
    weights = digits[ws].copy()
    weights[:, 5] = (2 * weights[:, 5]) % 5
    ca, cb = np.divmod(np.arange(25), 5)        # the 25 coefficient pairs
    yield (), np.zeros(1, dtype=np.int64)
    for key, v in sorted(_type_representatives().items()):
        if v == 0 or key not in STARRED_TYPES:
            continue
        line = np.sort((np.arange(5)[:, None] * digits[v]) % 5 @ _POW)
        yield (decode(v),), line
        w = ws[((weights @ digits[v]) % 5 == 0) & ~np.isin(ws, line)]
        elems = (ca[:, None] * digits[v] + cb[:, None] * digits[w][:, None]) % 5
        planes = np.sort(elems @ _POW, axis=1)
        keep = admissible[planes].all(axis=1)
        planes, first = np.unique(planes[keep], axis=0, return_index=True)
        for plane, w_e in zip(planes, w[keep][first]):
            yield (decode(v), decode(int(w_e))), plane


def _witt_index(gram, p=5):
    """Witt index (the dimension of a maximal totally isotropic subspace) of
    the nondegenerate symmetric form `gram` over F_p, p odd: (n-1)/2 in odd
    dimension n; in dimension 2m, m when (-1)^m det is a square mod p and
    m-1 otherwise (Serre, A Course in Arithmetic, ch. IV)."""
    n, det = len(gram), det_bareiss(gram) % p
    if det == 0:
        raise ArithmeticError("the form is degenerate")
    if n % 2:
        return (n - 1) // 2
    m = n // 2
    # Euler's criterion: a unit is a square mod p iff its (p-1)/2 power is 1
    return m if pow((-1) ** m * det, (p - 1) // 2, p) == 1 else m - 1


def max_isotropic_dimension():
    """Largest F5-dimension of a totally isotropic subgroup of (G, q).

    q(v) = 0 iff b(v, v) = 0, so these subgroups are the totally isotropic
    subspaces of b, and the answer is the Witt index of the Gram matrix of
    b on the reference basis: det = 2 and -2 is not a square mod 5, so it
    is 2.
    """
    units = [decode(5 ** i) for i in range(6)]
    return _witt_index([[b_value(u, v) for v in units] for u in units])


# ---------------------------------------------------------------------------
# Overlattice invariants from one root catalogue
# ---------------------------------------------------------------------------

#: the orthogonal summands of h^perp in S0^vee, as dual-coordinate indices:
#: the five chains, and l (a vector of h^perp has no h^vee part)
_SUMMANDS = tuple(list(range(CHAIN_LEN * j, CHAIN_LEN * (j + 1)))
                  for j in range(N_CHAINS)) + ([L_INDEX],)


def _n5():
    """5 * gram^{-1} of the model lattice as an int64 array: d n5 d^T is
    5 times the norm of a dual-coordinate vector d."""
    return np.array(dual_data(build_S0().gram)[1], dtype=np.int64)


@lru_cache(maxsize=1)
def _short_summand_vectors():
    """Per summand of h^perp in S0^vee, its vectors of norm >= -2: pairs
    (dual coordinates as an (n, 22) int8 array, 5 * norms as an (n,) array).

    The dual coordinates of a chain vector v are its pairings v.e_i with
    the chain's roots, and |v.e_i| <= sqrt(v^2 e_i^2) <= 2 by
    Cauchy-Schwarz on the definite chain, so the box [-2, 2]^4 holds them
    all: per chain 1 of norm 0, 20 roots, and 10 + 20 glue vectors of
    norms -4/5 and -6/5 (Conway-Sloane, SPLAG ch. 4).  On l the vector
    j l^vee has norm -2 j^2 / 5, so |j| <= 2.
    """
    n5 = _n5()
    tables = []
    for idx in _SUMMANDS:
        box = np.array(list(itertools.product(range(-2, 3), repeat=len(idx))),
                       dtype=np.int64)
        norms = np.einsum("ij,jk,ik->i", box, n5[np.ix_(idx, idx)], box)
        keep = norms >= -10
        vecs = np.zeros((int(keep.sum()), RANK), dtype=np.int8)
        vecs[:, idx] = box[keep]
        tables.append((vecs, norms[keep]))
    return tables


@lru_cache(maxsize=1)
def _root_catalogue():
    """The norm -2 vectors of h^perp in S0^vee: (dual coordinates as a
    (6100, 22) int8 array, their class encodings in G as a (6100,) array).

    Every even overlattice S_H lies in S0^vee as the vectors whose class
    lies in H (Nikulin 1979, Prop. 1.4.1), so its roots orthogonal to h
    are the entries whose class lies in H.  Norms add over the orthogonal
    summands and none is positive, so each part of an entry has norm
    >= -2 and comes from `_short_summand_vectors`.  Each entry is checked
    to have norm -2 and to be orthogonal to h.
    """
    tables = _short_summand_vectors()
    picks = np.zeros((1, 0), dtype=np.int64)    # table rows of each partial sum
    norms = np.zeros(1, dtype=np.int64)
    for _vecs, part in tables:
        total = norms[:, None] + part[None, :]
        rows, cols = np.nonzero(total >= -10)
        picks = np.column_stack([picks[rows], cols])
        norms = total[rows, cols]
    picks = picks[norms == -10]
    # the parts have disjoint supports and entries in [-2, 2]
    vectors = sum(vecs[picks[:, s]] for s, (vecs, _part) in enumerate(tables))
    wide = vectors.astype(np.int64)
    n5 = _n5()
    gram_h = np.array(build_S0().gram, dtype=np.int64) @ np.array(H_PRIMAL)
    if not ((np.einsum("ij,jk,ik->i", wide, n5, wide) == -10).all()
            and not (wide @ n5 @ gram_h).any()):
        raise ArithmeticError("a catalogue entry is not a root orthogonal to h")
    classes = _dual_classes()
    if classes is None:
        raise ArithmeticError("the reference classes are not a basis of G")
    return vectors, (wide @ classes % 5) @ _POW


def root_type_orthogonal_to_h(subgroup):
    """ADE type of {r in S_H : r.h = 0, r^2 = -2} for the overlattice S_H
    of the subgroup H: the catalogue entries whose class lies in H."""
    vectors, classes = _root_catalogue()
    member = np.zeros(5 ** 6, dtype=bool)
    member[np.array(subgroup.elements(), dtype=np.int64) @ _POW] = True
    roots = vectors[member[classes]]
    return RootSystemType.of_roots(roots, _n5())


def e_splittings():
    """The ways (j, 5 a^2) to write a vector of E = {e : e.h = 1, e^2 = 0}
    in S0^vee as e = a + b, with a in the chains' duals and
    b = h^vee + j l^vee.  The list is empty, so E is empty for every
    overlattice S_H, all of which lie in S0^vee.

    e^2 = a^2 + b^2 with a^2 <= 0, and 5 b^2 = 2 (1 + j - j^2) is negative
    unless j is 0 or 1, where it is 2.  So a^2 >= -2/5, every chain part
    of a lies in `_short_summand_vectors`, and 5 a^2 is a sum of their
    5 * norms.
    """
    sums = {0}
    for _vecs, part in _short_summand_vectors()[:N_CHAINS]:
        sums = {s + p for s in sums for p in set(part.tolist()) if s + p >= -10}
    n5 = _n5()
    out = []
    for j in range(-2, 3):
        b = np.zeros(RANK, dtype=np.int64)
        b[H_INDEX], b[L_INDEX] = 1, j
        b5 = int(b @ n5 @ b)
        if -b5 in sums:
            out.append((j, -b5))
    return out


def _subgroup_invariants(subgroup):
    """(root type, whether E is empty, disc exponent) of the overlattice
    S_H of the subgroup H.  [S_H : S0] = |H|, so |disc S_H| = 5^6 / |H|^2
    and disc S_H = -5^(6 - 2 dim H)."""
    return (str(root_type_orthogonal_to_h(subgroup)), not e_splittings(),
            6 - 2 * subgroup.dim)


@dataclass(frozen=True)
class ClassifiedOrbit:
    label: str
    gens: tuple
    dim: int
    disc_exp: int
    sigma: int
    root_type: str
    e_empty: bool

    def to_json_dict(self):
        return {
            "label": self.label,
            "gens": [list(g) for g in self.gens],
            "dim": self.dim,
            "disc_exp": self.disc_exp,
            "sigma": self.sigma,
            "root_type": self.root_type,
            "E_empty": self.e_empty,
        }


def classify_isotropic_subgroups():
    """Orbit representatives of the admissible isotropic subgroups.

    Walks `_orbit_candidates()` and looks each one up in
    `reference_orbits()`: the first candidate met in the orbit of H_i is
    validated as an `IsotropicSubgroup` and stands for that orbit with
    the label and generator set of H_i.  A candidate in no reference
    orbit opens an "unmatched" orbit, swept out whole with
    `_orbit_images` so that its other members are skipped.
    """
    digits = _tables()["digits"]
    orbits = reference_orbits()
    met, unmatched = set(), set()
    work = []
    for gens, elems in _orbit_candidates():
        [key] = _keys(elems[None])
        label = orbits.get(key)
        if label in met or key in unmatched:
            continue
        sub = IsotropicSubgroup(gens=gens)      # validates the representative
        if label is None:
            unmatched.update(_keys(_orbit_images(digits[elems])))
        else:
            met.add(label)
            sub = IsotropicSubgroup(gens=REFERENCE_SUBGROUPS[label])
        work.append((label, sub))
    # after the sweep, so that the catalogue is not resident while the
    # orbit images take their peak memory
    records = []
    for label, sub in work:
        rt, e_empty, disc_exp = _subgroup_invariants(sub)
        records.append(ClassifiedOrbit(
            label=label if label is not None else "unmatched",
            gens=sub.gens,
            dim=sub.dim,
            disc_exp=disc_exp,
            sigma=disc_exp // 2,
            root_type=rt,
            e_empty=e_empty,
        ))
    records.sort(key=lambda r: (r.dim, r.label))
    return records


# ---------------------------------------------------------------------------
# The isotropy table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsotropyRow:
    a: int
    b: int
    y: int                 # normalized to {0, 1, 2}
    plus_minus: bool       # both y and -y occur (y != 0)
    starred: bool
    representative: tuple
    disc_exp: int
    root_type: str
    e_empty: bool

    @property
    def type_label(self):
        y = f"±{self.y}" if self.plus_minus else f"{self.y}"
        return f"({self.a},{self.b},{y})"

    def to_json_dict(self):
        return {
            "type": [self.a, self.b, self.y],
            "pm": self.plus_minus,
            "starred": self.starred,
            "rep": list(self.representative),
            "disc_exp": self.disc_exp,
            "root_type": self.root_type,
            "E_empty": self.e_empty,
        }


def isotropic_table():
    """One row per (a, b, +-y)-class of isotropic vectors, with the
    invariants of the overlattice of one representative."""
    rows = []
    for (a, b, yn), e in sorted(_type_representatives().items()):
        rep = decode(e)
        rt, e_empty, disc_exp = _subgroup_invariants(
            IsotropicSubgroup(gens=(rep,) if e else ()))
        rows.append(IsotropyRow(
            a=a, b=b, y=yn,
            plus_minus=(yn != 0),
            starred=(a, b, yn) in STARRED_TYPES,
            representative=rep,
            disc_exp=disc_exp,
            root_type=rt,
            e_empty=e_empty,
        ))
    return rows


# ---------------------------------------------------------------------------
# Consistency of the encoded form with the built lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QConsistencyReport:
    passed: bool
    exponent: int              # of L^vee / L
    order: int                 # |L^vee / L| = |det|
    basis_is_isomorphism: bool
    n_checked: int
    mismatches: tuple          # encodings where formula and lattice disagree
    expansions: dict           # selected dual vectors in the reference basis


def _reference_lifts():
    """Dual-coordinate lifts of the reference basis of G, a (6, 22) array."""
    return np.array([lift_to_dual(decode(5 ** i)) for i in range(6)], dtype=np.int64)


@lru_cache(maxsize=1)
def _dual_classes():
    """Classes of the 22 dual basis vectors in the reference basis, as a
    (22, 6) int64 array, or None when the reference classes are not a
    basis of G.  The class of a dual-coordinate vector d is
    d @ _dual_classes() mod 5.

    With N = 5 gram^{-1} and R the reference lifts, d N R^T / 5 mod 1 are
    the discriminant pairings of d with the reference classes, and
    B = R N R^T mod 5 is 5 times their own pairing matrix.  The pairing
    is nondegenerate (Nikulin 1979, sec. 1.3), so six classes of G = F5^6
    are a basis iff det B is a unit mod 5; then the class of d has
    coordinates c with c B = d N R^T mod 5, that is c = d N R^T B^{-1}.
    """
    lifts = _reference_lifts()
    n_rt = _n5() @ lifts.T                                  # (22, 6)
    b = (lifts @ n_rt % 5).tolist()
    det = det_bareiss(b)
    if det % 5 == 0:
        return None
    b_inv = np.array(adjugate(b)[0], dtype=np.int64) * pow(det, -1, 5)
    return n_rt @ b_inv % 5


def verify_q_consistency():
    """Recompute the discriminant form of the built lattice from first
    principles and compare with the encoded formula on all of G.

    An abelian group of prime exponent p and order p^r is F_p^r, so
    exponent 5 and |det| = 5^6 show that G is F5^6.  The scan then
    compares q on all of G, lifted through the reference basis, with the
    encoded formula.  Also expands selected dual basis vectors (the
    deeper chain duals and the dual of l) in the reference basis; these
    are computed, never assumed.
    """
    m, m_ginv = dual_data(build_S0().gram)
    order = abs(build_S0().det())
    classes = _dual_classes()
    basis_ok = classes is not None

    mismatches = []
    n_checked = 0
    expansions = {}
    if basis_ok:
        tab = _tables()
        digits = tab["digits"]
        # reference basis: duals of the first root of each chain, then dual of h
        d = digits @ _reference_lifts()                     # (15625, 22)
        lattice_q = np.einsum("ij,jk,ik->i", d, np.array(m_ginv, dtype=np.int64), d) % 10
        diff = np.nonzero(lattice_q != tab["q"])[0]
        mismatches = [int(e) for e in diff]
        n_checked = int(len(digits))

        targets = {"l": L_INDEX}
        for j in range(N_CHAINS):
            for i in range(2, CHAIN_LEN + 1):
                targets[f"e_{i}^({j + 1})"] = CHAIN_LEN * j + (i - 1)
        for name, idx in sorted(targets.items()):
            expansions[name] = tuple(int(x) for x in classes[idx])

    passed = m == 5 and order == 5 ** 6 and basis_ok and not mismatches
    return QConsistencyReport(
        passed=passed,
        exponent=m,
        order=order,
        basis_is_isomorphism=basis_ok,
        n_checked=n_checked,
        mismatches=tuple(mismatches),
        expansions=expansions,
    )
