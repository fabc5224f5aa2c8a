"""The discriminant form of the model lattice S0 (`lattice.build_S0`)
and the classification of its even overlattices.

The discriminant group G of S0 is F5^6.  Elements are written
[x1,...,x5 | y] in the reference basis (the classes of the first dual
root of each chain, plus the class of the dual of h); the quadratic form
is

    q([x|y]) = -(4/5)(x1^2 + ... + x5^2) + (2/5) y^2   mod 2Z.

q-values are encoded as integers mod 10 (value n means n/5 mod 2Z) and
bilinear values as integers mod 5 (n means n/5 mod Z); `q_value` and
`b_value` are the only copies of the two formulas, and `_tables` holds
q, the (a, b, y)-type and the starred rule for all 15625 elements, which
the rest of the module reads.  That the encoded formula agrees with the
discriminant form computed from the Gram matrix from first principles is
checked by `verify_q_consistency`, which scans all of G.  A subgroup is
held as the codes of its elements; it lies in the orbit of a subgroup of
its own dimension iff it holds the image of that subgroup's basis under
some symmetry (`_orbits`).
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from operator import index

import numpy as np

from .intmat import adjugate, det_bareiss
from .lattice import (
    CHAIN_LEN, H_INDEX, L_INDEX, N_CHAINS, RANK, RootSystemType, build_S0, dual_data)

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
# The discriminant form in the reference basis
# ---------------------------------------------------------------------------

def q_value(v):
    """q(v) encoded as 6 (x1^2 + ... + x5^2) + 2 y^2 mod 10; value n means
    n/5 mod 2Z.  v holds elements [x|y] along its last axis, so an (n, 6)
    array gives n values."""
    return np.multiply(v, v) @ (6, 6, 6, 6, 6, 2) % 10


def b_value(v, w):
    """b(v, w) = (q(v+w) - q(v) - q(w))/2, encoded as x.x' + 2 y y' mod 5
    (n means n/5 mod Z); v and w broadcast along all but their last axis."""
    return np.multiply(v, w) @ (1, 1, 1, 1, 1, 2) % 5


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
        codes = np.sort(_span_codes(np.array(gens, dtype=np.int64).reshape(-1, 6)))
        if (codes[1:] == codes[:-1]).any():
            raise ValueError("generators are not independent")
        object.__setattr__(self, "_codes", codes)
        t = _tables()
        bad = t["digits"][codes[~t["iso"][codes]]].tolist()
        if bad:
            raise ValueError(f"subgroup is not totally isotropic at {tuple(min(bad))}")

    @property
    def dim(self):
        return len(self.gens)

    def elements(self):
        return tuple(sorted(map(tuple, _tables()["digits"][self._codes].tolist())))


def condition_II(subgroup):
    """True iff every element (including 0) has a starred (a,b,y)-type."""
    return bool(_tables()["starred"][subgroup._codes].all())


# ---------------------------------------------------------------------------
# Vectorized element tables
# ---------------------------------------------------------------------------

_POW = np.array([1, 5, 25, 125, 625, 3125], dtype=np.int64)


def _span_codes(bases):
    """The codes of the 5^d combinations of the rows of each basis in a
    (..., d, 6) array with entries in 0..4, as a (..., 5^d) array: the
    rows of `_tables()` that the span holds, the zero element first."""
    d = bases.shape[-2]
    coeffs = np.indices((5,) * d).reshape(d, 5 ** d).T
    return coeffs @ bases % 5 @ _POW


def decode(e):
    """The element [x|y] encoded as e = x1 + 5 x2 + ... + 5^4 x5 + 5^5 y."""
    return tuple(_tables()["digits"][e].tolist())


#: +-x normalized to {0, 1, 2}, by residue: 1 for x in {1, 4}, 2 for {2, 3}
_KIND = np.array([0, 1, 2, 2, 1], dtype=np.int64)


@lru_cache(maxsize=1)
def _tables():
    # coordinate i is the digit of 5^i; the last axis of np.indices varies fastest
    digits = np.ascontiguousarray(np.indices((5,) * 6).reshape(6, -1)[::-1].T)
    qenc = q_value(digits)
    kind = _KIND[digits[:, :5]]
    a_cnt = (kind == 1).sum(axis=1)
    b_cnt = (kind == 2).sum(axis=1)
    yn = _KIND[digits[:, 5]]
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


def _image_codes(basis):
    """The codes of g(basis) for every group element g: the images of the
    rows of the (d, 6) array `basis`, entries in 0..4, as a (3840, d)
    int16 array (every code is below 5^6 < 2^15)."""
    perms, signs = _aut_arrays()
    basis = np.asarray(basis, dtype=np.int16).reshape(-1, 6)
    # x'_i = signs[g, i] x[perms[g, i]]: the entry of (x, -x) at perms + 5 [sign -1]
    signed = np.concatenate([basis[:, :5], (5 - basis[:, :5]) % 5], axis=1)
    moved = np.take(signed, perms + 5 * (signs == 4), axis=1)      # (d, 3840, 5)
    return (moved @ _POW[:5].astype(np.int16) + basis[:, 5:] * 3125).T


@lru_cache(maxsize=1)
def _reference_images():
    """{label: `_image_codes` of the basis of H_i}, built once per process."""
    return {label: _image_codes(gens) for label, gens in REFERENCE_SUBGROUPS.items()}


def _orbits(bases, elements):
    """The orbits met by n subgroups of one dimension d, given by their
    bases as an (n, d, 6) array and the codes of their elements as an
    (n, 5^d) array: one (label, members) pair per orbit, members a bool
    (n,) array that is true on the subgroups in it, label that of its
    reference H_i or None.  The reference orbits of dimension d come
    first, in the order of `REFERENCE_SUBGROUPS`, then the others in the
    order of their first members.

    g(H) is a subgroup of dimension d, so it equals a subgroup S of
    dimension d iff S holds g(basis of H).  The test reads one bitset:
    word [c, k // 64] has bit k % 64 set iff subgroup k holds the element
    of code c, so the AND of the words of one row of images has bit k
    set iff subgroup k holds the whole row.  It runs on the images of
    each reference basis of dimension d, then on those of the first
    subgroup left over, until every subgroup lies in a found orbit.
    """
    k = np.arange(len(elements))
    words = np.zeros((5 ** 6, -(-len(k) // 64)), dtype=np.uint64)
    bits = np.uint64(1) << (k % 64).astype(np.uint64)
    np.bitwise_or.at(words, (elements, (k // 64)[:, None]), bits[:, None])

    def members(images):
        rows = np.full((len(images), words.shape[1]), np.iinfo(np.uint64).max)
        for column in images.T:
            rows &= words.take(column, axis=0)
        return np.bitwise_or.reduce(rows, axis=0)[k // 64] & bits != 0

    found = [(label, members(images)) for label, images in _reference_images().items()
             if images.shape[1] == bases.shape[1]]
    left = np.ones(len(k), dtype=bool)
    for _label, hits in found:
        left &= ~hits
    while left.any():
        found.append((None, members(_image_codes(bases[left.argmax()]))))
        left &= ~found[-1][1]
    return [(label, hits) for label, hits in found if hits.any()]


def orbit_names(subgroups):
    """(label, first) for each of a list of `IsotropicSubgroup`s: the
    label of the reference orbit that holds it, or None, and the position
    in the list of the first subgroup in its orbit, so two subgroups share
    an orbit iff they share `first`.  `_orbits` runs once per dimension."""
    names = [None] * len(subgroups)
    for d in sorted({sub.dim for sub in subgroups}):
        at = np.array([i for i, sub in enumerate(subgroups) if sub.dim == d])
        bases = np.array([subgroups[i].gens for i in at], dtype=np.int64).reshape(len(at), d, 6)
        for label, hits in _orbits(bases, np.array([subgroups[i]._codes for i in at])):
            members = at[hits].tolist()
            for i in members:
                names[i] = (label, members[0])
    return names


# ---------------------------------------------------------------------------
# Orbit candidates: admissible subgroups through one line per line orbit
# ---------------------------------------------------------------------------

def _type_representatives():
    """{(a, b, y normalized): smallest isotropic encoding of that type}."""
    t = _tables()
    iso = np.nonzero(t["iso"])[0]              # ascending, so the first is smallest
    codes = (t["a"][iso] * 6 + t["b"][iso]) * 3 + t["yn"][iso]
    codes, first = np.unique(codes, return_index=True)
    return {(c // 18, c // 3 % 6, c % 3): e
            for c, e in zip(codes.tolist(), iso[first].tolist())}


def _orbit_candidates():
    """Admissible subgroups meeting every orbit, one (bases, elements)
    pair per dimension 0, 1, 2: the generators as an (n, d, 6) array and
    the codes of the elements as an (n, 5^d) array (see `_span_codes`).

    A nonzero admissible subgroup holds some u != 0.  The symmetry group
    fixes y and moves the x-part of u onto that of any vector of the same
    (a, b) counts, so it carries u or -u onto the representative of the
    type of u.  Doubling sends the type (a, b, y) to (b, a, 2y), which
    keeps STARRED_TYPES, so a line holds vectors of both types of such a
    pair, and one line <v> per pair (v the representative of the smaller
    type) meets every orbit of lines.  Every orbit therefore meets the
    zero subgroup, one of these five lines, or a plane <v, w> with w
    admissible and b(v, w) = 0; the dimension bound rules out anything
    larger.  The multiples of an admissible vector are admissible, so
    <v, w> is admissible iff each w + c v, c = 1..4, is.  Each plane
    through <v> is met once, by the w in it that vanishes at the first
    nonzero coordinate p of v and has leading coordinate 1.
    """
    t = _tables()
    digits = t["digits"]
    admissible = t["iso"] & t["starred"]
    lines = np.array([v for (a, b, y), v in sorted(_type_representatives().items())
                      if v and admissible[v] and (a, b, y) <= (b, a, (0, 2, 1)[y])])
    vs = digits[lines]                                              # (5, 6)
    ws = digits[admissible]
    ws = ws[ws[np.arange(len(ws)), (ws != 0).argmax(axis=1)] == 1]   # leading 1, so not 0
    pivots = (vs != 0).argmax(axis=1)
    i, j = np.nonzero((b_value(vs[:, None], ws) == 0) & (ws.T[pivots] == 0))
    cosets = (ws[j][:, None] + np.arange(1, 5)[:, None] * vs[i][:, None]) % 5 @ _POW
    keep = admissible[cosets].all(axis=1)
    planes = np.stack([vs[i[keep]], ws[j[keep]]], axis=1)           # (n, 2, 6)
    for bases in (np.zeros((1, 0, 6), dtype=np.int64), vs[:, None], planes):
        yield bases, _span_codes(bases)


def _witt_index(gram):
    """Witt index (the dimension of a maximal totally isotropic subspace) of
    the nondegenerate symmetric form `gram` over F5: (n-1)/2 in odd
    dimension n; in dimension 2m, m when (-1)^m det is a square mod 5 and
    m-1 otherwise (Serre, A Course in Arithmetic, ch. IV)."""
    n, det = len(gram), det_bareiss(gram) % 5
    if det == 0:
        raise ArithmeticError("the form is degenerate")
    if n % 2:
        return (n - 1) // 2
    m = n // 2
    # Euler's criterion: a unit is a square mod 5 iff its square is 1
    return m if pow((-1) ** m * det, 2, 5) == 1 else m - 1


def max_isotropic_dimension():
    """Largest F5-dimension of a totally isotropic subgroup of (G, q).

    q(v) = 0 iff b(v, v) = 0, so these subgroups are the totally isotropic
    subspaces of b, and the answer is the Witt index of the Gram matrix of
    b on the reference basis: det = 2 and -2 is not a square mod 5, so it
    is 2.
    """
    units = np.eye(6, dtype=np.int64)
    return _witt_index(b_value(units[:, None], units).tolist())


# ---------------------------------------------------------------------------
# Overlattice invariants from the class shells of h^perp
# ---------------------------------------------------------------------------

#: the orthogonal summands of h^perp in S0^vee, as dual-coordinate indices:
#: the five chains, and l (a vector of h^perp has no h^vee part)
_SUMMANDS = tuple(list(range(CHAIN_LEN * j, CHAIN_LEN * (j + 1)))
                  for j in range(N_CHAINS)) + ([L_INDEX],)


#: dual-coordinate indices of the lifts R of the reference basis of G:
#: the dual of the first root of each chain, then the dual of h
_REFERENCE = [CHAIN_LEN * j for j in range(N_CHAINS)] + [H_INDEX]


@lru_cache(maxsize=1)
def _reference_form():
    """(m, N, R N R^T) for the model lattice: the exponent m of its
    discriminant group, N = m gram^{-1} as a read-only int64 array, and
    the 6x6 block of N on the reference lifts R.  d N d^T is m times the
    norm of a dual-coordinate vector d, and c R N R^T c^T that of the
    lift c R of the class c.  m is 5, which `verify_q_consistency`
    certifies, so the other callers read N as 5 gram^{-1}."""
    m, m_ginv = dual_data(build_S0().gram)
    n = np.array(m_ginv, dtype=np.int64)
    n.setflags(write=False)
    return m, n, n[np.ix_(_REFERENCE, _REFERENCE)]


@lru_cache(maxsize=1)
def _short_summand_vectors():
    """Per summand of h^perp in S0^vee, its vectors of norm >= -2: pairs
    (dual coordinates as an (n, 22) int8 array, 5 * norms as an (n,) array),
    from which `_shell_table` reads the shells of each class.

    The dual coordinates of a chain vector v are its pairings v.e_i with
    the chain's roots, and |v.e_i| <= sqrt(v^2 e_i^2) <= 2 by
    Cauchy-Schwarz on the definite chain, so the box [-2, 2]^4 holds them
    all: per chain 1 of norm 0, 20 roots, and 10 + 20 glue vectors of
    norms -4/5 and -6/5 (Conway-Sloane, SPLAG ch. 4).  On l the vector
    j l^vee has norm -2 j^2 / 5, so |j| <= 2.
    """
    n5 = _reference_form()[1]
    tables = []
    for idx in _SUMMANDS:
        # the rows of [-2, 2]^n in lexicographic order, the last entry fastest
        box = np.indices((5,) * len(idx)).reshape(len(idx), -1).T - 2
        norms = np.einsum("ij,jk,ik->i", box, n5[np.ix_(idx, idx)], box)
        keep = norms >= -10
        vecs = np.zeros((int(keep.sum()), RANK), dtype=np.int8)
        vecs[:, idx] = box[keep]
        tables.append((vecs, norms[keep]))
    return tables


@lru_cache(maxsize=1)
def _shell_table():
    """Per summand of h^perp in S0^vee: (dimension, roots, shells).  roots
    counts the summand's norm -2 vectors of class 0; shells[r] is
    (top, count) for its vectors of norm >= -2 whose class has coordinate
    r, top being their largest 5 * norm and count how many reach it, or
    None when there are none.

    Raises ArithmeticError unless 5 gram^{-1} has zero blocks between the
    summands (so norms add over them) and the dual basis of summand s has
    classes in coordinate s of G alone (chain j in x_j, l in y), so that
    the class of a vector of h^perp is read summand by summand.
    """
    n5, classes = _reference_form()[1], _dual_classes()
    if classes is None:
        raise ArithmeticError("the reference classes are not a basis of G")
    cols = [i for idx in _SUMMANDS for i in idx]
    owner = np.repeat(np.arange(len(_SUMMANDS)), [len(idx) for idx in _SUMMANDS])
    if (n5[np.ix_(cols, cols)] * (owner[:, None] != owner)).any():
        raise ArithmeticError("the summands of h^perp are not orthogonal")
    if (classes[cols] * (owner[:, None] != np.arange(6))).any():
        raise ArithmeticError("a summand has classes outside its own coordinate")
    table = []
    for s, (vecs, norms) in enumerate(_short_summand_vectors()):
        residues = (vecs @ classes % 5)[:, s]
        shells = []
        for r in range(5):
            here = norms[residues == r]
            shells.append((int(here.max()), int((here == here.max()).sum()))
                          if len(here) else None)
        roots = int(((residues == 0) & (norms == -10)).sum())
        table.append((len(_SUMMANDS[s]), roots, tuple(shells)))
    return tuple(table)


def _glue_roots(c):
    """(count, support) of the norm -2 vectors of h^perp in S0^vee in the
    class c != 0 of G, or None when it holds none (and for c = 0).

    Norms in a coset of an even lattice agree mod 2, so the 5 * norm of
    each part of a vector is its shell top minus a multiple of 10.  A
    class c != 0 has a nonzero coordinate, whose top is negative, so c
    holds vectors of 5 * norm -10 iff its tops sum to -10, and they are
    the sums of top parts: the product of the shell counts, each vector
    nonzero exactly on the summands of the nonzero coordinates of c.
    """
    table = _shell_table()
    shells = [table[s][2][r] for s, r in enumerate(c)]
    if None in shells or sum(top for top, _count in shells) != -10:
        return None
    return prod(count for _top, count in shells), [s for s, r in enumerate(c) if r]


def root_type_orthogonal_to_h(subgroup):
    """ADE type of {r in S_H : r.h = 0, r^2 = -2} for the overlattice S_H
    of the subgroup H, read from the classes of H.

    S_H is the part of S0^vee whose class lies in H (Nikulin 1979,
    Prop. 1.4.1), so these roots are the norm -2 vectors of h^perp in
    S0^vee with class in H: the roots of each summand in class 0, and the
    `_glue_roots` of the other classes.  A glue root meets a root of each
    summand in its support (Conway-Sloane, SPLAG ch. 4 and 16), so the
    components are the unions of overlapping supports, a graph on the six
    summands.  Each is named by `RootSystemType.identify_component` from
    its rank, the summed dimensions, and its root count.
    """
    table = _shell_table()
    label = list(range(len(table)))         # component label of each summand
    counts = [roots for _dim, roots, _shells in table]
    for count, support in filter(None, map(_glue_roots, subgroup.elements())):
        counts[support[0]] += count
        for s in support[1:]:
            old, new = label[s], label[support[0]]
            label = [new if x == old else x for x in label]
    comps = {}                              # label -> (rank, root count)
    for s, lab in enumerate(label):
        rank, count = comps.get(lab, (0, 0))
        comps[lab] = (rank + table[s][0], count + counts[s])
    return RootSystemType(components=tuple(
        RootSystemType.identify_component(rank, count)
        for rank, count in comps.values() if count))


def e_splittings():
    """The ways (j, 5 a^2) to write a vector of E = {e : e.h = 1, e^2 = 0}
    in S0^vee as e = a + b, with a in the chains' duals and
    b = h^vee + j l^vee.  The list is empty, so E is empty for every
    overlattice S_H, all of which lie in S0^vee."""
    return list(_e_splittings())


@lru_cache(maxsize=1)
def _e_splittings():
    """`e_splittings` as a tuple, derived once per process.

    e^2 = a^2 + b^2 with a^2 <= 0, and 5 b^2 = 2 (1 + j - j^2) is negative
    unless j is 0 or 1, where it is 2.  So a^2 >= -2/5 and 5 a^2 is a sum
    of chain parts of 5 * norm >= -10.  Below its shell top t a coset's
    5 * norms are at most t - 10, so those of a chain part are t and, in
    class 0 (t = 0), the -10 of the chain's roots.
    """
    sums = {0}
    for _dim, roots, shells in _shell_table()[:N_CHAINS]:
        values = {top for top, _count in filter(None, shells)} | ({-10} if roots else set())
        sums = {s + p for s in sums for p in values if s + p >= -10}
    n5 = _reference_form()[1]
    b5 = [int(n5[H_INDEX, H_INDEX] + 2 * j * n5[H_INDEX, L_INDEX] + j * j * n5[L_INDEX, L_INDEX])
          for j in range(-2, 3)]            # 5 b^2 for b = h^vee + j l^vee
    return tuple((j, -b) for j, b in zip(range(-2, 3), b5) if -b in sums)


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
    """Orbit representatives of the admissible isotropic subgroups: one
    record per orbit that `_orbits` finds among the candidates of each
    dimension of `_orbit_candidates()`.  The first candidate in an orbit
    is validated as an `IsotropicSubgroup`; a reference orbit then stands
    with the label and generator set of its H_i, any other as "unmatched"
    with that candidate.
    """
    records = []
    for bases, elements in _orbit_candidates():
        for label, hits in _orbits(bases, elements):
            # validates the representative
            sub = IsotropicSubgroup(gens=tuple(map(tuple, bases[int(hits.argmax())].tolist())))
            if label is not None:
                sub = IsotropicSubgroup(gens=REFERENCE_SUBGROUPS[label])
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
    rows, starred = [], _tables()["starred"]
    for (a, b, yn), e in sorted(_type_representatives().items()):
        rep = decode(e)
        rt, e_empty, disc_exp = _subgroup_invariants(
            IsotropicSubgroup(gens=(rep,) if e else ()))
        rows.append(IsotropyRow(
            a=a, b=b, y=yn,
            plus_minus=(yn != 0),
            starred=bool(starred[e]),
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
    _m, n, form = _reference_form()
    n_rt = n[:, _REFERENCE]                                 # N R^T, (22, 6)
    b = (form % 5).tolist()
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
    encoded formula: the lift of c is d = c R, so with N = 5 gram^{-1},
    5 q = d N d^T = c (R N R^T) c^T.  Also expands selected dual basis
    vectors (the deeper chain duals and the dual of l) in the reference
    basis; these are computed, never assumed.
    """
    m, _n, form = _reference_form()
    order = abs(build_S0().det())
    classes = _dual_classes()
    basis_ok = classes is not None

    mismatches, n_checked, expansions = [], 0, {}
    if basis_ok:
        tab = _tables()
        digits = tab["digits"]
        lattice_q = ((digits @ form) * digits).sum(axis=1) % 10
        mismatches = np.nonzero(lattice_q != tab["q"])[0].tolist()
        n_checked = int(len(digits))

        targets = {"l": L_INDEX} | {f"e_{i}^({j + 1})": CHAIN_LEN * j + (i - 1)
                                    for j in range(N_CHAINS) for i in range(2, CHAIN_LEN + 1)}
        expansions = {name: tuple(classes[idx].tolist()) for name, idx in sorted(targets.items())}

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
