"""The discriminant form of the model lattice S0 (`lattice.build_S0`)
and the classification of its even overlattices.

The discriminant group G of S0 is F5^6.  Elements are written
[x1,...,x5 | y] in the reference basis (the classes of the first dual
root of each chain, plus the class of the dual of h); the quadratic form
is

    q([x|y]) = -(4/5)(x1^2 + ... + x5^2) + (2/5) y^2   mod 2Z.

q-values are encoded as integers mod 10 (value n means n/5 mod 2Z) and
bilinear values as integers mod 5 (n means n/5 mod Z); `q_value` and
`b_value` are the only copies of the two formulas.  An element is held
as its code e = x1 + 5 x2 + ... + 5^4 x5 + 5^5 y, a subgroup as the
sorted codes of its elements, an image of a basis as one int.  x^2 is 1
on +-1 and 4 on +-2, so q, isotropy and the starred rule depend only on
the (a, b, y)-type (`_x_parts`).  `verify_q_consistency` checks the
encoded formula against the discriminant form of the Gram matrix on all
of G.  A subgroup lies in the orbit of a subgroup of its own dimension
iff it holds the image of that subgroup's basis under some symmetry
(`_orbits`).  The classification, the isotropy table and the consistency
report are named tuples; `IsotropicSubgroup` is a `__slots__` class that
compares by its codes.
"""

import itertools
from collections import namedtuple
from functools import lru_cache
from itertools import repeat
from math import prod
from operator import add, index, mod, mul

from .intmat import adjugate, det_bareiss
from .lattice import (
    CHAIN_LEN, H_INDEX, L_INDEX, N_CHAINS, RootSystemType, build_S0, dual_data)

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

#: the coefficients of q and of b on [x1, ..., x5 | y]
_Q = (6, 6, 6, 6, 6, 2)
_B = (1, 1, 1, 1, 1, 2)

#: the order of G, and that of its x-parts [x1, ..., x5]
_ORDER = 5 ** 6
_X = 5 ** 5


def q_value(v):
    """q(v) of one element [x|y], encoded as 6 (x1^2 + ... + x5^2) + 2 y^2
    mod 10; value n means n/5 mod 2Z."""
    return sum(map(mul, _Q, map(mul, v, v))) % 10


def b_value(v, w):
    """b(v, w) = (q(v+w) - q(v) - q(w))/2 of two elements, encoded as
    x.x' + 2 y y' mod 5 (n means n/5 mod Z)."""
    return sum(map(mul, _B, map(mul, v, w))) % 5


def decode(e):
    """The element [x|y] of code e = x1 + 5 x2 + ... + 5^4 x5 + 5^5 y."""
    return e % 5, e // 5 % 5, e // 25 % 5, e // 125 % 5, e // 625 % 5, e // 3125 % 5


#: +-x normalized to {0, 1, 2}, by residue: 1 for x in {1, 4}, 2 for {2, 3}
_KIND = (0, 1, 2, 2, 1)


@lru_cache(maxsize=1)
def _x_parts():
    """{(a, b): the codes x = x1 + ... + 5^4 x5 of the x-parts with a
    coordinates in {1, 4} and b in {2, 3}}, one coordinate at a time."""
    by_counts = {(0, 0): [0]}
    for i in range(5):
        grown = {}
        for (a, b), xs in by_counts.items():
            for x, k in enumerate(_KIND):
                grown.setdefault((a + (k == 1), b + (k == 2)), []).extend(
                    map(add, xs, repeat(x * 5 ** i)))
        by_counts = grown
    return by_counts


@lru_cache(maxsize=None)
def _column(entries, i):
    """5^i (c1 z1 + ... + cd zd mod 5) over the coefficients c in 0..4,
    the first fastest, for the entries z of coordinate i of d generators."""
    column = [0]
    for z in entries:
        column = [(x + c * z) % 5 for c in range(5) for x in column]
    return [x * 5 ** i for x in column]


def _span_codes(gens):
    """The codes of the 5^d combinations of the generator tuples `gens`,
    the zero element first.  Lines and planes share their few columns."""
    column = _column if len(gens) <= 2 else _column.__wrapped__
    return list(map(sum, zip(*(column(e, i) for i, e in enumerate(zip(*gens)))))) or [0]


def _echelon(gens):
    """The reduced echelon basis of the span of the generator tuples over
    F5, rows by increasing pivot: its combinations in lexicographic order
    run through the span in tuple order.  Raises ValueError when the
    generators are dependent."""
    rows = []
    for g in gens:
        for r in rows:
            g = [(x - g[r.index(1)] * y) % 5 for x, y in zip(g, r)]
        if not any(g):
            raise ValueError("generators are not independent")
        p = next(i for i, x in enumerate(g) if x)
        g = [x * pow(g[p], -1, 5) % 5 for x in g]
        rows = [[(x - r[p] * y) % 5 for x, y in zip(r, g)] for r in rows] + [g]
    return sorted(rows, reverse=True)


# ---------------------------------------------------------------------------
# Isotropic subgroups
# ---------------------------------------------------------------------------

def _residue(x):
    """x mod 5 for an integer x; a bool, float or string raises TypeError."""
    if isinstance(x, bool) or not hasattr(x, "__index__"):
        raise TypeError(f"generator coordinate {x!r} is not an integer")
    return index(x) % 5


class IsotropicSubgroup:
    """A totally isotropic subgroup of (G, q), given by independent
    generators `gens` and held as the sorted codes `_codes` of its
    elements.  q(u + w) = q(u) + q(w) + 2 b(u, w), so the span is
    totally isotropic iff q vanishes on the generators and b on their
    pairs; only a span that is not is searched for its smallest
    non-isotropic element.  Two subgroups are equal iff they have the
    same elements, whatever their generators."""

    __slots__ = ("gens", "_codes")

    def __init__(self, gens):
        gens = tuple(tuple(_residue(x) for x in g) for g in gens)
        if any(len(g) != 6 for g in gens):
            raise ValueError("generators must have six coordinates")
        # more than six vectors of F5^6 are never independent
        if len(gens) > 6:
            raise ValueError("generators are not independent")
        basis = _echelon(gens)
        pairs = itertools.combinations(gens, 2)
        if any(map(q_value, gens)) or any(b_value(u, w) for u, w in pairs):
            span = (tuple(sum(map(mul, c, col)) % 5 for col in zip(*basis))
                    for c in itertools.product(range(5), repeat=len(basis)))
            bad = next(v for v in span if q_value(v))
            raise ValueError(f"subgroup is not totally isotropic at {bad}")
        self.gens = gens
        self._codes = tuple(sorted(_span_codes(gens)))

    def __eq__(self, other):
        if type(other) is not IsotropicSubgroup:
            return NotImplemented
        return self._codes == other._codes

    def __hash__(self):
        return hash(self._codes)

    def __repr__(self):
        return f"IsotropicSubgroup(gens={self.gens!r})"

    @property
    def dim(self):
        return len(self.gens)


def condition_II(subgroup):
    """True iff every element (including 0) has a starred (a,b,y)-type."""
    kinds = ([_KIND[x] for x in decode(e)] for e in subgroup._codes)
    return all((k[:5].count(1), k[:5].count(2), k[5]) in STARRED_TYPES for k in kinds)


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------

def _image_codes(basis):
    """The distinct images g(basis) of d generator tuples under the
    symmetry group {+-1}^5 x| S5 (x'_i = +-x_pi(i), y fixed), each one int
    with the codes of the d image vectors as its base-5^6 digits, the
    first lowest.  An image orders the x-columns (the d entries of each
    coordinate) and signs each; with columns taken up to sign, the
    distinct orders and the signs of the nonzero columns give each once,
    summed one coordinate at a time and grouped by the columns left."""
    def packed(column, sign=1):
        return sum(sign * x % 5 * _ORDER ** k for k, x in enumerate(column))

    columns = [min(c, tuple(-x % 5 for x in c)) for c in zip(*(g[:5] for g in basis))]
    kinds = sorted(set(columns)) or [()]
    left = {tuple(map(columns.count, kinds)) if columns else (5,):
            [_X * packed([g[5] for g in basis])]}
    for i in range(5):
        grown = {}
        for counts, sums in left.items():
            for k, n in enumerate(counts):
                if n:
                    # the one or two values of a column of kind k at coordinate i
                    steps = {5 ** i * packed(kinds[k], s) for s in (1, -1)}
                    grown.setdefault(counts[:k] + (n - 1,) + counts[k + 1:], []).extend(
                        [s + t for t in steps for s in sums])
        left = grown
    [images] = left.values()
    return images


def _image_sets(basis):
    """The `_image_codes` of a basis as a set, and the set of their first codes."""
    images = set(_image_codes(basis))
    return images, set(map(_ORDER.__rmod__, images)) if len(basis) > 1 else images


@lru_cache(maxsize=1)
def _reference_images():
    """{label: `_image_sets` of the basis of H_i}, built once per process."""
    return {label: _image_sets(gens) for label, gens in REFERENCE_SUBGROUPS.items()}


def _orbits(bases, elements):
    """The orbits met by n subgroups of one dimension d, given by their
    bases and the codes of their elements: (label, members) per orbit,
    members the ascending positions of its subgroups, label that of its
    reference H_i or None; the reference orbits first, in the order of
    `REFERENCE_SUBGROUPS`, then the others by their first members.

    g(H) has dimension d, so it equals a subgroup S of dimension d iff S
    holds g(basis of H): iff some first image code u lies in S and packs
    with d - 1 codes of S (`rests`) to an image.  The images of each
    reference basis of dimension d are tested, then those of the first
    subgroup left over, until every subgroup lies in a found orbit.
    """
    d = len(bases[0])
    rests = []
    for codes in elements:
        rest = [0]
        for _ in range(d - 1):
            rest = [_ORDER * (c + r) for r in rest for c in codes]
        rests.append(rest)

    def members(image_sets, among):
        images, firsts = image_sets
        return {k for k in among if any(
            not images.isdisjoint(map(add, rests[k], repeat(u)))
            for u in firsts.intersection(elements[k]))}

    found, left = [], range(len(elements))
    for label, image_sets in _reference_images().items():
        if len(REFERENCE_SUBGROUPS[label]) == d:
            found.append((label, members(image_sets, left)))
            left = [k for k in left if k not in found[-1][1]]
    while left:
        hits = members(_image_sets(bases[left[0]]), left)
        if left[0] not in hits:         # the sweep would never empty `left`
            raise RuntimeError(f"the images of a basis of dimension {d} "
                               "miss the subgroup it spans")
        found.append((None, hits))
        left = [k for k in left if k not in hits]
    return [(label, sorted(hits)) for label, hits in found if hits]


def orbit_names(subgroups):
    """(label, first) for each of a list of `IsotropicSubgroup`s: the
    label of the reference orbit that holds it, or None, and the position
    in the list of the first subgroup in its orbit, so two subgroups share
    an orbit iff they share `first`.  `_orbits` runs once per dimension."""
    names = [None] * len(subgroups)
    for d in sorted({sub.dim for sub in subgroups}):
        at = [i for i, sub in enumerate(subgroups) if sub.dim == d]
        for label, hits in _orbits([subgroups[i].gens for i in at],
                                   [subgroups[i]._codes for i in at]):
            for k in hits:
                names[at[k]] = (label, at[hits[0]])
    return names


# ---------------------------------------------------------------------------
# Orbit candidates: admissible subgroups through one line per line orbit
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _type_representatives():
    """{(a, b, y normalized): smallest isotropic code of that type}.  Codes
    grow with y first, so that code is the smallest x-part of counts
    (a, b) plus 5^5 y, y in {0, 1, 2}."""
    return {(a, b, y): min(xs) + _X * y for (a, b), xs in _x_parts().items()
            for y in range(3) if not q_value(decode(min(xs) + _X * y))}


def _orbit_candidates():
    """Admissible subgroups meeting every orbit, one (bases, elements)
    pair per dimension 0, 1, 2: the generator tuples of each and the
    codes of its elements.

    A nonzero admissible subgroup holds some u != 0.  The symmetry group
    fixes y and moves the x-part of u onto that of any vector of the same
    (a, b) counts, so it carries u or -u onto the representative of the
    type of u.  Doubling sends the type (a, b, y) to (b, a, 2y), which
    keeps STARRED_TYPES, so a line holds vectors of both types of such a
    pair, and one line <v> per pair (v the representative of the smaller
    type) meets every orbit of lines.  Every orbit therefore meets the
    zero subgroup, one of these five lines, or a plane <v, w> with w
    admissible and b(v, w) = 0; the dimension bound rules out anything
    larger.  Each plane through <v> is met once, by the w in it that
    vanishes at the first nonzero coordinate p of v and has leading
    coordinate 1, and it is kept when all its elements are admissible.
    """
    lines = [decode(v) for (a, b, y), v in sorted(_type_representatives().items())
             if v and (a, b, y) in STARRED_TYPES and (a, b, y) <= (b, a, (0, 2, 1)[y])]
    yield [()], [[0]]
    yield [(v,) for v in lines], [_span_codes((v,)) for v in lines]
    starred = _type_representatives().keys() & STARRED_TYPES
    admissible = set(itertools.chain.from_iterable(
        map(add, xs, repeat(_X * y)) for (a, b), xs in _x_parts().items()
        for y in range(5) if (a, b, _KIND[y]) in starred))
    # the codes 5^k (5 j + 1) are those with leading coordinate 1
    leading = sorted(admissible.intersection(itertools.chain.from_iterable(
        range(5 ** k, _ORDER, 5 ** (k + 1)) for k in range(6))))
    bases, elements = [], []
    for v in lines:
        p = next(i for i, x in enumerate(v) if x)
        for w in map(decode, (e for e in leading if not e // 5 ** p % 5)):
            if not b_value(v, w):
                codes = _span_codes((v, w))
                if admissible.issuperset(codes):
                    bases.append((v, w))
                    elements.append(codes)
    yield bases, elements


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
    units = [decode(5 ** i) for i in range(6)]
    return _witt_index([[b_value(u, v) for v in units] for u in units])


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
    """(m, N, R N R^T): the exponent m of the discriminant group of the
    model lattice, N = m gram^{-1} and its block on the reference lifts R.
    d N d^T is m times the norm of a dual-coordinate vector d.  m is 5,
    which `verify_q_consistency` certifies, so the others read N as
    5 gram^{-1}."""
    m, n = dual_data(build_S0().gram)
    return m, n, tuple(tuple(n[i][j] for j in _REFERENCE) for i in _REFERENCE)


def _form_values(form, entries):
    """c F c^T for every c in entries^n, n = len(form), the first coordinate
    fastest: coordinate by coordinate, c becomes c + t e_i for each t in
    entries, and c F c^T grows by 2 t (c F)_i + t^2 F_ii."""
    values = [0]
    for i, row in enumerate(form):
        linear = [0]                    # (c F)_i over the same vectors c
        for j in range(i):
            linear = [s + form[j][i] * t for t in entries for s in linear]
        values = list(itertools.chain.from_iterable(
            map(add, values, map(add, map(mul, linear, repeat(2 * t)), repeat(t * t * row[i])))
            for t in entries))
    return values


@lru_cache(maxsize=None)
def _box_scan(block):
    """The vectors of [-2, 2]^n of 5 * norm >= -10 under an n x n block of
    5 gram^{-1}, and their 5 * norms, in the order of the box."""
    box = itertools.product(range(-2, 3), repeat=len(block))
    # the box lists the last coordinate fastest, `_form_values` the first
    reverse = [row[::-1] for row in block[::-1]]
    kept = [(v, s) for v, s in zip(box, _form_values(reverse, range(-2, 3))) if s >= -10]
    return tuple(v for v, _s in kept), tuple(s for _v, s in kept)


def _short_summand_vectors():
    """Per summand of h^perp in S0^vee, its vectors of norm >= -2: pairs
    (coordinates on the summand's own dual indices, 5 * norms), from which
    `_shell_table` reads the shells of each class.  Each distinct block of
    5 gram^{-1} is scanned once; the five chain blocks are equal.

    The dual coordinates of a chain vector v are its pairings v.e_i with
    the chain's roots, and |v.e_i| <= sqrt(v^2 e_i^2) <= 2 by
    Cauchy-Schwarz on the definite chain, so the box [-2, 2]^4 holds them
    all: per chain 1 of norm 0, 20 roots, and 10 + 20 glue vectors of
    norms -4/5 and -6/5 (Conway-Sloane, SPLAG ch. 4).  On l the vector
    j l^vee has norm -2 j^2 / 5, so |j| <= 2.
    """
    n5 = _reference_form()[1]
    return tuple(_box_scan(tuple(tuple(n5[i][j] for j in idx) for i in idx)) for idx in _SUMMANDS)


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
    owner = {i: s for s, idx in enumerate(_SUMMANDS) for i in idx}
    if any(n5[i][j] for i in owner for j in owner if owner[i] != owner[j]):
        raise ArithmeticError("the summands of h^perp are not orthogonal")
    if any(x for i, s in owner.items() for r, x in enumerate(classes[i]) if r != s):
        raise ArithmeticError("a summand has classes outside its own coordinate")
    table = []
    for s, (idx, (vecs, norms)) in enumerate(zip(_SUMMANDS, _short_summand_vectors())):
        residues = [sum(x * classes[i][s] for x, i in zip(v, idx)) % 5 for v in vecs]
        shells = []
        for r in range(5):
            here = [n for n, res in zip(norms, residues) if res == r]
            shells.append((max(here), here.count(max(here))) if here else None)
        roots = sum(1 for n, res in zip(norms, residues) if res == 0 and n == -10)
        table.append((len(idx), roots, tuple(shells)))
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
    for count, support in filter(None, map(_glue_roots, map(decode, subgroup._codes))):
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
    b5 = [n5[H_INDEX][H_INDEX] + 2 * j * n5[H_INDEX][L_INDEX] + j * j * n5[L_INDEX][L_INDEX]
          for j in range(-2, 3)]            # 5 b^2 for b = h^vee + j l^vee
    return tuple((j, -b) for j, b in zip(range(-2, 3), b5) if -b in sums)


@lru_cache(maxsize=None)
def _subgroup_invariants(subgroup):
    """(root type, whether E is empty, disc exponent) of the overlattice
    S_H of the subgroup H.  [S_H : S0] = |H|, so |disc S_H| = 5^6 / |H|^2
    and disc S_H = -5^(6 - 2 dim H).  Computed once per subgroup."""
    return (str(root_type_orthogonal_to_h(subgroup)), not e_splittings(),
            6 - 2 * subgroup.dim)


class ClassifiedOrbit(namedtuple(
        "ClassifiedOrbit", "label gens dim disc_exp sigma root_type e_empty")):
    """One orbit of admissible subgroups: its label, a generator set, and
    the invariants of its overlattice."""

    __slots__ = ()

    def to_json_dict(self):
        out = self._asdict()
        out["E_empty"] = out.pop("e_empty")
        return out


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
            sub = IsotropicSubgroup(gens=bases[hits[0]])      # validates the representative
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

class IsotropyRow(namedtuple(
        "IsotropyRow",
        "a b y plus_minus starred representative disc_exp root_type e_empty")):
    """One (a, b, +-y)-class of isotropic vectors, y normalized to {0, 1, 2}
    and plus_minus when both y and -y occur, with the invariants of the
    overlattice of its representative."""

    __slots__ = ()

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

#: the exponent and order |det| of L^vee / L, the codes where the encoded
#: formula and the lattice disagree, and dual vectors in the reference basis
QConsistencyReport = namedtuple(
    "QConsistencyReport", "passed exponent order n_checked mismatches expansions")


@lru_cache(maxsize=1)
def _dual_classes():
    """Classes of the 22 dual basis vectors in the reference basis, as a
    tuple of 22 six-tuples, or None when the reference classes are not a
    basis of G.  The class of a dual-coordinate vector d is the sum of
    d_i times row i, mod 5.

    With N = 5 gram^{-1} and R the reference lifts, d N R^T / 5 mod 1 are
    the discriminant pairings of d with the reference classes, and
    B = R N R^T mod 5 is 5 times their own pairing matrix.  The pairing
    is nondegenerate (Nikulin 1979, sec. 1.3), so six classes of G = F5^6
    are a basis iff det B is a unit mod 5; then the class of d has
    coordinates c with c B = d N R^T mod 5, that is c = d N R^T B^{-1}.
    """
    _m, n, form = _reference_form()
    b = [[x % 5 for x in row] for row in form]
    det = det_bareiss(b)
    if det % 5 == 0:
        return None
    b_inv = [[x * pow(det, -1, 5) for x in row] for row in adjugate(b)[0]]
    return tuple(tuple(sum(row[r] * b_inv[k][c] for k, r in enumerate(_REFERENCE)) % 5
                       for c in range(6)) for row in n)


def verify_q_consistency():
    """Recompute the discriminant form of the built lattice from first
    principles and compare with the encoded formula on all of G.

    An abelian group of prime exponent p and order p^r is F_p^r, so
    exponent 5 and |det| = 5^6 show that G is F5^6.  The lift of c is
    c R, so with N = 5 gram^{-1}, 5 q = c (R N R^T) c^T; the formula is
    c D c^T, D the diagonal of `_Q`.  The scan lists the codes where
    c M c^T, M = R N R^T - D, is not 0 mod 10.  Also expands selected dual
    basis vectors in the reference basis; all of it computed, never assumed.
    """
    m, _n, form = _reference_form()
    order = abs(build_S0().det())
    classes = _dual_classes()
    basis_ok = classes is not None

    mismatches, n_checked, expansions = [], 0, {}
    if basis_ok:
        diff = [[x - (_Q[i] if i == j else 0) for j, x in enumerate(row)]
                for i, row in enumerate(form)]
        # c M c^T and (c M)_y over the x-parts c; y = t adds t (2 (c M)_y + t M_yy),
        # so each distinct pair of the two mod 10 settles the classes of its x-parts
        values = list(map(mod, _form_values([row[:5] for row in diff[:5]], range(5)),
                          repeat(10)))
        linear = [0]
        for row in diff[:5]:
            linear = [s + row[5] * t for t in range(5) for s in linear]
        linear = list(map(mod, linear, repeat(10)))
        if any((v + t * (2 * s + t * diff[5][5])) % 10
               for v, s in set(zip(values, linear)) for t in range(5)):
            mismatches = [x + _X * t for t in range(5)
                          for x, (v, s) in enumerate(zip(values, linear))
                          if (v + t * (2 * s + t * diff[5][5])) % 10]
        n_checked = 5 * len(values)

        targets = {"l": L_INDEX} | {f"e_{i}^({j + 1})": CHAIN_LEN * j + (i - 1)
                                    for j in range(N_CHAINS) for i in range(2, CHAIN_LEN + 1)}
        expansions = {name: classes[idx] for name, idx in sorted(targets.items())}

    passed = m == 5 and order == 5 ** 6 and basis_ok and not mismatches
    return QConsistencyReport(
        passed=passed,
        exponent=m,
        order=order,
        n_checked=n_checked,
        mismatches=tuple(mismatches),
        expansions=expansions,
    )
