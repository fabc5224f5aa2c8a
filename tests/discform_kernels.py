"""Exhaustive enumeration of the isotropic subgroups: the test oracle.

These are the line and plane enumerations that `charfive.discform` ran
before the classification became orbit-first.  They build every
isotropic line and every totally isotropic plane of the discriminant
form (3276 planes) and keep the 2713 subgroups on which every element
has a starred type.  `test_discform.py` checks that sweeping them gives
the same orbits as sweeping `discform._orbit_candidates()`, and reads the
exhaustive form of the dimension bound off the planes.

`_echelon_keys` keys a subgroup by its reduced row echelon basis, and
`reference_orbits` maps the echelon key of every subgroup in the orbits
of H_0..H_8 to its label, 2713 keys, as the package did before it tested
orbit membership on the codes of the images of a basis
(`discform._orbits`): the oracle for those labels.

`aut_arrays` is the symmetry group as the arrays the package built
before it summed images one coordinate at a time, and `basis_images` and
`orbit_images` apply it to every element of the group at once: the
oracle for the distinct images of `discform._image_codes`.

`q_scalar`, `delta` and `span` are the discriminant form, the
(a, b, y)-type with its starred rule, and the span of a generator set,
written one element at a time as the package wrote them before it held
them as arrays.  `tables` holds them as the arrays the package built for
all 15625 elements while it used numpy: the oracle for `decode`, the
types of `discform._x_parts` and the enumerations below.

`orbit_images` and `min_row` key a subgroup and its orbit by sorted
element encodings, as the package did before it keyed subgroups by their
reduced echelon basis: the oracle for `_echelon_keys`.

`disc_exponent` counts H^perp over all of G, the oracle for the
discriminant of each overlattice S_H.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from charfive.discform import REFERENCE_SUBGROUPS, STARRED_TYPES

#: the code e = x1 + 5 x2 + ... + 5^5 y of an element is its digits @ POW
POW = np.array([1, 5, 25, 125, 625, 3125], dtype=np.int64)


def q_scalar(v):
    """q(v) of one element [x|y], encoded mod 10: 6 sum x_i^2 + 2 y^2."""
    return (6 * sum(x * x for x in v[:5]) + 2 * v[5] * v[5]) % 10


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
    return DeltaType(a=a, b=b, y=y, starred=(a, b, min(y, 5 - y)) in STARRED_TYPES)


def span(gens):
    """The elements of the span of `gens`, sorted, added one generator at a
    time; raises ValueError at the first generator already in the span."""
    elems = {(0,) * 6}
    for g in gens:
        if g in elems:
            raise ValueError("generators are not independent")
        elems = {tuple((a + c * b) % 5 for a, b in zip(v, g))
                 for v in elems for c in range(5)}
    return tuple(sorted(elems))


@lru_cache(maxsize=1)
def tables():
    """{"digits", "q", "a", "b", "yn", "starred", "iso"}: the digits of all
    15625 elements in code order as a (15625, 6) array, and per element q,
    the (a, b, y normalized)-type, the starred rule and isotropy."""
    # coordinate i is the digit of 5^i; the last axis of np.indices varies fastest
    digits = np.ascontiguousarray(np.indices((5,) * 6).reshape(6, -1)[::-1].T)
    qenc = (digits * digits) @ (6, 6, 6, 6, 6, 2) % 10
    kind = np.array([0, 1, 2, 2, 1])[digits]
    a_cnt, b_cnt = (kind[:, :5] == 1).sum(axis=1), (kind[:, :5] == 2).sum(axis=1)
    star_arr = np.zeros((6, 6, 3), dtype=bool)
    for (a, b, y) in STARRED_TYPES:
        star_arr[a, b, y] = True
    return {"digits": digits, "q": qenc, "a": a_cnt, "b": b_cnt, "yn": kind[:, 5],
            "starred": star_arr[a_cnt, b_cnt, kind[:, 5]], "iso": qenc == 0}


def decode(e):
    """The digits of the element of code e, from `tables`."""
    return tuple(tables()["digits"][e].tolist())


@lru_cache(maxsize=1)
def aut_arrays():
    """The symmetry group {+-1}^5 x| S5 of the fundamental system, 3840
    elements in a fixed order, as (perms, signs), two (3840, 5) int16
    arrays: element g maps [x|y] to x'_i = signs[g, i] x[perms[g, i]]
    mod 5, with the sign -1 stored as 4, and fixes y."""
    perms = np.array(list(itertools.permutations(range(5))), dtype=np.int16)
    signs = np.array(list(itertools.product((1, 4), repeat=5)), dtype=np.int16)
    return np.tile(perms, (len(signs), 1)), np.repeat(signs, len(perms), axis=0)


def basis_images(gens):
    """g(gens) for every group element g of `aut_arrays`, as a (3840, d, 6)
    array of digits."""
    perms, signs = aut_arrays()
    basis = np.array(gens, dtype=np.int64).reshape(-1, 6)
    moved = (basis[:, :5][:, perms] * signs) % 5              # (d, 3840, 5)
    fixed = np.broadcast_to(basis[:, None, 5:], (len(basis), len(perms), 1))
    return np.concatenate([moved, fixed], axis=2).transpose(1, 0, 2)


def orbit_images(elem_digits):
    """Encodings of g(M) for every group element g: shape (3840, m), rows sorted.

    `elem_digits` is an (m, 6) integer array of [x1..x5, y] rows.
    """
    return np.sort(basis_images(elem_digits) @ POW, axis=1)


def min_row(images):
    """The lexicographically smallest row of an `orbit_images` array, as
    bytes: the key of the orbit."""
    return images[np.lexsort(images.T[::-1])[0]].tobytes()


def line_representatives():
    """Minimal encoding of each isotropic line (4 nonzero scalar multiples)."""
    t = tables()
    iso_nonzero = np.nonzero(t["iso"])[0]
    iso_nonzero = iso_nonzero[iso_nonzero != 0]
    digits = t["digits"][iso_nonzero]
    best = iso_nonzero.copy()
    for c in (2, 3, 4):
        enc_c = ((digits * c) % 5) @ POW
        best = np.minimum(best, enc_c)
    reps = np.unique(best)
    return reps


def isotropic_planes():
    """All totally isotropic 2-dimensional subgroups.

    Returns (planes, gen_pairs): `planes` is an (N, 25) array of sorted
    element encodings, `gen_pairs` an (N, 2) array of generator encodings.
    """
    t = tables()
    reps = line_representatives()
    digits = t["digits"][reps]
    weights = digits.copy()
    weights[:, 5] = (2 * weights[:, 5]) % 5
    pair_b = (digits @ weights.T) % 5
    iu = np.triu_indices(len(reps), k=1)
    ok = pair_b[iu] == 0
    vi = reps[iu[0][ok]]
    vj = reps[iu[1][ok]]
    di = t["digits"][vi]
    dj = t["digits"][vj]
    coef = np.array([(a, b) for a in range(5) for b in range(5)],
                    dtype=np.int64)
    elems = (coef[None, :, 0, None] * di[:, None, :]
             + coef[None, :, 1, None] * dj[:, None, :]) % 5
    enc = np.tensordot(elems, POW, axes=([2], [0]))
    enc = np.sort(enc, axis=1)
    planes, first = np.unique(enc, axis=0, return_index=True)
    gen_pairs = np.stack([vi[first], vj[first]], axis=1)
    return planes, gen_pairs


def admissible_subgroups():
    """Every totally isotropic subgroup of dimension 0, 1, 2 on which all
    elements have starred types, in a deterministic enumeration order.

    Each one is a pair (gens, elems): the generators as tuples and the
    sorted int64 array of the element encodings, read off the line and
    plane enumerations.
    """
    t = tables()
    reps = line_representatives()
    lines = np.sort(np.stack(
        [((t["digits"][reps] * c) % 5) @ POW for c in range(5)], axis=1), axis=1)
    planes, gen_pairs = isotropic_planes()
    survivors = [((), np.zeros(1, dtype=np.int64))]
    for elems, gens in ((lines, reps[:, None]), (planes, gen_pairs)):
        for idx in np.nonzero(t["starred"][elems].all(axis=1))[0]:
            survivors.append((tuple(decode(int(e)) for e in gens[idx]), elems[idx]))
    return survivors


def _echelon_keys(bases):
    """The key of the span of each basis in an (n, d, 6) array of
    independent rows with entries in 0..4: the rows r_1..r_d of its
    reduced row echelon form over F5, encoded and packed into one int,
    enc(r_1) 5^6 + enc(r_2) for a plane and 0 for the zero subgroup.  A
    subspace has exactly one such basis, so keys are equal iff spans are.
    """
    rows = list(np.moveaxis(np.asarray(bases, dtype=np.int16), 1, 0))
    at, inverse = np.arange(len(bases)), np.array([0, 1, 3, 2, 4], dtype=np.int16)
    for i in range(len(rows)):
        # the pivot column: the first column nonzero in some row i..d-1
        col = np.logical_or.reduce([r != 0 for r in rows[i:]]).argmax(axis=1)
        for j in range(i + 1, len(rows)):
            # where row i misses the pivot, adding row j gives it one
            rows[i] = rows[i] + rows[j] * (rows[i][at, col] % 5 == 0)[:, None]
        rows[i] = rows[i] * inverse[rows[i][at, col] % 5][:, None] % 5
        for j in range(len(rows)):
            if j != i:
                rows[j] = (rows[j] - rows[j][at, col][:, None] * rows[i]) % 5
    keys = np.zeros(len(bases), dtype=np.int64)
    for row in rows:
        keys = keys * 5 ** 6 + row @ POW
    return keys


@lru_cache(maxsize=1)
def reference_orbits():
    """Echelon key -> label of every subgroup in the orbits of H_0..H_8."""
    orbits = {}
    for label, gens in REFERENCE_SUBGROUPS.items():
        orbits.update(dict.fromkeys(_echelon_keys(basis_images(gens)).tolist(), label))
    return orbits


def disc_exponent(gens):
    """The e with |disc S_H| = 5^e for the subgroup H spanned by `gens`:
    the discriminant group of S_H is H^perp / H (Nikulin 1979,
    Prop. 1.4.1), and H^perp is counted over all 15625 elements with
    b([x|y], [x'|y']) = x.x' + 2 y y' mod 5."""
    weights = np.array(gens, dtype=np.int64).reshape(-1, 6) * (1, 1, 1, 1, 1, 2)
    perp = int(((tables()["digits"] @ weights.T) % 5 == 0).all(axis=1).sum())
    order, e = perp // len(span(gens)), 0
    while order % 5 == 0:
        order, e = order // 5, e + 1
    assert order == 1
    return e
