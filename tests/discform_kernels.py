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

`AutElement` and `all_aut` are the symmetry group as the package held it
before `discform._aut_arrays` built its arrays directly: the oracle for
those arrays and for the group law.

`q_scalar`, `delta` and `span` are the discriminant form, the
(a, b, y)-type with its starred rule, and the span of a generator set,
written one element at a time as the package wrote them before
`discform._tables` and `IsotropicSubgroup` held them as arrays: the
oracle for those arrays.

`orbit_images` and `min_row` key a subgroup and its orbit by sorted
element encodings, as the package did before it keyed subgroups by their
reduced echelon basis: the oracle for `_echelon_keys`.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from charfive.discform import (
    REFERENCE_SUBGROUPS, STARRED_TYPES, _POW, _aut_arrays, _image_codes, _tables, decode)


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


@dataclass(frozen=True)
class AutElement:
    """x'_i = signs[i] * x[perm[i]], y fixed."""

    signs: tuple
    perm: tuple


@lru_cache(maxsize=1)
def all_aut():
    """The symmetry group {+-1}^5 x| S5, 3840 elements, in a fixed order."""
    out = []
    for signs in itertools.product((1, -1), repeat=5):
        for perm in itertools.permutations(range(5)):
            out.append(AutElement(signs=signs, perm=perm))
    return tuple(out)


def orbit_images(elem_digits):
    """Encodings of g(M) for every group element g: shape (3840, m), rows sorted.

    `elem_digits` is an (m, 6) integer array of [x1..x5, y] rows.
    """
    perms, signs = _aut_arrays()
    digits = elem_digits.astype(np.int16)
    moved = (digits[:, :5][:, perms] * signs) % 5          # (m, 3840, 5)
    enc = moved @ _POW[:5].astype(np.int16) + digits[:, 5:] * 3125
    return np.sort(enc.T, axis=1).astype(np.int64)


def min_row(images):
    """The lexicographically smallest row of an `orbit_images` array, as
    bytes: the key of the orbit."""
    return images[np.lexsort(images.T[::-1])[0]].tobytes()


def line_representatives():
    """Minimal encoding of each isotropic line (4 nonzero scalar multiples)."""
    t = _tables()
    iso_nonzero = np.nonzero(t["iso"])[0]
    iso_nonzero = iso_nonzero[iso_nonzero != 0]
    digits = t["digits"][iso_nonzero]
    best = iso_nonzero.copy()
    for c in (2, 3, 4):
        enc_c = ((digits * c) % 5) @ _POW
        best = np.minimum(best, enc_c)
    reps = np.unique(best)
    return reps


def isotropic_planes():
    """All totally isotropic 2-dimensional subgroups.

    Returns (planes, gen_pairs): `planes` is an (N, 25) array of sorted
    element encodings, `gen_pairs` an (N, 2) array of generator encodings.
    """
    t = _tables()
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
    enc = np.tensordot(elems, _POW, axes=([2], [0]))
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
    t = _tables()
    reps = line_representatives()
    lines = np.sort(np.stack(
        [((t["digits"][reps] * c) % 5) @ _POW for c in range(5)], axis=1), axis=1)
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
        keys = keys * 5 ** 6 + row @ _POW
    return keys


@lru_cache(maxsize=1)
def reference_orbits():
    """Echelon key -> label of every subgroup in the orbits of H_0..H_8."""
    orbits = {}
    for label, gens in REFERENCE_SUBGROUPS.items():
        images = _tables()["digits"][_image_codes(gens)]          # (3840, d, 6)
        orbits.update(dict.fromkeys(_echelon_keys(images).tolist(), label))
    return orbits
