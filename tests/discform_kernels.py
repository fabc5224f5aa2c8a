"""Exhaustive enumeration of the isotropic subgroups: the test oracle.

These are the line and plane enumerations that `charfive.discform` ran
before the classification became orbit-first.  They build every
isotropic line and every totally isotropic plane of the discriminant
form (3276 planes) and keep the 2713 subgroups on which every element
has a starred type.  `test_discform.py` checks that sweeping them gives
the same orbits as sweeping `discform._orbit_candidates()`, and reads the
exhaustive form of the dimension bound off the planes.

`AutElement` and `all_aut` are the symmetry group as the package held it
before `discform._aut_arrays` built its arrays directly: the oracle for
those arrays and for the group law.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from charfive.discform import _POW, _tables, decode


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
