"""The root catalogue path: the test oracle for the class shells.

This is how `charfive` found the root type of each overlattice S_H before
`discform.root_type_orthogonal_to_h` read it from the shell table and the
supports of the classes of H.  `root_catalogue` lists all 6100 norm -2
vectors of h^perp in S0^vee with their classes, and `of_roots` names the
root system of the entries whose class lies in H, by union-find on the
nonzero pairings and the Coxeter number of each component.
`lattice_kernels.hnf_root_type` is in turn the oracle for `of_roots`.
"""

from functools import lru_cache

import numpy as np

from charfive import discform
from charfive.lattice import RootSystemType, build_S0
from discform_kernels import POW
from lattice_kernels import H_PRIMAL


def of_roots(roots, gram):
    """Type of the root system whose roots are the integer rows of
    `roots`, paired by the integer matrix `gram` (the form in their
    coordinates, up to a nonzero scale).

    Roots come in pairs +-r, and r and -r lie in one component, so
    the rows whose first nonzero entry is positive stand for all.
    Components are the classes of the non-orthogonality relation
    among them, joined by union-find.  In an irreducible simply-laced
    system with Coxeter number h, each root is not orthogonal to
    exactly 4h - 6 roots, itself and its negative included (Bourbaki,
    Lie Groups ch. VI, sec. 1.11, Prop. 32), so its row of pairings
    has 2h - 3 nonzero entries, and the rank is the root count over
    h.  Raises ValueError when the rows of a component disagree or
    h or the rank is not an integer.
    """
    roots = np.asarray(roots)
    lead = roots[np.arange(len(roots)), (roots != 0).argmax(axis=1)]
    half = roots[lead > 0]
    pairings = half @ np.asarray(gram) @ half.T
    degree = np.count_nonzero(pairings, axis=1)
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
    for i in range(len(half)):
        groups.setdefault(find(i), []).append(i)
    comps = []
    for members in groups.values():
        count = 2 * len(members)
        first = int(degree[members[0]])
        coxeter, odd = divmod(first + 3, 2)
        if odd or count % coxeter or (degree[members] != first).any():
            raise ValueError("the roots do not form a simply-laced root system")
        comps.append(RootSystemType.identify_component(count // coxeter, count))
    return RootSystemType(components=tuple(comps))


@lru_cache(maxsize=1)
def root_catalogue():
    """The norm -2 vectors of h^perp in S0^vee: (dual coordinates as a
    (6100, 22) int8 array, their class encodings in G as a (6100,) array).

    Every even overlattice S_H lies in S0^vee as the vectors whose class
    lies in H (Nikulin 1979, Prop. 1.4.1), so its roots orthogonal to h
    are the entries whose class lies in H.  Norms add over the orthogonal
    summands and none is positive, so each part of an entry has norm
    >= -2 and comes from `discform._short_summand_vectors`.  Each entry is
    checked to have norm -2 and to be orthogonal to h.
    """
    # each summand's vectors, widened to 22 dual coordinates
    tables = []
    for idx, (vecs, part) in zip(discform._SUMMANDS, discform._short_summand_vectors()):
        wide = np.zeros((len(vecs), 22), dtype=np.int8)
        wide[:, idx] = vecs
        tables.append((wide, np.array(part, dtype=np.int64)))
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
    n5 = np.array(discform._reference_form()[1], dtype=np.int64)
    gram_h = np.array(build_S0().gram, dtype=np.int64) @ np.array(H_PRIMAL)
    if not ((((wide @ n5) * wide).sum(axis=1) == -10).all()
            and not (wide @ n5 @ gram_h).any()):
        raise ArithmeticError("a catalogue entry is not a root orthogonal to h")
    classes = discform._dual_classes()
    if classes is None:
        raise ArithmeticError("the reference classes are not a basis of G")
    return vectors, (wide @ np.array(classes, dtype=np.int64) % 5) @ POW


def catalogue_root_type(subgroup):
    """ADE type of the roots orthogonal to h in S_H: the catalogue entries
    whose class lies in H, named by `of_roots`."""
    vectors, classes = root_catalogue()
    member = np.zeros(5 ** 6, dtype=bool)
    member[list(subgroup._codes)] = True
    return of_roots(vectors[member[classes]], discform._reference_form()[1])
