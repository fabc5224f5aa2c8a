"""Even integer lattices: Gram matrices, discriminant groups and root
systems.

Conventions
-----------
* A lattice is presented by its Gram matrix in a fixed labeled basis
  ("primal coordinates").
* Vectors of the dual lattice are written in the dual basis ("dual
  coordinates", integer vectors); primal coordinates of a dual vector are
  rational with denominators dividing the exponent of the discriminant
  group.

Arithmetic is exact.  numpy appears only in `RootSystemType.of_roots`,
to hold root pairings, which are small int64 values.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .intmat import (
    adjugate,
    det_bareiss,
    is_symmetric,
    row_basis_hnf,
    signature_symmetric,
    smith_normal_form,
)


class DegenerateLatticeError(ValueError):
    """The Gram matrix is singular."""


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

    @classmethod
    def of_roots(cls, roots, gram):
        """Type of the root system whose roots are the integer rows of
        `roots`, paired by the integer matrix `gram` (the form in their
        coordinates, up to a nonzero scale).

        Roots come in pairs +-r, and r and -r lie in one component, so
        the rows whose first nonzero entry is positive stand for all.
        Components are the classes of the non-orthogonality relation
        among them, joined by union-find; each is identified by its root
        count and the rank of its span.
        """
        roots = np.asarray(roots)
        lead = roots[np.arange(len(roots)), (roots != 0).argmax(axis=1)]
        half = roots[lead > 0]
        pairings = half @ np.asarray(gram) @ half.T
        rows = half.tolist()                    # Python ints for the HNF
        parent = list(range(len(rows)))

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
        for i in range(len(rows)):
            groups.setdefault(find(i), []).append(rows[i])
        comps = []
        for vectors in groups.values():
            ncols = len(vectors[0])
            # fold the rows in, a few at a time, so that each Hermite
            # transform stays small
            basis = []
            for start in range(0, len(vectors), ncols):
                basis = row_basis_hnf(basis + vectors[start:start + ncols], ncols)
            comps.append(cls.identify_component(len(basis), 2 * len(vectors)))
        return cls(components=tuple(comps))

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
