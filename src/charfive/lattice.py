"""Even integer lattices: Gram matrices, the dual lattice and root
systems.

Conventions
-----------
* A lattice is presented by its Gram matrix in a fixed labeled basis
  ("primal coordinates").
* Vectors of the dual lattice are written in the dual basis ("dual
  coordinates", integer vectors); primal coordinates of a dual vector are
  rational with denominators dividing the exponent of the discriminant
  group L^vee / L; `dual_data` gives that exponent m and the integer
  matrix m * gram^{-1} that turns dual coordinates into m times primal
  ones, from the adjugate alone.

Arithmetic is exact.  numpy appears only in `RootSystemType.of_roots`,
to hold root pairings, which are small int64 values.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .intmat import adjugate, det_bareiss, is_symmetric, signature_symmetric


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
            comps.append(cls.identify_component(count // coxeter, count))
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


# ---------------------------------------------------------------------------
# The dual lattice
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def dual_data(gram):
    """(exponent m of L^vee / L, m * gram^{-1}) of a nonsingular Gram matrix.

    `gram` is a tuple of row tuples, the cache key.  m * gram^{-1} is an
    integer matrix (tuple of tuples) that maps dual coordinates to m times
    primal coordinates.  The exponent is the last invariant factor
    |det| / d, with d the gcd of the (n-1)-minors, which are the entries
    of the adjugate; so m = |det| / gcd(det, adj), and m * adj / det is
    integral.  Computed once per Gram matrix, on first use; raises
    ValueError when the matrix is singular.
    """
    adj, det = adjugate([list(r) for r in gram])
    m = abs(det) // gcd(det, *(x for row in adj for x in row))
    return m, tuple(tuple(m * x // det for x in row) for row in adj)
