"""Even integer lattices: Gram matrices, the dual lattice, root systems,
and the rank-22 model lattice S0 = 5A4 + U.

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

* The model lattice S0 = 5A4 + U of the package is built here, once, by
  `build_S0`, with the index constants of its basis; `discform` and
  `curvecheck` import them from this module.

Arithmetic is exact and uses Python integers only.
"""

from collections import namedtuple
from functools import lru_cache
from math import gcd
from operator import index

from .intmat import adjugate, det_bareiss, is_symmetric, signature_symmetric


RANK = 22
N_CHAINS = 5
CHAIN_LEN = 4
H_INDEX = 20
L_INDEX = 21


class DegenerateLatticeError(ValueError):
    """The Gram matrix is singular."""


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------

class GramLattice(namedtuple("GramLattice", "gram labels")):
    """An even integer lattice given by a symmetric Gram matrix (a tuple of
    row tuples) and one label per basis vector.  The constructor checks the
    matrix and computes its determinant, once."""

    def __new__(cls, gram, labels):
        gram = tuple(tuple(index(x) for x in row) for row in gram)
        labels = tuple(str(x) for x in labels)
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
        self = super().__new__(cls, gram, labels)
        self._det = det             # in the instance dict, so det() needs no elimination
        return self

    @property
    def rank(self):
        return len(self.gram)

    def det(self):
        return self._det

    def signature(self):
        return signature_symmetric([list(r) for r in self.gram])

    def to_json_dict(self):
        return {"labels": list(self.labels), "gram": [list(r) for r in self.gram]}


class RootSystemType(namedtuple("RootSystemType", "components")):
    """A multiset of ADE components, e.g. 5A4 or E8+3A4, held as the sorted
    tuple of its (letter, rank) pairs."""

    __slots__ = ()

    def __new__(cls, components):
        comps = tuple(sorted((str(l), int(r)) for l, r in components))
        for letter, rank in comps:
            if letter not in ("A", "D", "E") or rank < 1:
                raise ValueError(f"invalid component {letter}{rank}")
            if letter == "D" and rank < 4:
                raise ValueError("D components start at rank 4 (D3 = A3)")
            if letter == "E" and rank not in (6, 7, 8):
                raise ValueError("E components are E6, E7, E8")
        return super().__new__(cls, comps)

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
