"""Walk through the overlattice classification.

Builds the rank-22 lattice (five negative A4 chains plus the pair h, l
with h^2 = 2, l^2 = -2, hl = 1), checks its discriminant form against the
closed formula, tabulates the isotropic vectors of the form by type, and
classifies the admissible isotropic subgroups up to symmetry.
"""

from charfive.discform import (
    IsotropicSubgroup,
    classify_isotropic_subgroups,
    e_splittings,
    isotropic_table,
    max_isotropic_dimension,
    root_type_orthogonal_to_h,
    verify_q_consistency,
)
from charfive.lattice import build_S0

print("=== The base lattice ===")
s0 = build_S0()
print(f"rank {s0.rank}, determinant {s0.det()} = -5^6, "
      f"signature {s0.signature()}")

print("\n=== Discriminant form consistency ===")
rep = verify_q_consistency()
print(f"formula matches the lattice on {rep.n_checked} elements: {rep.passed}")
print(f"dual of l in the reference basis: {rep.expansions['l']}  (= -2 * h-dual)")

print("\n=== The hand check for the trivial overlattice ===")
# H = 0: the roots orthogonal to h are the norm -2 catalogue entries of
# class 0, and no splitting e = a + b of a vector of E exists
print(f"root type orthogonal to h: {root_type_orthogonal_to_h(IsotropicSubgroup(gens=()))}")
print(f"degree-1 elliptic set: {e_splittings()!r} (empty)")

print("\n=== Isotropic vectors by (a, b, y)-type ===")
for row in isotropic_table():
    star = "*" if row.starred else " "
    print(f"  {row.type_label:>10} {star}  roots {row.root_type:>8}  "
          f"E {'empty' if row.e_empty else 'NONEMPTY'}  disc -5^{row.disc_exp}")

print("\n=== Classification of admissible subgroups up to symmetry ===")
for rec in classify_isotropic_subgroups():
    gens = " ".join(str(list(g)) for g in rec.gens) or "(trivial)"
    print(f"  {rec.label}: dim {rec.dim}, disc -5^{rec.disc_exp}, "
          f"sigma {rec.sigma}, roots {rec.root_type}, E empty: {rec.e_empty}")
    print(f"       generators: {gens}")

print(f"\nlargest totally isotropic dimension: {max_isotropic_dimension()}")
