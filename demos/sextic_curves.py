"""Certify the singular locus of sextic curves y^5 = f(x) in characteristic 5.

For a degree-6 polynomial whose derivative is squarefree, the curve has
exactly five singular points (alpha, f(alpha)^(1/5)) over the closure,
each of type A4.  The script checks one fixture and a few seeded random
samples, computes the local polar multiplicities and the product
30 - sum(corrections), and prints the rank-22 lattice model.
"""

from charfive.curvecheck import SexticModel, analyze, ns_gram_model, random_in_U
from charfive.ffpoly import GF, format_poly_literal, parse_poly_literal

f = parse_poly_literal("[0,0,1,0,0,0,1]@5")          # x^6 + x^2
model = SexticModel(f)

print(f"=== {format_poly_literal(f)} ===")
report = analyze(model)
for p in report.points:
    print(f"  alpha = {p.field.coefficients(p.alpha)} (degree-{p.subfield_degree} point), "
          f"beta = {p.field.coefficients(p.beta)}, A4: {p.is_A4}, "
          f"polar multiplicity {p.local_mult_with_polar}")
wall = report.wall
print(f"degree product: {wall.total} - {sum(wall.corrections)} = {wall.product}")

lat = ns_gram_model(report.points)
print(f"lattice model: rank {lat.rank}, det {lat.det()}, "
      f"signature {lat.signature()}")
print(f"chain labels: {lat.labels[:4]} ... {lat.labels[16:20]} + {lat.labels[20:]}")

print("\n=== seeded random samples ===")
for field, seeds in ((GF(1), range(3)), (GF(2), range(3))):
    for seed in seeds:
        m = random_in_U(field, seed)
        r = analyze(m, seed=seed)
        degrees = sorted(p.subfield_degree for p in r.points)
        print(f"  {format_poly_literal(m.f)}: {len(r.points)} points "
              f"(degrees {degrees}), corrections {list(r.wall.corrections)}, "
              f"product {r.wall.product}")
