"""A short tour of the exact GF(5^k) layer.

Shows element arithmetic in an extension, the inverse Frobenius (fifth
roots exist and are unique in every field here), and root finding across
extensions with minimal subfields.  `roots_in_extension` takes squarefree
polynomials only, so every root it lists is simple.
"""

from charfive.ffpoly import (
    GF,
    GFPoly,
    embedding,
    format_poly_literal,
    parse_poly_literal,
    roots_in_extension,
)

f25 = GF(2)
print(f"=== {f25!r}, modulus t^2 + 2 ===")
a = f25.elem([1, 2])          # 1 + 2t
b = f25.elem([0, 3])          # 3t
print(f"a = {f25.format_elem(a)}, b = {f25.format_elem(b)}")
print(f"a + b = {f25.format_elem(f25.add(a, b))}")
print(f"a * b = {f25.format_elem(f25.mul(a, b))}")
print(f"a^-1  = {f25.format_elem(f25.inv(a))} "
      f"(check: {f25.format_elem(f25.mul(a, f25.inv(a)))})")

r = f25.fifth_root(a)
print(f"fifth root of a: {f25.format_elem(r)}, r^5 = {f25.format_elem(f25.pow(r, 5))}")

print("\n=== roots of a quintic across extensions ===")
u = parse_poly_literal("[0,2,0,0,0,1]@5")            # x^5 + 2x
print(f"u = {format_poly_literal(u)}")
for rec in roots_in_extension(u, max_degree=8):
    print(f"  root {rec.field.format_elem(rec.value)} in GF(5^{rec.field.degree}), "
          f"multiplicity 1, minimal subfield degree "
          f"{rec.subfield_degree}")

print("\n=== embeddings compose with arithmetic ===")
f625 = GF(4)
emb = embedding(f25, f625)
img = emb(a)
print(f"a maps to {f625.format_elem(img)} in GF(5^4)")
mod_up = GFPoly.from_ints(f625, list(f25.modulus))
gen_img = emb(f25.elem([0, 1]))
print(f"the generator's image is a root of the small modulus: "
      f"{f625.format_elem(mod_up.eval(gen_img))}")
