"""Exact arithmetic in GF(5^k) and in univariate polynomials over it.

Field elements are tuples of length k with entries in {0,...,4}: the
residue c0 + c1*t + ... + c_{k-1}*t^{k-1} modulo a fixed irreducible
modulus over F5.  The shipped moduli (one per degree) are the
lexicographically smallest monic irreducibles in the ordering by
(c0, c1, ..., c_{k-1}); they are data, and re-verified irreducible the
first time a field is built.

Polynomial literals:  "[c0,c1,...,cn]@5^k;mod=[m0,...,mk]"  with the
prime-field shorthand "@5".  Coefficients over an extension are written
as nested lists.
"""

import ast
import random
from dataclasses import dataclass
from functools import lru_cache

P = 5

#: smallest monic irreducible modulus per degree (c0, c1, ..., 1).
#: Regenerate with `_search_modulus`; verified on first use.
MODULI = {
    1: (0, 1),
    2: (2, 0, 1),
    3: (1, 1, 0, 1),
    4: (2, 0, 0, 0, 1),
    5: (1, 4, 0, 0, 0, 1),
    6: (2, 1, 0, 0, 0, 0, 1),
    7: (1, 1, 0, 0, 0, 0, 0, 1),
    8: (2, 0, 0, 0, 0, 0, 0, 0, 1),
    9: (3, 2, 1, 0, 0, 0, 0, 0, 0, 1),
    10: (3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    11: (1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    12: (4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
}


# ---------------------------------------------------------------------------
# Polynomials over the prime field (plain int lists, ascending degree)
# ---------------------------------------------------------------------------

def _f5_trim(u):
    while u and u[-1] % P == 0:
        u.pop()
    return u


def _f5_mul(u, v):
    if not u or not v:
        return []
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] = (out[i + j] + a * b) % P
    return _f5_trim(out)


def _f5_mod(u, m):
    u = [x % P for x in u]
    _f5_trim(u)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, P)
    while len(u) - 1 >= dm:
        c = (u[-1] * inv_lead) % P
        shift = len(u) - 1 - dm
        for i, b in enumerate(m):
            u[shift + i] = (u[shift + i] - c * b) % P
        _f5_trim(u)
    return u


def _f5_gcd(u, v):
    u = _f5_trim([x % P for x in u])
    v = _f5_trim([x % P for x in v])
    while v:
        u, v = v, _f5_mod(u, v)
    if u:
        inv = pow(u[-1], -1, P)
        u = [(x * inv) % P for x in u]
    return u


def _f5_powmod_x(e, m):
    """x^e mod m over F5."""
    result = [1]
    base = _f5_mod([0, 1], m)
    while e:
        if e & 1:
            result = _f5_mod(_f5_mul(result, base), m)
        base = _f5_mod(_f5_mul(base, base), m)
        e >>= 1
    return result


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _f5_is_irreducible(m):
    m = list(m)
    k = len(m) - 1
    if k < 1 or m[-1] % P != 1:
        return False
    if k == 1:
        return True
    xq = _f5_powmod_x(P ** k, m)
    x = _f5_mod([0, 1], m)
    if _f5_trim([(a - b) % P for a, b in
                 zip(xq + [0] * len(x), x + [0] * len(xq))]) != []:
        return False
    for r in _prime_divisors(k):
        xqr = _f5_powmod_x(P ** (k // r), m)
        diff = [(a - b) % P for a, b in
                zip(xqr + [0] * len(x), x + [0] * len(xqr))]
        if len(_f5_gcd(m, diff)) - 1 > 0:
            return False
    return True


def _search_modulus(k):
    """Smallest monic irreducible of degree k in (c0, c1, ...) order."""
    for code in range(P ** k):
        coeffs = []
        c = code
        for _ in range(k):
            coeffs.append(c % P)
            c //= P
        m = coeffs + [1]
        if _f5_is_irreducible(m):
            return tuple(m)
    raise ArithmeticError(f"no irreducible of degree {k}")


@lru_cache(maxsize=None)
def _checked_modulus(modulus):
    if not _f5_is_irreducible(list(modulus)):
        raise ValueError(f"modulus {list(modulus)} is not irreducible over F5")
    return modulus


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

class GF:
    """The field with 5^degree elements, as residues mod a fixed modulus."""

    __slots__ = ("degree", "modulus", "order", "zero", "one")

    def __init__(self, degree, modulus=None):
        degree = int(degree)
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if modulus is None:
            modulus = MODULI.get(degree) or _search_modulus(degree)
        modulus = tuple(int(x) % P for x in modulus)
        if len(modulus) != degree + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of the field degree")
        _checked_modulus(modulus)
        self.degree = degree
        self.modulus = modulus
        self.order = P ** degree
        self.zero = (0,) * degree
        self.one = tuple([1] + [0] * (degree - 1))

    def __eq__(self, other):
        return (isinstance(other, GF) and self.degree == other.degree
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.degree, self.modulus))

    def __repr__(self):
        if self.degree == 1:
            return "GF(5)"
        return f"GF(5^{self.degree})"

    # -- element construction ------------------------------------------------

    def elem(self, value):
        """Coerce an int (prime subfield) or coefficient sequence."""
        if isinstance(value, int):
            return tuple([value % P] + [0] * (self.degree - 1))
        value = list(value)
        if len(value) > self.degree:
            raise ValueError("too many coefficients")
        value += [0] * (self.degree - len(value))
        return tuple(int(x) % P for x in value)

    def from_int(self, code):
        """Element with base-5 digit expansion `code` (an enumeration index)."""
        out = []
        for _ in range(self.degree):
            out.append(code % P)
            code //= P
        return tuple(out)

    def iter_elements(self):
        for code in range(self.order):
            yield self.from_int(code)

    def rand_elem(self, rng):
        return self.from_int(rng.randrange(self.order))

    # -- arithmetic -----------------------------------------------------------

    def add(self, a, b):
        return tuple((x + y) % P for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % P for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % P for x in a)

    def mul(self, a, b):
        if self.degree == 1:
            return ((a[0] * b[0]) % P,)
        prod = _f5_mul(list(a), list(b))
        red = _f5_mod(prod, list(self.modulus))
        red += [0] * (self.degree - len(red))
        return tuple(red)

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inversion of zero")
        # extended Euclid against the modulus
        r0, r1 = list(self.modulus), _f5_trim(list(a))
        t0, t1 = [], [1]
        while r1:
            # divmod over F5
            q = []
            r = r0[:]
            inv_lead = pow(r1[-1], -1, P)
            while len(r) >= len(r1) and r:
                c = (r[-1] * inv_lead) % P
                shift = len(r) - len(r1)
                if len(q) < shift + 1:
                    q += [0] * (shift + 1 - len(q))
                q[shift] = c
                for i, b in enumerate(r1):
                    r[shift + i] = (r[shift + i] - c * b) % P
                _f5_trim(r)
            r0, r1 = r1, r
            prod = _f5_mul(q, t1)
            t_new = [(x - y) % P for x, y in
                     zip(t0 + [0] * len(prod), prod + [0] * len(t0))]
            t0, t1 = t1, _f5_trim(t_new)
        # r0 is a nonzero constant gcd
        c_inv = pow(r0[0], -1, P)
        out = [(x * c_inv) % P for x in t0]
        out += [0] * (self.degree - len(out))
        return tuple(out[: self.degree])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        e = int(e)
        if e < 0:
            a = self.inv(a)
            e = -e
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a):
        return self.pow(a, P)

    def fifth_root(self, a):
        """The unique c with c^5 = a (the inverse of the Frobenius)."""
        return self.pow(a, P ** (self.degree - 1))

    def format_elem(self, a):
        if self.degree == 1:
            return str(a[0])
        return "[" + ",".join(str(x) for x in a) + "]"


@lru_cache(maxsize=None)
def _embedding_image(src_key, dst_key):
    src = GF(src_key[0], src_key[1])
    dst = GF(dst_key[0], dst_key[1])
    mod_poly = GFPoly(dst, [dst.elem(c) for c in src.modulus])
    roots = roots_in_field(mod_poly)
    if not roots:
        raise ValueError("source modulus has no root in the target field")
    return min(r for r, _ in roots)


def embedding(src, dst):
    """The canonical field embedding GF(5^a) -> GF(5^b) for a | b.

    Maps the generator of the source to the minimal root (in element
    order) of the source modulus inside the target.  Returns a callable.
    """
    if dst.degree % src.degree:
        raise ValueError("no embedding: source degree does not divide target")
    if src == dst:
        return lambda a: a
    if src.degree == 1:
        return lambda a: dst.elem(a[0])
    rho = _embedding_image((src.degree, src.modulus), (dst.degree, dst.modulus))

    def emb(a):
        acc = dst.zero
        for c in reversed(a):
            acc = dst.add(dst.mul(acc, rho), dst.elem(c))
        return acc

    return emb


def subfield_degree(field, a):
    """Degree over F5 of the subfield generated by `a`."""
    n = field.degree
    for d in range(1, n + 1):
        if n % d:
            continue
        b = a
        for _ in range(d):
            b = field.frobenius(b)
        if b == a:
            return d
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Polynomials over GF(5^k)
# ---------------------------------------------------------------------------

class GFPoly:
    """Univariate polynomial with coefficients in a GF(5^k), ascending degree."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        cs = []
        for c in coeffs:
            if isinstance(c, int):
                c = field.elem(c)
            cs.append(tuple(c))
        while cs and not any(cs[-1]):
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.elem(i) for i in ints])

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (isinstance(other, GFPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        f = self.field
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        out = []
        for i in range(n):
            x = a[i] if i < len(a) else f.zero
            y = b[i] if i < len(b) else f.zero
            out.append(f.add(x, y))
        return GFPoly(f, out)

    def __neg__(self):
        return GFPoly(self.field, [self.field.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        if isinstance(other, tuple):
            return GFPoly(f, [f.mul(c, other) for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return GFPoly(f, [])
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if any(a):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = f.add(out[i + j], f.mul(a, b))
        return GFPoly(f, out)

    def __divmod__(self, other):
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [f.zero] * max(0, len(rem) - len(other.coeffs) + 1)
        inv_lead = f.inv(other.leading())
        d = other.degree
        while len(rem) - 1 >= d and rem:
            c = f.mul(rem[-1], inv_lead)
            shift = len(rem) - 1 - d
            quo[shift] = c
            for i, b in enumerate(other.coeffs):
                rem[shift + i] = f.sub(rem[shift + i], f.mul(c, b))
            while rem and not any(rem[-1]):
                rem.pop()
        return GFPoly(f, quo), GFPoly(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        inv = self.field.inv(self.leading())
        return self * inv

    def derivative(self):
        f = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(f.mul(self.coeffs[i], f.elem(i % P)))
        return GFPoly(f, out)

    def eval(self, x):
        f = self.field
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def pow_mod(self, e, mod):
        e = int(e)
        result = GFPoly(self.field, [self.field.one])
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def map_coeffs(self, fn, new_field):
        return GFPoly(new_field, [fn(c) for c in self.coeffs])

    def __repr__(self):
        return f"GFPoly({self.field!r}, {format_poly_literal(self)!r})"


def poly_gcd(u, v):
    """Monic greatest common divisor; both arguments zero is an error."""
    if u.is_zero() and v.is_zero():
        raise ValueError("gcd of two zero polynomials")
    while not v.is_zero():
        u, v = v, u % v
    return u.monic()


def is_squarefree(u):
    """True iff gcd(u, u') is constant.  A vanishing derivative (a fifth
    power) reports False; constants are squarefree."""
    if u.is_zero():
        raise ValueError("zero polynomial")
    if u.degree == 0:
        return True
    du = u.derivative()
    if du.is_zero():
        return False
    return poly_gcd(u, du).degree == 0


def poly_fifth_root(u):
    """v with v^5 = u, for u whose nonzero terms all have exponent 0 mod 5."""
    f = u.field
    out = []
    for i, c in enumerate(u.coeffs):
        if i % P == 0:
            out.append(f.fifth_root(c))
        elif any(c):
            raise ValueError("polynomial is not a fifth power")
    return GFPoly(f, out)


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def roots_in_field(u, seed=0):
    """All roots of u inside its own coefficient field, with multiplicities.

    Exhaustive scan for fields with at most 5^4 elements; otherwise the
    product of linear factors is extracted with x^q - x and split by
    seeded equal-degree splitting.
    """
    if u.is_zero():
        raise ValueError("zero polynomial")
    f = u.field
    roots = []
    if f.order <= P ** 4:
        for a in f.iter_elements():
            if not any(u.eval(a)):
                roots.append(a)
    else:
        m = u.monic()
        x = GFPoly.x(f)
        xq = x.pow_mod(f.order, m)
        lin = poly_gcd(xq - x, m)
        rng = random.Random(seed)
        stack = [lin]
        while stack:
            g = stack.pop()
            if g.degree == 0:
                continue
            if g.degree == 1:
                roots.append(f.neg(g.monic().coeffs[0]))
                continue
            while True:
                a = f.rand_elem(rng)
                probe = GFPoly(f, [a, f.one]).pow_mod((f.order - 1) // 2, g)
                d = poly_gcd(probe - GFPoly(f, [f.one]), g)
                if 0 < d.degree < g.degree:
                    stack.append(d)
                    stack.append(g // d)
                    break
    return [(r, _root_multiplicity(u, r)) for r in sorted(roots)]


def _root_multiplicity(u, r):
    """The multiplicity of r as a root of u (0 when u(r) != 0)."""
    f = u.field
    lin = GFPoly(f, [f.neg(r), f.one])
    mult = 0
    while True:
        q, rem = divmod(u, lin)
        if not rem.is_zero():
            return mult
        mult += 1
        u = q


@dataclass(frozen=True)
class RootInExtension:
    value: tuple
    multiplicity: int
    subfield_degree: int
    field: GF


class SplittingFieldError(ValueError):
    """The splitting field exceeds the requested extension degree."""

    def __init__(self, message, partial, remaining):
        super().__init__(message)
        self.partial = partial
        self.remaining = remaining


def _radical(u):
    """Monic squarefree polynomial with the same roots as u."""
    f = u.field
    u = u.monic()
    if u.degree == 0:
        return u
    du = u.derivative()
    if du.is_zero():
        return _radical(poly_fifth_root(u))
    g = poly_gcd(u, du)
    w = (u // g).monic()          # distinct factors of multiplicity != 0 mod 5
    g1 = g
    while True:
        h = poly_gcd(g1, w)
        if h.degree == 0:
            break
        g1 = g1 // h
    if g1.degree == 0:
        return w
    return (w * _radical(poly_fifth_root(g1))).monic()


def roots_in_extension(u, max_degree, seed=0):
    """All roots of u in extensions of its coefficient field of relative
    degree at most `max_degree`.

    Returns RootInExtension records sorted by (relative degree, value).
    Distinct-degree splitting peels off the degree-m part for each m; its
    roots are located in the absolute-degree k*m field after embedding.
    Raises SplittingFieldError (carrying the partial result) if factors
    of larger degree remain.
    """
    if u.is_zero():
        raise ValueError("zero polynomial")
    base = u.field
    sf = _radical(u)
    chunks = []
    v = sf
    x = GFPoly.x(base)
    h = x
    m = 0
    while v.degree > 0 and m < max_degree:
        m += 1
        h = h.pow_mod(base.order, v)
        g = poly_gcd(h - x, v)
        if g.degree > 0:
            chunks.append((m, g.monic()))
            v = (v // g).monic()
            h = h % v if v.degree > 0 else h

    records = []
    for m, g in chunks:
        if m == 1:
            ext = base
            emb = lambda a: a
        else:
            ext = GF(base.degree * m)
            emb = embedding(base, ext)
        g_ext = g.map_coeffs(emb, ext)
        u_ext = u.map_coeffs(emb, ext)
        found = roots_in_field(g_ext, seed=seed)
        if sum(1 for _ in found) != g.degree:
            raise AssertionError("degree-m part did not split into linears")
        for r, _ in found:
            records.append(RootInExtension(
                value=r,
                multiplicity=_root_multiplicity(u_ext, r),
                subfield_degree=subfield_degree(ext, r),
                field=ext,
            ))
    records.sort(key=lambda rec: (rec.field.degree, rec.value))
    if v.degree > 0:
        raise SplittingFieldError(
            f"irreducible factors of degree > {max_degree} remain",
            partial=records, remaining=v)
    return records


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------

def parse_poly_literal(text):
    """Parse "[c0,...,cn]@5^k;mod=[m0,...,mk]" (shorthand "@5" for k = 1)."""
    text = text.strip()
    if "@" not in text:
        raise ValueError("polynomial literal needs an @5^k field tag")
    coeff_part, _, field_part = text.partition("@")
    mod = None
    if ";" in field_part:
        field_part, _, mod_part = field_part.partition(";")
        mod_part = mod_part.strip()
        if not mod_part.startswith("mod="):
            raise ValueError("expected mod=[...] after ';'")
        mod = ast.literal_eval(mod_part[4:])
    field_part = field_part.strip()
    if field_part == "5":
        k = 1
    elif field_part.startswith("5^"):
        k = int(field_part[2:])
    else:
        raise ValueError(f"unsupported field tag {field_part!r}")
    field = GF(k, tuple(mod) if mod is not None else None)
    coeffs = ast.literal_eval(coeff_part.strip())
    if not isinstance(coeffs, (list, tuple)):
        raise ValueError("coefficients must be a list")
    out = []
    for c in coeffs:
        if isinstance(c, int):
            out.append(field.elem(c))
        else:
            out.append(field.elem(list(c)))
    return GFPoly(field, out)


def format_poly_literal(p):
    field = p.field
    if field.degree == 1:
        body = "[" + ",".join(str(c[0]) for c in p.coeffs) + "]"
        return body + "@5"
    parts = []
    for c in p.coeffs:
        parts.append("[" + ",".join(str(x) for x in c) + "]")
    body = "[" + ",".join(parts) + "]"
    tag = f"@5^{field.degree}"
    default = MODULI.get(field.degree)
    if default is not None and tuple(default) == field.modulus:
        return body + tag
    mod = "[" + ",".join(str(x) for x in field.modulus) + "]"
    return body + tag + ";mod=" + mod
