"""Exact arithmetic in GF(5^k) and in univariate polynomials over it.

Field elements are tuples of length k with entries in {0,...,4}: the
residue c0 + c1*t + ... + c_{k-1}*t^{k-1} modulo a fixed irreducible
modulus over F5.  The shipped moduli (one per degree) are the
lexicographically smallest monic irreducibles in the ordering by
(c0, c1, ..., c_{k-1}); they are data, and re-verified irreducible the
first time a field is built.  Fields of at most TABLE_MAX_ORDER elements
compute through log/antilog tables, larger ones through a packed
Kronecker kernel (`_Kronecker`).

F5[t] arithmetic has two forms here: `_Kronecker`, whose maps come from
t^(j+1) = t * t^j mod m, and `GFPoly` over GF(5).  Rabin's irreducibility
test uses both.  The schoolbook reference lives in `tests/gf_kernels.py`.

Polynomial literals:  "[c0,c1,...,cn]@5^k;mod=[m0,...,mk]"  with the
prime-field shorthand "@5".  Coefficients over an extension are written
as nested lists; `parse_field_degree` reads the field tag.
"""

import ast
import random
import re
from operator import add as _int_add
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

#: the largest field degree a polynomial literal may name, the range of
#: MODULI: larger degrees would send `GF` into `_search_modulus`, whose
#: cost grows with 5^k
MAX_LITERAL_DEGREE = max(MODULI)


# ---------------------------------------------------------------------------
# Moduli
# ---------------------------------------------------------------------------

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
    """Rabin's test: t^(5^k) = t mod m, and gcd(m, t^(5^(k/r)) - t) = 1 for
    each prime r | k.  t^(5^e) is `_Kronecker(m).frobenius(e)` applied to t,
    valid for any monic m.  The gcds run in `GFPoly` over GF(5); k = 1
    returns first, so building GF(5) does not recurse."""
    m = tuple(x % P for x in m)
    k = len(m) - 1
    if k < 1 or m[-1] != 1:
        return False
    if k == 1:
        return True
    kron = _Kronecker(m)
    t = bytes([0, 1] + [0] * (k - 2))
    if kron.frobenius(k).apply(t) != t:
        return False
    f5 = GF(1)
    mpoly = GFPoly.from_ints(f5, m)
    for r in _prime_divisors(k):
        diff = [a - b for a, b in zip(kron.frobenius(k // r).apply(t), t)]
        if poly_gcd(mpoly, GFPoly.from_ints(f5, diff)).degree > 0:
            return False
    return True


def _search_modulus(k):
    """Smallest monic irreducible of degree k in (c0, c1, ...) order."""
    for code in range(P ** k):
        m = [(code // P ** i) % P for i in range(k)] + [1]
        if _f5_is_irreducible(m):
            return tuple(m)
    raise ArithmeticError(f"no irreducible of degree {k}")


@lru_cache(maxsize=None)
def _checked_modulus(modulus):
    if not _f5_is_irreducible(list(modulus)):
        raise ValueError(f"modulus {list(modulus)} is not irreducible over F5")
    return modulus


# ---------------------------------------------------------------------------
# Packed (Kronecker) arithmetic
# ---------------------------------------------------------------------------
#
# A coefficient vector (c0, ..., c_{n-1}) with entries in 0..4 travels as
# `bytes`, one coefficient per byte, and is multiplied as the integer
# sum c_i X^i with X = 256^s: one slot of s bytes per coefficient.  No sum
# that the kernel forms in a slot exceeds 16k (at most k products of two
# entries 0..4), so s = 1 holds up to k = 15 and larger degrees widen the
# slots.  Since 256 = 1 (mod 5), a slot is congruent to the sum of its
# bytes, and `bytes.translate(_MOD5)` reduces a whole vector at once.

_MOD5 = bytes(i % P for i in range(256))
_NEG5 = bytes((-i) % P for i in range(256))


def _slot_bytes(k):
    """Bytes per slot for degree k: every slot sum stays below 256^s."""
    s = 1
    while 16 * k >= 256 ** s:
        s += 1
    return s


def _spread(v, s):
    """The integer with the entries of the bytes v in s-byte slots (s > 1)."""
    buf = bytearray(s * len(v))
    buf[::s] = v
    return int.from_bytes(buf, "little")


def _gather(data, start, step, s):
    """The s-byte slots of `data` at slot offsets start, start + step, ...,
    reduced mod 5, one byte each (s > 1)."""
    lanes = [data[s * start + b::s * step] for b in range(s)]
    total = sum(int.from_bytes(lane.translate(_MOD5), "little") for lane in lanes)
    return total.to_bytes(len(lanes[0]), "little").translate(_MOD5)


class _PackedMap:
    """An F5-linear map v -> M v, applied with one integer product.

    Q holds row i of M, reversed, in slots T*i .. T*i + n - 1 (n = number of
    columns).  In V*Q the entry (M v)_i then sits in slot T*i + n - 1, and
    the other sums of block i fill slots T*i .. T*i + 2n - 2; T = 2n - 1
    keeps the blocks apart.
    """

    __slots__ = ("q", "n", "step", "rows", "s", "size")

    def __init__(self, matrix, s):
        self.rows = len(matrix)
        self.n = len(matrix[0])
        self.step = 2 * self.n - 1
        self.s = s
        self.size = s * self.step * self.rows
        q = 0
        for i, row in enumerate(matrix):
            for t, c in enumerate(row):
                if c:
                    q += c << (8 * s * (self.step * i + self.n - 1 - t))
        self.q = q

    def apply(self, v):
        if self.s == 1:
            data = (int.from_bytes(v, "little") * self.q).to_bytes(self.size, "little")
            return data[self.n - 1::self.step].translate(_MOD5)
        data = (_spread(v, self.s) * self.q).to_bytes(self.size, "little")
        return _gather(data, self.n - 1, self.step, self.s)


class _Kronecker:
    """Packed arithmetic in F5[t]/(m) on coefficient bytes, m monic.

    `mul` forms the product of two residues as one integer product, reads
    its 2k - 1 coefficients mod 5, and reduces them by the linear map whose
    columns are t^j mod m (j < 2k - 1).  `frobenius(e)` is the linear map
    x -> x^(5^e); `inv` is Itoh-Tsujii on top of both, for irreducible m.
    """

    __slots__ = ("k", "s", "modulus", "one", "reduction", "_frob")

    def __init__(self, modulus):
        k = len(modulus) - 1
        self.k = k
        self.one = bytes([1] + [0] * (k - 1))
        self.s = _slot_bytes(k)
        self.modulus = modulus
        self.reduction = _PackedMap(list(zip(*self._powers_of_t(2 * k - 1))), self.s)
        self._frob = {}

    def _powers_of_t(self, count):
        """t^j mod m for j < count, as k coefficient bytes each, by shift and
        subtract: t^(j+1) = t * t^j - c * m, with c the top coefficient of t^j."""
        out, r = [], self.one
        for _ in range(count):
            out.append(r)
            c = r[-1]
            r = bytes((a - c * b) % P for a, b in zip(b"\0" + r[:-1], self.modulus))
        return out

    def mul(self, x, y):
        s, n = self.s, self.reduction.n
        if s == 1:
            prod = (int.from_bytes(x, "little") * int.from_bytes(y, "little")).to_bytes(
                n, "little").translate(_MOD5)
        else:
            prod = _gather((_spread(x, s) * _spread(y, s)).to_bytes(s * n, "little"), 0, 1, s)
        return self.reduction.apply(prod)

    def pow(self, x, e):
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, x)
            x = self.mul(x, x)
            e >>= 1
        return result

    def frobenius(self, e):
        """The linear map x -> x^(5^e) for e >= 1, built once per e."""
        fmap = self._frob.get(e)
        if fmap is None:
            if e == 1:
                cols = self._powers_of_t(P * self.k - P + 1)[::P]
            else:
                # compose two maps of about half the exponent
                first, second = self.frobenius(e // 2), self.frobenius(e - e // 2)
                cols = [second.apply(first.apply(t)) for t in self._powers_of_t(self.k)]
            fmap = self._frob[e] = _PackedMap(list(zip(*cols)), self.s)
        return fmap

    def inv(self, x):
        """x^-1 for nonzero x (Itoh-Tsujii).

        With r = (5^k - 1)/4 = 1 + 5 + ... + 5^(k-1), x^r is the norm of x
        and lies in F5, and x^-1 = x^(r-1) / x^r.  x^(r-1) is the Frobenius
        image of x^(1 + 5 + ... + 5^(k-2)), whose exponent e_{k-1} is built
        from e_1 = 1 by e_{2m} = e_m + 5^m e_m and e_{m+1} = 1 + 5 e_m.
        """
        k = self.k
        if k == 1:
            return bytes([pow(x[0], -1, P)])
        frob = self.frobenius(1)
        y, m = x, 1
        for bit in bin(k - 1)[3:]:
            y = self.mul(y, self.frobenius(m).apply(y))
            m *= 2
            if bit == "1":
                y = self.mul(x, frob.apply(y))
                m += 1
        y = frob.apply(y)
        scale = pow(self.mul(x, y)[0], -1, P)
        return (int.from_bytes(y, "little") * scale).to_bytes(k, "little").translate(_MOD5)


@lru_cache(maxsize=None)
def _arithmetic(modulus):
    """(log, antilog, kronecker) for the field of an irreducible modulus.

    The packed kernel always exists.  Fields with at most TABLE_MAX_ORDER
    elements also get log/antilog tables for a primitive element g (the
    smallest in element order): log maps each element tuple to its
    exponent, and zero to 2(q - 1); antilog[i] = g^i for i < 2(q - 1) and
    zero from there on, so the sum of two logs, or a log difference plus
    q - 1, indexes antilog without a reduction mod q - 1.
    """
    kron = _Kronecker(_checked_modulus(modulus))
    k = len(modulus) - 1
    q = P ** k
    if q > TABLE_MAX_ORDER:
        return None, None, kron
    zero, one = bytes(k), kron.one
    exponents = [(q - 1) // r for r in _prime_divisors(q - 1)]
    for code in range(2, q):
        g = bytes((code // P ** i) % P for i in range(k))
        if all(kron.pow(g, e) != one for e in exponents):
            break
    powers = []
    x = one
    for _ in range(q - 1):
        powers.append(tuple(x))
        x = kron.mul(x, g)
    log = {a: i for i, a in enumerate(powers)}
    log[tuple(zero)] = 2 * (q - 1)
    antilog = powers * 2 + [tuple(zero)] * (2 * q - 1)
    return log, antilog, kron


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

#: fields of at most this many elements multiply, invert and divide
#: through log/antilog tables; larger ones use the packed kernel.  The
#: tables of GF(5^5) hold 0.55 MB and take about 13 ms to build; those of
#: GF(5^6) would hold 2.8 MB, GF(5^7) 14 MB and GF(5^8) about 70 MB,
#: against a `curve check` process that peaks near 38 MB.
TABLE_MAX_ORDER = P ** 5


class GF:
    """The field with 5^degree elements, as residues mod a fixed modulus.

    Elements are tuples of k coefficients.  Fields with at most
    TABLE_MAX_ORDER elements multiply through log tables, larger ones
    through the packed Kronecker kernel; both are built on the first
    construction of a field and shared by every later one.
    """

    __slots__ = ("degree", "modulus", "order", "zero", "one", "_log", "_antilog", "_kron")

    def __init__(self, degree, modulus=None):
        degree = int(degree)
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if modulus is None:
            modulus = MODULI.get(degree) or _search_modulus(degree)
        modulus = tuple(int(x) % P for x in modulus)
        if len(modulus) != degree + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of the field degree")
        self._log, self._antilog, self._kron = _arithmetic(modulus)
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
        return tuple(bytes(map(_int_add, a, b)).translate(_MOD5))

    def sub(self, a, b):
        return tuple(bytes(map(_int_add, a, bytes(b).translate(_NEG5))).translate(_MOD5))

    def neg(self, a):
        return tuple(bytes(a).translate(_NEG5))

    def mul(self, a, b):
        log = self._log
        if log is not None:
            return self._antilog[log[a] + log[b]]
        return tuple(self._kron.mul(bytes(a), bytes(b)))

    def inv(self, a):
        log = self._log
        if log is None:
            if not any(a):
                raise ZeroDivisionError("inversion of zero")
            return tuple(self._kron.inv(bytes(a)))
        e = log[a]
        if e == 2 * (self.order - 1):
            raise ZeroDivisionError("inversion of zero")
        return self._antilog[self.order - 1 - e]

    def div(self, a, b):
        log = self._log
        if log is None:
            return self.mul(a, self.inv(b))
        eb = log[b]
        if eb == 2 * (self.order - 1):
            raise ZeroDivisionError("inversion of zero")
        return self._antilog[log[a] - eb + self.order - 1]

    def pow(self, a, e):
        e = int(e)
        if e < 0:
            a = self.inv(a)
            e = -e
        log = self._log
        if log is None:
            return tuple(self._kron.pow(bytes(a), e))
        la = log[a]
        if la == 2 * (self.order - 1):
            return self.one if e == 0 else self.zero
        return self._antilog[la * e % (self.order - 1)]

    def frobenius(self, a):
        if self._log is not None:
            return self.pow(a, P)
        return tuple(self._kron.frobenius(1).apply(bytes(a)))

    def fifth_root(self, a):
        """The unique c with c^5 = a (the inverse of the Frobenius)."""
        if self._log is not None:
            return self.pow(a, P ** (self.degree - 1))
        return tuple(self._kron.frobenius(self.degree - 1).apply(bytes(a)))

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
        lead = other.leading()
        inv_lead = None if lead == f.one else f.inv(lead)
        d = other.degree
        while len(rem) - 1 >= d and rem:
            c = rem[-1] if inv_lead is None else f.mul(rem[-1], inv_lead)
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
        if self.is_zero() or self.leading() == self.field.one:
            return self
        return self * self.field.inv(self.leading())

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

    The product of the distinct linear factors, gcd(u, x^q - x), is split
    by seeded equal-degree splitting; roots are sorted in element order.
    """
    if u.is_zero():
        raise ValueError("zero polynomial")
    f = u.field
    m = u.monic()
    x = GFPoly.x(f)
    roots = _split_linear(poly_gcd(x.pow_mod(f.order, m) - x, m), seed)
    return [(r, _root_multiplicity(u, r)) for r in sorted(roots)]


def _split_linear(lin, seed):
    """The roots of a monic product of distinct linear factors over its
    coefficient field, in no particular order, by seeded equal-degree
    splitting: gcd((x + a)^((q-1)/2) - 1, g) for random a."""
    f = lin.field
    rng = random.Random(seed)
    roots = []
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
    return roots


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
        u_ext = u.map_coeffs(emb, ext)
        # the degree-m part splits into distinct linear factors over ext
        found = _split_linear(g.map_coeffs(emb, ext), seed)
        if len(found) != g.degree:
            raise AssertionError("degree-m part did not split into linears")
        for r in found:
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

def _literal_ints(values, what):
    """`values` from a polynomial literal, checked to be a list of ints: no
    bool, float or string is truncated to one."""
    if not isinstance(values, (list, tuple)) or any(
            isinstance(x, bool) or not isinstance(x, int) for x in values):
        raise ValueError(f"{what}: expected integers, got {values!r}")
    return list(values)


def parse_field_degree(text):
    """The degree k of a field tag "5" (k = 1) or "5^k", where k is written
    in ASCII digits and 1 <= k <= MAX_LITERAL_DEGREE; ValueError otherwise."""
    match = re.fullmatch(r"5(?:\^([0-9]+))?", text.strip())
    if match is None:
        raise ValueError(f"unsupported field tag {text.strip()!r} (use 5 or 5^k)")
    k = int(match.group(1) or 1)
    if not 1 <= k <= MAX_LITERAL_DEGREE:
        raise ValueError(f"field degree {k} is outside 1..{MAX_LITERAL_DEGREE}")
    return k


def parse_poly_literal(text):
    """Parse "[c0,...,cn]@5^k;mod=[m0,...,mk]" (shorthand "@5" for k = 1),
    with 1 <= k <= MAX_LITERAL_DEGREE.  A coefficient is an int or a list
    of ints; anything else raises ValueError."""
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
        mod = _literal_ints(ast.literal_eval(mod_part[4:]), "the modulus")
    k = parse_field_degree(field_part)
    field = GF(k, mod)
    coeffs = ast.literal_eval(coeff_part.strip())
    if not isinstance(coeffs, (list, tuple)):
        raise ValueError("coefficients must be a list")
    return GFPoly(field, [field.elem(_literal_ints(c if isinstance(c, (list, tuple)) else [c],
                                                   "a coefficient")) for c in coeffs])


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
