"""Exact arithmetic in GF(5^k) and in univariate polynomials over it.

A field element is one int whose big-endian base-256 digits are its
coefficients c0, c1, ..., c_{k-1} in {0,...,4}: the residue
c0 + c1*t + ... + c_{k-1}*t^{k-1} modulo a fixed irreducible modulus over
F5.  Zero is 0, one is 256^(k-1), an element of GF(5) is its value, and
int order is the order of the tuples (c0, c1, ...), which
`GF.coefficients` gives.  The default modulus of each degree is the
lexicographically smallest monic irreducible in the ordering by
(c0, c1, ..., c_{k-1}), found by `_search_modulus` the first time a field
of that degree is built; a modulus given by the caller is checked with
Rabin's test instead.  Fields of at most TABLE_MAX_ORDER elements
compute through log/antilog tables keyed by element, and add through a
Zech table log(1 + g^n); larger ones multiply the element ints, whose
product is the Kronecker product of the residues (`_Kronecker`), reduce
it by folds with the sparse modulus t^k + r, and add with one bytewise
reduction mod 5.  An embedding GF(5^a) -> GF(5^b) is one packed F5-linear
map, whose columns are the powers of the image of the generator.  Rabin's
test takes x -> x^5 from `_Kronecker` and its gcds from `GFPoly` over
GF(5).  The schoolbook reference lives in `tests/gf_kernels.py`.

Root finding works by Frobenius orbits, on squarefree polynomials only.
One table of x^(5^j) mod the polynomial, each entry a semilinear
combination of the rows x^(5i), gives the distinct-degree parts; in each
part one root per irreducible factor over GF(5^k) comes from one branch
of Berlekamp's trace gcds, and its conjugates from the Frobenius map
x -> x^(5^k).  The long-division table and the splitting that follows
every branch are the oracle in `tests/root_kernels.py`.
A process keeps the root records of each monic polynomial (`_monic_roots`).

Polynomial literals:  "[c0,c1,...,cn]@5^k;mod=[m0,...,mk]"  with the
prime-field shorthand "@5", both lists JSON arrays of integers, nested
for coefficients over an extension; `parse_field_degree` reads the tag.
"""

import itertools
import json
import random
import re
from collections import namedtuple
from functools import lru_cache

P = 5

#: the largest field degree a polynomial literal may name: a field built
#: without a modulus searches for one (`_search_modulus`), whose cost grows
#: with 5^k
MAX_LITERAL_DEGREE = 12


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
    each prime r | k.  The powers t^(5^e), e <= k, come from applying the
    map x -> x^5, whose columns are t^(5j) mod m, to t k times, valid for
    any monic m.  The gcds run in `GFPoly` over GF(5); k = 1 returns first,
    so building GF(5) does not recurse."""
    m = tuple(x % P for x in m)
    k = len(m) - 1
    if k < 1 or m[-1] != 1:
        return False
    if k == 1:
        return True
    frob = _Kronecker(m).frobenius(1)
    t = 1 << (8 * k - 16)
    powers = [t]
    for _ in range(k):
        powers.append(frob.apply(powers[-1]))
    if powers[k] != t:
        return False
    f5 = GF(1)
    mpoly = GFPoly.from_ints(f5, m)
    for r in _prime_divisors(k):
        diff = (powers[k // r] + 4 * t).to_bytes(k, "big").translate(_MOD5)    # minus t
        if poly_gcd(mpoly, GFPoly.from_ints(f5, diff)).degree > 0:
            return False
    return True


@lru_cache(maxsize=None)
def _search_modulus(k):
    """Smallest monic irreducible of degree k in (c0, c1, ...) order, the
    default modulus of GF(5^k).  For k >= 2 a candidate with a root in F5
    is reducible and skips Rabin's test."""
    for code in range(P ** k):
        m = [(code // P ** i) % P for i in range(k)] + [1]
        rooted = any(sum(c * x ** i for i, c in enumerate(m)) % P == 0 for x in range(P))
        if not (k >= 2 and rooted) and _f5_is_irreducible(m):
            return tuple(m)
    raise ArithmeticError(f"no irreducible of degree {k}")


@lru_cache(maxsize=None)
def _checked_modulus(k, modulus):
    """A caller's modulus, reduced mod 5 and checked monic of degree k and
    irreducible."""
    modulus = tuple(int(x) % P for x in modulus)
    if len(modulus) != k + 1 or modulus[-1] != 1:
        raise ValueError("modulus must be monic of the field degree")
    if not _f5_is_irreducible(modulus):
        raise ValueError(f"modulus {list(modulus)} is not irreducible over F5")
    return modulus


# ---------------------------------------------------------------------------
# Packed (Kronecker) arithmetic
# ---------------------------------------------------------------------------
#
# A coefficient vector (c0, ..., c_{n-1}) with entries in 0..4 is multiplied
# as an integer with one slot of s bytes per coefficient.  For s = 1 that
# is the element int, sum c_i 256^(n-1-i), and the product of two element
# ints holds the coefficients of the product of the residues, c0 highest.
# No sum that the kernel forms in a slot exceeds 16k (at most k products of
# two entries 0..4), so s = 1 holds up to k = 15.  Larger degrees widen the
# slots and put c_i in slot i (`_spread`), so that an element with trailing
# zero coefficients, a constant say, is a short integer there.  Since
# 256 = 1 (mod 5), a slot is congruent to the sum of its bytes, and
# `bytes.translate(_MOD5)` reduces a whole vector at once.  Reducing modulo
# m = t^k + r (deg r = d) then folds the coefficients of t^k and above (hi)
# back as hi * (-r) in one-byte slots, each at most 4 + 16 min(k - 1, d + 1),
# below 256 when k <= 16 (a literal's k <= 12) or d <= 14 (every searched
# modulus: d >= 15 would follow 5^15 candidates in the search order).

_MOD5 = bytes(i % P for i in range(256))


def _slot_bytes(k):
    """Bytes per slot for degree k: every slot sum stays below 256^s."""
    s = 1
    while 16 * k >= 256 ** s:
        s += 1
    return s


def _spread(x, n, s):
    """The integer with coefficient c_i of x in s-byte slot i, i < n (s > 1)."""
    buf = bytearray(s * n)
    buf[::s] = x.to_bytes(n, "big")
    return int.from_bytes(buf, "little")


def _gather(data, start, step, s):
    """The s-byte slots of `data` at slot offsets start, start + step, ...,
    reduced mod 5, as an element int (s > 1)."""
    lanes = [data[s * start + b::s * step] for b in range(s)]
    total = sum(int.from_bytes(lane.translate(_MOD5), "little") for lane in lanes)
    return int.from_bytes(total.to_bytes(len(lanes[0]), "little").translate(_MOD5), "big")


class _PackedMap:
    """An F5-linear map v -> M v on element ints, applied with one integer
    product.

    Q holds entry t of row i of M in slot T*i + t where v has c_t in slot
    n - 1 - t (s = 1, v the element int), and in slot T*i + n - 1 - t where
    v has c_t in slot t (s > 1, v from `_spread`); n is the number of
    columns.  In v*Q the entry (M v)_i then sits in slot T*i + n - 1, and
    the other sums of block i fill slots T*i .. T*i + 2n - 2; T = 2n - 1
    keeps the blocks apart.
    """

    __slots__ = ("q", "n", "step", "s", "size")

    def __init__(self, columns, rows, s):
        """`columns` are the images of t^0, ..., t^(n-1), element ints with
        `rows` coefficients."""
        self.n = len(columns)
        self.step = 2 * self.n - 1
        self.s = s
        self.size = s * self.step * rows
        buf = bytearray(self.size)
        for t, col in enumerate(columns):
            slot = t if s == 1 else self.n - 1 - t
            buf[s * slot::s * self.step] = col.to_bytes(rows, "big")
        self.q = int.from_bytes(buf, "little")

    def apply(self, x):
        if self.s == 1:
            data = (x * self.q).to_bytes(self.size, "little")
            return int.from_bytes(data[self.n - 1::self.step].translate(_MOD5), "big")
        data = (_spread(x, self.n, self.s) * self.q).to_bytes(self.size, "little")
        return _gather(data, self.n - 1, self.step, self.s)


class _Kronecker:
    """Packed arithmetic in F5[t]/(m) on element ints, m = t^k + r monic.

    `mul` forms the product of two residues as one integer product, reads
    its 2k - 1 coefficients mod 5, and folds those of t^k and above back by
    t^k = -r, one `translate` per fold, until k are left.  `frobenius(e)` is
    the map x -> x^(5^e); `inv` is Itoh-Tsujii on both, for irreducible m.
    """

    __slots__ = ("k", "s", "one", "neg_r", "folds", "_frob")

    def __init__(self, modulus):
        k = len(modulus) - 1
        d = max((i for i, c in enumerate(modulus[:-1]) if c), default=0)
        if min(k - 1, d + 1) > 15:
            raise ValueError("the fold's one-byte slots need deg(m - t^k) < 15 past degree 16")
        self.k = k
        self.one = 1 << (8 * k - 8)
        self.s = _slot_bytes(k)
        self.neg_r = int.from_bytes(bytes(-c % P for c in modulus[:d + 1]), "big")
        # the folds depend on k and d only: each takes n coefficients to n2
        self.folds, n = [], 2 * k - 1
        while n > k:
            n2, h = max(k, n - k + d), 8 * (n - k)
            self.folds.append((h, (1 << h) - 1, 8 * (n2 - k), 8 * (n2 - n + k - d), n2))
            n = n2
        self._frob = {}

    def mul(self, x, y):
        k, s = self.k, self.s
        if s == 1:
            prod = int.from_bytes((x * y).to_bytes(2 * k - 1, "big").translate(_MOD5), "big")
        else:
            prod = _gather((_spread(x, k, s) * _spread(y, k, s)).to_bytes(
                s * (2 * k - 1), "little"), 0, 1, s)
        for h, mask, lo_shift, hi_shift, n2 in self.folds:
            prod = (prod >> h << lo_shift) + ((prod & mask) * self.neg_r << hi_shift)
            prod = int.from_bytes(prod.to_bytes(n2, "big").translate(_MOD5), "big")
        return prod

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
                t5, cols = self.pow(self.one >> 8, P), [self.one]    # t^(5j) = (t^5)^j
                while len(cols) < self.k:
                    cols.append(self.mul(cols[-1], t5))
            else:
                # compose two maps of about half the exponent on the basis t^j
                first, second = self.frobenius(e // 2), self.frobenius(e - e // 2)
                cols = [second.apply(first.apply(self.one >> 8 * j)) for j in range(self.k)]
            fmap = self._frob[e] = _PackedMap(cols, self.k, self.s)
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
            return pow(x, -1, P)
        frob = self.frobenius(1)
        y, m = x, 1
        for bit in bin(k - 1)[3:]:
            y = self.mul(y, self.frobenius(m).apply(y))
            m *= 2
            if bit == "1":
                y = self.mul(x, frob.apply(y))
                m += 1
        y = frob.apply(y)
        scale = pow(self.mul(x, y) >> (8 * k - 8), -1, P)
        return int.from_bytes((y * scale).to_bytes(k, "big").translate(_MOD5), "big")


@lru_cache(maxsize=None)
def _arithmetic(modulus):
    """(log, antilog, zech, kronecker) for the field of an irreducible
    modulus, which the caller has found or checked.

    The packed kernel always exists.  Fields with at most TABLE_MAX_ORDER
    elements also get log/antilog tables for a primitive element g (the
    first in the order of `GF.from_int` codes): log maps each element int to its
    exponent, and zero to 2(q - 1); antilog[i] = g^i for i < 2(q - 1) and
    zero from there on, so the sum of two logs indexes antilog without a
    reduction mod q - 1.  zech[n] = log(1 + g^n), listed twice so that any
    n in -2(q - 1) .. 2(q - 1) - 1 indexes it: g^a + g^b = g^(a + zech[b - a]).
    """
    kron = _Kronecker(modulus)
    k = len(modulus) - 1
    q = P ** k
    if q > TABLE_MAX_ORDER:
        return None, None, None, kron
    one = kron.one
    exponents = [(q - 1) // r for r in _prime_divisors(q - 1)]
    for code in range(2, q):
        g = int.from_bytes(bytes((code // P ** i) % P for i in range(k)), "big")
        if all(kron.pow(g, e) != one for e in exponents):
            break
    powers = []
    x = one
    for _ in range(q - 1):
        powers.append(x)
        x = kron.mul(x, g)
    log = {a: i for i, a in enumerate(powers)}
    log[0] = 2 * (q - 1)
    antilog = powers * 2 + [0] * (2 * q - 1)
    # 1 + a adds one to c0, the top byte: c0 = 4 iff a >= 4 * one
    zech = [log[a - 4 * one if a >= 4 * one else a + one] for a in powers] * 2
    return log, antilog, zech, kron


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

#: fields of at most this many elements multiply, invert and add through
#: log/antilog and Zech tables; larger ones use the packed kernel.  The
#: tables of GF(5^5) hold about 0.6 MB (the Zech table 0.05 MB of it) and
#: take about 13 ms to build; those of GF(5^6) would hold 2.8 MB, GF(5^7)
#: 14 MB and GF(5^8) about 70 MB, against a `curve check` process that
#: peaks near 16.5 MB (VmHWM of one `curve check` on a GF(5) or GF(25)
#: sextic in a fresh CPython 3.11 process).
TABLE_MAX_ORDER = P ** 5


class GF:
    """The field with 5^degree elements, as residues mod a fixed modulus.

    Elements are ints, c0 in the highest byte (module docstring).  Fields
    with at most TABLE_MAX_ORDER elements multiply and add through log and
    Zech tables, larger ones through the packed Kronecker kernel and one
    bytewise reduction; both are built on the first construction of a
    field and shared by every later one.
    """

    __slots__ = ("degree", "modulus", "order", "zero", "one", "_fives", "_log", "_antilog",
                 "_zech", "_kron")

    def __init__(self, degree, modulus=None):
        degree = int(degree)
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if modulus is None:
            modulus = _search_modulus(degree)
        else:
            modulus = _checked_modulus(degree, tuple(modulus))
        self._log, self._antilog, self._zech, self._kron = _arithmetic(modulus)
        self.degree = degree
        self.modulus = modulus
        self.order = P ** degree
        self.zero = 0
        self.one = 1 << (8 * degree - 8)
        self._fives = int.from_bytes(bytes([P]) * degree, "big")   # 5 in every byte

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
        """The element of an int 0..4, read in the prime subfield (elem(3) is
        3 * one), or of a coefficient sequence (c0, c1, ...) read mod 5."""
        if isinstance(value, int):
            if not 0 <= value < P:
                raise ValueError(f"{value} is not a residue 0..4; reduce it mod 5 first")
            return value * self.one
        value = list(value)
        if len(value) > self.degree:
            raise ValueError("too many coefficients")
        return int.from_bytes(bytes(int(x) % P for x in value).ljust(self.degree, b"\0"), "big")

    def coefficients(self, a):
        """The tuple (c0, ..., c_{k-1}) of an element."""
        return tuple(a.to_bytes(self.degree, "big"))

    def from_int(self, code):
        """Element with base-5 digit expansion `code` (an enumeration index)."""
        out = 0
        for _ in range(self.degree):
            code, c = divmod(code, P)
            out = out << 8 | c
        return out

    def rand_elem(self, rng):
        return self.from_int(rng.randrange(self.order))

    # -- arithmetic -----------------------------------------------------------

    def _reduce(self, x):
        """x with each byte reduced mod 5."""
        return int.from_bytes(x.to_bytes(self.degree, "big").translate(_MOD5), "big")

    def add(self, a, b):
        zech = self._zech
        if zech is None:
            return self._reduce(a + b)
        la, lb = self._log[a], self._log[b]
        if la > lb:
            la, lb = lb, la
        if lb == len(zech):                 # the larger log is that of zero
            return self._antilog[la]
        return self._antilog[la + zech[lb - la]]

    def sub(self, a, b):
        zech = self._zech
        if zech is None:
            return self._reduce(a + self._fives - b)        # no byte borrows
        # -1 = g^((q - 1)/2), and len(zech) = 2(q - 1) is the log of zero
        la, lb = self._log[a], self._log[b] + len(zech) // 4
        if lb > len(zech):
            return a
        if la == len(zech):
            return self._antilog[lb]
        return self._antilog[la + zech[lb - la]]

    def neg(self, a):
        zech = self._zech
        if zech is None:
            return self._reduce(self._fives - a)
        return self._antilog[self._log[a] + len(zech) // 4]

    def mul(self, a, b):
        log = self._log
        if log is not None:
            return self._antilog[log[a] + log[b]]
        return self._kron.mul(a, b)

    def inv(self, a):
        log = self._log
        if log is None:
            if not a:
                raise ZeroDivisionError("inversion of zero")
            return self._kron.inv(a)
        e = log[a]
        if e == 2 * (self.order - 1):
            raise ZeroDivisionError("inversion of zero")
        return self._antilog[self.order - 1 - e]

    def pow(self, a, e):
        e = int(e)
        if e < 0:
            a = self.inv(a)
            e = -e
        log = self._log
        if log is None:
            return self._kron.pow(a, e)
        la = log[a]
        if la == 2 * (self.order - 1):
            return self.one if e == 0 else self.zero
        return self._antilog[la * e % (self.order - 1)]

    def frobenius(self, a, e=1):
        """a^(5^e), e >= 1 (any e >= 0 in a table field)."""
        if self._log is not None:
            return self.pow(a, P ** e)
        return self._kron.frobenius(e).apply(a)

    def fifth_root(self, a):
        """The unique c with c^5 = a (the inverse of the Frobenius)."""
        return self.frobenius(a, self.degree - 1)

    def format_elem(self, a):
        if self.degree == 1:
            return str(a)
        return "[" + ",".join(map(str, self.coefficients(a))) + "]"


@lru_cache(maxsize=None)
def _embedding_image(src, dst):
    """The smallest root in `dst` of the modulus of `src` (degree a): one
    trace descent finds a root, and its a - 1 images under x -> x^5 are the
    others."""
    g = GFPoly(dst, [dst.elem(c) for c in src.modulus])
    powers = list(itertools.islice(_fifth_power_table(g), dst.degree))
    [orbit] = _split_orbits(g, powers, 1, src.degree, 0)
    return min(orbit)


@lru_cache(maxsize=None)
def _embedding_map(src, dst):
    """The F5-linear map of the embedding: its columns are rho^i (i < a)."""
    cols = [dst.one]
    if src.degree > 1:
        rho = _embedding_image(src, dst)
        for _ in range(src.degree - 1):
            cols.append(dst.mul(cols[-1], rho))
    return _PackedMap(cols, dst.degree, _slot_bytes(src.degree))


def embedding(src, dst):
    """The canonical field embedding GF(5^a) -> GF(5^b) for a | b.

    Maps the generator of the source to the minimal root (in element
    order) of the source modulus inside the target.  Returns a callable,
    which applies one cached F5-linear map.
    """
    if dst.degree % src.degree:
        raise ValueError("no embedding: source degree does not divide target")
    if src == dst:
        return lambda a: a
    return _embedding_map(src, dst).apply


def subfield_degree(field, a):
    """Degree over F5 of the subfield generated by `a`."""
    b = a
    for d in range(1, field.degree + 1):
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
        """`coeffs` are elements of `field`; `from_ints` takes ints."""
        cs = list(coeffs)
        while cs and not cs[-1]:
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
        mul = f.mul
        if isinstance(other, int):
            return GFPoly(f, [mul(c, other) for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return GFPoly(f, [])
        add = f.add
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] = add(out[i + j], mul(a, b))
        return GFPoly(f, out)

    def __divmod__(self, other, quotient=True):
        """(q, r) with self = q * other + r and deg r < deg other; q is None
        when `quotient` is false."""
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d = other.degree
        if self.degree < d:
            return GFPoly(f, []) if quotient else None, self
        sub, mul = f.sub, f.mul
        rem = list(self.coeffs)
        quo = [0] * (len(rem) - d)
        lead = other.coeffs[-1]
        inv_lead = None if lead == f.one else f.inv(lead)
        # the leading term cancels by construction: rem[shift + d] is not updated
        terms = [(i, b) for i, b in enumerate(other.coeffs[:-1]) if b]
        for shift in range(len(quo) - 1, -1, -1):
            c = rem[shift + d]
            if c:
                c = quo[shift] = c if inv_lead is None else mul(c, inv_lead)
                for i, b in terms:
                    rem[shift + i] = sub(rem[shift + i], mul(c, b))
        return GFPoly(f, quo) if quotient else None, GFPoly(f, rem[:d])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        """The remainder alone: `%` builds no quotient."""
        return self.__divmod__(other, quotient=False)[1]

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
        add, mul = self.field.add, self.field.mul
        acc = 0
        for c in reversed(self.coeffs):
            acc = add(mul(acc, x), c)
        return acc

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


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def _fifth_power_table(mod):
    """Yields x^(5^j) mod `mod` (monic) for j = 0, 1, 2, ...

    Raising to the fifth power is semilinear: with X_j = sum_i c_i x^i,
    X_{j+1} = sum_i c_i^5 R_i, where the rows R_i = x^(5i) mod `mod`
    (i < deg mod) come once from t^(n+1) = x * t^n - (top coefficient) * mod.
    Each entry then costs deg(mod)^2 multiplications and no division.
    """
    f = mod.field
    add, sub, mul, frobenius = f.add, f.sub, f.mul, f.frobenius
    d = mod.degree
    rows, t = [], [f.one] + [0] * (d - 1)
    for n in range(P * (d - 1) + 1):
        if n % P == 0:
            rows.append(t)
        top, t = t[-1], [0] + t[:-1]
        if top:
            t = [sub(a, mul(top, b)) if b else a for a, b in zip(t, mod.coeffs)]
    entry = list((GFPoly.x(f) % mod).coeffs)
    while True:
        yield GFPoly(f, entry)
        acc = [0] * d
        for c, row in zip(entry, rows):
            if c:
                c = frobenius(c)
                acc = [add(a, mul(c, b)) if b else a for a, b in zip(acc, row)]
        entry = acc


def _split_orbits(g, powers, k, m, seed):
    """The roots of g, grouped into orbits [r, r^q, ..., r^(q^(m-1))] of the
    Frobenius r -> r^q, q = 5^k.

    g is monic and squarefree over GF(5^K), K = len(powers), and every
    root of g has degree m over GF(q); powers[j] is x^(5^j) mod g.
    Berlekamp's trace: for a seeded random b, T = sum_j b^(5^j) x^(5^j)
    takes the value Tr(b r) in F5 at each root r, so the gcds of a factor
    h with T - c (c in F5) split h unless T is constant mod h.  One branch
    descends to a root, going on with the smallest proper factor at each
    level and stopping the scan once a factor of at most half the degree
    appears; the other factors wait in `pending`, whose product is always
    the part of g still to be split.  The root brings its m - 1 conjugates
    from the Frobenius map; dividing the product of the orbit out of g
    certifies them, and each conjugate leaves the pending factor it divides.
    """
    f = g.field
    add, mul, frobenius = f.add, f.mul, f.frobenius
    n = g.degree
    rng = random.Random(seed)

    def x_minus(r):
        return GFPoly(f, [f.neg(r), f.one])

    orbits = []
    pending = [g]
    while g.degree > 0:
        h = pending.pop()
        while h.degree > 1:
            b = f.rand_elem(rng)
            coeffs = [0] * n
            for power in powers:
                for i, c in enumerate(power.coeffs):
                    if c:
                        coeffs[i] = add(coeffs[i], mul(b, c))
                b = frobenius(b)
            trace = GFPoly(f, coeffs) % h
            if trace.degree < 1:
                continue
            parts, rest = [], h
            for c in range(P):
                d = poly_gcd(rest, trace - GFPoly(f, [f.elem(c)]))
                if d.degree > 0:
                    parts.append(d)
                    rest = rest // d
                    if 2 * d.degree <= h.degree:
                        break
            if rest.degree > 0:
                parts.append(rest)
            parts.sort(key=lambda p: p.degree, reverse=True)
            h = parts.pop()
            pending += parts
        orbit = [f.neg(h.coeffs[0])]
        for _ in range(m - 1):
            orbit.append(f.frobenius(orbit[-1], k))
        product = GFPoly(f, [f.one])
        for r in orbit:
            product = product * x_minus(r)
        g, rem = divmod(g, product)
        if not rem.is_zero():
            raise AssertionError("the conjugates of a root do not divide the part")
        orbits.append(orbit)
        if g.degree > 0:
            for r in orbit[1:]:
                i = next(i for i, p in enumerate(pending) if not p.eval(r))
                pending[i] = pending[i] // x_minus(r)
            pending = [p for p in pending if p.degree > 0]
    return orbits


def taylor_coefficients(u, r, count):
    """Yields the coefficients of x^0, ..., x^(count-1) in u(x + r), zero
    past the degree: each is the remainder of one synthetic division by
    x - r, done in place on the quotient before it."""
    add, mul = u.field.add, u.field.mul
    cs = list(u.coeffs)
    for _ in range(count):
        for i in range(len(cs) - 2, -1, -1):
            if cs[i + 1]:
                cs[i] = add(cs[i], mul(r, cs[i + 1]))
        yield cs.pop(0) if cs else 0


#: a root `value` in the extension `field`, with the degree over F5 of the
#: subfield it generates
RootInExtension = namedtuple("RootInExtension", "value subfield_degree field")


class SplittingFieldError(ValueError):
    """The splitting field exceeds the requested extension degree."""


class NotSquarefreeError(ValueError):
    """Root finding takes squarefree polynomials only, and this one has a
    repeated root."""


def roots_in_extension(u, max_degree, seed=0):
    """All roots of a squarefree u in extensions of its coefficient field
    GF(5^k) of relative degree at most `max_degree`, as a new list of
    RootInExtension records sorted by (relative degree, value).

    The roots of u are those of u.monic(), so u and every nonzero multiple
    of it share one `_monic_roots` entry.  Raises NotSquarefreeError if
    gcd(u, u') is not constant, and otherwise SplittingFieldError if
    factors of larger degree remain, either one on every call.
    """
    if u.is_zero():
        raise ValueError("zero polynomial")
    return list(_monic_roots(u.monic(), max_degree, seed))


@lru_cache(maxsize=625)
def _monic_roots(u, max_degree, seed):
    """`roots_in_extension` of a monic u, as a tuple; memoised per
    (u, max_degree, seed), so a process root-finds each monic f' once.
    The bound is 625 = 5^4 entries: over GF(5) the derivative of a sextic,
    a6 x^5 + 4 a4 x^3 + 3 a3 x^2 + 2 a2 x + a1, has no x^4 term, so every
    monic f' of a GF(5) census fits and none is evicted.  An error is
    raised, never stored.

    u must be squarefree: the one gcd(u, u') of `is_squarefree` decides
    it, and NotSquarefreeError comes before any other work.  One table of
    x^(5^j) mod u serves both steps.  Distinct-degree splitting reads
    x^(5^(km)) from it to peel off the degree-m part for each m.  Once
    every factor of degree at most m is gone, a remainder of degree below
    2(m + 1) is irreducible and is the last part.  Each part is embedded
    in GF(5^(km)), and `_split_orbits` finds one root per irreducible
    factor there, with its conjugates under x -> x^(5^k); the subfield
    degree is computed once per orbit.  The SplittingFieldError comes
    before any part is split.
    """
    if not is_squarefree(u):
        raise NotSquarefreeError("polynomial has a repeated root")
    base = u.field
    k = base.degree
    fifth_powers = _fifth_power_table(u)
    table = []
    chunks = []
    v = u
    x = GFPoly.x(base)
    m = 0
    while v.degree >= 2 * (m + 1) and m < max_degree:
        m += 1
        table += itertools.islice(fifth_powers, k * m + 1 - len(table))
        g = poly_gcd(table[k * m] % v - x, v)
        if g.degree > 0:
            chunks.append((m, g))
            v = v // g
    # v has no factor of degree <= m, so below degree 2(m + 1) it is 1 or irreducible
    if v.degree > max_degree:
        raise SplittingFieldError(f"irreducible factors of degree > {max_degree} remain")
    if v.degree > 0:
        table += itertools.islice(fifth_powers, k * v.degree - len(table))
        chunks.append((v.degree, v))

    records = []
    for m, g in chunks:
        ext = base if m == 1 else GF(k * m)
        emb = embedding(base, ext)
        orbits = _split_orbits(g.map_coeffs(emb, ext),
                               [(h % g).map_coeffs(emb, ext) for h in table[:k * m]], k, m, seed)
        for orbit in orbits:
            degree = subfield_degree(ext, orbit[0])
            for r in orbit:
                records.append(RootInExtension(value=r, subfield_degree=degree, field=ext))
    records.sort(key=lambda rec: (rec.field.degree, rec.value))
    return tuple(records)


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------

def _literal_ints(values, what):
    """`values` from a polynomial literal, checked to be a list of ints: no
    bool, float or string is truncated to one."""
    if not isinstance(values, list) or any(
            isinstance(x, bool) or not isinstance(x, int) for x in values):
        raise ValueError(f"{what}: expected integers, got {values!r}")
    return values


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
    with 1 <= k <= MAX_LITERAL_DEGREE.  Both lists are JSON arrays of
    integers, a coefficient over an extension an array itself; anything
    else raises ValueError (RecursionError when nested too deep to read)."""
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
        mod = _literal_ints(json.loads(mod_part[4:]), "the modulus")
    k = parse_field_degree(field_part)
    field = GF(k, mod)
    coeffs = json.loads(coeff_part)
    if not isinstance(coeffs, list):
        raise ValueError("coefficients must be a list")
    return GFPoly(field, [field.elem(_literal_ints(c if isinstance(c, list) else [c],
                                                   "a coefficient")) for c in coeffs])


def format_poly_literal(p):
    field = p.field
    if field.degree == 1:
        return "[" + ",".join(map(str, p.coeffs)) + "]@5"
    body = "[" + ",".join(field.format_elem(c) for c in p.coeffs) + "]"
    tag = f"@5^{field.degree}"
    if field.modulus == _search_modulus(field.degree):
        return body + tag
    mod = "[" + ",".join(str(x) for x in field.modulus) + "]"
    return body + tag + ";mod=" + mod
