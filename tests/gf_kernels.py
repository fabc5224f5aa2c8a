"""Reference GF(5^k) arithmetic on coefficient tuples: the test oracle.

These are the schoolbook multiply-and-reduce and the extended Euclid
inverse that `charfive.ffpoly.GF` used before its log tables and packed
Kronecker kernel.  They are slow and obviously exact, and the
differential tests in `test_ffpoly.py` check the fast core against them.
Elements are tuples of k coefficients in 0..4, lowest degree first; the
modulus is the monic tuple (m0, ..., mk) of a `GF`.
"""

from charfive.ffpoly import P, _f5_mod, _f5_mul, _f5_trim


def add(a, b):
    return tuple((x + y) % P for x, y in zip(a, b))


def sub(a, b):
    return tuple((x - y) % P for x, y in zip(a, b))


def mul(modulus, a, b):
    degree = len(modulus) - 1
    if degree == 1:
        return ((a[0] * b[0]) % P,)
    prod = _f5_mul(list(a), list(b))
    red = _f5_mod(prod, list(modulus))
    red += [0] * (degree - len(red))
    return tuple(red)


def inv(modulus, a):
    if not any(a):
        raise ZeroDivisionError("inversion of zero")
    degree = len(modulus) - 1
    # extended Euclid against the modulus
    r0, r1 = list(modulus), _f5_trim(list(a))
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
    out += [0] * (degree - len(out))
    return tuple(out[:degree])


def pow_(modulus, a, e):
    """a^e for e >= 0 by square-and-multiply over `mul`."""
    degree = len(modulus) - 1
    result = tuple([1] + [0] * (degree - 1))
    while e:
        if e & 1:
            result = mul(modulus, result, a)
        a = mul(modulus, a, a)
        e >>= 1
    return result
