"""Reference arithmetic in F5[t] and GF(5^k): the test oracle.

These are the schoolbook multiply-and-reduce on int lists and the extended
Euclid inverse that `charfive.ffpoly` used before its log tables and packed
Kronecker kernel.  They are slow and obviously exact, share no code with
the module they check (only the prime `P` is imported), and the
differential tests in `test_ffpoly.py` check the fast core against them.
`horner_embedding` is the field embedding as `ffpoly.embedding` computed
it before it became one linear map: Horner's rule in the target field.
Polynomials are int lists, lowest degree first, with no trailing zeros.
Elements are tuples of k coefficients in 0..4; the modulus is the monic
tuple (m0, ..., mk) of a `GF`.
"""

from charfive.ffpoly import P


def f5_trim(u):
    """u without its trailing zero coefficients (in place)."""
    while u and u[-1] % P == 0:
        u.pop()
    return u


def f5_mul(u, v):
    """The product of two polynomials over F5."""
    if not u or not v:
        return []
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] = (out[i + j] + a * b) % P
    return f5_trim(out)


def f5_mod(u, m):
    """The remainder of u on division by a nonzero m over F5."""
    u = [x % P for x in u]
    f5_trim(u)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, P)
    while len(u) - 1 >= dm:
        c = (u[-1] * inv_lead) % P
        shift = len(u) - 1 - dm
        for i, b in enumerate(m):
            u[shift + i] = (u[shift + i] - c * b) % P
        f5_trim(u)
    return u


def add(a, b):
    return tuple((x + y) % P for x, y in zip(a, b))


def sub(a, b):
    return tuple((x - y) % P for x, y in zip(a, b))


def mul(modulus, a, b):
    degree = len(modulus) - 1
    if degree == 1:
        return ((a[0] * b[0]) % P,)
    prod = f5_mul(list(a), list(b))
    red = f5_mod(prod, list(modulus))
    red += [0] * (degree - len(red))
    return tuple(red)


def inv(modulus, a):
    if not any(a):
        raise ZeroDivisionError("inversion of zero")
    degree = len(modulus) - 1
    # extended Euclid against the modulus
    r0, r1 = list(modulus), f5_trim(list(a))
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
            f5_trim(r)
        r0, r1 = r1, r
        prod = f5_mul(q, t1)
        t_new = [(x - y) % P for x, y in
                 zip(t0 + [0] * len(prod), prod + [0] * len(t0))]
        t0, t1 = t1, f5_trim(t_new)
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


def horner_embedding(modulus, rho):
    """The map sum a_i t^i -> sum a_i rho^i into the field of `modulus`, by
    Horner's rule: one multiplication per source coefficient."""
    degree = len(modulus) - 1

    def emb(a):
        acc = (0,) * degree
        for c in reversed(a):
            acc = add(mul(modulus, acc, rho), (c,) + (0,) * (degree - 1))
        return acc

    return emb
