"""The singular points and polar multiplicities point by point, as
`charfive.curvecheck` computed them before it took the facts at one point
of each Frobenius orbit: the test oracle.

`point_facts` expands f at every root of f', and `corrections_per_point`
expands the polar restriction h at every point, where `singular_points`
and `_corrections_for` work at orbit leaders and map the results to the
conjugates.  `test_curvecheck.py` checks the two forms against each other.
"""

from charfive.curvecheck import verify_A4
from charfive.ffpoly import GFPoly, embedding, roots_in_extension, taylor_coefficients


def point_facts(m, max_ext):
    """[(alpha, beta, is_A4, g(alpha))] at every root of f', in the order
    of `roots_in_extension`."""
    out = []
    for rec in roots_in_extension(m.f.derivative(), max_ext):
        f_ext = m.f.map_coeffs(embedding(m.field, rec.field), rec.field)
        is_a4, g_val = verify_A4(f_ext, rec.value)
        beta = rec.field.fifth_root(f_ext.eval(rec.value))
        out.append((rec.value, beta, is_a4, g_val))
    return out


def corrections_per_point(m, points, q):
    """`_corrections_for` with h expanded at every point."""
    fld = m.field
    q0, q1, q2 = q
    if not (q0 or q2):
        return None
    f = m.f
    at_q = fld.mul(q2, fld.pow(q1, 5))
    for j, a in enumerate(f.coeffs):
        at_q = fld.sub(at_q, fld.mul(a, fld.mul(fld.pow(q0, j), fld.pow(q2, 6 - j))))
    if not at_q:
        return None
    h = GFPoly(fld, [fld.neg(q0), q2]) * f.derivative()
    mults = []
    for pt in points:
        h_ext = h.map_coeffs(embedding(fld, pt.field), pt.field)
        h0, h1 = taylor_coefficients(h_ext, pt.alpha, 2)
        if not h1:
            return None
        mults.append(0 if h0 else 5)
    return mults
