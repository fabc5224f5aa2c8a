"""The singular points point by point, as `charfive.curvecheck` computed
them before it took the facts at one point of each Frobenius orbit: the
test oracle.

`point_facts` expands f at every root of f', where `singular_points`
works at orbit leaders and maps the results to the conjugates.
`test_curvecheck.py` checks the two forms against each other.
"""

from charfive.curvecheck import verify_A4
from charfive.ffpoly import embedding, roots_in_extension


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
