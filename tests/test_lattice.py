"""Lattice engine: discriminant groups and root systems, and the retired
overlattice enumeration path of `lattice_kernels`, which is the oracle for
the root catalogue."""

import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import numpy as np
import pytest

from charfive import DegenerateLatticeError, GramLattice, RootSystemType
import fraction_kernels
import lattice_kernels as lk
from fraction_kernels import short_vectors_box
from charfive.discform import (
    H_PRIMAL,
    REFERENCE_SUBGROUPS,
    _dual_classes,
    build_S0,
)
from charfive.intmat import det_bareiss
from charfive.lattice import dual_data
from lattice_kernels import (
    DivisibilityError,
    EvennessViolation,
    IndefiniteLatticeError,
    _h_data,
    coset_vectors_of_norm,
    e_set,
    hnf_root_type,
    ldl_positive,
    lift_to_dual,
    overlattice_from_generators,
    root_type_orthogonal_to,
    short_vectors_of_norm,
)
from test_intmat import assert_ldl_matches_oracle, minor_gcd_factors

A4_BLOCK = [[-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1], [0, 0, 1, -2]]
HL_BLOCK = [[2, 1], [1, -2]]


def pairing(gram, u, v):
    """u^T gram v."""
    return sum(a * x * b for a, row in zip(u, gram) for x, b in zip(row, v))


def dual_gram(gram):
    """Gram matrix of the dual basis: the inverse of the Gram matrix."""
    if det_bareiss(gram) == 0:
        raise DegenerateLatticeError("Gram matrix is singular")
    return fraction_kernels.fraction_inverse(gram)


def roots_orthogonal_to(s, h_primal):
    """All r in S with r.h = 0 and r^2 = -2, in S-basis coordinates."""
    _h_s, _gram_s, _t, kernel, gram_perp = _h_data(s, tuple(h_primal))
    return sorted(tuple(lk.vec_mat(list(w), kernel))
                  for w in short_vectors_of_norm(gram_perp, -2))


def five_a4_gram():
    g = [[0] * 20 for _ in range(20)]
    for j in range(5):
        for i in range(4):
            g[4 * j + i][4 * j + i] = -2
            if i < 3:
                g[4 * j + i][4 * j + i + 1] = 1
                g[4 * j + i + 1][4 * j + i] = 1
    return g


# ---------------------------------------------------------------------------
# discriminant groups and dual Gram matrices
# ---------------------------------------------------------------------------

def test_discriminant_group_s0():
    # exponent 5 and order 5^6: an abelian group of prime exponent is a
    # vector space, so L^vee / L is F5^6
    assert dual_data(build_S0().gram)[0] == 5
    assert abs(build_S0().det()) == 5 ** 6


def test_discriminant_group_a4():
    gram = tuple(map(tuple, A4_BLOCK))
    assert dual_data(gram)[0] == 5 and abs(det_bareiss(A4_BLOCK)) == 5


def test_discriminant_group_unimodular():
    assert dual_data(((0, 1), (1, 0))) == (1, ((0, 1), (1, 0)))


def test_discriminant_group_degenerate():
    with pytest.raises(ValueError):
        dual_data(((2, 2), (2, 2)))


def test_discriminant_group_projection_kernel():
    """d -> d @ _dual_classes() mod 5 kills the lattice, whose vectors have
    the rows of the Gram matrix as dual coordinates, and sends the six
    reference lifts to the unit vectors, so it has rank 6 mod 5.  Its
    kernel then has index 5^6 = |det| in the dual, so it is the lattice."""
    classes = _dual_classes()
    gram = np.array(build_S0().gram, dtype=np.int64)
    assert classes.shape == (22, 6)
    assert not (gram @ classes % 5).any()
    lifts = [lift_to_dual(tuple(int(i == j) for j in range(6))) for i in range(6)]
    assert (np.array(lifts, dtype=np.int64) @ classes % 5).tolist() \
        == lk.identity_matrix(6)


def _random_nonsingular(rng, n, symmetric):
    while True:
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if symmetric:
            m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        if det_bareiss(m):
            return m


def test_dual_data_exponent_matches_minor_gcd_oracle():
    """The exponent is the last invariant factor, and m * gram^{-1} is the
    integer matrix that multiplies gram to m I (any square matrix)."""
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 5)
        mat = _random_nonsingular(rng, n, symmetric=rng.random() < 0.5)
        m, m_inv = dual_data(tuple(map(tuple, mat)))
        assert m == minor_gcd_factors(mat)[-1]
        assert lk.mat_mul([list(r) for r in m_inv], mat) \
            == [[m * int(i == j) for j in range(n)] for i in range(n)]


def test_dual_data_exponent_is_least():
    """No proper divisor of m clears the denominators of gram^{-1}: the
    entries of m * gram^{-1} are coprime to m."""
    rng = random.Random(20240501)
    for _ in range(1000):
        n = rng.randint(1, 8)
        mat = _random_nonsingular(rng, n, symmetric=True)
        m, m_inv = dual_data(tuple(map(tuple, mat)))
        assert gcd(m, *(x for row in m_inv for x in row)) == 1
        assert abs(det_bareiss(mat)) % m == 0


def test_dual_data_of_identity():
    ident = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert dual_data(ident) == (1, ident)


def test_dual_data_of_hl_block():
    # det -5, so 5 * gram^{-1} = -adj = [[2, 1], [1, -2]]
    assert dual_data(tuple(map(tuple, HL_BLOCK))) == (5, ((2, 1), (1, -2)))


def test_dual_gram_examples():
    assert dual_gram([[2]]) == [[Fraction(1, 2)]]
    assert dual_gram(HL_BLOCK) == [
        [Fraction(2, 5), Fraction(1, 5)],
        [Fraction(1, 5), Fraction(-2, 5)],
    ]
    ident = [[1, 0], [0, 1]]
    assert dual_gram(ident) == [[Fraction(1), Fraction(0)],
                                [Fraction(0), Fraction(1)]]
    with pytest.raises(DegenerateLatticeError):
        dual_gram([[1, 1], [1, 1]])


def test_dual_data_of_s0():
    gram = build_S0().gram
    m, m_ginv = dual_data(gram)
    assert m == 5
    assert lk.mat_mul([list(r) for r in m_ginv], [list(r) for r in gram]) \
        == [[5 * int(i == j) for j in range(22)] for i in range(22)]
    assert dual_data(gram)[1] is m_ginv            # computed once per Gram


def test_dual_data_is_lazy():
    # importing the package computes nothing: the cache fills on first use
    code = ("import charfive, charfive.lattice as l; "
            "print(l.dual_data.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "0"


def test_gram_lattice_validation():
    with pytest.raises(ValueError):
        GramLattice(gram=((1,),), labels=("a",))        # odd diagonal
    with pytest.raises(ValueError):
        GramLattice(gram=((2, 1), (0, 2)), labels=("a", "b"))   # asymmetric
    with pytest.raises(DegenerateLatticeError):
        GramLattice(gram=((2, 2), (2, 2)), labels=("a", "b"))
    lat = GramLattice(gram=tuple(map(tuple, HL_BLOCK)), labels=("h", "l"))
    assert lat.det() == -5
    assert lat.signature() == (1, 1)
    assert lat.to_json_dict() == {"labels": ["h", "l"], "gram": HL_BLOCK}


# ---------------------------------------------------------------------------
# overlattices
# ---------------------------------------------------------------------------

def test_overlattice_trivial():
    s0 = build_S0()
    ov = overlattice_from_generators(s0, [])
    assert ov.index == 1
    assert ov.disc == -(5 ** 6)
    assert ov.artin_sigma == 3
    assert ov.gram_s == s0.gram


def test_overlattice_h2():
    ov = overlattice_from_generators(
        build_S0(), [lift_to_dual((2, 2, 2, 2, 2, 0))])
    assert ov.index == 5
    assert ov.disc == -(5 ** 4)
    assert ov.artin_sigma == 2
    assert ov.disc * ov.index ** 2 == build_S0().det()


def test_overlattice_h6():
    gens = [lift_to_dual(g) for g in REFERENCE_SUBGROUPS["H_6"]]
    ov = overlattice_from_generators(build_S0(), gens)
    assert ov.index == 25
    assert ov.disc == -(5 ** 2)
    assert ov.artin_sigma == 1


def test_overlattice_rejects_non_isotropic():
    # the class of a single dual chain root has q = -4/5, not an even integer
    with pytest.raises(EvennessViolation):
        overlattice_from_generators(build_S0(), [lift_to_dual((1, 0, 0, 0, 0, 0))])
    with pytest.raises(EvennessViolation):
        overlattice_from_generators(build_S0(), [lift_to_dual((0, 0, 0, 0, 0, 1))])
    # on 4A1 the class e1* + e2* has norm 1/2 + 1/2 = 1: integral but odd
    four_a1 = GramLattice(gram=[[2 if i == j else 0 for j in range(4)] for i in range(4)],
                          labels=("b0", "b1", "b2", "b3"))
    with pytest.raises(EvennessViolation, match="overlattice is not even"):
        overlattice_from_generators(four_a1, [[1, 1, 0, 0]])
    assert overlattice_from_generators(four_a1, [[1, 1, 1, 1]]).index == 2


def test_overlattice_rejects_bad_coordinates():
    with pytest.raises(ValueError):
        overlattice_from_generators(build_S0(), [[0.5] * 22])
    with pytest.raises(ValueError):
        overlattice_from_generators(build_S0(), [[1, 2, 3]])


def test_overlattice_even_and_integral():
    for label in ("H_1", "H_3", "H_7"):
        gens = [lift_to_dual(g) for g in REFERENCE_SUBGROUPS[label]]
        ov = overlattice_from_generators(build_S0(), gens)
        n = ov.rank
        assert all(ov.gram_s[i][i] % 2 == 0 for i in range(n))
        assert det_bareiss([list(r) for r in ov.gram_s]) == ov.disc


# ---------------------------------------------------------------------------
# short vector enumeration
# ---------------------------------------------------------------------------

def test_short_vectors_rank1():
    assert short_vectors_of_norm([[-2]], -2) == [(-1,), (1,)]


def test_short_vectors_a4():
    roots = short_vectors_of_norm(A4_BLOCK, -2)
    assert len(roots) == 20
    assert roots == short_vectors_box(A4_BLOCK, -2)


def a_n_gram(n):
    return [[-2 if i == j else int(abs(i - j) == 1) for j in range(n)] for i in range(n)]


# D4: the central node 1 joined to 0, 2 and 3
D4_GRAM = [[-2, 1, 0, 0], [1, -2, 1, 1], [0, 1, -2, 0], [0, 1, 0, -2]]


def test_box_root_counts():
    """A_n has n(n+1) roots and D4 has 24, by both enumerators."""
    for g, count in [(a_n_gram(n), n * (n + 1)) for n in range(1, 5)] + [(D4_GRAM, 24)]:
        roots = short_vectors_box(g, -2)
        assert len(roots) == count
        assert roots == short_vectors_of_norm(g, -2)
        assert all(type(x) is int for r in roots for x in r)


def test_box_rejects_int64_overflow():
    # max|g| * (sum of the bounds)^2 > 2^62: the box is refused, not wrapped
    with pytest.raises(ValueError, match="int64"):
        short_vectors_box([[-2 ** 61]], -2 ** 61)


def test_short_vectors_5a4():
    # five orthogonal blocks: every root is supported in a single block,
    # so the count is 5 times the per-block count
    g = five_a4_gram()
    roots = short_vectors_of_norm(g, -2)
    assert len(roots) == 100
    for r in roots:
        blocks = {i // 4 for i, x in enumerate(r) if x}
        assert len(blocks) == 1


def test_short_vectors_rejects_indefinite():
    with pytest.raises(IndefiniteLatticeError):
        short_vectors_of_norm([[2, 0], [0, -2]], -2)
    with pytest.raises(IndefiniteLatticeError):
        short_vectors_of_norm([[2]], -2)


def test_short_vectors_rejects_nonnegative_norm():
    with pytest.raises(ValueError):
        short_vectors_of_norm([[-2]], 2)


def _random_negative_definite(rng, n, bound=8):
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = -2 * rng.randint(1, bound // 2)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        try:
            ldl_positive([[-x for x in row] for row in g])
        except ValueError:
            continue
        if all(abs(x) <= bound for row in g for x in row):
            return g


def test_short_vectors_against_box_oracle():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(1, 5)
        g = _random_negative_definite(rng, n)
        norm = -2 * rng.randint(1, 3)
        assert short_vectors_of_norm(g, norm) == short_vectors_box(g, norm)


def test_coset_vectors_zero_shift_matches_short():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(1, 4)
        g = _random_negative_definite(rng, n)
        assert (coset_vectors_of_norm(g, [0] * n, -2)
                == short_vectors_of_norm(g, -2))


def test_coset_vectors_scaled_form():
    # (3u + 1)^T [[-2]] (3u + 1) = -8 at 3u + 1 = -2, i.e. u = -1, and it is
    # the same search as the coset u + 1/3 of norm -8/9
    assert coset_vectors_of_norm([[-2]], [1], -8, 3) == [(-1,)]
    assert coset_vectors_of_norm([[-2]], [Fraction(1, 3)], Fraction(-8, 9)) == [(-1,)]
    rng = random.Random(57)
    for _ in range(40):
        n = rng.randint(1, 4)
        g = _random_negative_definite(rng, n)
        den = rng.randint(2, 6)
        num = [rng.randint(-den, den) for _ in range(n)]
        norm = sum(num[i] * g[i][j] * num[j] for i in range(n) for j in range(n))
        for target in (norm, norm - 2, norm - 5):
            assert (coset_vectors_of_norm(g, num, target, den)
                    == coset_vectors_of_norm(g, [Fraction(x, den) for x in num],
                                             Fraction(target, den * den))
                    == fraction_kernels.coset_vectors(
                        g, [Fraction(x, den) for x in num], Fraction(target, den * den)))


def test_coset_vectors_examples():
    # -2 (u + 1/2)^2 = -1/2 has the two integer solutions u = 0, -1
    assert coset_vectors_of_norm([[-2]], [Fraction(1, 2)], Fraction(-1, 2)) \
        == [(-1,), (0,)]
    # odd value is unreachable on an even rank-1 lattice
    assert coset_vectors_of_norm([[-2]], [0], -1) == []
    # positive target on a negative definite form is empty
    assert coset_vectors_of_norm([[-2]], [0], 2) == []


# ---------------------------------------------------------------------------
# root systems orthogonal to the polarization
# ---------------------------------------------------------------------------

def _overlattice(label):
    gens = [lift_to_dual(g) for g in REFERENCE_SUBGROUPS[label]]
    return overlattice_from_generators(build_S0(), gens)


def test_root_type_s0():
    ov = overlattice_from_generators(build_S0(), [])
    assert str(root_type_orthogonal_to(ov, H_PRIMAL)) == "5A4"


def test_root_type_table_rows():
    # type (1,1,0) and type (0,2,1) representatives from the isotropy table
    ov = overlattice_from_generators(build_S0(), [lift_to_dual((2, 1, 0, 0, 0, 0))])
    assert str(root_type_orthogonal_to(ov, H_PRIMAL)) == "E8+3A4"
    ov = overlattice_from_generators(build_S0(), [lift_to_dual((2, 2, 0, 0, 0, 1))])
    assert str(root_type_orthogonal_to(ov, H_PRIMAL)) == "A9+3A4"


def test_root_type_requires_square_two():
    ov = overlattice_from_generators(build_S0(), [])
    l_primal = tuple(1 if i == 21 else 0 for i in range(22))
    with pytest.raises(ValueError):
        root_type_orthogonal_to(ov, l_primal)


def test_root_ranks_bounded():
    for label in ("H_0", "H_2", "H_6"):
        ov = _overlattice(label)
        rt = root_type_orthogonal_to(ov, H_PRIMAL)
        assert sum(rank for _letter, rank in rt.components) <= 21
        roots = roots_orthogonal_to(ov, H_PRIMAL)
        # roots and their negatives both appear, with the exact norm and
        # orthogonality re-verified by substitution
        rootset = set(roots)
        h_s = ov.s_coords_of_primal(list(H_PRIMAL))
        for r in roots:
            assert tuple(-x for x in r) in rootset
            assert pairing(ov.gram_s, r, r) == -2
            assert pairing(ov.gram_s, r, h_s) == 0


def test_identify_component_table():
    assert RootSystemType.identify_component(4, 20) == ("A", 4)
    assert RootSystemType.identify_component(9, 90) == ("A", 9)
    assert RootSystemType.identify_component(8, 240) == ("E", 8)
    assert RootSystemType.identify_component(3, 12) == ("A", 3)
    assert RootSystemType.identify_component(4, 24) == ("D", 4)
    with pytest.raises(ValueError):
        RootSystemType.identify_component(5, 21)


def test_root_system_type_str():
    rt = RootSystemType(components=(("A", 4),) * 5)
    assert str(rt) == "5A4"
    rt = RootSystemType(components=(("A", 4), ("E", 8), ("A", 4), ("A", 4)))
    assert str(rt) == "E8+3A4"


# ---------------------------------------------------------------------------
# root types of ADE systems in standard coordinates
# ---------------------------------------------------------------------------

def a_roots(n):
    """A_n: e_i - e_j in Z^(n+1)."""
    return [tuple(int(k == i) - int(k == j) for k in range(n + 1))
            for i in range(n + 1) for j in range(n + 1) if i != j]


def d_roots(n):
    """D_n: +-e_i +- e_j in Z^n."""
    return [tuple(si * int(k == i) + sj * int(k == j) for k in range(n))
            for i, j in combinations(range(n), 2) for si in (1, -1) for sj in (1, -1)]


def e_roots(n):
    """E8 doubled to be integral: 2(+-e_i +- e_j) and the sign vectors
    (+-1)^8 with an even number of minus signs.  E7 is the part
    orthogonal to the root (1,...,1), E6 the part orthogonal to that root
    and to (1,...,1,-1,-1), which spans an A2 with it."""
    roots = ([tuple(2 * x for x in r) for r in d_roots(8)]
             + [s for s in product((1, -1), repeat=8) if s.count(-1) % 2 == 0])
    fixed = [(1,) * 8, (1,) * 6 + (-1, -1)][:8 - n]
    return [r for r in roots if all(np.dot(r, f) == 0 for f in fixed)]


ROOTS = {"A": a_roots, "D": d_roots, "E": e_roots}
ADE_TYPES = ([("A", n) for n in range(1, 22)] + [("D", n) for n in range(4, 22)]
             + [("E", n) for n in (6, 7, 8)])


def test_of_roots_on_ade_systems():
    """A1-A21, D4-D21, E6, E7 and E8: the Coxeter-number rank agrees with
    the rank of the span (the HNF oracle) and names the system."""
    for letter, n in ADE_TYPES:
        roots = ROOTS[letter](n)
        gram = lk.identity_matrix(len(roots[0]))
        rt = RootSystemType.of_roots(roots, gram)
        assert rt == hnf_root_type(roots, gram) == RootSystemType(((letter, n),))


def test_of_roots_separates_equal_root_counts():
    """A8/E6, A15/E8 and A20/D15 have equal root counts; the Coxeter
    numbers 9/12, 16/30 and 21/28 tell them apart."""
    for (l1, n1), (l2, n2), count in ((("A", 8), ("E", 6), 72), (("A", 15), ("E", 8), 240),
                                      (("A", 20), ("D", 15), 420)):
        r1, r2 = ROOTS[l1](n1), ROOTS[l2](n2)
        assert len(r1) == len(r2) == count
        assert str(RootSystemType.of_roots(r1, lk.identity_matrix(len(r1[0])))) == f"{l1}{n1}"
        assert str(RootSystemType.of_roots(r2, lk.identity_matrix(len(r2[0])))) == f"{l2}{n2}"


def test_of_roots_on_orthogonal_sum():
    """A4 + E8 + D5 in block coordinates (5 + 8 + 5)."""
    blocks = [a_roots(4), e_roots(8), d_roots(5)]
    widths = [len(b[0]) for b in blocks]
    roots = [(0,) * sum(widths[:k]) + r + (0,) * sum(widths[k + 1:])
             for k, block in enumerate(blocks) for r in block]
    gram = lk.identity_matrix(sum(widths))
    rt = RootSystemType.of_roots(roots, gram)
    assert str(rt) == "E8+D5+A4" and rt == hnf_root_type(roots, gram)


def test_of_roots_rejects_non_closed_sets():
    """A2 without one +- pair: two roots at 120 degrees, which no root
    system holds alone."""
    roots = [r for r in a_roots(2) if r not in ((1, 0, -1), (-1, 0, 1))]
    with pytest.raises(ValueError):
        RootSystemType.of_roots(roots, lk.identity_matrix(3))


# ---------------------------------------------------------------------------
# the degree-1 elliptic set
# ---------------------------------------------------------------------------

def test_e_set_empty_cases():
    assert e_set(overlattice_from_generators(build_S0(), []), H_PRIMAL) == []
    ov = overlattice_from_generators(build_S0(), [lift_to_dual((2, 1, 0, 0, 0, 0))])
    assert e_set(ov, H_PRIMAL) == []
    assert e_set(_overlattice("H_8"), H_PRIMAL) == []


def test_e_set_nonempty_hyperbolic_case():
    # on the hyperbolic plane [[0,1],[1,0]] with h = e1 + e2 (h^2 = 2) the
    # set {e : e.h = 1, e^2 = 0} is exactly the two basis vectors
    u = GramLattice(gram=((0, 1), (1, 0)), labels=("u1", "u2"))
    ov = overlattice_from_generators(u, [])
    found = e_set(ov, (1, 1))
    assert found == [(0, 1), (1, 0)]


def test_e_set_divisibility_error():
    lat = GramLattice(gram=((2, 0), (0, -2)), labels=("a", "b"))
    ov = overlattice_from_generators(lat, [])
    with pytest.raises(DivisibilityError):
        e_set(ov, (1, 0))


# ---------------------------------------------------------------------------
# the integer kernels against the Fraction oracle on the rank-21 lattices
# h^perp of the reference overlattices H_0..H_8
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def reference_perp():
    """label -> (gram_perp, shift, n_target): the Gram matrix of h^perp in
    the overlattice, and the rational shift and norm of the coset whose
    vectors e = v1 + w.kernel have e.h = 1 and e^2 = 0."""
    out = {}
    for label in REFERENCE_SUBGROUPS:
        ov = _overlattice(label)
        _h_s, gram_s, t, kernel, gram_perp = _h_data(ov, H_PRIMAL)
        v1 = lk.solve_left([[x] for x in t], [1])
        rhs = lk.vec_mat(v1, lk.mat_mul(gram_s, lk.transpose(kernel)))
        inv = fraction_kernels.fraction_inverse(gram_perp)
        shift = [sum(rhs[i] * inv[i][j] for i in range(len(rhs)))
                 for j in range(len(rhs))]
        n_target = (sum(shift[i] * gram_perp[i][j] * shift[j]
                        for i in range(len(shift)) for j in range(len(shift)))
                    - sum(v1[i] * gram_s[i][j] * v1[j]
                          for i in range(len(v1)) for j in range(len(v1))))
        out[label] = (gram_perp, shift, n_target)
    return out


def test_rank21_ldl_and_lll_match_fraction_oracle(reference_perp):
    for gram_perp, _shift, _n in reference_perp.values():
        assert len(gram_perp) == 21
        a = [[-x for x in row] for row in gram_perp]
        assert_ldl_matches_oracle(a)
        u, u_inv, dets, lam = lk.lll_gram(a)
        assert (u, u_inv) == fraction_kernels.lll_gram(a)
        reduced = lk.mat_mul(lk.mat_mul(u, a), lk.transpose(u))
        assert_ldl_matches_oracle(reduced)
        assert (dets, lam) == ldl_positive(reduced)


def test_rank21_enumeration_matches_fraction_oracle(reference_perp):
    for gram_perp, shift, n_target in reference_perp.values():
        roots = short_vectors_of_norm(gram_perp, -2)
        assert roots == fraction_kernels.coset_vectors(gram_perp, [0] * 21, -2)
        assert len(roots) == 100                  # 5A4 for every H_i
        # the degree-1 elliptic coset (E is empty for every H_i) and its
        # norm -2 shell (e.h = 1, e^2 = -2), which is not
        e_coset = coset_vectors_of_norm(gram_perp, shift, n_target)
        assert e_coset == fraction_kernels.coset_vectors(gram_perp, shift, n_target)
        assert e_coset == []
        shell = coset_vectors_of_norm(gram_perp, shift, n_target - 2)
        assert shell == fraction_kernels.coset_vectors(gram_perp, shift, n_target - 2)
        assert shell
