"""Lattice engine: discriminant groups and root systems, and the retired
overlattice enumeration path of `lattice_kernels`, which is the oracle for
the root catalogue."""

import random
import subprocess
import sys
from fractions import Fraction

import pytest

from charfive import (
    DegenerateLatticeError,
    GramLattice,
    RootSystemType,
    discriminant_group,
)
import fraction_kernels
import lattice_kernels as lk
from fraction_kernels import short_vectors_box
from charfive.discform import H_PRIMAL, REFERENCE_SUBGROUPS, build_S0, lift_to_dual
from charfive.intmat import det_bareiss
from charfive.lattice import dual_data
from lattice_kernels import (
    DivisibilityError,
    EvennessViolation,
    IndefiniteLatticeError,
    _h_data,
    coset_vectors_of_norm,
    e_set,
    ldl_positive,
    overlattice_from_generators,
    root_type_orthogonal_to,
    short_vectors_of_norm,
)
from test_intmat import assert_ldl_matches_oracle

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
    assert discriminant_group(build_S0()).invariant_factors == (5,) * 6


def test_discriminant_group_a4():
    dg = discriminant_group(A4_BLOCK)
    assert dg.invariant_factors == (5,)
    assert dg.order == 5


def test_discriminant_group_unimodular():
    dg = discriminant_group([[0, 1], [1, 0]])
    assert dg.invariant_factors == ()
    assert dg.order == 1


def test_discriminant_group_degenerate():
    with pytest.raises(DegenerateLatticeError):
        discriminant_group([[2, 2], [2, 2]])


def test_discriminant_group_projection_kernel():
    # the projection kills exactly the lattice itself
    dg = discriminant_group(A4_BLOCK)
    for row in A4_BLOCK:
        assert dg.project(list(row)) == (0,)
    assert dg.project([1, 0, 0, 0]) != (0,)


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
    dg, m, m_ginv = dual_data(gram)
    assert dg.invariant_factors == (5,) * 6 and m == 5
    assert lk.mat_mul([list(r) for r in m_ginv], [list(r) for r in gram]) \
        == [[5 * int(i == j) for j in range(22)] for i in range(22)]
    assert dual_data(gram)[2] is m_ginv            # computed once per Gram


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
