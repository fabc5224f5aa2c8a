"""Lattice engine: discriminant groups against the Gauss-Jordan oracle of
`fraction_kernels`, root system types, and `catalogue_kernels.of_roots`,
the namer of the root catalogue, anchored on the ADE systems in their
standard coordinates."""

import ast
import random
import subprocess
import sys
from itertools import combinations, product
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest

from catalogue_kernels import of_roots
from fraction_kernels import gauss_jordan, mat_mul, random_nonsingular
from charfive.discform import _dual_classes
from charfive.intmat import det_bareiss
from charfive.lattice import (
    CHAIN_LEN, H_INDEX, N_CHAINS, DegenerateLatticeError, GramLattice, RootSystemType,
    build_S0, dual_data)

A4_BLOCK = [[-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1], [0, 0, 1, -2]]
HL_BLOCK = [[2, 1], [1, -2]]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


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
    assert len(classes) == 22 and {len(row) for row in classes} == {6}
    assert all(x % 5 == 0 for x in sum(mat_mul(build_S0().gram, classes), []))
    # the lift of the i-th unit vector: the dual of the first root of chain
    # i, or of h for i = 5
    lifts = [[int(k == (CHAIN_LEN * i if i < N_CHAINS else H_INDEX)) for k in range(22)]
             for i in range(6)]
    assert [[x % 5 for x in row] for row in mat_mul(lifts, classes)] == identity(6)


def assert_dual_data_matches_oracle(mat):
    """The exponent of L^vee / L is the least m that clears the
    denominators of gram^{-1}, and the second part is m gram^{-1}: both
    read off the Gauss-Jordan inverse (any square matrix)."""
    m, m_inv = dual_data(tuple(map(tuple, mat)))
    inverse = gauss_jordan(mat)[1]
    assert m == lcm(*(x.denominator for row in inverse for x in row))
    assert m_inv == tuple(tuple(m * x for x in row) for row in inverse)


def test_dual_data_matches_the_fraction_inverse():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 5)
        assert_dual_data_matches_oracle(random_nonsingular(rng, n, symmetric=rng.random() < 0.5))


def test_dual_data_exponent_is_least():
    """No proper divisor of m clears the denominators of gram^{-1}: the
    entries of m * gram^{-1} are coprime to m."""
    rng = random.Random(20240501)
    for _ in range(1000):
        n = rng.randint(1, 8)
        mat = random_nonsingular(rng, n, symmetric=True)
        m, m_inv = dual_data(tuple(map(tuple, mat)))
        assert gcd(m, *(x for row in m_inv for x in row)) == 1
        assert abs(det_bareiss(mat)) % m == 0


def test_dual_data_of_identity():
    ident = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert dual_data(ident) == (1, ident)


def test_dual_data_of_hl_block():
    # det -5, so 5 * gram^{-1} = -adj = [[2, 1], [1, -2]]
    assert dual_data(tuple(map(tuple, HL_BLOCK))) == (5, ((2, 1), (1, -2)))


def test_dual_data_of_s0():
    gram = build_S0().gram
    m, m_ginv = dual_data(gram)
    assert m == 5
    assert mat_mul(m_ginv, gram) == [[5 * x for x in row] for row in identity(22)]
    assert_dual_data_matches_oracle(gram)
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
    return [r for r in roots if not any(sum(map(mul, r, f)) for f in fixed)]


ROOTS = {"A": a_roots, "D": d_roots, "E": e_roots}
ADE_TYPES = ([("A", n) for n in range(1, 22)] + [("D", n) for n in range(4, 22)]
             + [("E", n) for n in (6, 7, 8)])


def test_lattice_module_imports_no_numpy():
    """`charfive.lattice` stays on Python integers, so a path through it
    alone need not load numpy."""
    path = Path(__file__).resolve().parent.parent / "src" / "charfive" / "lattice.py"
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    assert modules and not any(m.split(".")[0] == "numpy" for m in modules)


def test_of_roots_on_ade_systems():
    """A1-A21, D4-D21, E6, E7 and E8: the Coxeter-number rank names each
    system."""
    for letter, n in ADE_TYPES:
        roots = ROOTS[letter](n)
        assert of_roots(roots, identity(len(roots[0]))) == RootSystemType(((letter, n),))


def test_of_roots_separates_equal_root_counts():
    """A8/E6, A15/E8 and A20/D15 have equal root counts; the Coxeter
    numbers 9/12, 16/30 and 21/28 tell them apart."""
    for (l1, n1), (l2, n2), count in ((("A", 8), ("E", 6), 72), (("A", 15), ("E", 8), 240),
                                      (("A", 20), ("D", 15), 420)):
        r1, r2 = ROOTS[l1](n1), ROOTS[l2](n2)
        assert len(r1) == len(r2) == count
        assert str(of_roots(r1, identity(len(r1[0])))) == f"{l1}{n1}"
        assert str(of_roots(r2, identity(len(r2[0])))) == f"{l2}{n2}"


def test_of_roots_on_orthogonal_sum():
    """A4 + E8 + D5 in block coordinates (5 + 8 + 5)."""
    blocks = [a_roots(4), e_roots(8), d_roots(5)]
    widths = [len(b[0]) for b in blocks]
    roots = [(0,) * sum(widths[:k]) + r + (0,) * sum(widths[k + 1:])
             for k, block in enumerate(blocks) for r in block]
    assert str(of_roots(roots, identity(sum(widths)))) == "E8+D5+A4"


def test_of_roots_rejects_non_closed_sets():
    """A2 without one +- pair: two roots at 120 degrees, which no root
    system holds alone."""
    roots = [r for r in a_roots(2) if r not in ((1, 0, -1), (-1, 0, 1))]
    with pytest.raises(ValueError):
        of_roots(roots, identity(3))
