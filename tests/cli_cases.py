"""The command lines behind the curve goldens: (golden file, argv) for
each file under `tests/golden/` that one curve command line writes.
`test_cli.py` diffs each against its golden, and `test_product_reach.py`
runs them all to see which definitions of the package they enter."""

FIXTURE = "[0,0,1,0,0,0,1]@5"
#: x^6 + x^3, whose f' = x^2 (x^3 + 3) has a double root at 0
OUTSIDE_U = "[0,0,0,1,0,0,1]@5"

CURVE_GOLDENS = [
    ("curve_check_fixture.json", ["curve", "check", "--poly", FIXTURE]),
    # the two samples of `curve random --field 5^2 --seed 7 --count 2`
    ("curve_check_gf25_seed7.json",
     ["curve", "check", "--poly", "[[0,2],[4,0],[2,2],[0,4],[1,0],[2,0],[2,3]]@5^2"]),
    ("curve_check_gf25_seed8.json",
     ["curve", "check", "--poly", "[[2,1],[1,2],[2,2],[4,0],[1,1],[2,4],[1,0]]@5^2"]),
    ("curve_ns_fixture.json", ["curve", "ns", "--poly", FIXTURE]),
    # a non-default modulus: points in GF(5^2) and GF(5^4), three polar draws
    ("curve_check_gf25_custom_mod.json",
     ["curve", "check", "--poly",
      "[[0,0],[0,3],[3,0],[4,4],[2,2],[4,0],[1,4]]@5^2;mod=[2,1,1]"]),
    # `curve random --field 5^3 --seed 4`: f' is irreducible over GF(125), so
    # one Frobenius orbit of length 5 in GF(5^15), past MAX_LITERAL_DEGREE
    ("curve_check_gf125_deg15.json",
     ["curve", "check", "--poly",
      "[[0,1,1],[3,2,1],[3,2,0],[2,3,3],[0,0,2],[1,2,2],[4,3,0]]@5^3"]),
    # `curve random --field 5^4 --seed 6`: one orbit of five points in
    # GF(5^20), past the one-byte slots of the packed kernel
    ("curve_check_gf625_deg20.json",
     ["curve", "check", "--poly",
      "[[2,2,3,4],[2,1,3,0],[1,4,4,3],[2,3,0,2],[2,2,1,0],[0,0,0,0],[4,4,0,1]]@5^4"]),
    # a packed base field below GF(5^12): `curve random` stdout with --check
    ("curve_random_gf5_6_check.json",
     ["curve", "random", "--field", "5^6", "--seed", "0", "--count", "8", "--check"]),
    # a dense modulus at a packed degree: the kernel folds five times
    ("curve_check_gf5_6_dense_mod.json",
     ["curve", "check", "--poly",
      "[[3,3,0,2,4,3],[3,2,3,2,4,1],[4,1,2,1,0,4],[2,4,4,1,2,0],[0,2,3,4,0,2],[3,2,4,1,4,3],"
      "[3,4,2,0,4,0]]@5^6;mod=[1,1,1,1,1,1,1]"]),
    # 200 GF(5) draws in one process, most of them repeating an earlier monic f'
    ("curve_random_gf5_check.json",
     ["curve", "random", "--field", "5", "--seed", "0", "--count", "200", "--check"]),
    # outside U: f' = x^2 (x^3 + 3) has a double root, f' = (x + 1)^5 is a
    # fifth power, and with --max-ext 1 f' also keeps an irreducible quadratic
    ("curve_check_outside_U_double_root.json", ["curve", "check", "--poly", OUTSIDE_U]),
    ("curve_check_outside_U_fifth_power.json",
     ["curve", "check", "--poly", "[0,1,0,0,0,0,1]@5"]),
    ("curve_check_outside_U_max_ext1.json",
     ["curve", "check", "--poly", OUTSIDE_U, "--max-ext", "1"]),
]
