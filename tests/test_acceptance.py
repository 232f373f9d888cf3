"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every assertion is exact; there are no tolerances
anywhere because the package contains no floating point.
"""

import time
from fractions import Fraction

from orthdet.gl import (
    unipotent_degree,
    unipotent_determinant,
    unipotent_q_exponent,
)
from orthdet.hecke import (
    QIntProduct,
    det_poly_factored,
    hecke_determinant,
    tableau_polynomials,
)
from orthdet.intpoly import IntPoly, cyclotomic, cyclotomic_at_one, q_int
from orthdet.oracle import (
    build_seminormal,
    determinant_via_gram,
    determinant_via_skew_element,
)
from orthdet.parker import (
    lemma_parity_check,
    verify_parker_sign_pairs,
    verify_parker_symmetric,
    verify_parker_unipotent,
)
from orthdet.squareclass import SquareClass
from orthdet.tableaux import (
    enumerate_partitions,
    enumerate_syt,
    hook_lengths,
    syt_count,
)


def _criterion(number, description, limit_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(
        f"criterion {number} ({description}): PASS in {elapsed:.2f}s "
        f"(limit {limit_seconds:.0f}s)"
    )
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.2f}s"


def _naive_squarefree_part(n):
    """Independent oracle: squarefree part by plain trial division."""
    assert n > 0
    part = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            part *= d
        d += 1
    return part * n if n > 1 else part


def test_criterion_1_worked_example_reproduction():
    def body():
        t = enumerate_syt((3, 1, 1)).nodes.index(((1, 2, 4), (3,), (5,)))
        x = IntPoly.monomial(1)
        a_t = tableau_polynomials((3, 1, 1))[t]
        assert a_t.expand() == x * (x + 1) ** 2 * (IntPoly.monomial(2) + 1)

        # symbolic class of both the Hecke character and the GL character
        assert det_poly_factored((3, 1, 1)).mask == 1 << 5
        for q in (3, 5, 7):
            gl_result = unipotent_determinant((3, 1, 1), q)
            assert gl_result.symbolic == QIntProduct(0, ((5, 1),))
            expected = _naive_squarefree_part((q**5 - 1) // (q - 1))
            assert hecke_determinant((3, 1, 1), q).det_class == SquareClass(1, expected)
            assert gl_result.det_class == SquareClass(1, expected)
        assert unipotent_determinant((3, 1, 1), 3).det_class == SquareClass(1, 1)

    _criterion(1, "worked example, shape (3,1,1)", 1.0, body)


def _lagrange_coefficients(points, values):
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        basis = [Fraction(1)]
        denominator = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            grown = [Fraction(0)] * (len(basis) + 1)
            for e, c in enumerate(basis):
                grown[e] -= c * points[j]
                grown[e + 1] += c
            basis = grown
            denominator *= points[i] - points[j]
        scale = Fraction(values[i]) / denominator
        for e, c in enumerate(basis):
            coeffs[e] += c * scale
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def test_criterion_2_degree_formula_anchor():
    def body():
        shape = (3, 1, 1)
        expected = IntPoly.monomial(3) * q_int(3) * cyclotomic(4)  # q^3 (q^2+q+1)(q^2+1)
        # the degree polynomial has degree 7, so the six stated nodes are
        # extended by two more to make the interpolation determine it
        points = [2, 3, 5, 7, 11, 13, 17, 19]
        values = [unipotent_degree(shape, x) for x in points]
        coeffs = _lagrange_coefficients(points, values)
        assert coeffs == [Fraction(c) for c in expected.coeffs]
        for x, value in zip(points, values):
            assert value == expected(x)

    _criterion(2, "degree formula anchor via exact interpolation", 1.0, body)


def test_criterion_3_oracle_equivalence():
    def body():
        for n in range(2, 9):
            for shape in enumerate_partitions(n):
                if syt_count(shape) % 2:
                    continue
                for q in (1, 3, 5, 7, 9):
                    formula = hecke_determinant(shape, q).det_class
                    assert formula.contains(determinant_via_gram(shape, q)), (shape, q)
                    for seed in (0, 1, 2) if n <= 5 else (0,) if n == 6 else ():
                        got = determinant_via_skew_element(shape, q, seed)
                        assert formula.contains(got), (shape, q, seed)

    _criterion(3, "Gram-form and skew-element oracle equivalence", 300.0, body)


def test_criterion_4_divisibility_invariant():
    def body():
        for n in range(1, 9):
            for shape in enumerate_partitions(n):
                count = syt_count(shape)
                for q in (3, 5, 7, 9, 11, 27):
                    degree = unipotent_degree(shape, q)
                    assert (degree - count) % (q - 1) == 0, (shape, q)
                    assert unipotent_q_exponent(shape, q) == (degree - count) // (q - 1)

    _criterion(4, "q-1 divides the non-torus degree", 30.0, body)


def test_criterion_5_cyclotomic_suite():
    def body():
        for n in range(1, 201):
            product = IntPoly.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    product = product * cyclotomic(d)
            assert product == IntPoly.monomial(n) - 1
            assert cyclotomic(n)(1) == cyclotomic_at_one(n)
        for c in range(1, 2001):
            for q in (3, 5, 7, 9, 11, 27, 81):
                assert lemma_parity_check(c, q), (c, q)

    _criterion(5, "cyclotomic identities and parity lemma", 60.0, body)


def test_criterion_6_parker_verification():
    def body():
        unipotent = verify_parker_unipotent(10, [3, 5, 7, 9])
        assert unipotent.ok and unipotent.checked == 308
        symmetric = verify_parker_symmetric(12)
        assert symmetric.ok and symmetric.checked == 162
        pairs = verify_parker_sign_pairs(7, [3, 5])
        assert pairs.ok and pairs.checked == 228

    _criterion(6, "all determinants odd (Parker)", 600.0, body)


def test_criterion_7_well_definedness():
    def body():
        merges = 0
        for n in range(2, 8):
            for shape in enumerate_partitions(n):
                polys = tableau_polynomials(shape)
                graph = enumerate_syt(shape)
                incoming = [0] * graph.size
                for lo, hi, k in graph.edges:
                    # the content gap of k and k+1, read off the lower tableau's rows
                    content = {
                        v: j - i for i, row in enumerate(graph.nodes[lo]) for j, v in enumerate(row)
                    }
                    c = content[k] - content[k + 1] - 1
                    assert polys[lo] * QIntProduct.from_edge(c) == polys[hi]
                    incoming[hi] += 1
                merges += sum(1 for count in incoming if count > 1)
        assert merges > 0

    _criterion(7, "tableau polynomials are path-independent", 60.0, body)


def test_criterion_8_representation_self_checks():
    def body():
        for n in range(2, 7):
            for shape in enumerate_partitions(n):
                for q in (1, 3, 5):
                    rep = build_seminormal(shape, q)  # relation checks run eagerly
                    assert rep.dim == syt_count(shape)

    _criterion(8, "seminormal relations and dimensions", 120.0, body)


def test_degree_formula_is_pinned_by_hooks():
    # guard for the q-hook normalization: the weight statistic (the sum of
    # (row - 1) * row length) and the hook multiset reproduce the printed
    # degree for the anchor shape
    assert sum(i * part for i, part in enumerate((3, 1, 1))) == 3
    assert sorted(hook_lengths((3, 1, 1)).values()) == [1, 1, 2, 2, 5]
