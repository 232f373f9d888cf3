from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from orthdet import intpoly
from orthdet.errors import InvariantViolation
from orthdet.intpoly import (
    IntPoly,
    cyclotomic,
    cyclotomic_at_one,
    gaussian_binomial,
    q_int,
)

small_polys = st.lists(st.integers(-9, 9), max_size=6).map(IntPoly)


def test_q_int_values():
    assert q_int(1) == IntPoly([1])
    assert q_int(4) == IntPoly([1, 1, 1, 1])
    assert q_int(5)(3) == 121 == (3**5 - 1) // 2


def test_q_int_rejects_nonpositive():
    with pytest.raises(ValueError):
        q_int(0)
    with pytest.raises(ValueError):
        q_int(-2)


def test_cyclotomic_base_cases():
    assert cyclotomic(1) == IntPoly([-1, 1])
    assert cyclotomic(2) == IntPoly([1, 1])
    assert cyclotomic(4) == IntPoly([1, 0, 1])
    assert cyclotomic(6) == IntPoly([1, -1, 1])


def test_cyclotomic_two_power_form():
    for e in range(1, 8):
        expected = IntPoly.monomial(2 ** (e - 1)) + 1
        assert cyclotomic(2**e) == expected


def test_cyclotomic_prime_power_and_twice_prime_closed_forms():
    # Odd p: Phi_{p^k}(x) = sum_{j<p} x^(j p^(k-1)) and Phi_{2p}(x) = Phi_p(-x).
    for p in (3, 5, 7, 11, 13, 31, 97):
        for k in range(1, 5):
            if p**k > 3000:
                break
            step = p ** (k - 1)
            expected = [0] * ((p - 1) * step + 1)
            expected[::step] = [1] * p
            assert cyclotomic(p**k) == IntPoly(expected), (p, k)
        assert cyclotomic(2 * p) == IntPoly([(-1) ** j for j in range(p)]), p


def test_cyclotomic_product_identity():
    for n in range(1, 61):
        product = IntPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic(d)
        assert product == IntPoly.monomial(n) - 1


def test_cyclotomic_at_one_examples():
    assert cyclotomic_at_one(9) == 3
    assert cyclotomic_at_one(1) == 0
    assert cyclotomic_at_one(12) == 1


def test_cyclotomic_at_one_matches_evaluation():
    for n in range(1, 201):
        assert cyclotomic(n)(1) == cyclotomic_at_one(n)


def _span_f3(v1, v2):
    return frozenset(
        tuple((a * x + b * y) % 3 for x, y in zip(v1, v2)) for a in range(3) for b in range(3)
    )


def _count_planes_f3_dim4():
    vectors = [
        (a, b, c, d) for a in range(3) for b in range(3) for c in range(3) for d in range(3)
    ]
    nonzero = [v for v in vectors if any(v)]
    planes = set()
    for v1, v2 in combinations(nonzero, 2):
        span = _span_f3(v1, v2)
        if len(span) == 9:
            planes.add(span)
    return len(planes)


def test_gaussian_binomial_counts_subspaces():
    # independent oracle: enumerate the 2-dim subspaces of F_3^4 directly
    assert gaussian_binomial(4, 2, 3) == _count_planes_f3_dim4() == 130


def test_gaussian_binomial_small_cases():
    for q in (2, 3, 5, 9):
        assert gaussian_binomial(2, 1, q) == q + 1
    assert gaussian_binomial(3, 1, 5) == 31 == (5**3 - 1) // 4
    assert gaussian_binomial(5, 0, 3) == 1
    assert gaussian_binomial(5, 5, 3) == 1


def test_gaussian_binomial_symmetry():
    for n in range(7):
        for k in range(n + 1):
            assert gaussian_binomial(n, k, 3) == gaussian_binomial(n, n - k, 3)


def test_gaussian_binomial_mod_two_matches_binomial():
    for q in (3, 5, 7, 9):
        for n in range(11):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, q) % 2 == comb(n, k) % 2


def test_gaussian_binomial_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4, 5)
    with pytest.raises(ValueError):
        gaussian_binomial(3, 1, 1)


def test_evaluation_examples():
    assert IntPoly()(12345) == 0
    assert cyclotomic(4)(3) == 10
    assert (IntPoly([2, 0, -1]))(5) == 2 - 25


def test_cyclotomic_inexact_binomial_division_is_a_violation():
    # x^2 + 1 is not a multiple of x - 1: a falsified step, not a bad argument.
    with pytest.raises(InvariantViolation, match="cyclotomic"):
        intpoly._divide_by_binomial([1, 0, 1], 1, 4)


def test_gaussian_binomial_inexact_step_is_a_violation(monkeypatch):
    monkeypatch.setattr(intpoly, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(InvariantViolation, match="inexact step"):
        gaussian_binomial(4, 2, 3)


@given(small_polys, small_polys, st.integers(-50, 50))
def test_evaluation_is_ring_morphism(p, r, x):
    assert (p + r)(x) == p(x) + r(x)
    assert (p * r)(x) == p(x) * r(x)


@given(small_polys, st.sampled_from([3, 5, 7, 9, 27, 81]))
def test_values_at_one_and_odd_q_agree_mod_two(p, q):
    assert (p(1) - p(q)) % 2 == 0


@given(small_polys, st.integers(0, 5))
def test_power_matches_repeated_product(p, e):
    expected = IntPoly.one()
    for _ in range(e):
        expected = expected * p
    assert p**e == expected
