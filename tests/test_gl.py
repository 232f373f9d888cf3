from fractions import Fraction
from math import comb, factorial, prod

import pytest

from orthdet import gl, hecke, intpoly, linalg, oracle, parker, tableaux
from orthdet.errors import InvariantViolation, NotIrrPlusError
from orthdet.gl import (
    PrimePower,
    as_odd_prime_power,
    sign_pair_determinant,
    unipotent_degree,
    unipotent_determinant,
    unipotent_q_exponent,
)
from orthdet.intpoly import cyclotomic_at_one, gaussian_binomial, q_int
from orthdet.squareclass import (
    ONE,
    SquareClass,
    class_of_integer,
    factorize,
    parity_of_integer,
    two_adic_valuation,
)
from orthdet.tableaux import enumerate_partitions, hook_lengths, shape_record, syt_count


def test_prime_power_examples():
    assert as_odd_prime_power(9) == PrimePower(3, 2, 9)
    assert as_odd_prime_power(7) == PrimePower(7, 1, 7)
    assert as_odd_prime_power(27) == PrimePower(3, 3, 27)


@pytest.mark.parametrize("bad", [15, 4, 2, 1, 0, 21])
def test_prime_power_rejections(bad):
    with pytest.raises(ValueError):
        as_odd_prime_power(bad)


# Floats, strings and bools are rejected, not coerced: a float part or q
# would answer for another character, return a float, or report a theorem
# as failed, and a bool would pass for 0 or 1 and print as `true`.
@pytest.mark.parametrize("call", [
    pytest.param(lambda: tableaux.check_partition([2.7, 1]), id="float-part"),
    pytest.param(lambda: tableaux.check_partition("21"), id="string-shape"),
    pytest.param(lambda: unipotent_determinant((2.9, 1), 3), id="unipotent-float-part"),
    pytest.param(lambda: unipotent_determinant((2, 1), 3.0), id="unipotent-float-q"),
    pytest.param(lambda: unipotent_degree((2, 1), 10.0**20 + 1), id="degree-float-q"),
    pytest.param(lambda: as_odd_prime_power(3.0), id="prime-power-float"),
    pytest.param(lambda: hecke.hecke_determinant((2, 1), 3.0), id="hecke-float-q"),
    pytest.param(lambda: hecke.QIntProduct(1, ((2, 1),)).square_class(3.0), id="square-class"),
    pytest.param(lambda: hecke.QIntProduct(1, ((2, 1),)).parity_at(3.0), id="parity-at"),
    pytest.param(lambda: oracle.build_seminormal((2, 1), 3.0), id="seminormal-float-q"),
    pytest.param(lambda: gaussian_binomial(5, 2, 3.0), id="gaussian-float-q"),
    pytest.param(lambda: parker.lemma_parity_check(2.0, 3), id="lemma-float-c"),
    pytest.param(lambda: parker.lemma_parity_check(2, 3.0), id="lemma-float-q"),
    pytest.param(lambda: parker.parity_bridge_check((2, 2), 3.0), id="bridge-float-q"),
    pytest.param(lambda: oracle.verify_trace_pairing(3, 0), id="trace-pairing-q-0"),
    pytest.param(lambda: oracle.verify_trace_pairing(3, -2), id="trace-pairing-q-negative"),
    pytest.param(lambda: ONE.contains(2.0), id="contains-float"),
    pytest.param(lambda: ONE.contains(Fraction(3, 4)), id="contains-fraction"),
    pytest.param(lambda: tableaux.check_partition((2, True)), id="bool-part"),
    pytest.param(lambda: hecke.hecke_determinant((2, 1), True), id="hecke-bool-q"),
    pytest.param(lambda: hecke.QIntProduct(1, ((2, 1),)).parity_at(True), id="parity-at-bool"),
    pytest.param(lambda: parker.lemma_parity_check(True, 3), id="lemma-bool-c"),
    pytest.param(lambda: oracle.verify_trace_pairing(2, True), id="trace-pairing-bool-q"),
    pytest.param(lambda: ONE.contains(True), id="contains-bool"),
    pytest.param(lambda: parker.verify_parker_symmetric(4.0), id="sweep-float-n-max"),
    pytest.param(lambda: parker.verify_parker_symmetric(4, witness_limit=1.5),
                 id="sweep-float-witness-limit"),
    pytest.param(lambda: tableaux.enumerate_partitions(3.0), id="partitions-float-n"),
    pytest.param(lambda: gaussian_binomial(5, 2.0, 3), id="gaussian-float-k"),
    pytest.param(lambda: q_int(2.0), id="q-int-float"),
    pytest.param(lambda: cyclotomic_at_one(9.0), id="cyclotomic-at-one-float"),
    pytest.param(lambda: class_of_integer(True), id="class-of-bool"),
    pytest.param(lambda: factorize(9.0), id="factorize-float"),
    pytest.param(lambda: parity_of_integer(True), id="parity-of-bool"),
    pytest.param(lambda: two_adic_valuation(2.0), id="valuation-float"),
    pytest.param(lambda: oracle.word_image(oracle.build_seminormal((2, 1), 3), (True,)),
                 id="word-image-bool-index"),
    pytest.param(lambda: linalg.bareiss_determinant(((Fraction(1, 2),),)),
                 id="bareiss-fraction-entry"),
    pytest.param(lambda: linalg.bareiss_determinant(((True, 0), (0, True))),
                 id="bareiss-bool-entry"),
    pytest.param(lambda: oracle.determinant_via_skew_element((2, 2), 3, seed=1.5),
                 id="skew-float-seed"),
    pytest.param(lambda: oracle.determinant_via_skew_element((2, 2), 3, seed=True),
                 id="skew-bool-seed"),
])
def test_only_integers_enter_the_library(call):
    with pytest.raises(ValueError):
        call()


def test_unipotent_degree_paper_case():
    for q in (2, 3, 5, 7, 9, 11):
        assert unipotent_degree((3, 1, 1), q) == q**3 * (q**2 + q + 1) * (q**2 + 1)


def test_unipotent_degree_small_cases():
    for q in (3, 5, 9):
        assert unipotent_degree((4,), q) == 1  # trivial character
        assert unipotent_degree((1, 1), q) == q  # Steinberg of GL_2
        assert unipotent_degree((2, 2), q) == q**2 * (q**2 + 1)
        assert unipotent_degree((1, 1, 1), q) == q**3  # Steinberg of GL_3
    assert unipotent_degree((), 5) == 1


def test_unipotent_degree_parity_matches_tableau_count():
    for n in range(1, 9):
        for shape in enumerate_partitions(n):
            for q in (3, 9):
                assert unipotent_degree(shape, q) % 2 == syt_count(shape) % 2


def _lagrange_value_at(points, values, x):
    total = Fraction(0)
    for i, (xi, yi) in enumerate(zip(points, values)):
        term = Fraction(yi)
        for j, xj in enumerate(points):
            if j != i:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


def test_degree_polynomial_value_at_one_is_tableau_count():
    # enough sample points pin the degree polynomial exactly; its value at 1
    # must be the number of standard tableaux
    for n in range(1, 7):
        for shape in enumerate_partitions(n):
            hooks_sum = sum(hook_lengths(shape).values())
            weight = sum(i * part for i, part in enumerate(shape))
            degree_bound = weight + n * (n + 1) // 2 - hooks_sum
            points = list(range(2, 2 + degree_bound + 1))
            values = [unipotent_degree(shape, x) for x in points]
            assert _lagrange_value_at(points, values, 1) == syt_count(shape)


def test_q_exponent_examples():
    assert unipotent_q_exponent((3, 1, 1), 3) == (3510 - 6) // 2 == 1752
    assert unipotent_q_exponent((5,), 7) == 0
    assert unipotent_q_exponent((1, 1), 9) == 1


def test_q_exponent_divisibility_sweep():
    for n in range(1, 8):
        for shape in enumerate_partitions(n):
            for q in (3, 5, 9):
                degree = unipotent_degree(shape, q)
                assert (degree - syt_count(shape)) % (q - 1) == 0
                assert unipotent_q_exponent(shape, q) >= 0


def test_unipotent_determinant_paper_case():
    for q in (3, 5, 7, 9, 27):
        result = unipotent_determinant((3, 1, 1), q)
        assert result.q_exponent % 2 == 0
        assert result.det_class == class_of_integer(q_int(5)(q))
        assert result.symbolic.expand() == q_int(5)
    assert unipotent_determinant((3, 1, 1), 3).det_class == ONE  # 121 = 11^2


def test_unipotent_determinant_two_two():
    for q in (3, 5, 7):
        result = unipotent_determinant((2, 2), q)
        assert result.q_exponent == (q + 1) * (q**2 + 2)
        assert result.q_exponent % 2 == 0
        assert result.det_class == class_of_integer(q * (q**2 + q + 1))


def test_unipotent_determinant_odd_exponent_branch():
    # (2,1) at q=3: exponent 5 is odd, so the q-power factor contributes
    result = unipotent_determinant((2, 1), 3)
    assert result.q_exponent == 5
    assert result.det_class == class_of_integer(3 * 39) == SquareClass(1, 13)
    labels = [label for label, _ in result.breakdown]
    assert labels == ["hecke", "q-power"]
    product = ONE
    for _, cls in result.breakdown:
        product = product * cls
    assert product == result.det_class


def test_unipotent_determinant_rejects_steinberg_gl2():
    with pytest.raises(NotIrrPlusError, match="odd"):
        unipotent_determinant((1, 1), 3)


def test_sign_pair_even_index_is_trivial():
    # index [2 choose 1]_q = q + 1 is even
    for q in (3, 5, 9):
        result = sign_pair_determinant((1,), (1,), q)
        assert result.det_class == ONE
        assert result.degree == q + 1


def test_sign_pair_even_index_sweep():
    for q in (3, 5):
        for n in range(2, 6):
            for ell in range(n + 1):
                lam_choices = enumerate_partitions(ell) if ell else [()]
                mu_choices = enumerate_partitions(n - ell) if n - ell else [()]
                if gaussian_binomial(n, ell, q) % 2:
                    continue
                for lam in lam_choices:
                    for mu in mu_choices:
                        try:
                            result = sign_pair_determinant(lam, mu, q)
                        except NotIrrPlusError:
                            continue
                        assert result.det_class == ONE


def test_sign_pair_odd_index_inherits_unipotent_class():
    # [6 choose 2]_q is odd (binom(6,2)=15); deg (2) = 1, deg (2,2) even
    result = sign_pair_determinant((2,), (2, 2), 3)
    assert result.det_class == class_of_integer(3 * (9 + 3 + 1)) == SquareClass(1, 39)
    assert result.degree == gaussian_binomial(6, 2, 3) * unipotent_degree((2, 2), 3)


def test_sign_pair_empty_side_degenerates_to_unipotent():
    for q in (3, 7):
        assert (
            sign_pair_determinant((), (3, 1, 1), q).det_class
            == unipotent_determinant((3, 1, 1), q).det_class
        )
        assert (
            sign_pair_determinant((3, 1, 1), (), q).det_class
            == unipotent_determinant((3, 1, 1), q).det_class
        )


def test_sign_pair_power_rule():
    # odd index, even degree on the mu side, odd degree deg_lam on the other:
    # class = class(mu)^deg_lam, so an even deg_lam side would trivialize it
    result = sign_pair_determinant((1, 1), (2, 2), 3)  # deg (1,1) = 3 odd at q=3
    index = gaussian_binomial(6, 2, 3)
    assert index % 2 == 1
    assert unipotent_degree((1, 1), 3) % 2 == 1  # and class(mu)^odd = class(mu)
    assert result.det_class == unipotent_determinant((2, 2), 3).det_class


def test_sign_pair_classes_follow_the_power_rule():
    # Every (lam, mu) with n <= 6: an even index gives the trivial class, an
    # odd one det(lam)^deg(mu) * det(mu)^deg(lam), read off unipotent_determinant.
    checked = inherited = 0
    for q in (3, 5, 9):
        for n in range(1, 7):
            for ell in range(n + 1):
                for lam in enumerate_partitions(ell) if ell else [()]:
                    for mu in enumerate_partitions(n - ell) if n - ell else [()]:
                        index = gaussian_binomial(n, ell, q)
                        degrees = unipotent_degree(lam, q), unipotent_degree(mu, q)
                        if index * degrees[0] * degrees[1] % 2:
                            with pytest.raises(NotIrrPlusError):
                                sign_pair_determinant(lam, mu, q)
                            continue
                        expected = ONE
                        if index % 2:
                            for shape, other_degree in ((lam, degrees[1]), (mu, degrees[0])):
                                if other_degree % 2:
                                    expected = expected * unipotent_determinant(shape, q).det_class
                                    inherited += 1
                        assert sign_pair_determinant(lam, mu, q).det_class == expected, (lam, mu, q)
                        checked += 1
    assert (checked, inherited) == (204, 66)


def test_sign_pair_does_not_reenter_unipotent_determinant(monkeypatch):
    monkeypatch.setattr(gl, "unipotent_determinant", lambda shape, q: pytest.fail("re-entered"))
    assert sign_pair_determinant((2,), (2, 2), 3).det_class == SquareClass(1, 39)


def test_sign_pair_rejects_odd_total_degree():
    with pytest.raises(NotIrrPlusError):
        sign_pair_determinant((1,), (), 3)  # degree 1


def _clear_shape_records():
    tableaux.shape_record.cache_clear()
    gl.unipotent_row.cache_clear()


def test_sign_pair_checks_component_tableau_counts(monkeypatch):
    # Two more tableaux for (2,1) keep the parity of its count, but its
    # degree at q = 5 is 30, so q - 1 = 4 does not divide degree - count.
    # Only the printed degree forms a count; the row is built from the record.
    real = gl.syt_count
    monkeypatch.setattr(gl, "syt_count", lambda shape: real(shape) + 2 * (shape == (2, 1)))
    result = sign_pair_determinant((2, 1), (1, 1, 1, 1), 5)
    with pytest.raises(InvariantViolation, match="does not divide"):
        result.degree


def test_shape_record_refuses_a_negative_cyclotomic_multiplicity(monkeypatch):
    # Hooks (3, 3, 1) for (2, 1): Phi_3 divides the denominator twice and
    # the numerator (x - 1)(x^2 - 1)(x^3 - 1) once.
    real = tableaux.hook_lengths
    monkeypatch.setattr(tableaux, "hook_lengths", lambda shape: (
        {(1, 1): 3, (1, 2): 3, (2, 1): 1} if shape == (2, 1) else real(shape)))
    _clear_shape_records()
    for call in (lambda: unipotent_determinant((2, 1), 3),
                 lambda: sign_pair_determinant((2, 1), (1, 1, 1, 1), 5)):
        with pytest.raises(InvariantViolation, match=r"\(2, 1\).* -1 at d = 3"):
            call()


def test_warm_caches_still_refuse_bools_and_floats():
    # True == 1 would hit the entries of (2, 1) in the q-free shape caches
    # if they ran before validation; a float q is refused too.
    _clear_shape_records()
    unipotent_degree((2, 1), 3)
    unipotent_determinant((2, 1), 3)
    sign_pair_determinant((2, 1), (1,), 3)
    for cache in (tableaux.shape_record, gl.unipotent_row):
        assert cache.cache_info().currsize > 0
    calls = [
        (unipotent_degree, ((2, True), 3)),
        (unipotent_degree, ((2, 1), 3.0)),
        (unipotent_q_exponent, ((2, True), 3)),
        (unipotent_q_exponent, ((2, 1), 3.0)),
        (unipotent_determinant, ((2, True), 3)),
        (unipotent_determinant, ((2, 1), 3.0)),
        (sign_pair_determinant, ((2, True), (1,), 3)),
        (sign_pair_determinant, ((2, 1), (True,), 3)),
        (sign_pair_determinant, ((2, 1), (1,), 3.0)),
    ]
    for fn, args in calls:
        with pytest.raises(ValueError):
            fn(*args)


def test_sign_pair_rejects_double_empty():
    with pytest.raises(ValueError):
        sign_pair_determinant((), (), 3)


def test_breakdown_product_invariant():
    for lam, mu, q in [((2,), (2, 2), 3), ((1,), (1,), 5), ((), (2, 1), 3)]:
        result = sign_pair_determinant(lam, mu, q)
        product = ONE
        for _, cls in result.breakdown:
            product = product * cls
        assert product == result.det_class


def test_result_json():
    data = unipotent_determinant((3, 1, 1), 3).to_json()
    assert data["class"] == {"sign": 1, "squarefree": "1", "parity": "odd"}
    assert data["q"] == 3 and data["p"] == 3
    assert data["q_exponent"] == "1752"


# Odd prime powers with both classes of v2(q + 1) mod 2, up to 997.
RECORD_Q = (3, 5, 7, 9, 11, 25, 27, 49, 81, 121, 243, 997)


def _shapes_up_to(n_max):
    return [shape for n in range(n_max + 1)
            for shape in (enumerate_partitions(n) if n else [()])]


def _hook_quotient(shape, q):
    """Degree and q-exponent from the q-hook formula as one exact quotient."""
    hooks = hook_lengths(shape).values()
    weight = sum(i * part for i, part in enumerate(shape))
    numerator = q**weight * prod(q**i - 1 for i in range(1, sum(shape) + 1))
    degree, rem = divmod(numerator, prod(q**h - 1 for h in hooks))
    assert rem == 0, (shape, q)
    count = factorial(sum(shape)) // prod(hooks)
    exponent, rem = divmod(degree - count, q - 1)
    assert rem == 0 and exponent >= 0, (shape, q)
    return degree, exponent


def test_degree_of_a_long_hook_is_pinned():
    # (2000, 1) has degree q * [2000]_q and 2000 tableaux; no quotient of
    # 4000-digit products is formed.
    degree = 3 * (3**2000 - 1) // 2
    assert unipotent_degree((2000, 1), 3) == degree
    assert unipotent_q_exponent((2000, 1), 3) == (degree - 2000) // 2


def test_shape_parities_match_the_exact_degrees():
    # The hook quotient is the reference for the degree and the exponent at
    # every q >= 2 (even q stays legal), and for the record's parities at odd q.
    for shape in _shapes_up_to(12):
        parities = (not shape_record(shape).count_v2, gl._odd_exponent(shape))
        for q in RECORD_Q + (2, 4):
            degree, exponent = _hook_quotient(shape, q)
            assert unipotent_degree(shape, q) == degree, (shape, q)
            assert unipotent_q_exponent(shape, q) == exponent, (shape, q)
            if q % 2:
                assert (degree % 2, exponent % 2) == parities, (shape, q)


def test_no_row_builds_a_degree(monkeypatch):
    # Rows, classes and breakdowns read the parities of the shape
    # records; the exact degree at q is evaluated only when printed.
    monkeypatch.setattr(gl, "_degree_and_exponent",
                        lambda shape, q: pytest.fail(f"degree of {shape} at q={q}"))
    _clear_shape_records()
    builds = [(unipotent_determinant, (shape,)) for shape in _shapes_up_to(9)]
    builds += [(sign_pair_determinant, (lam, mu)) for lam in _shapes_up_to(7)
               for mu in _shapes_up_to(7 - sum(lam)) if lam or mu]
    built = 0
    for q in (3, 5, 9):
        for determinant, shapes in builds:
            try:
                result = determinant(*shapes, q)
            except NotIrrPlusError:
                continue
            product = ONE
            for _, cls in result.breakdown:
                product = product * cls
            assert product == result.det_class == result.symbolic.square_class(q)
            built += 1
    assert built > len(builds)


def _times_q_power(mask, exponent):
    """The mask of the product of `mask` times x^exponent, multiplied as products."""
    return (hecke.QIntProduct.from_mask(mask) * hecke.QIntProduct(exponent, ())).mask


def _reference_sign_pair_symbolic(lam, mu, q):
    """The mask of a sign pair from its degrees and exponents at q; None if the degree is odd."""
    ell = sum(lam)
    index = gaussian_binomial(ell + sum(mu), ell, q)
    (deg_lam, exp_lam), (deg_mu, exp_mu) = (
        (unipotent_degree(shape, q), unipotent_q_exponent(shape, q)) for shape in (lam, mu)
    )
    if index * deg_lam * deg_mu % 2:
        return None
    symbolic = 0
    if index % 2 and deg_mu % 2:
        symbolic = _times_q_power(hecke.det_poly_reduced(lam), exp_lam)
    if index % 2 and deg_lam % 2:
        symbolic = _times_q_power(hecke.det_poly_reduced(mu), exp_mu)
    return symbolic


def test_sign_pair_rows_match_the_per_q_reference():
    pairs = [(lam, mu) for lam in _shapes_up_to(9) for mu in _shapes_up_to(9 - sum(lam))
             if lam or mu]
    odd = 0
    for lam, mu in pairs:
        for q in RECORD_Q:
            expected = _reference_sign_pair_symbolic(lam, mu, q)
            if expected is None:
                odd += 1
                with pytest.raises(NotIrrPlusError):
                    sign_pair_determinant(lam, mu, q)
            else:
                symbolic = sign_pair_determinant(lam, mu, q).symbolic
                assert symbolic == hecke.QIntProduct.from_mask(expected), (lam, mu, q)
    assert 0 < odd < len(pairs) * len(RECORD_Q)


def test_unipotent_rows_match_the_per_q_reference():
    for shape in _shapes_up_to(9):
        for q in RECORD_Q:
            if syt_count(shape) % 2:
                with pytest.raises(NotIrrPlusError):
                    unipotent_determinant(shape, q)
                continue
            exponent = unipotent_q_exponent(shape, q)
            expected = _times_q_power(hecke.det_poly_reduced(shape), exponent)
            symbolic = unipotent_determinant(shape, q).symbolic
            assert symbolic == hecke.QIntProduct.from_mask(expected), (shape, q)


def test_lazy_degree_and_exponent_are_the_exact_values():
    for shape in [(3, 1, 1), (2, 2), (2, 1)]:
        for q in (3, 243):
            result = unipotent_determinant(shape, q)
            assert result.degree == unipotent_degree(shape, q)
            assert result.q_exponent == unipotent_q_exponent(shape, q)
    result = sign_pair_determinant((3, 1), (2, 1), 997)
    assert result.degree == (gaussian_binomial(7, 4, 997) * unipotent_degree((3, 1), 997)
                             * unipotent_degree((2, 1), 997))
    assert result.q_exponent is None


def test_lazy_degree_is_checked_against_the_shape_record(monkeypatch):
    # Each exact value is checked where it is made, at odd q: the degree and
    # the exponent against the shape record, the induction index against C(n, k).
    odd_exponent = gl._odd_exponent
    result = unipotent_determinant((2, 1), 5)
    monkeypatch.setattr(gl, "_odd_exponent", lambda shape: 1 - odd_exponent(shape))
    for value in (lambda: unipotent_degree((2, 1), 5), lambda: result.q_exponent):
        with pytest.raises(InvariantViolation, match=r"\(2, 1\) at q=5 contradict"):
            value()
    assert unipotent_degree((2, 1), 4) == 4 * 5  # no parity claim at even q
    monkeypatch.undo()
    result = sign_pair_determinant((3, 1), (2, 1), 997)
    monkeypatch.setattr(intpoly, "comb", lambda n, k: comb(n, k) + 1)
    for value in (lambda: gaussian_binomial(7, 4, 997), lambda: result.degree):
        with pytest.raises(InvariantViolation, match="differ mod 2"):
            value()
    assert gaussian_binomial(7, 4, 4) == gaussian_binomial(7, 3, 4)


def test_odd_degree_messages_name_the_shape_not_the_degree():
    with pytest.raises(NotIrrPlusError, match=r"shape \(1, 1\) has odd degree") as info:
        unipotent_determinant((1, 1), 997)
    assert str(unipotent_degree((1, 1), 997)) not in str(info.value)
    with pytest.raises(NotIrrPlusError, match=r"sign pair \(1,\) \| \(\) has odd degree"):
        sign_pair_determinant((1,), (), 3)
