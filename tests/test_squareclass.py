import random

import pytest
from hypothesis import given, strategies as st

from orthdet import squareclass
from orthdet.errors import FactorizationError
from orthdet.hecke import QIntProduct
from orthdet.squareclass import (
    ONE,
    Parity,
    SquareClass,
    class_of_integer,
    factorize,
    is_probable_prime,
    parity_of_integer,
)

nonzero_ints = st.integers(-(10**6), 10**6).filter(lambda a: a != 0)


def test_integer_examples():
    assert class_of_integer(8) == SquareClass(1, 2)
    assert class_of_integer(121) == SquareClass(1, 1)
    assert class_of_integer(-12) == SquareClass(-1, 3)


def test_zero_rejected():
    with pytest.raises(ValueError):
        class_of_integer(0)


def test_multiplication_examples():
    two = SquareClass(1, 2)
    assert two * two == ONE
    assert SquareClass(1, 6) * SquareClass(1, 10) == SquareClass(1, 15)
    assert SquareClass(-1, 1) * SquareClass(-1, 3) == SquareClass(1, 3)


def test_power_class_examples():
    # The class of q^e, as the x-power of a determinant product contributes it.
    assert QIntProduct(1752, ()).square_class(7) == ONE
    assert QIntProduct(0, ()).square_class(5) == ONE
    assert QIntProduct(3, ()).square_class(3) == SquareClass(1, 3)


def test_parity_examples():
    assert SquareClass(1, 2).parity is Parity.EVEN
    assert SquareClass(1, 15).parity is Parity.ODD
    assert ONE.parity is Parity.ODD
    assert SquareClass(-1, 10).parity is Parity.EVEN


def test_constructor_validation():
    with pytest.raises(ValueError):
        SquareClass(2, 3)
    with pytest.raises(ValueError):
        SquareClass(1, 0)


@given(nonzero_ints, st.integers(1, 10**6))
def test_square_factors_are_invisible(a, b):
    assert class_of_integer(a * b * b) == class_of_integer(a)


@given(nonzero_ints, nonzero_ints)
def test_class_is_multiplicative(a, b):
    assert class_of_integer(a) * class_of_integer(b) == class_of_integer(a * b)


@given(nonzero_ints)
def test_every_class_is_self_inverse(a):
    c = class_of_integer(a)
    assert c * c == ONE
    assert c * ONE == c


@given(nonzero_ints, nonzero_ints)
def test_parity_combines_as_xor(a, b):
    pa, pb = class_of_integer(a).parity, class_of_integer(b).parity
    combined = (class_of_integer(a) * class_of_integer(b)).parity
    assert combined is (Parity.EVEN if (pa is Parity.EVEN) != (pb is Parity.EVEN) else Parity.ODD)


@given(nonzero_ints)
def test_parity_of_integer_matches_class(a):
    assert parity_of_integer(a) is class_of_integer(a).parity


def test_parity_of_integer_without_factoring():
    # 2-adic valuation alone decides parity, even for huge inputs
    big = (81**2001 - 1) // 80
    assert parity_of_integer(big) in (Parity.ODD, Parity.EVEN)
    assert parity_of_integer(2 * 9) is Parity.EVEN
    assert parity_of_integer(4 * 9) is Parity.ODD


def test_factorize_small():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(2**10) == {2: 10}


def test_factorize_beyond_trial_bound_uses_rho():
    p, q = 1000003, 1000033
    assert is_probable_prime(p) and is_probable_prime(q)
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(p * p * q) == {p: 2, q: 1}


def test_class_of_large_cyclotomic_value():
    # (9^10 - 1)/8 = [10]_9; classifiable via its prime factorization
    value = (9**10 - 1) // 8
    cls = class_of_integer(value)
    assert cls.sign == 1
    assert value % cls.squarefree == 0
    sf = cls.squarefree
    for p, e in factorize(sf).items():
        assert e == 1


def test_is_probable_prime_spot_checks():
    assert is_probable_prime(2)
    assert is_probable_prime(97)
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(2**61 + 1)
    # Strong pseudoprimes to base 2 fail the Lucas half of BPSW, strong
    # Lucas pseudoprimes (Selfridge parameters) the base-2 half.
    for n in (2047, 3215031751, 5459, 5777, 10877, 16109, 18971):
        assert not is_probable_prime(n)


def test_strong_pseudoprime_to_the_first_twelve_primes_is_factored():
    # psi_12, the least strong pseudoprime to every base 2..37
    n = 318665857834031151167461
    assert not is_probable_prime(n)
    assert factorize(n) == {399165290221: 1, 798330580441: 1}


def test_psi13_is_factored():
    # psi_13, the least strong pseudoprime to every base 2..41: Miller-Rabin
    # with those witnesses calls it prime, the strong Lucas test does not.
    n = 3317044064679887385961981
    assert not is_probable_prime(n)
    assert factorize(n) == {1287836182261: 1, 2575672364521: 1}


def test_rho_step_budget(monkeypatch):
    p, q = 1073741789, 1073741783  # the two largest primes below 2^30
    assert is_probable_prime(p) and is_probable_prime(q)
    assert factorize(p * q) == {p: 1, q: 1}
    monkeypatch.setattr(squareclass, "_RHO_STEP_BUDGET", 1000)
    with pytest.raises(FactorizationError, match="budget"):
        factorize(p * q)


def test_square_cofactor_is_split_without_rho(monkeypatch):
    # Seen in a skew-element determinant of (3,2,1) at q = 3.
    monkeypatch.setattr(squareclass, "_RHO_STEP_BUDGET", 0)
    p = 390420649419299
    assert factorize(p * p) == {p: 2}
    assert factorize(7 * p**4) == {7: 1, p: 4}


def test_factorize_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20241210)
    numbers = [rng.randrange(2, 10**9) for _ in range(200)]
    numbers += [rng.randrange(2, 2**64) for _ in range(10)]
    # semiprimes and prime powers whose factors all lie beyond the trial bound
    primes = [sympy.nextprime(rng.randrange(2**20, 2**28)) for _ in range(8)]
    numbers += [a * b for a, b in zip(primes, primes[1:])] + [primes[0] ** 3]
    for n in numbers:
        assert factorize(n) == sympy.factorint(n), n
        assert is_probable_prime(n) == sympy.isprime(n), n


def test_contains_is_a_perfect_square_test():
    assert SquareClass(1, 39).contains(39 * 7**2)
    assert SquareClass(-1, 6).contains(-24)
    assert not SquareClass(1, 39).contains(-39)
    assert not SquareClass(-1, 6).contains(24)
    assert not SquareClass(1, 39).contains(13)
    assert not ONE.contains(2)
    with pytest.raises(ValueError):
        ONE.contains(0)


@given(nonzero_ints, nonzero_ints)
def test_contains_agrees_with_classification(a, b):
    cls = class_of_integer(a)
    assert cls.contains(a)
    assert cls.contains(b) == (class_of_integer(b) == cls)


def test_json_form():
    assert SquareClass(1, 15).to_json() == {"sign": 1, "squarefree": "15", "parity": "odd"}
