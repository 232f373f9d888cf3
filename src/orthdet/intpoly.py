"""Integer-coefficient univariate polynomials and their q-analog friends.

Everything here is exact: coefficients are Python ints and evaluation is
Horner on ints. Covers q-integers [k]_x = 1 + x + ... + x^(k-1),
cyclotomic polynomials and Gaussian binomial coefficients. Cyclotomic
polynomials come from the Moebius product of binomials x^e - 1, one
linear multiplication or exact division per binomial; the product identity
prod_{d | n} Phi_d = x^n - 1 is their independent cross-check. A remainder,
there or in a Gaussian binomial, or a Gaussian binomial whose parity at odd q
is not that of C(n, k), falsifies a theorem and raises InvariantViolation.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from math import comb

from .errors import InvariantViolation, check_int
from .squareclass import factorize


class IntPoly:
    """Dense polynomial over the integers, coefficient index = exponent.

    >>> IntPoly([1, 0, 1])
    IntPoly('x^2 + 1')
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @staticmethod
    def one() -> IntPoly:
        return IntPoly((1,))

    @staticmethod
    def monomial(exponent: int) -> IntPoly:
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        return IntPoly((0,) * exponent + (1,))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other: int | IntPoly) -> IntPoly:
        coeffs = (other,) if isinstance(other, int) else other.coeffs
        return IntPoly(a + b for a, b in zip_longest(self.coeffs, coeffs, fillvalue=0))

    def __sub__(self, other: int | IntPoly) -> IntPoly:
        coeffs = (other,) if isinstance(other, int) else other.coeffs
        return IntPoly(a - b for a, b in zip_longest(self.coeffs, coeffs, fillvalue=0))

    def __mul__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        if not self or not other:
            return IntPoly()
        result = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                result[i + j] += a * b
        return IntPoly(result)

    def __pow__(self, n: int) -> IntPoly:
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = IntPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: int) -> int:
        """Exact Horner evaluation at an integer point."""
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def __repr__(self) -> str:
        if not self.coeffs:
            return "IntPoly('0')"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = (" + " if c > 0 else " - ") if parts else ("" if c > 0 else "-")
            magnitude = abs(c)
            term = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            coeff = str(magnitude) if (magnitude != 1 or i == 0) else ""
            parts.append(sign + coeff + term)
        return f"IntPoly('{''.join(parts)}')"


def q_int(k: int) -> IntPoly:
    """The q-integer polynomial 1 + x + ... + x^(k-1); q_int(1) = 1."""
    return IntPoly((1,) * check_int(k, "q-integer index", 1))


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial.

    Built from the Moebius product: Phi_n is the product of (x^(n/d) - 1)^mu(d)
    over the squarefree divisors d of n. The coefficients are multiplied by
    every numerator binomial first, then divided exactly by each denominator
    binomial; each step is one linear pass, since x^e - 1 has two terms. An
    inexact division falsifies the identity and raises InvariantViolation.
    The product identity prod_{d | n} Phi_d = x^n - 1, which determines every
    Phi_n by induction on n, is the independent cross-check in the tests and
    in `orthdet selftest`.
    """
    binomials = [(check_int(n, "cyclotomic index", 1), 1)]  # (n/d, mu(d))
    for p in factorize(n):
        binomials += [(e // p, -mu) for e, mu in binomials]
    coeffs = [1]
    for e in (e for e, mu in binomials if mu == 1):
        shifted = [0] * e + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= c
        coeffs = shifted
    for e in (e for e, mu in binomials if mu == -1):
        coeffs = _divide_by_binomial(coeffs, e, n)
    return IntPoly(coeffs)


def _divide_by_binomial(coeffs: list[int], e: int, n: int) -> list[int]:
    """coeffs / (x^e - 1), which must be exact (a step of cyclotomic(n))."""
    # The power series coeffs / (x^e - 1): series[i] = series[i - e] - coeffs[i].
    # The division is exact iff it stops below degree len(coeffs) - e.
    series = []
    for i, c in enumerate(coeffs):
        series.append((series[i - e] if i >= e else 0) - c)
    size = max(len(coeffs) - e, 0)
    if any(series[size:]):
        raise InvariantViolation(f"cyclotomic({n}): x^{e} - 1 does not divide {IntPoly(coeffs)!r}")
    return series[:size]


def cyclotomic_at_one(n: int) -> int:
    """Value of the n-th cyclotomic polynomial at 1, by the closed form.

    Returns 0 for n = 1, the prime s when n = s^k, and 1 otherwise.
    Independent of cyclotomic(); the two are cross-checked in tests.
    """
    primes = list(factorize(check_int(n, "cyclotomic index", 1)))
    if not primes:
        return 0
    return primes[0] if len(primes) == 1 else 1


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """The q-binomial coefficient [n choose k]_q as an exact integer.

    Counts k-dimensional subspaces of an n-dimensional space over a field
    with q elements. Evaluated by iterated exact division; every partial
    product is itself a q-binomial, so each division must come out even. As
    [n choose k]_x lies in Z[x], at odd q the value has the parity of C(n, k).
    """
    if check_int(k, "k", 0) > check_int(n, "n", 0):
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    check_int(q, "q", 2)
    value = 1
    for i in range(1, k + 1):
        value, rem = divmod(value * (q ** (n - k + i) - 1), q**i - 1)
        if rem != 0:
            raise InvariantViolation(f"gaussian_binomial({n},{k},{q}): inexact step i={i}")
    if q % 2 and value % 2 != comb(n, k) % 2:
        raise InvariantViolation(f"[{n} choose {k}]_q = {value} at q={q} "
                                 f"and C({n}, {k}) differ mod 2")
    return value
