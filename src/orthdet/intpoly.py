"""Integer-coefficient univariate polynomials and their q-analog friends.

Everything here is exact: coefficients are Python ints, division is only
permitted when it leaves no remainder, and evaluation is Horner on ints.
Covers q-integers [k]_x = 1 + x + ... + x^(k-1), cyclotomic polynomials
and Gaussian binomial coefficients.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest

from .errors import check_int


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
    def monomial(exponent: int, coefficient: int = 1) -> IntPoly:
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        return IntPoly((0,) * exponent + (coefficient,))

    @property
    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: int | IntPoly) -> IntPoly:
        coeffs = (other,) if isinstance(other, int) else other.coeffs
        return IntPoly(a + b for a, b in zip_longest(self.coeffs, coeffs, fillvalue=0))

    __radd__ = __add__

    def __sub__(self, other: int | IntPoly) -> IntPoly:
        coeffs = (other,) if isinstance(other, int) else other.coeffs
        return IntPoly(a - b for a, b in zip_longest(self.coeffs, coeffs, fillvalue=0))

    def __rsub__(self, other: int | IntPoly) -> IntPoly:
        return (-self) + other

    def __neg__(self) -> IntPoly:
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other: int | IntPoly) -> IntPoly:
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPoly()
        result = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                result[i + j] += a * b
        return IntPoly(result)

    __rmul__ = __mul__

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

    def __divmod__(self, other: IntPoly) -> tuple[IntPoly, IntPoly]:
        """Long division; requires every leading-coefficient division to be exact."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quotient = [0] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        while len(rem) >= len(other.coeffs):
            factor, residue = divmod(rem[-1], lead)
            if residue != 0:
                raise ValueError(f"leading coefficient {rem[-1]} not divisible by {lead}")
            shift = len(rem) - len(other.coeffs)
            quotient[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            while rem and rem[-1] == 0:
                rem.pop()
            if not rem:
                break
        return IntPoly(quotient), IntPoly(rem)

    def exact_div(self, other: IntPoly) -> IntPoly:
        """Divide, insisting the remainder is zero."""
        quotient, rem = divmod(self, other)
        if not rem.is_zero():
            raise ValueError(f"{self!r} is not divisible by {other!r} (remainder {rem!r})")
        return quotient

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

    Computed by the defining recursion: divide x^n - 1 by the cyclotomic
    polynomials of all proper divisors of n. Every division is exact over
    the integers.
    """
    poly = IntPoly.monomial(check_int(n, "cyclotomic index", 1)) - 1
    for d in range(1, n):
        if n % d == 0:
            poly = poly.exact_div(cyclotomic(d))
    return poly


def cyclotomic_at_one(n: int) -> int:
    """Value of the n-th cyclotomic polynomial at 1, by the closed form.

    Returns 0 for n = 1, the prime s when n = s^k, and 1 otherwise.
    Independent of cyclotomic(); the two are cross-checked in tests.
    """
    if check_int(n, "cyclotomic index", 1) == 1:
        return 0
    smallest = _smallest_prime_factor(n)
    while n % smallest == 0:
        n //= smallest
    return smallest if n == 1 else 1


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """The q-binomial coefficient [n choose k]_q as an exact integer.

    Counts k-dimensional subspaces of an n-dimensional space over a field
    with q elements. Evaluated by iterated exact division; every partial
    product is itself a q-binomial, so each division must come out even.
    """
    if check_int(k, "k", 0) > check_int(n, "n", 0):
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    check_int(q, "q", 2)
    value = 1
    for i in range(1, k + 1):
        value, rem = divmod(value * (q ** (n - k + i) - 1), q**i - 1)
        if rem != 0:
            raise AssertionError(f"gaussian_binomial({n},{k},{q}): inexact step i={i}")
    return value
