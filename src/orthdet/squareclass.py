"""Square classes of the nonzero rationals.

A square class is canonically a sign together with a squarefree positive
integer. Multiplication is the group law of Q^x modulo squares (every
element is its own inverse); "odd"/"even" refers to whether 2 divides the
squarefree representative.

Classifying an integer requires its factorization; we trial-divide up to a
bound and fall back to Brent's variant of Pollard rho, with a fixed step
budget per integer. Testing membership in a known class does not:
`SquareClass.contains` is one perfect-square test. Only integers are
classified or tested; every caller holds integer values. Parity alone never
needs a factorization either: the squarefree part is even exactly when the
2-adic valuation is odd. The sweeps never form the values at all:
`hecke.odd_q_parity` reads that valuation off two q-free bits of a
product's mask and v2(q + 1), which is what makes parity sweeps over
astronomically large q-integer products feasible. `parity_of_integer`
reads it off a value directly, the reference the tests compare against.
"""

from __future__ import annotations

import math
import random
from enum import Enum

from .errors import FactorizationError, check_int, record

TRIAL_DIVISION_BOUND = 10**4
_RHO_STEP_BUDGET = 10**7


class Parity(Enum):
    ODD = "odd"
    EVEN = "even"


@record
class SquareClass:
    """A class a*(Q^x)^2 in canonical form: sign and squarefree part.

    Construct via class_of_integer so the squarefree reduction actually
    happens; the constructor only sanity-checks shape.
    """

    sign: int
    squarefree: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.squarefree < 1:
            raise ValueError(f"squarefree part must be positive, got {self.squarefree}")

    def __mul__(self, other: SquareClass) -> SquareClass:
        if not isinstance(other, SquareClass):
            return NotImplemented
        # Both representatives are squarefree, so the square part of the
        # product is exactly gcd^2.
        g = math.gcd(self.squarefree, other.squarefree)
        return SquareClass(self.sign * other.sign, self.squarefree * other.squarefree // (g * g))

    def contains(self, value: int) -> bool:
        """Whether the nonzero integer value lies in this class, without factoring.

        value lies in sign * squarefree * (Q^x)^2 iff it has this sign and
        |value| * squarefree is a perfect square.
        """
        if check_int(value, "square-class test value", None) == 0:
            raise ValueError("0 has no square class")
        if (value > 0) != (self.sign > 0):
            return False
        m = abs(value) * self.squarefree
        return math.isqrt(m) ** 2 == m

    @property
    def parity(self) -> Parity:
        """Even iff 2 divides the squarefree part; the sign is ignored."""
        return Parity.EVEN if self.squarefree % 2 == 0 else Parity.ODD

    def __repr__(self) -> str:
        value = self.sign * self.squarefree
        return f"SquareClass({value:+d})"

    def to_json(self) -> dict:
        return {
            "sign": self.sign,
            "squarefree": str(self.squarefree),
            "parity": self.parity.value,
        }


ONE = SquareClass(1, 1)


def class_of_integer(a: int) -> SquareClass:
    """Square class of a nonzero integer."""
    if check_int(a, "classified value", None) == 0:
        raise ValueError("0 has no square class")
    sign = 1 if a > 0 else -1
    squarefree = 1
    for p, e in factorize(abs(a)).items():
        if e % 2:
            squarefree *= p
    return SquareClass(sign, squarefree)


def two_adic_valuation(m: int) -> int:
    """The exponent of 2 in a nonzero integer."""
    if check_int(m, "2-adic valuation argument", None) == 0:
        raise ValueError("0 has no 2-adic valuation")
    m = abs(m)
    return (m & -m).bit_length() - 1


def parity_of_integer(m: int) -> Parity:
    """Parity of the square class of m, via the 2-adic valuation only."""
    if check_int(m, "parity argument", None) == 0:
        raise ValueError("0 has no square class")
    return Parity.EVEN if two_adic_valuation(m) % 2 else Parity.ODD


# --- integer factorization -------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Baillie-PSW: a strong test to base 2 and a strong Lucas test.

    The Lucas parameters follow Selfridge (P = 1, Q = (1 - D)/4 for the
    first D in 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1), as in
    Baillie and Wagstaff (1980). No composite passing both tests is known,
    and none exists below 2^64.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return _strong_base_2(n) and _strong_lucas(n)


def _strong_base_2(n: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(2, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 41 with no factor <= 41."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists for a square
    d_param = 5
    while (j := _jacobi(d_param, n)) != -1:
        if j == 0:
            return False  # |D| < n shares a factor with n
        d_param = -d_param - 2 if d_param > 0 else -d_param + 2
    q_param = (1 - d_param) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:
        return (x if x % 2 == 0 else x + n) // 2 % n

    # U_k, V_k and Q^k for k running through the bits of d (P = 1).
    u, v, qk = 1, 1, q_param % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(d_param * u + v), qk * q_param % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _brent_rho(n: int, rng: random.Random, budget: int) -> tuple[int, int]:
    """A nontrivial factor of composite odd n by Brent's cycle method, and the steps used.

    A step is one evaluation of y -> y^2 + c; raises FactorizationError once
    more than `budget` steps are needed.
    """
    steps = 0

    def spend(count: int) -> None:
        nonlocal steps
        steps += count
        if steps > budget:
            raise FactorizationError(f"{n} left unfactored: rho step budget spent")

    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            spend(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(m, r - k)
                spend(batch)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                spend(1)
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, steps


def factorize(n: int) -> dict[int, int]:
    """Full prime factorization of n >= 1 as {prime: exponent}.

    Trial division up to TRIAL_DIVISION_BOUND, then Brent rho on what
    remains, with at most _RHO_STEP_BUDGET rho steps for the whole call.
    Raises FactorizationError rather than ever guessing.
    """
    check_int(n, "factorized value", 1)
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n and f <= TRIAL_DIVISION_BOUND:
        for p in (f, f + 2):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
        f += 6
    if n == 1:
        return dict(sorted(factors.items()))
    if f * f > n or is_probable_prime(n):
        factors[n] = factors.get(n, 0) + 1
        return dict(sorted(factors.items()))
    # Composite with no factor below the trial bound: recurse via rho.
    rng = random.Random(0xC0FFEE ^ n)
    stack = [n]
    budget = _RHO_STEP_BUDGET
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            # Rho would need about sqrt(root) steps; a determinant that the
            # oracle factors to name a mismatch may carry square factors.
            stack += [root, root]
            continue
        d, steps = _brent_rho(m, rng, budget)
        budget -= steps
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(factors.items()))
