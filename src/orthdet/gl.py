"""Orthogonal determinant assembly for GL_n(q) characters, q an odd prime power.

Two families are covered exactly:

* unipotent characters, indexed by partitions of n: the determinant class
  is the shape's determinant polynomial at q times a power of q whose
  exponent comes from the part of the Borel restriction on which the
  unipotent radical acts without fixed vectors;
* characters whose diagonal-torus constituents are order-2 linear
  characters ("sign pairs"): parabolic induction of an outer product of a
  unipotent character with a sign-twisted one, resolved by the parity of
  the induction index and the direct-product power rule.

Characters whose torus constituents have order >= 3 take values in real
cyclotomic fields; their determinants are out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import squareclass
from .errors import InvariantViolation, NotIrrPlusError
from .hecke import QIntProduct, det_poly_factored
from .intpoly import gaussian_binomial
from .squareclass import SquareClass, factorize, power_class
from .tableaux import check_partition, hook_lengths, syt_count


@dataclass(frozen=True)
class PrimePower:
    """q = p^r with p an odd prime."""

    p: int
    r: int
    q: int


def as_odd_prime_power(q: int | PrimePower) -> PrimePower:
    """Validate and decompose q as a power of an odd prime."""
    if isinstance(q, PrimePower):
        return q
    if q < 3:
        raise ValueError(f"q must be at least 3, got {q}")
    if q % 2 == 0:
        raise ValueError(f"q must be odd, got {q}")
    factors = factorize(q)
    if len(factors) != 1:
        raise ValueError(f"q must be a prime power, got {q} = {factors}")
    ((p, r),) = factors.items()
    return PrimePower(p=p, r=r, q=q)


def diagram_weight(shape) -> int:
    """The exponent statistic sum over rows of (row index - 1) * row length."""
    shape = check_partition(shape)
    return sum(i * part for i, part in enumerate(shape))


def unipotent_degree(shape, q: int | PrimePower) -> int:
    """Degree of the unipotent character of GL_n(q) attached to a shape.

    q-hook formula: q^weight * prod_{i=1..n} (q^i - 1) / prod_cells (q^hook - 1),
    evaluated exactly; any inexact division would falsify the formula and
    aborts. Valid for any integer q >= 2 (primality is not needed for the
    arithmetic).
    """
    shape = check_partition(shape)
    q = q.q if isinstance(q, PrimePower) else q
    if q < 2:
        raise ValueError(f"degree formula needs q >= 2, got {q}")
    return _unipotent_degree(shape, q)


# Sweeps ask for the same (shape, q) degree many times: sign pairs reuse
# every component shape across all their partners.
@lru_cache(maxsize=None)
def _unipotent_degree(shape: tuple[int, ...], q: int) -> int:
    n = sum(shape)
    numerator = q ** diagram_weight(shape)
    for i in range(1, n + 1):
        numerator *= q**i - 1
    denominator = 1
    for h in hook_lengths(shape).values():
        denominator *= q**h - 1
    value, rem = divmod(numerator, denominator)
    if rem:
        raise InvariantViolation(f"q-hook degree of {shape} at q={q} is not an integer")
    return value


def unipotent_q_exponent(shape, q: int | PrimePower) -> int:
    """(degree - tableau count) / (q - 1), the exponent of the q-power factor.

    Divisibility is a theorem (the non-torus part of the Borel restriction
    has degree divisible by q - 1); failure aborts loudly.
    """
    shape = check_partition(shape)
    q = q.q if isinstance(q, PrimePower) else q
    exponent, rem = divmod(unipotent_degree(shape, q) - syt_count(shape), q - 1)
    if rem:
        raise InvariantViolation(
            f"q-1 does not divide degree - tableau count for {shape} at q={q}"
        )
    if exponent < 0:
        raise InvariantViolation(f"negative q-power exponent for {shape} at q={q}")
    return exponent


@dataclass(frozen=True)
class GlDetResult:
    """Determinant class of a GL character with its multiplicative breakdown."""

    kind: str
    shapes: tuple[tuple[int, ...], ...]
    q: PrimePower
    degree: int
    det_class: SquareClass
    breakdown: tuple[tuple[str, SquareClass], ...]
    f_factored: QIntProduct | None = None
    q_exponent: int | None = None

    def symbolic_factors(self) -> QIntProduct | None:
        """The determinant class as a squarefree product of symbolic factors.

        Only for unipotent results: the determinant polynomial reduced mod
        squares, with the q-power exponent folded into the x-power.
        """
        if self.f_factored is None or self.q_exponent is None:
            return None
        reduced = self.f_factored.reduced()
        return QIntProduct((reduced.x_exp + self.q_exponent) % 2, reduced.qint_mults)

    def to_json(self) -> dict:
        data = {
            "kind": self.kind,
            "shapes": [list(s) for s in self.shapes],
            "q": self.q.q,
            "p": self.q.p,
            "degree": str(self.degree),
            "class": self.det_class.to_json(),
            "parity": self.det_class.parity.value,
            "breakdown": [
                {"factor": label, "class": cls.to_json()} for label, cls in self.breakdown
            ],
        }
        if self.f_factored is not None:
            data["factors"] = self.f_factored.factors_json()
        if self.q_exponent is not None:
            data["q_exponent"] = str(self.q_exponent)
        return data


def unipotent_determinant(shape, q: int | PrimePower) -> GlDetResult:
    """Determinant class of an even-degree unipotent character."""
    shape = check_partition(shape)
    pp = as_odd_prime_power(q)
    degree = unipotent_degree(shape, pp)
    if degree % 2:
        raise NotIrrPlusError(f"degree {degree} is odd: not orthogonally stable")
    factored = det_poly_factored(shape)
    f_class = factored.square_class(pp.q)
    exponent = unipotent_q_exponent(shape, pp)
    q_class = power_class(pp.q, exponent)
    return GlDetResult(
        kind="unipotent",
        shapes=(shape,),
        q=pp,
        degree=degree,
        det_class=f_class * q_class,
        breakdown=(("hecke", f_class), ("q-power", q_class)),
        f_factored=factored,
        q_exponent=exponent,
    )


def sign_pair_determinant(lam, mu, q: int | PrimePower) -> GlDetResult:
    """Determinant class of the induced sign-pair character for (lam, mu).

    The parabolic induction index is the Gaussian binomial [n choose l]_q:
    when even, the determinant class is trivial outright; when odd, the
    class is inherited from the outer product, i.e. the unipotent class of
    the even-degree component raised to the other component's degree. The
    sign twist never changes a determinant class.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    pp = as_odd_prime_power(q)
    ell, m = sum(lam), sum(mu)
    n = ell + m
    if n < 1:
        raise ValueError("at least one of the two partitions must be non-empty")
    deg_lam = unipotent_degree(lam, pp)
    deg_mu = unipotent_degree(mu, pp)
    index = gaussian_binomial(n, ell, pp.q)
    degree = index * deg_lam * deg_mu
    if degree % 2:
        raise NotIrrPlusError(f"degree {degree} is odd: not orthogonally stable")

    if index % 2 == 0:
        det = squareclass.ONE
        return GlDetResult(
            kind="sign-pair",
            shapes=(lam, mu),
            q=pp,
            degree=degree,
            det_class=det,
            breakdown=(("induction", det),),
        )

    # Odd induction index: the class is that of the outer product. The
    # component of even degree must exist, else the total degree were odd.
    if deg_lam % 2 == 0:
        inner, outer_degree = unipotent_determinant(lam, pp), deg_mu
    elif deg_mu % 2 == 0:
        inner, outer_degree = unipotent_determinant(mu, pp), deg_lam
    else:
        raise InvariantViolation(
            f"odd index with two odd-degree components for ({lam}, {mu}) at q={pp.q}"
        )
    det = inner.det_class**outer_degree
    breakdown = (("induction", squareclass.ONE), ("outer-product", det))
    return GlDetResult(
        kind="sign-pair",
        shapes=(lam, mu),
        q=pp,
        degree=degree,
        det_class=det,
        breakdown=breakdown,
    )

