"""Orthogonal determinant assembly for GL_n(q) characters, q an odd prime power.

Two families are covered exactly:

* unipotent characters, indexed by partitions of n: the determinant class
  is the shape's determinant polynomial at q times a power of q whose
  exponent comes from the part of the Borel restriction on which the
  unipotent radical acts without fixed vectors. Degree, tableau count and
  exponent come in one pass from the shape's cached hook record, and are
  cached per (shape, q) once both are validated;
* characters whose diagonal-torus constituents are order-2 linear
  characters ("sign pairs"): parabolic induction of an outer product of a
  unipotent character with a sign-twisted one, resolved by the parity of
  the induction index and the direct-product power rule.

Classes come from the Hecke determinant's GF(2) walk (`det_poly_reduced`);
the full product of a unipotent character is computed only when `to_json`
prints its factors, and is checked against the walk then.

Characters whose torus constituents have order >= 3 take values in real
cyclotomic fields; their determinants are out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod

from .errors import InvariantViolation, NotIrrPlusError, check_int
from .hecke import QIntProduct, checked_det_poly, det_poly_reduced
from .intpoly import gaussian_binomial
from .squareclass import SquareClass, factorize
from .tableaux import check_partition, hook_record


@dataclass(frozen=True)
class PrimePower:
    """q = p^r with p an odd prime."""

    p: int
    r: int
    q: int


# Cached, so that a sweep factors each q once although every row validates it.
@lru_cache(maxsize=None)
def as_odd_prime_power(q: int) -> PrimePower:
    """Validate and decompose q as a power of an odd prime."""
    if check_int(q, "q", 3) % 2 == 0:
        raise ValueError(f"q must be odd, got {q}")
    factors = factorize(q)
    if len(factors) != 1:
        raise ValueError(f"q must be a prime power, got {q} = {factors}")
    ((p, r),) = factors.items()
    return PrimePower(p=p, r=r, q=q)


def unipotent_degree(shape, q: int) -> int:
    """Degree of the unipotent character of GL_n(q) attached to a shape.

    q-hook formula: q^weight * prod_{i=1..n} (q^i - 1) / prod_cells (q^hook - 1),
    evaluated exactly with the q-power exponent; an inexact division or a
    failed exponent check falsifies a theorem and aborts. Valid for any
    integer q >= 2 (primality is not needed for the arithmetic).
    """
    return _degree_and_exponent(check_partition(shape), check_int(q, "q", 2))[0]


def unipotent_q_exponent(shape, q: int) -> int:
    """(degree - tableau count) / (q - 1), the exponent of the q-power factor.

    Divisibility is a theorem (the non-torus part of the Borel restriction
    has degree divisible by q - 1); failure aborts loudly.
    """
    return _degree_and_exponent(check_partition(shape), check_int(q, "q", 2))[1]


# Cached, so that a sweep computes each shape's degree once per q although
# sign pairs meet every component many times. Callers validate first: True
# equals 1, so an unvalidated bool part or q could hit an int's entry.
@lru_cache(maxsize=None)
def _degree_and_exponent(shape: tuple[int, ...], q: int) -> tuple[int, int]:
    """Unipotent degree and q-power exponent of a validated shape and q, from its hook record."""
    hooks, count = hook_record(shape)
    weight = sum(i * part for i, part in enumerate(shape))  # sum of (row - 1) * row length
    numerator = q**weight * prod(q**i - 1 for i in range(1, sum(shape) + 1))
    degree, rem = divmod(numerator, prod(q**h - 1 for h in hooks))
    if rem:
        raise InvariantViolation(f"q-hook degree of {shape} at q={q} is not an integer")
    # At odd q, q - 1 is even, so this check also makes the degree and the
    # tableau count agree mod 2; the odd-degree tests rest on it.
    exponent, rem = divmod(degree - count, q - 1)
    if rem:
        raise InvariantViolation(f"q-1 does not divide degree - tableau count for {shape} at q={q}")
    if exponent < 0:
        raise InvariantViolation(f"negative q-power exponent for {shape} at q={q}")
    return degree, exponent


@dataclass(frozen=True)
class GlDetResult:
    """Determinant class of a GL character with its multiplicative breakdown.

    The value at q of the squarefree product `symbolic` lies in the class.
    `det_class`, and `breakdown` from the labelled factors `parts`, are
    classified (factored) on first access only. `symbolic` and `parts`
    come from the GF(2) walk; a unipotent character's full product
    `f_factored` comes from the dynamic program on first access and is
    checked against its "hecke" part.
    """

    kind: str
    shapes: tuple[tuple[int, ...], ...]
    q: PrimePower
    degree: int
    symbolic: QIntProduct
    parts: tuple[tuple[str, QIntProduct], ...]
    q_exponent: int | None = None

    @cached_property
    def f_factored(self) -> QIntProduct | None:
        if self.kind != "unipotent":
            return None
        return checked_det_poly(self.shapes[0], dict(self.parts)["hecke"])

    @cached_property
    def det_class(self) -> SquareClass:
        return self.symbolic.square_class(self.q.q)

    @cached_property
    def breakdown(self) -> tuple[tuple[str, SquareClass], ...]:
        return tuple((label, part.square_class(self.q.q)) for label, part in self.parts)

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


def unipotent_determinant(shape, q: int) -> GlDetResult:
    """Determinant class of an even-degree unipotent character."""
    shape = check_partition(shape)
    pp = as_odd_prime_power(q)
    degree, exponent = _degree_and_exponent(shape, q)
    if degree % 2:
        raise NotIrrPlusError(f"degree {degree} is odd: not orthogonally stable")
    reduced = det_poly_reduced(shape)
    q_power = QIntProduct(exponent, ())
    return GlDetResult(
        kind="unipotent",
        shapes=(shape,),
        q=pp,
        degree=degree,
        symbolic=_unipotent_class(reduced, q_power),
        parts=(("hecke", reduced), ("q-power", q_power)),
        q_exponent=exponent,
    )


def _unipotent_class(hecke_det: QIntProduct, q_power: QIntProduct) -> QIntProduct:
    """The squarefree class of a unipotent character: its Hecke determinant times its q-power."""
    return (hecke_det * q_power).reduced()


def sign_pair_determinant(lam, mu, q: int) -> GlDetResult:
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
    ell = sum(lam)
    n = ell + sum(mu)
    if n < 1:
        raise ValueError("at least one of the two partitions must be non-empty")
    deg_lam, exp_lam = _degree_and_exponent(lam, q)
    deg_mu, exp_mu = _degree_and_exponent(mu, q)
    index = _induction_index(n, ell, q)
    degree = index * deg_lam * deg_mu
    if degree % 2:
        raise NotIrrPlusError(f"degree {degree} is odd: not orthogonally stable")

    one = QIntProduct.one()
    if index % 2 == 0:
        symbolic, parts = one, (("induction", one),)
    else:
        # det(lam)^deg(mu) * det(mu)^deg(lam), the class of the outer product;
        # with an odd index and an even degree, at most one degree is odd.
        symbolic = one
        if deg_mu % 2:
            symbolic = _unipotent_class(det_poly_reduced(lam), QIntProduct(exp_lam, ()))
        if deg_lam % 2:
            symbolic = _unipotent_class(det_poly_reduced(mu), QIntProduct(exp_mu, ()))
        parts = (("induction", one), ("outer-product", symbolic))
    return GlDetResult(
        kind="sign-pair", shapes=(lam, mu), q=pp, degree=degree, symbolic=symbolic, parts=parts
    )


# Cached like `_degree_and_exponent`, and called only after validation too.
@lru_cache(maxsize=None)
def _induction_index(n: int, ell: int, q: int) -> int:
    """The parabolic induction index [n choose ell]_q of a sign pair."""
    return gaussian_binomial(n, ell, q)
