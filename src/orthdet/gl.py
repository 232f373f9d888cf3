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

At odd q, whether a character has even degree, and its symbolic class,
do not depend on q. The shape record of `tableaux` proves, for every q at
once, that the q-hook degree and the q-power exponent are integers, and
gives the parities of the tableau count and of the exponent at odd q in
closed form. A row is a mask of `hecke` (bit 1 the power of x = q, bit
k >= 2 an odd [k]_q). `unipotent_row` is a shape's Hecke mask with the
exponent's parity added to bit 1, cached on a validated shape;
`sign_pair_row` is the one copy of the sign-pair rule (the index parity,
the outer-product power rule and the refusal of a pair of odd sides), on
the masks of its two sides. The public determinants validate their
arguments and build products from these masks for a result record. The
exact degree and exponent at q are evaluated from the record, and checked
against it, only when a result prints them.

Masks come from the GF(2) walk of `hecke.det_poly_reduced`; the full
product of a unipotent character, from the same walk in full mode, is
computed only when `to_json` prints its factors, and checked against the
mask then. The sweeps of `parker` read neither: their rows are the masks
of `hecke.beta_row`, put through `sign_pair_row` for sign pairs, and only
a printed or failing row reads `unipotent_row` or `sign_pair_row`.

Characters whose torus constituents have order >= 3 take values in real
cyclotomic fields; their determinants are out of scope here.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import comb, prod

from .errors import InvariantViolation, NotIrrPlusError, check_int, record
from .hecke import QIntProduct, det_poly_factored, hecke_row
from .intpoly import cyclotomic, gaussian_binomial
from .squareclass import SquareClass, factorize, two_adic_valuation
from .tableaux import check_partition, shape_record, syt_count


@record
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

    q-hook formula q^n(shape) * prod_{i=1..n} (q^i - 1) / prod_cells (q^hook - 1),
    evaluated exactly from the shape record's cyclotomic factors and checked
    by `_degree_and_exponent`, which aborts on a falsified theorem. Any q >= 2.
    """
    return _degree_and_exponent(check_partition(shape), check_int(q, "q", 2))[0]


def unipotent_q_exponent(shape, q: int) -> int:
    """(degree - tableau count) / (q - 1), the exponent of the q-power factor.

    Divisibility is a theorem (the non-torus part of the Borel restriction
    has degree divisible by q - 1); failure aborts loudly.
    """
    return _degree_and_exponent(check_partition(shape), check_int(q, "q", 2))[1]


def _degree_and_exponent(shape: tuple[int, ...], q: int) -> tuple[int, int]:
    """Unipotent degree D(q) and q-exponent (D(q) - f) / (q - 1) of a validated shape.

    Checked: q - 1 divides D(q) - f, e >= 0, and at odd q the parities of D(q)
    and e are the shape record's odd-count flag and `_odd_exponent`.
    """
    weight = sum(i * part for i, part in enumerate(shape))
    record = shape_record(shape)
    degree = q**weight * prod(cyclotomic(d)(q) ** m_d for d, m_d in record.multiplicities)
    exponent, rem = divmod(degree - syt_count(shape), q - 1)
    if rem:
        raise InvariantViolation(f"q-1 does not divide degree - tableau count for {shape} at q={q}")
    if exponent < 0:
        raise InvariantViolation(f"negative q-power exponent for {shape} at q={q}")
    if q % 2:
        parities = (not record.count_v2, _odd_exponent(shape))
        if (degree % 2, exponent % 2) != parities:
            raise InvariantViolation(
                f"degree {degree} and q-exponent {exponent} of {shape} at q={q} contradict "
                f"the odd-count flag and exponent parity {parities} of its shape record"
            )
    return degree, exponent


def _odd_exponent(shape: tuple[int, ...]) -> int:
    """e mod 2 of a validated shape at every odd q, with no degree or count formed.

    As [k]_x has logarithmic derivative (k - 1)/2 at x = 1, E(1) = D'(1) = f * y / 2
    with y = 2 n(shape) + C(n + 1, 2) - sum_hooks h = C(n, 2) + n(shape) - n(shape') >= 0.
    As E lies in Z[x], E(q) = E(1) (mod 2) at odd q: odd iff y > 0 and v2(f) + v2(y) = 1.
    """
    hooks, _, count_v2 = shape_record(shape)
    weight = sum(i * part for i, part in enumerate(shape))
    y = comb(len(hooks) + 1, 2) + 2 * weight - sum(hooks)
    return 1 if y and count_v2 + two_adic_valuation(y) == 1 else 0


@record
class GlDetResult:
    """Determinant class of a GL character with its multiplicative breakdown.

    The value at q of the squarefree product `symbolic` lies in the class.
    `symbolic` and the labelled factors `parts` are the same at every odd q:
    the products of masks of the GF(2) walk and of the shape records'
    q-free parities, and a unipotent character's "q-power" part is
    q^(exponent mod 2). Everything else is computed on first access only:
    `det_class`, and `breakdown` from `parts`, are classified (factored);
    `degree` and `q_exponent` come from one evaluation of the exact
    formulas at q, each of which checks its parity at odd q; a unipotent
    character's full product `f_factored` is that of `det_poly_factored`.
    """

    kind: str
    shapes: tuple[tuple[int, ...], ...]
    q: PrimePower
    symbolic: QIntProduct
    parts: tuple[tuple[str, QIntProduct], ...]

    @cached_property
    def _exact(self) -> tuple[int, int | None]:
        """(`degree`, `q_exponent`), from one evaluation of each degree at q."""
        q = self.q.q
        if self.kind == "unipotent":
            return _degree_and_exponent(self.shapes[0], q)
        lam, mu = self.shapes
        degrees = (_degree_and_exponent(shape, q)[0] for shape in self.shapes)
        return gaussian_binomial(sum(lam) + sum(mu), sum(lam), q) * prod(degrees), None

    @property
    def degree(self) -> int:
        return self._exact[0]

    @property
    def q_exponent(self) -> int | None:
        return self._exact[1]

    @cached_property
    def f_factored(self) -> QIntProduct | None:
        return det_poly_factored(self.shapes[0]) if self.kind == "unipotent" else None

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
    symbolic = QIntProduct.from_mask(unipotent_row(shape))
    parts = (("hecke", QIntProduct.from_mask(hecke_row(shape))),
             ("q-power", QIntProduct(_odd_exponent(shape), ())))
    return GlDetResult(kind="unipotent", shapes=(shape,), q=pp, symbolic=symbolic, parts=parts)


# Cached per shape for every odd q; callers validate first.
@lru_cache(maxsize=None)
def unipotent_row(shape: tuple[int, ...]) -> int:
    """The mask of a validated shape's unipotent character at every odd q.

    The Hecke mask times q^(e mod 2) (bit 1), refused at the odd-degree
    gate: the mask of the `symbolic` of `unipotent_determinant`, and the
    class source of the printed and failing rows of the unipotent sweep.
    """
    return hecke_row(shape) ^ _odd_exponent(shape) << 1


def _unipotent_side(shape: tuple[int, ...]) -> int | None:
    """The unipotent row of a validated side of a sign pair, None at odd degree."""
    return unipotent_row(shape) if shape_record(shape).count_v2 else None


def sign_pair_determinant(lam, mu, q: int) -> GlDetResult:
    """Determinant class of the induced sign-pair character for (lam, mu).

    `symbolic` is `sign_pair_row`; `parts` are the induction index, trivial
    in class, and with an odd index the outer product. The sign twist never
    changes a determinant class.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    pp = as_odd_prime_power(q)
    if not lam and not mu:
        raise ValueError("at least one of the two partitions must be non-empty")
    symbolic = QIntProduct.from_mask(sign_pair_row(lam, mu))
    parts = (("induction", QIntProduct.one()),)
    if comb(sum(lam) + sum(mu), sum(lam)) % 2:
        parts += (("outer-product", symbolic),)
    return GlDetResult(kind="sign-pair", shapes=(lam, mu), q=pp, symbolic=symbolic, parts=parts)


def sign_pair_row(lam: tuple[int, ...], mu: tuple[int, ...], side=_unipotent_side) -> int:
    """The mask of a validated sign pair at every odd q, refused at odd degree.

    The parabolic induction index is the Gaussian binomial [n choose l]_x,
    which lies in Z[x], so at odd q its parity is that of C(n, l): when
    even, the row is trivial (0) outright. When odd, it is the class of the
    outer product, det(lam)^deg(mu) * det(mu)^deg(lam): the mask of the even
    side when the other is odd, trivial when both are even, and a pair of
    odd sides has odd degree.

    `side(shape)` is the mask of a side, None at odd degree (the empty shape
    included). By default sides are the unipotent rows, and the result is
    the mask of the `symbolic` of `sign_pair_determinant` and the class
    source of the printed and failing rows of the sign-pair sweep; that
    sweep passes the masks of `hecke.beta_row`.
    """
    ell = sum(lam)
    if comb(ell + sum(mu), ell) % 2 == 0:
        return 0
    row_lam, row_mu = side(lam), side(mu)
    if row_lam is None and row_mu is None:
        raise NotIrrPlusError(
            f"sign pair {lam} | {mu} has odd degree at odd q: not orthogonally stable"
        )
    if row_mu is None:
        return row_lam
    if row_lam is None:
        return row_mu
    return 0
