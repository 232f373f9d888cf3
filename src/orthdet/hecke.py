"""Tableau polynomials and determinant classes of type-A Hecke characters.

Each upward edge of the transposition graph contributes a factor
x * [c+2]_x * [c]_x, where c is the content gap read off the lower tableau;
multiplying the resulting per-tableau polynomials over the whole shape gives
the shape's determinant polynomial. Its value at q represents the square
class of the orthogonal determinant of the even-degree Hecke character at
parameter q, and at q = 1 that of the symmetric group character.

Polynomials are carried in factored form (an x-power and q-integer
multiplicities), so square classes come from classifying small cyclotomic
values instead of factoring one enormous integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import squareclass
from .errors import InvariantViolation, NotIrrPlusError
from .intpoly import IntPoly, cyclotomic, q_int
from .squareclass import Parity, SquareClass, class_of_integer, power_class
from .tableaux import (
    StandardTableau,
    TableauGraph,
    apply_simple_transposition,
    check_partition,
    enumerate_syt,
    syt_count,
)


@dataclass(frozen=True)
class QIntProduct:
    """A monomial times a product of q-integer polynomials [k]_x.

    qint_mults is a sorted tuple of (k, multiplicity) with k >= 2; the
    trivial factor [1]_x is never stored.
    """

    x_exp: int
    qint_mults: tuple[tuple[int, int], ...]

    @staticmethod
    def one() -> QIntProduct:
        return QIntProduct(0, ())

    @staticmethod
    def from_edge(c: int) -> QIntProduct:
        """The edge factor x * [c+2]_x * [c]_x for content gap c >= 1."""
        if c < 1:
            raise ValueError(f"content gap must be >= 1, got {c}")
        if c == 1:
            return QIntProduct(1, ((3, 1),))
        if c == 2:
            return QIntProduct(1, ((2, 1), (4, 1)))
        return QIntProduct(1, ((c, 1), (c + 2, 1)))

    def __mul__(self, other: QIntProduct) -> QIntProduct:
        mults = dict(self.qint_mults)
        for k, m in other.qint_mults:
            mults[k] = mults.get(k, 0) + m
        return QIntProduct(self.x_exp + other.x_exp, tuple(sorted(mults.items())))

    @property
    def degree(self) -> int:
        return self.x_exp + sum((k - 1) * m for k, m in self.qint_mults)

    def expand(self) -> IntPoly:
        poly = IntPoly.monomial(self.x_exp)
        for k, m in self.qint_mults:
            poly = poly * q_int(k) ** m
        return poly

    def __call__(self, q: int) -> int:
        value = q**self.x_exp
        for k, m in self.qint_mults:
            value *= q_int(k)(q) ** m
        return value

    def reduced(self) -> QIntProduct:
        """Drop all square factors: exponents taken mod 2."""
        return QIntProduct(
            self.x_exp % 2,
            tuple((k, 1) for k, m in self.qint_mults if m % 2),
        )

    def square_class(self, q: int) -> SquareClass:
        """Square class of the value at q, classified factor by factor."""
        if q < 1:
            raise ValueError(f"evaluation point must be >= 1, got {q}")
        result = power_class(q, self.x_exp)
        for k, m in self.qint_mults:
            if m % 2:
                result = result * _q_int_class(k, q)
        return result

    def parity_at(self, q: int) -> Parity:
        """Parity of the square class at odd q (or q = 1), via 2-adic valuations."""
        return squareclass.parity_of_integer(self(q))

    def factors_json(self) -> list[dict]:
        factors: list[dict] = []
        if self.x_exp:
            factors.append({"type": "x-power", "mult": self.x_exp})
        factors.extend({"type": "q-int", "k": k, "mult": m} for k, m in self.qint_mults)
        return factors

    @staticmethod
    def from_factors_json(factors: list[dict]) -> QIntProduct:
        product = QIntProduct.one()
        for f in factors:
            if f["type"] == "x-power":
                product = product * QIntProduct(int(f["mult"]), ())
            elif f["type"] == "q-int":
                product = product * QIntProduct(0, ((int(f["k"]), int(f["mult"])),))
            else:
                raise ValueError(f"unknown factor type {f['type']!r}")
        return product

    def __repr__(self) -> str:
        parts = []
        if self.x_exp:
            parts.append("x" if self.x_exp == 1 else f"x^{self.x_exp}")
        for k, m in self.qint_mults:
            parts.append(f"[{k}]" if m == 1 else f"[{k}]^{m}")
        return f"QIntProduct({' '.join(parts) or '1'})"


@lru_cache(maxsize=None)
def _q_int_class(k: int, q: int) -> SquareClass:
    """Square class of [k]_q, via the cyclotomic factorization of x^k - 1."""
    result = squareclass.ONE
    for d in range(2, k + 1):
        if k % d == 0:
            result = result * class_of_integer(cyclotomic(d)(q))
    return result


def edge_content_gap(t: StandardTableau, k: int) -> int:
    """The content gap c >= 1 of the upward edge s_k applied to t.

    c is (content of k) - (content of k+1) - 1 in t; defined only when the
    swap is standard and moves up the order (otherwise c would be <= -3,
    and we refuse).
    """
    if apply_simple_transposition(k, t) is None:
        raise ValueError(f"s_{k} does not keep {t!r} standard")
    c = t.content(k) - t.content(k + 1) - 1
    if c < 1:
        raise ValueError(f"s_{k} moves {t!r} down the order (gap {c})")
    return c


@dataclass(frozen=True)
class TableauPolyTable:
    """Per-tableau polynomials of one shape, aligned with the graph nodes."""

    graph: TableauGraph
    polys: tuple[QIntProduct, ...]

    def poly(self, t: StandardTableau) -> QIntProduct:
        return self.polys[self.graph.index(t)]

    def items(self):
        return zip(self.graph.nodes, self.polys)


def tableau_polynomials(shape) -> TableauPolyTable:
    """Propagate the edge factors over the whole transposition graph.

    Whenever a tableau is reachable along several upward edges, all of them
    must agree on its polynomial; a disagreement would falsify the theory
    and raises InvariantViolation.
    """
    graph = enumerate_syt(shape)
    polys: list[QIntProduct | None] = [None] * graph.size
    polys[0] = QIntProduct.one()
    for lo, hi, k in graph.edges:
        c = edge_content_gap(graph.nodes[lo], k)
        candidate = polys[lo] * QIntProduct.from_edge(c)
        if polys[hi] is None:
            polys[hi] = candidate
        elif polys[hi] != candidate:
            raise InvariantViolation(
                f"tableau polynomial of {graph.nodes[hi]!r} is path-dependent: "
                f"{polys[hi].expand()!r} vs {candidate.expand()!r}"
            )
    return TableauPolyTable(graph, tuple(polys))


def det_poly_factored(shape) -> QIntProduct:
    """The determinant polynomial of a shape, as a factored product."""
    return _det_poly_factored(check_partition(shape))


@lru_cache(maxsize=None)
def _det_poly_factored(shape: tuple[int, ...]) -> QIntProduct:
    product = QIntProduct.one()
    for poly in tableau_polynomials(shape).polys:
        product = product * poly
    return product


def det_poly(shape) -> IntPoly:
    """The determinant polynomial of a shape, expanded."""
    return det_poly_factored(check_partition(shape)).expand()


def is_irr_plus(shape) -> bool:
    """Whether the shape's Hecke/symmetric-group character has even degree.

    These characters are all realizable over the rationals, hence
    orthogonal; even degree is the only remaining membership condition.
    """
    return syt_count(shape) % 2 == 0


@dataclass(frozen=True)
class HeckeDetResult:
    """Orthogonal determinant data of one even-degree character."""

    shape: tuple[int, ...]
    q: int
    degree: int
    f_factored: QIntProduct
    det_class: SquareClass

    @cached_property
    def f_poly(self) -> IntPoly:
        return self.f_factored.expand()

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "q": self.q,
            "degree": str(self.degree),
            "factors": self.f_factored.factors_json(),
            "class": self.det_class.to_json(),
            "parity": self.det_class.parity.value,
        }


def hecke_determinant(shape, q: int) -> HeckeDetResult:
    """Square class of the character determinant at parameter q >= 1.

    q = 1 is the symmetric group; q >= 2 the Hecke algebra at q. Shapes
    with an odd number of standard tableaux are rejected, since their
    determinant class is not defined.
    """
    shape = check_partition(shape)
    if q < 1:
        raise ValueError(f"parameter q must be >= 1, got {q}")
    degree = syt_count(shape)
    if degree % 2:
        raise NotIrrPlusError(
            f"shape {shape} has degree {degree} (odd): determinant class undefined"
        )
    factored = det_poly_factored(shape)
    return HeckeDetResult(
        shape=shape,
        q=q,
        degree=degree,
        f_factored=factored,
        det_class=factored.square_class(q),
    )
