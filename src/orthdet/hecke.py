"""Tableau polynomials and determinant classes of type-A Hecke characters.

Each upward edge of the transposition graph contributes a factor
x * [c+2]_x * [c]_x, where c is the content gap read off the lower tableau;
multiplying the resulting per-tableau polynomials over the whole shape gives
the shape's determinant polynomial. Its value at q represents the square
class of the orthogonal determinant of the even-degree Hecke character at
parameter q, and at q = 1 that of the symmetric group character.

The determinant polynomial is computed by a dynamic program over the Young
lattice of sub-diagrams below the shape, the q-analogue of the norm formula
for Young's seminormal basis (Hoefsmit 1974; Mathas, Iwahori-Hecke algebras
and Schur algebras of the symmetric group, 1999); its cost grows with the
number of sub-diagrams, not of tableaux. `tableau_polynomials` walks the
transposition graph instead and stays as the independent reference.

Polynomials are carried in factored form (an x-power and q-integer
multiplicities), so square classes come from classifying small cyclotomic
values instead of factoring one enormous integer, and parities come from
2-adic valuations of the factors without evaluating anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate

from .errors import InvariantViolation, NotIrrPlusError, ResourceGuardError, check_int
from .intpoly import IntPoly, cyclotomic, q_int
from .squareclass import ONE, Parity, SquareClass, class_of_integer, two_adic_valuation
from .tableaux import (
    StandardTableau,
    apply_simple_transposition,
    check_partition,
    enumerate_syt,
    syt_count,
)

# Ceiling on the lattice walk of one shape, counted as sub-diagrams times
# rows, since every visited sub-diagram is scanned row by row. The walk
# costs at most about 6 us (two rows, whose tableau counts are the longest
# integers) and 0.34 KB (one row, one level per cell) per unit, so one
# shape stays near 6 s and 340 MB; admits every shape with n <= 50.
MAX_SUBDIAGRAM_ROWS = 1_000_000


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
        if check_int(c, "content gap", 1) == 1:
            return QIntProduct(1, ((3, 1),))
        return QIntProduct(1, ((c, 1), (c + 2, 1)))

    def __mul__(self, other: QIntProduct) -> QIntProduct:
        mults = dict(self.qint_mults)
        for k, m in other.qint_mults:
            mults[k] = mults.get(k, 0) + m
        return QIntProduct(self.x_exp + other.x_exp, tuple(sorted(mults.items())))

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
        """Square class of the value at q, factor by factor; checked against `parity_at`."""
        check_int(q, "evaluation point", 1)
        result = class_of_integer(q) if self.x_exp % 2 else ONE
        for k, m in self.qint_mults:
            if m % 2:
                result = result * _q_int_class(k, q)
        if result.parity is not self.parity_at(q):
            raise InvariantViolation(f"class {result} at q={q} contradicts its factors {self!r}")
        return result

    def parity_at(self, q: int) -> Parity:
        """Parity of the square class of the value at q >= 1, from the factors alone.

        The class is even iff the value's 2-adic valuation is odd. At odd q
        (q = 1 included) x^e is odd, [k]_q is odd for odd k, and
        v2([k]_q) = v2(k) + v2(q+1) - 1 for even k (lifting the exponent); at
        even q every [k]_q is odd and only the x-power counts.
        """
        if check_int(q, "evaluation point", 1) % 2 == 0:
            v2 = self.x_exp * two_adic_valuation(q)
        else:
            v2_q_plus_1 = two_adic_valuation(q + 1)
            v2 = sum(
                m * (two_adic_valuation(k) + v2_q_plus_1 - 1)
                for k, m in self.qint_mults
                if k % 2 == 0
            )
        return Parity.EVEN if v2 % 2 else Parity.ODD

    def factors_json(self) -> list[dict]:
        factors: list[dict] = []
        if self.x_exp:
            factors.append({"type": "x-power", "mult": self.x_exp})
        factors.extend({"type": "q-int", "k": k, "mult": m} for k, m in self.qint_mults)
        return factors

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
    result = ONE
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


def tableau_polynomials(shape) -> dict[StandardTableau, QIntProduct]:
    """Propagate the edge factors over the whole transposition graph.

    Returns every tableau's polynomial, in the node order of
    `enumerate_syt(shape)`. Whenever a tableau is reachable along several
    upward edges, all of them must agree on its polynomial; a disagreement
    would falsify the theory and raises InvariantViolation.
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
    return dict(zip(graph.nodes, polys))


def det_poly_factored(shape) -> QIntProduct:
    """The determinant polynomial of a shape, as a factored product."""
    return _det_poly_factored(check_partition(shape))


def _subdiagram_count(shape: tuple[int, ...]) -> int:
    """Number of partitions mu contained in shape, the empty one included.

    Row by row: ways[v] counts the choices of the rows so far whose last
    row has length v, and the next row may take any length up to both v
    and its own part.
    """
    if not shape:
        return 1
    ways = [1] * (shape[0] + 1)
    for part in shape[1:]:
        ways = list(accumulate(reversed(ways)))[::-1][: part + 1]
    return sum(ways)


@lru_cache(maxsize=None)
def _det_poly_factored(shape: tuple[int, ...]) -> QIntProduct:
    """Multiply the tableau polynomials of a shape by summing over its Young lattice.

    A standard tableau is a path of sub-diagrams from the empty one to the
    shape, adding the cell of entry k at step k. Its polynomial has one
    factor from_edge(c) for every cell B and every cell A filled after B
    in a row above B, with c = content(A) - content(B) - 1 >= 1. So the
    step mu -> mu+B contributes the factors of every cell A of shape
    outside mu+B in a row above B, once for each of the
    #SYT(mu) * #SYT(shape / (mu+B)) tableaux through it. Sub-diagrams are
    padded with zero rows to the length of the shape.
    """
    rows = len(shape)
    n = sum(shape)
    lattice = _subdiagram_count(shape) * rows
    if lattice > MAX_SUBDIAGRAM_ROWS:
        raise ResourceGuardError(
            f"shape {shape}: {lattice} sub-diagram rows > limit {MAX_SUBDIAGRAM_ROWS}"
        )

    def steps(mu):
        for r in range(rows):
            if mu[r] < shape[r] and (r == 0 or mu[r - 1] > mu[r]):
                yield r, mu[:r] + (mu[r] + 1,) + mu[r + 1 :]

    # levels[s] maps every sub-diagram with s cells to its tableau count.
    levels = [{(0,) * rows: 1}]
    for _ in range(n):
        counts: dict[tuple[int, ...], int] = {}
        for mu, paths in levels[-1].items():
            for _, nu in steps(mu):
                counts[nu] = counts.get(nu, 0) + paths
        levels.append(counts)
    expected = syt_count(shape)
    if levels[-1][shape] != expected:
        raise InvariantViolation(
            f"lattice below {shape} has {levels[-1][shape]} paths, hook formula says {expected}"
        )

    x_exp = 0
    # Difference array of the [k] multiplicities: a row of cells A adds the
    # weight to a run of consecutive gaps c, hence to runs of k = c and k = c+2.
    diff = [0] * (n + 4)
    # Skew tableau counts #SYT(shape / nu) of the sub-diagrams one level up.
    above = {shape: 1}
    for level in reversed(levels[:-1]):
        skew_counts = {}
        for mu, paths in level.items():
            skew = 0
            for r, nu in steps(mu):
                skew += above[nu]
                weight = paths * above[nu]
                content_b = mu[r] + 1 - r
                for i in range(r):
                    cells = shape[i] - mu[i]
                    if cells:
                        first_gap = mu[i] - i - content_b
                        x_exp += weight * cells
                        for k in (first_gap, first_gap + 2):
                            diff[k] += weight
                            diff[k + cells] -= weight
            skew_counts[mu] = skew
        above = skew_counts
    mults = accumulate(diff)
    return QIntProduct(x_exp, tuple((k, m) for k, m in enumerate(mults) if k >= 2 and m))


@dataclass(frozen=True)
class HeckeDetResult:
    """Orthogonal determinant data of one even-degree character.

    `det_class` classifies the determinant polynomial at q on first access.
    """

    shape: tuple[int, ...]
    q: int
    degree: int
    f_factored: QIntProduct

    @property
    def symbolic(self) -> QIntProduct:
        """A product whose value at q lies in the class, as in `gl` results."""
        return self.f_factored

    @cached_property
    def det_class(self) -> SquareClass:
        return self.f_factored.square_class(self.q)

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
    check_int(q, "parameter q", 1)
    degree = syt_count(shape)
    if degree % 2:
        raise NotIrrPlusError(
            f"shape {shape} has degree {degree} (odd): determinant class undefined"
        )
    return HeckeDetResult(shape=shape, q=q, degree=degree, f_factored=det_poly_factored(shape))
