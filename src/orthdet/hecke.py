"""Tableau polynomials and determinant classes of type-A Hecke characters.

Each upward edge (lo, hi, k) of the transposition graph contributes a
factor x * [c+2]_x * [c]_x, where c = c_k - c_(k+1) - 1 is the content gap
read off the content vector of the lower tableau (no tableau is built);
multiplying the per-tableau polynomials over the whole shape gives the
shape's determinant polynomial. Its value at q represents the square class
of the orthogonal determinant of the even-degree Hecke character at
parameter q, and at q = 1 that of the symmetric group character;
`hecke_determinant` refuses an odd-degree shape at the gate of `tableaux`
before any count or walk.

Mod squares the polynomial is a vector over GF(2), as the [k]_x with k >= 2
are independent mod squares ([k] is the first to hold Phi_k), and it has
one format, an int mask: bit 1 holds the parity of the x-power, and bit
k >= 2 each [k]_x of odd multiplicity. At odd q its parity is fixed by two
popcounts (`mask_bits`), which never read bit 1. A full product
(`QIntProduct`: an x-power and q-integer multiplicities) reads its mask
off as `mask`; `QIntProduct.from_mask` builds a product only to print or
classify it, factor by factor, so no enormous integer is ever factored.

Four routes compute the polynomial, each for its own callers:

* `beta_row` gives the mask, bit 1 clear, for the sweep rows of `parker`.
  It reads it, and v2 of the tableau count, off the shape's beta-numbers:
  the Gram determinant of the Specht module S^shape of H_n(q) has a closed
  form (James-Mathas 1997, the q-analogue of the Jantzen-Schaper formula),
  a product over pairs of rows and hook lengths with exponents +-#SYT of
  nearby shapes. Mod squares only the parities of those counts matter, and
  Legendre's formula gives them in O(1) per term. It gives no x-power,
  which a parity at odd q does not need;
* `det_poly_reduced`, one walk over the Young lattice below the shape
  (`_lattice_product`) in GF(2) mode, gives the whole mask. It serves
  `hecke_determinant`, the public determinants of `gl`, and the printed
  and failing rows of the sweeps, which classify at q, so need the
  x-power; every such row checks that its mask, bit 1 cleared, is its
  formula row. An even-degree shape and its conjugate share this mask, so
  it is walked once per pair, on the orientation with fewer rows (then the
  lexicographically smaller one). At q = 1 this is classical: the
  character of the conjugate is the sign twist, which keeps the invariant
  form. At every q, the automorphism T_i -> -q T_i^-1 of H_n(q) commutes
  with the anti-involution T_w -> T_(w^-1), so twisting S^shape by it
  gives S^conjugate with the same invariant form (Mathas 1999). The
  formula runs on the shape as given, so a printed row checks the claim;
* `det_poly_factored`, the same walk in full mode, weighs each lattice step
  by tableau counts and gives the full product, the q-analogue of the norm
  formula for Young's seminormal basis (Hoefsmit 1974; Mathas,
  Iwahori-Hecke algebras and Schur algebras of the symmetric group, 1999).
  It runs only where the full factors are printed, and checks that its
  mask is the GF(2) walk's and, at even degree, the formula's;
* `tableau_polynomials` walks the transposition graph tableau by tableau,
  on content vectors alone, and stays as the independent reference for the
  other three.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate
from operator import add

from .errors import InvariantViolation, ResourceGuardError, check_int, record
from .intpoly import IntPoly, cyclotomic, q_int
from .squareclass import ONE, Parity, SquareClass, class_of_integer, two_adic_valuation
from .tableaux import (
    check_even_degree,
    check_partition,
    conjugate_partition,
    enumerate_syt,
    shape_record,
    syt_count,
)

# Ceiling on the lattice walk of one shape, counted as the sub-diagrams it
# keeps on both passes times the rows of the shape walked, since each is
# scanned row by row. Sweep rows read `beta_row` and walk nothing, so the walk
# runs only for printed and failing sweep rows and for the public determinants
# (`det-*`). Full mode walks the shape as given; GF(2) mode walks an
# even-degree shape on the orientation with fewer rows (`det_poly_reduced`),
# so a tall shape is counted, and admitted, as its wide conjugate. Full mode
# keeps every sub-diagram once on each pass (bar the shape and the empty one),
# so it counts them before walking and admits up to about 10^6 sub-diagrams
# times rows. GF(2) mode keeps a subset of those states, so it admits every
# shape full mode admits; it stops as soon as its running count passes the
# ceiling. On a 2-core VM a unit costs full mode 1.1-1.5 us and at most about
# 75 B (most on two rows, whose tableau counts are the longest integers), so
# one shape stays near 3 s and 150 MB; it costs GF(2) mode at most 0.8 us.
# Full mode admits (6, 4, 3, 2, 1) and every shape with n <= 50, and refuses
# the (12, ..., 1) staircase; GF(2) mode walks it, and the 24-row staircase
# with its 1707624 units.
MAX_SUBDIAGRAM_ROWS = 2_000_000


@record
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

    @staticmethod
    def from_mask(mask: int) -> QIntProduct:
        """The squarefree product of a mask: x if bit 1 is set, and [k]_x for each bit k >= 2."""
        if check_int(mask, "mask", 0) & 1:
            raise ValueError(f"bit 0 of a mask stands for nothing, got {mask}")
        return QIntProduct(mask >> 1 & 1, tuple((k, 1) for k in _mask_indices(mask) if k > 1))

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

    @cached_property
    def mask(self) -> int:
        """The product with its squares dropped: x_exp mod 2 in bit 1, bit k for odd [k]^m."""
        return sum(1 << k for k, m in self.qint_mults if m % 2) | self.x_exp % 2 << 1

    def parity_at(self, q: int) -> Parity:
        """Parity of the square class of the value at q >= 1, from the factors alone.

        The class is even iff the value's 2-adic valuation is odd. At even q
        only the x-power counts, as every [k]_q is odd; at odd q the
        `mask_bits` of `mask` decide (`odd_q_parity`).
        """
        if check_int(q, "evaluation point", 1) % 2:
            return odd_q_parity(mask_bits(self.mask), q)
        return Parity.EVEN if self.x_exp * two_adic_valuation(q) % 2 else Parity.ODD

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


def mask_bits(mask: int) -> tuple[int, int]:
    """The bits (a, b) of the product of the [k]_x with bit k >= 2 set in `mask`.

    a counts the even k, and b sums v2(k) - 1 over them, both mod 2: two
    popcounts, of the even k and of the k with v2(k) even and >= 2. Bit 1,
    the x-power, is odd at odd q and never counts.
    """
    evens, quarters = _bit_masks(mask.bit_length())
    return (mask & evens).bit_count() % 2, (mask & quarters).bit_count() % 2


@lru_cache(maxsize=None)
def _bit_masks(width: int) -> tuple[int, int]:
    """The masks of `mask_bits` below bit `width`."""
    evens = sum(1 << k for k in range(2, width, 2))
    quarters = sum(1 << k for k in range(4, width, 4) if two_adic_valuation(k) % 2 == 0)
    return evens, quarters


def odd_q_parity(bits: tuple[int, int], q: int) -> Parity:
    """Parity of the class at odd q (q = 1 included) of a mask whose `mask_bits` are `bits`.

    x^e and [k]_q for odd k are odd, and lifting the exponent gives
    v2([k]_q) = v2(k) - 1 + v2(q+1) for even k, so the value's 2-adic
    valuation is b + a * v2(q+1) mod 2, and the class is even iff it is odd.
    """
    a, b = bits
    return Parity.EVEN if (b + a * two_adic_valuation(q + 1)) % 2 else Parity.ODD


def _mask_indices(mask: int) -> list[int]:
    """The k with bit k set in `mask`, ascending."""
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


@lru_cache(maxsize=None)
def _q_int_class(k: int, q: int) -> SquareClass:
    """Square class of [k]_q, via the cyclotomic factorization of x^k - 1."""
    result = ONE
    for d in range(2, k + 1):
        if k % d == 0:
            result = result * class_of_integer(cyclotomic(d)(q))
    return result


def tableau_polynomials(shape) -> tuple[QIntProduct, ...]:
    """Propagate the edge factors over the whole transposition graph.

    Returns every tableau's polynomial, in the node order of
    `enumerate_syt(shape)`. An upward edge (lo, hi, k) has the content gap
    c = c_k - c_(k+1) - 1 >= 1, read off the lower tableau's content vector.
    Whenever a tableau is reachable along several upward edges, all of them
    must agree on its polynomial; a disagreement would falsify the theory
    and raises InvariantViolation.
    """
    graph = enumerate_syt(shape)
    polys: list[QIntProduct | None] = [None] * graph.size
    polys[0] = QIntProduct.one()
    for lo, hi, k in graph.edges:
        contents = graph.contents[lo]
        candidate = polys[lo] * QIntProduct.from_edge(contents[k - 1] - contents[k] - 1)
        if polys[hi] is None:
            polys[hi] = candidate
        elif polys[hi] != candidate:
            raise InvariantViolation(
                f"tableau polynomial of {shape} at contents {graph.contents[hi]} is "
                f"path-dependent: {polys[hi].expand()!r} vs {candidate.expand()!r}"
            )
    return tuple(polys)


def det_poly_factored(shape) -> QIntProduct:
    """The determinant polynomial of a shape, as a factored product.

    The full walk runs first, on the shape as given, so its guard refuses
    before anything is spent. It sums tableau counts where the (cached) GF(2)
    walk keeps their parities, and that walk may have run on the conjugate,
    so a full product whose mask is not the GF(2) one raises
    InvariantViolation: a slip in either walk, or in the conjugation claim.
    At even degree the GF(2) mask, bit 1 cleared, must also be that of
    `beta_row`, which shares no code with the walks.
    """
    shape = check_partition(shape)
    full = _lattice_product(shape, False)
    if full.mask != (mask := det_poly_reduced(shape)):
        raise InvariantViolation(
            f"GF(2) walk of {shape} gives {QIntProduct.from_mask(mask)!r}, "
            f"the full product reduces to {QIntProduct.from_mask(full.mask)!r}"
        )
    count_v2, formula = beta_row(shape)
    if count_v2 and formula != mask & ~2:
        raise InvariantViolation(
            f"beta-number formula of {shape} gives the q-integers {_mask_indices(formula)}, "
            f"the GF(2) walk {_mask_indices(mask & ~2)}"
        )
    return full


def det_poly_reduced(shape) -> int:
    """The mask of a shape's determinant polynomial, x-power in bit 1, from the GF(2) walk.

    At even degree the walk is cached on one orientation of the conjugate
    pair: the one with fewer rows, then the lexicographically smaller. Both
    orientations have the same mask (see the module docstring),
    and the guard counts the units of the orientation walked. At odd degree
    they differ ((3, 1) gives x [3], (2, 1, 1) gives x [2] [4]), so such a
    shape is walked as given.
    """
    shape = check_partition(shape)
    if shape_record(shape).count_v2:
        shape = min(shape, conjugate_partition(shape), key=lambda side: (len(side), side))
    return _lattice_product(shape, True)


def hecke_row(shape: tuple[int, ...]) -> int:
    """`det_poly_reduced` of a validated shape, refused at the odd-degree gate.

    The mask of `hecke_determinant` and `parker.parity_bridge_check`, and
    the class source of the printed and failing rows of the symmetric sweep:
    no result record.
    """
    check_even_degree(shape)
    return det_poly_reduced(shape)


def beta_row(shape: tuple[int, ...]) -> tuple[int, int]:
    """v2 of a validated shape's tableau count, and the mask of its determinant product.

    The mask of `det_poly_reduced` with bit 1 (the x-power) clear, read off
    the beta-numbers B_i = shape_i + r - i of the r rows, with no walk. It
    is 0 at odd degree, where it is not computed. The row source of the
    sweeps.

    The Gram determinant of S^shape is a product over rows a < b and
    1 <= h <= B_b, with g = B_b - h and t = B_a + h both outside B, of
    ([B_a - g]_x / [h]_x)^(+-#SYT(nu)), nu the shape of the beta-set
    B - {B_a, B_b} + {t, g} (James-Mathas 1997; Mathas 1999, chapter 5).
    Mod squares a term counts iff #SYT(nu) is odd, and the [k] with k >= 2
    are independent mod squares ([k] is the first to hold Phi_k), so
    XOR-ing both indices of every odd term into the mask leaves the
    product with its squares dropped; [1] = 1 drops out.

    A beta-set b of size n has n! prod_{i<j} (b_i - b_j) / prod b_i!
    tableaux, so by Legendre v2(#SYT) = v2(n!) + sum_{i<j} v2(b_i - b_j) -
    sum v2(b_i!), with v2(m!) = m - popcount(m). On B itself that is the
    odd-degree gate. On nu it is B's value less the terms of B_a and B_b
    plus those of t and g, read off near[x] = sum_c v2|B_c - x|, so each
    term costs O(1).
    """
    beta, size, near, count_v2 = _beta_gate(shape)
    if not count_v2:
        return 0, 0
    v2, v2_fact = _valuation_tables(size)
    # v2(#SYT(nu)) = 0 iff free[t] + free[g] + v2(t - g) - 2 v2(h) - 2 v2(B_a - g)
    # equals the pair's target: near[t] and near[g] also hold the terms of
    # rows a and b, v2(h) and v2(B_a - g) each.
    free = [value - f for value, f in zip(near, v2_fact)]
    members = set(beta)
    mask = 0
    for a, high in enumerate(beta):
        for low in beta[a + 1 :]:
            delta = high - low
            target = near[high] + near[low] - v2[delta] - v2_fact[high] - v2_fact[low] - count_v2
            sums = list(map(add, map(add, free[high + 1 : high + low + 1], free[low - 1 :: -1]),
                            _pair_terms(delta, size)))
            if target in sums:
                for h, value in enumerate(sums, 1):
                    if value == target and high + h not in members and low - h not in members:
                        mask ^= 1 << (delta + h) | 1 << h
    return count_v2, mask & ~2


def _beta_gate(shape: tuple[int, ...]) -> tuple[list[int], int, list[int], int]:
    """The beta-numbers B of a validated shape, a table size, near[x] and v2(#SYT).

    near[x] = sum_c v2|B_c - x| for 0 <= x <= B_1 + B_2, above every t and g
    of `beta_row`, whose terms need tables of v2 below `size`. A shape
    with fewer than two rows has one tableau, and no terms.
    """
    rows, n = len(shape), sum(shape)
    if rows < 2:
        return [], 0, [], 0
    beta = [part + rows - 1 - i for i, part in enumerate(shape)]
    top = beta[0] + beta[1] + 1
    size = 1 << max(top, n + 1).bit_length()
    v2, v2_fact = _valuation_tables(size)
    near = list(map(sum, zip(*(v2[y:0:-1] + v2[: top - y] for y in beta))))
    count_v2 = v2_fact[n] + sum(near[y] for y in beta) // 2 - sum(v2_fact[y] for y in beta)
    return beta, size, near, count_v2


@lru_cache(maxsize=None)
def _valuation_tables(size: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """v2(m), read as 0 at m = 0, and v2(m!) = m - popcount(m), for 0 <= m < size."""
    v2 = (0,) + tuple(two_adic_valuation(m) for m in range(1, size))
    return v2, tuple(m - m.bit_count() for m in range(size))


@lru_cache(maxsize=None)
def _pair_terms(delta: int, size: int) -> list[int]:
    """v2(delta + 2h) - 2 v2(delta + h) - 2 v2(h) for h = 1, 2, ... while delta + 2h < size."""
    v2 = _valuation_tables(size)[0]
    return [v2[delta + 2 * h] - 2 * v2[delta + h] - 2 * v2[h]
            for h in range(1, (size - delta + 1) // 2)]


def _subdiagram_count(shape: tuple[int, ...]) -> int:
    """Number of partitions contained in a validated shape, the empty one included.

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
def _lattice_product(shape: tuple[int, ...], mod2: bool) -> QIntProduct | int:
    """Multiply the tableau polynomials of a shape by walking its Young lattice.

    A standard tableau is a path of sub-diagrams from the empty one to the
    shape, adding the cell of entry k at step k. Its polynomial has one
    factor from_edge(c) for every cell B and every cell A filled after B
    in a row above B, with c = content(A) - content(B) - 1 >= 1. So the
    step mu -> nu = mu+B contributes the factors of every cell A of shape
    outside nu in a row above B, once for each of the
    #SYT(mu) * #SYT(shape / nu) tableaux through it.

    The walk goes up from the empty diagram, keeping per level every
    sub-diagram with its tableau count (the sum of those one cell below
    it), then comes down from the shape keeping skew counts the same way,
    and weighs each step down from nu to mu by both counts. In GF(2) mode
    (`mod2`) the counts are taken mod 2 and sub-diagrams with an even count
    are dropped, so only steps where both counts are odd contribute, and
    the walk returns the product's mask. Sub-diagrams are
    tuples without zero rows. Both ends must agree with the hook formula's
    count (in GF(2) mode its parity, from the shape record), and every
    state kept, times the rows of the shape, counts against
    MAX_SUBDIAGRAM_ROWS; full mode counts its states before the walk.
    """
    rows = len(shape)
    if not mod2 and (units := 2 * (_subdiagram_count(shape) - 1) * rows) > MAX_SUBDIAGRAM_ROWS:
        raise ResourceGuardError(
            f"shape {shape}: full lattice walk keeps {units} sub-diagram rows "
            f"> limit {MAX_SUBDIAGRAM_ROWS}"
        )
    expected = (0 if shape_record(shape).count_v2 else 1) if mod2 else syt_count(shape)
    kept_rows = 0

    def keep(reached: dict) -> dict:
        nonlocal kept_rows
        if mod2:
            reached = {mu: 1 for mu, count in reached.items() if count % 2}
        kept_rows += len(reached) * rows
        if kept_rows > MAX_SUBDIAGRAM_ROWS:
            raise ResourceGuardError(
                f"shape {shape}: lattice walk passed {kept_rows} sub-diagram rows "
                f"> limit {MAX_SUBDIAGRAM_ROWS}"
            )
        return reached

    def check_end(count: int, where: str) -> None:
        if count != expected:
            walk, claim = ("GF(2)", "parity") if mod2 else ("lattice", "count")
            raise InvariantViolation(
                f"{walk} walk {where} {shape} contradicts the hook formula's {claim}: "
                f"{count} paths, hook formula says {expected}"
            )

    up = [{(): 1}]
    for _ in range(sum(shape)):
        reached: dict[tuple[int, ...], int] = {}
        for mu, paths in up[-1].items():
            for r, part in enumerate(mu):
                if part < shape[r] and (r == 0 or mu[r - 1] > part):
                    nu = mu[:r] + (part + 1,) + mu[r + 1 :]
                    reached[nu] = reached.get(nu, 0) + paths
            if len(mu) < rows:
                nu = mu + (1,)
                reached[nu] = reached.get(nu, 0) + paths
        up.append(keep(reached))
    check_end(up[-1].get(shape, 0), "up to")

    x_exp = 0
    # Difference array of the [k] multiplicities: a row of cells A adds the
    # weight to a run of consecutive gaps c, hence to runs of k = c and k = c+2.
    diff = [0] * (sum(shape) + 4)
    down = {shape: 1}
    for below in reversed(up[:-1]):
        reached = {}
        for nu, skew in down.items():
            last = len(nu) - 1
            for r, part in enumerate(nu):
                if r < last and nu[r + 1] == part:
                    continue
                mu = nu[:r] + (part - 1,) + nu[r + 1 :] if part > 1 or r < last else nu[:r]
                reached[mu] = reached.get(mu, 0) + skew
                weight = below.get(mu, 0) * skew
                if weight:
                    # The cell B = nu / mu has content part - 1 - r; the
                    # cells A of row i < r outside mu have gaps
                    # content(A) - content(B) - 1 from first_gap upward.
                    for i in range(r):
                        cells = shape[i] - mu[i]
                        if cells:
                            first_gap = mu[i] - i - (part - r)
                            x_exp += weight * cells
                            for k in (first_gap, first_gap + 2):
                                diff[k] += weight
                                diff[k + cells] -= weight
        down = keep(reached)
    check_end(down.get((), 0), "down from")
    mults = accumulate(diff)
    product = QIntProduct(x_exp, tuple((k, m) for k, m in enumerate(mults) if k >= 2 and m))
    return product.mask if mod2 else product


@record
class HeckeDetResult:
    """Orthogonal determinant data of one even-degree character.

    `symbolic` is the squarefree product of the GF(2) walk's mask
    (`QIntProduct.from_mask`), whose value at q lies in the class. The rest
    is formed on first access only: `degree` counts the tableaux, `det_class`
    classifies `symbolic`, and `f_factored` is the full product, which
    `det_poly_factored` checks against that walk.
    """

    shape: tuple[int, ...]
    q: int
    symbolic: QIntProduct

    @cached_property
    def degree(self) -> int:
        return syt_count(self.shape)

    @cached_property
    def f_factored(self) -> QIntProduct:
        return det_poly_factored(self.shape)

    @cached_property
    def det_class(self) -> SquareClass:
        return self.symbolic.square_class(self.q)

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
    return HeckeDetResult(shape=shape, q=q, symbolic=QIntProduct.from_mask(hecke_row(shape)))
