"""Batch parity verification: every computed determinant class must be odd.

The sweeps cover the three rational families (unipotent, symmetric group
via q = 1, and sign pairs) over configurable ranges, recording failures as
witnesses instead of booleans: a single even class would be mathematically
significant and has to be diagnosable.

Each public sweep feeds one sweep routine with blocks of rows, each block
with its number of even-degree rows and whether all its distinct masks
are odd at every odd q. The routine refuses an empty q list and an n_max
that leaves no rows, and the GL sweeps validate every q up front.

A row is a mask in the one format of `hecke` (bit 1 the x-power, bit k >= 2
an odd [k]_x). Rows of enumerated, hence valid, shapes come from
`hecke.beta_row`, the Gram determinant's closed form in beta-numbers: v2
of the tableau count, which skips an odd-degree shape, and the mask with
bit 1 clear. No row walks the Young lattice, reads a shape record or builds
a product. At odd q, neither a GL row's mask up to bit 1 (for a unipotent
row, its Hecke row's) nor whether its degree is even depends on q. Its
parity at odd q is fixed by the two q-free `hecke.mask_bits` of its mask,
taken once per row: a row whose bits are (0, 0) is odd at every odd q, and
any other is decided q by q by `hecke.odd_q_parity`.

Unipotent and symmetric blocks are single shapes. Sign pairs (lam, mu)
come in one block per (n, l) with l = |lam|, and each row is
`gl.sign_pair_row` on the masks of its sides, the one copy of the
sign-pair rule. The induction index has the parity of C(n, l): when it is
even, every row of the block is trivial; when odd, a row is the row of
its even-degree side, trivial when both sides are even, and refused when
both are odd (the empty shape counts as odd). So a block's count and bits
come from the shapes of its two sizes, not from its pairs. Once the
witnesses are full, a block whose distinct masks all have bits (0, 0)
is only counted; any other block is enumerated row by row, so failures and
witnesses keep (row, q) order. Every (row, q) pair is counted, but a
witness is built only for a failure or a printed row. A witness reads its
x-power from bit 1 of the walk-based mask of the family's class source
(`hecke.hecke_row`, `gl.unipotent_row` or `gl.sign_pair_row`), whose other
bits must be the formula's, and builds its product from it; only a printed
row is classified, which needs factorization. No row evaluates a degree at
q or runs the full determinant polynomial.

The point-wise parity lemma behind the sweeps compares c(c+2) with
[c]_q [c+2]_q through their 2-adic valuations. One walk over c keeps a
running q^c mod 2^64 and reads each v2(q^e - 1) off it once (from q^e - 1
itself only when q^e = 1 mod 2^64), so it never forms q-integers thousands
of digits long; `lemma_parity_check` is that walk over a single c.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import comb

from .errors import InvariantViolation, check_int, record
from .gl import as_odd_prime_power, sign_pair_row, unipotent_row
from .hecke import QIntProduct, beta_row, hecke_row, mask_bits, odd_q_parity
from .squareclass import Parity, SquareClass
from .tableaux import check_partition, enumerate_partitions

DEFAULT_WITNESS_LIMIT = 8


def lemma_parity_check(c: int, q: int) -> bool:
    """Whether c(c+2) and [c]_q [c+2]_q lie in square classes of equal parity.

    True for every valid input is the theorem; a False return is a finding.
    """
    return lemma_parity_walk(q, c, c)[0]


def lemma_parity_walk(q: int, first: int, last: int) -> list[bool]:
    """`lemma_parity_check(c, q)` for c = first, ..., last, in one walk over the powers of q.

    A class is even iff its 2-adic valuation is odd, and v2 is additive, so
    the two sides agree iff v2 of c(c+2), [c]_q and [c+2]_q sum to an even
    number; v2([e]_q) = v2(q^e - 1) - v2(q - 1), and the two v2(q - 1) drop
    out. Each v2(q^e - 1) is read once, as v2(m) = (m & -m).bit_length() - 1
    for m = (q^e mod 2^64) - 1, which is q^e - 1 mod 2^64, or m = q^e - 1 if that is 0.
    """
    check_int(last, "last c", check_int(first, "c", 1))
    if check_int(q, "q", 3) % 2 == 0:
        raise ValueError(f"q must be odd, got {q}")
    mod = 1 << 64
    power = pow(q, first, mod)
    v2_less_one = []  # v2(q^e - 1) for e = first, ..., last + 2
    for e in range(first, last + 3):
        m = power - 1 or q**e - 1
        v2_less_one.append((m & -m).bit_length() - 1)
        power = power * q % mod
    holds = []
    for c in range(first, last + 1):
        m = c * (c + 2)
        total = (m & -m).bit_length() - 1 + v2_less_one[c - first] + v2_less_one[c + 2 - first]
        holds.append(total % 2 == 0)
    return holds


def parity_bridge_check(shape, q: int) -> bool:
    """Whether the determinant class parity at q matches the one at 1."""
    shape = check_partition(shape)
    if check_int(q, "q", 3) % 2 == 0:
        raise ValueError(f"q must be odd, got {q}")
    bits = mask_bits(hecke_row(shape))
    return odd_q_parity(bits, q) == odd_q_parity(bits, 1)


@record
class ParityWitness:
    """One checked character: shapes, parameter, the formula's mask and a class source.

    `mask` is the formula's row (`hecke.beta_row`, bit 1 clear), and the
    parity is read off its `mask_bits`. On first access only, `symbolic`
    builds the product of the walk-based mask `source(*shapes)`, which must
    be `mask` once bit 1 (the x-power) is cleared, and `det_class`
    classifies it; `square_class` checks that the class has that parity.
    """

    shapes: tuple[tuple[int, ...], ...]
    q: int
    mask: int
    source: object

    @property
    def parity(self) -> Parity:
        return odd_q_parity(mask_bits(self.mask), self.q)

    @cached_property
    def symbolic(self) -> QIntProduct:
        walk = QIntProduct.from_mask(self.source(*self.shapes))
        if walk.mask & ~2 != self.mask:
            raise InvariantViolation(
                f"{self.shapes}: the beta-number formula gives "
                f"{QIntProduct.from_mask(self.mask)!r}, the walk-based row {walk!r}"
            )
        return walk

    @cached_property
    def det_class(self) -> SquareClass:
        return self.symbolic.square_class(self.q)

    def to_json(self) -> dict:
        return {
            "shapes": [list(s) for s in self.shapes],
            "q": self.q,
            "class": self.det_class.to_json(),
        }

    def __repr__(self) -> str:
        return (f"ParityWitness(shapes={self.shapes!r}, q={self.q!r}, mask={self.mask!r}, "
                f"source={getattr(self.source, '__name__', self.source)})")


@record
class ParityReport:
    """Outcome of one sweep; the conjecture holds on the scope iff ok."""

    family: str
    n_max: int
    q_values: tuple[int, ...]
    checked: int
    failures: tuple[ParityWitness, ...]
    witnesses: tuple[ParityWitness, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n_max": self.n_max,
            "q": list(self.q_values),
            "checked": self.checked,
            "ok": self.ok,
            "failures": [w.to_json() for w in self.failures],
            "witnesses": [w.to_json() for w in self.witnesses],
        }


def _shapes_of(n: int) -> list[tuple[int, ...]]:
    return [()] if n == 0 else enumerate_partitions(n)


def _shape_blocks(n_max: int):
    """One block per even-degree shape with 2 <= n <= n_max: its mask from `beta_row`."""
    for n in range(2, n_max + 1):
        for shape in enumerate_partitions(n):
            count_v2, mask = beta_row(shape)
            if count_v2:
                yield 1, mask_bits(mask) == (0, 0), (((shape,), mask),)


def _sign_pair_blocks(n_max: int):
    """One block per (n, l) with 1 <= n <= n_max: the pairs (lam, mu) with |lam| = l.

    Each size's shapes are read once, with their masks (None at odd
    degree), the number of odd ones and whether every mask's bits are
    (0, 0). A block's count and bits are then known without enumerating
    it, since its products are the trivial one and, with an odd index, the
    rows of both sides. Its rows, read lazily, are `gl.sign_pair_row` on
    the masks.
    """
    masks, sides = {}, []
    for m in range(n_max + 1):
        shapes = _shapes_of(m)
        for shape in shapes:
            count_v2, mask = beta_row(shape)
            masks[shape] = mask if count_v2 else None
        odd = sum(masks[shape] is None for shape in shapes)
        quiet = all(mask_bits(masks[shape]) == (0, 0)
                    for shape in shapes if masks[shape] is not None)
        sides.append((shapes, odd, quiet))
    for n in range(1, n_max + 1):
        for ell in range(n + 1):
            (lams, odd_lams, quiet_lams), (mus, odd_mus, quiet_mus) = sides[ell], sides[n - ell]
            pairs, count, quiet = product(lams, mus), len(lams) * len(mus), True
            # [n choose l]_x lies in Z[x], so at odd q its parity is that of C(n, l);
            # with an odd index, a pair of odd sides has odd degree and is refused.
            if comb(n, ell) % 2:
                pairs = (pair for pair in pairs
                         if any(masks[side] is not None for side in pair))
                count, quiet = count - odd_lams * odd_mus, quiet_lams and quiet_mus
            rows = (((lam, mu), sign_pair_row(lam, mu, masks.__getitem__)) for lam, mu in pairs)
            yield count, quiet, rows


def _sweep(name, first_n, blocks, source, n_max, q_values, witness_limit) -> ParityReport:
    """The report `name` of the rows of `blocks`, whose rows start at n = first_n.

    `blocks` yields (count, quiet, rows): the number of even-degree rows,
    whether every distinct mask among them has bits (0, 0), and the rows as
    (shapes, mask) pairs in order: (shape,) for unipotent and symmetric,
    (lam, mu) for sign pairs. Every q is odd, and a row's `mask_bits`,
    taken once, hold at every odd q. Once the witnesses are full, a quiet
    block is only counted, and so is a row with bits (0, 0), as it fails at
    no q. Failures and the first `witness_limit` witnesses are listed in
    (row, q) order, and read their classes from `source`.
    """
    check_int(n_max, "n_max", 1)
    check_int(witness_limit, "witness_limit", 0)
    q_values = tuple(q_values)
    if not q_values:
        raise ValueError(f"the {name} sweep needs at least one value of q")
    if len(set(q_values)) != len(q_values):
        raise ValueError(f"q values must be distinct, got {list(q_values)}")
    if n_max < first_n:
        raise ValueError(f"n_max = {n_max} leaves the {name} sweep nothing to check")
    checked, failures, witnesses = 0, [], []
    for count, quiet, rows in blocks:
        checked += count * len(q_values)
        if quiet and len(witnesses) >= witness_limit:
            continue
        for shapes, mask in rows:
            bits = mask_bits(mask)
            if bits == (0, 0) and len(witnesses) >= witness_limit:
                continue
            for q in q_values:
                failed = odd_q_parity(bits, q) is not Parity.ODD
                printed = len(witnesses) < witness_limit
                if failed or printed:
                    row = ParityWitness(shapes, q, mask, source)
                    if failed:
                        failures.append(row)
                    if printed:
                        witnesses.append(row)
    return ParityReport(
        family=name,
        n_max=n_max,
        q_values=q_values,
        checked=checked,
        failures=tuple(failures),
        witnesses=tuple(witnesses),
    )


def verify_parker_unipotent(
    n_max: int, q_values, *, witness_limit: int = DEFAULT_WITNESS_LIMIT
) -> ParityReport:
    """Check all even-degree unipotent determinant classes up to n_max."""
    return _sweep("unipotent", 2, _shape_blocks(n_max), unipotent_row, n_max,
                  (as_odd_prime_power(q).q for q in q_values), witness_limit)


def verify_parker_symmetric(
    n_max: int, *, witness_limit: int = DEFAULT_WITNESS_LIMIT
) -> ParityReport:
    """Check all even-degree symmetric group determinant classes up to n_max."""
    return _sweep("symmetric", 2, _shape_blocks(n_max), hecke_row, n_max, (1,), witness_limit)


def verify_parker_sign_pairs(
    n_max: int, q_values, *, witness_limit: int = DEFAULT_WITNESS_LIMIT
) -> ParityReport:
    """Check all even-degree sign-pair determinant classes up to n_max.

    Pairs run over (lam, mu) with |lam| + |mu| = n <= n_max, either side
    possibly empty (but not both); odd-degree characters are skipped.
    """
    return _sweep("sign-pair", 1, _sign_pair_blocks(n_max), sign_pair_row, n_max,
                  (as_odd_prime_power(q).q for q in q_values), witness_limit)
