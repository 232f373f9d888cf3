"""Batch parity verification: every computed determinant class must be odd.

The sweeps cover the three rational families (unipotent, symmetric group
via q = 1, and sign pairs) over configurable ranges, recording failures as
witnesses instead of booleans: a single even class would be mathematically
significant and has to be diagnosable.

Each public sweep passes its row builder and its public determinant
function to one sweep routine. The routine refuses an empty q list and an
n_max that leaves no rows, and the GL sweeps validate every q up front.
It then calls the determinant once per row, at the first q: that call
validates the row's shapes and rejects an odd-degree character at the gate
of `tableaux`, and evenness does not depend on q, so a refused row is
skipped at every q.

Rows keep the determinants' symbolic products, which come from the Hecke
determinant's GF(2) walk: squarefree products of q-integers and a power of
q. At odd q, a GL row's product and whether its degree is even do not
depend on q, so `gl` builds them once per shape or pair. A row's parity
at odd q is fixed by two q-free bits of its product (`odd_q_bits`): a row
whose bits are (0, 0) is odd at every odd q, and any other row is decided
q by q by `QIntProduct.parity_at`. Every (row, q) pair is counted, but a
witness is built only for a failure or a printed row, and only printed
rows are classified, which needs factorization; no row evaluates a degree
at q or runs the full determinant polynomial.

The point-wise parity lemma behind the sweeps compares c(c+2) with
[c]_q [c+2]_q through their 2-adic valuations. One walk over c keeps a
running q^c mod 2^64 and reads each v2(q^e - 1) off it once (from q^e - 1
itself only when q^e = 1 mod 2^64), so it never forms q-integers thousands
of digits long; `lemma_parity_check` is that walk over a single c.
"""

from __future__ import annotations

from functools import cached_property

from .errors import NotIrrPlusError, check_int, record
from .gl import as_odd_prime_power, sign_pair_determinant, unipotent_determinant
from .hecke import QIntProduct, det_poly_reduced, hecke_determinant
from .squareclass import Parity, SquareClass
from .tableaux import check_even_degree, check_partition, enumerate_partitions

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
    check_int(first, "c", 1)
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
    check_even_degree(shape)
    reduced = det_poly_reduced(shape)
    return reduced.parity_at(q) == reduced.parity_at(1)


@record
class ParityWitness:
    """One checked character: shapes, parameter and a symbolic determinant.

    The parity is read off the factors of `symbolic`; the class is computed
    on first access only, and `square_class` checks that it has that parity.
    """

    shapes: tuple[tuple[int, ...], ...]
    q: int
    symbolic: QIntProduct

    @property
    def parity(self) -> Parity:
        return self.symbolic.parity_at(self.q)

    @cached_property
    def det_class(self) -> SquareClass:
        return self.symbolic.square_class(self.q)

    def to_json(self) -> dict:
        return {
            "shapes": [list(s) for s in self.shapes],
            "q": self.q,
            "class": self.det_class.to_json(),
        }


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


def _all_shapes(n_max: int) -> list[tuple]:
    return [(shape,) for n in range(2, n_max + 1) for shape in enumerate_partitions(n)]


def _all_sign_pairs(n_max: int) -> list[tuple]:
    return [
        (lam, mu)
        for n in range(1, n_max + 1) for ell in range(n + 1)
        for lam in _shapes_of(ell) for mu in _shapes_of(n - ell)
    ]


def _sweep(name, build_rows, determinant, n_max, q_values, witness_limit) -> ParityReport:
    """The report `name` of `determinant(*shapes, q)` on each row of `build_rows(n_max)`.

    Rows are shape tuples: (shape,) for unipotent and symmetric, (lam, mu)
    for sign pairs, and every q is odd. A row's symbolic product is the same
    at every odd q, so the determinant runs once per row, at the first q. A
    row with bits (0, 0) fails at no q; once the witnesses are full it is
    only counted. Failures and the first `witness_limit` witnesses are
    listed in (row, q) order.
    """
    check_int(n_max, "n_max", 1)
    check_int(witness_limit, "witness_limit", 0)
    q_values = tuple(q_values)
    if not q_values:
        raise ValueError(f"the {name} sweep needs at least one value of q")
    if len(set(q_values)) != len(q_values):
        raise ValueError(f"q values must be distinct, got {list(q_values)}")
    shape_rows = build_rows(n_max)
    if not shape_rows:
        raise ValueError(f"n_max = {n_max} leaves the {name} sweep nothing to check")
    checked, failures, witnesses = 0, [], []
    for shapes in shape_rows:
        try:
            symbolic = determinant(*shapes, q_values[0]).symbolic
        except NotIrrPlusError:
            continue
        checked += len(q_values)
        if symbolic.odd_q_bits == (0, 0) and len(witnesses) >= witness_limit:
            continue
        for q in q_values:
            failed = symbolic.parity_at(q) is not Parity.ODD
            printed = len(witnesses) < witness_limit
            if failed or printed:
                row = ParityWitness(shapes, q, symbolic)
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
    return _sweep("unipotent", _all_shapes, unipotent_determinant, n_max,
                  (as_odd_prime_power(q).q for q in q_values), witness_limit)


def verify_parker_symmetric(
    n_max: int, *, witness_limit: int = DEFAULT_WITNESS_LIMIT
) -> ParityReport:
    """Check all even-degree symmetric group determinant classes up to n_max."""
    return _sweep("symmetric", _all_shapes, hecke_determinant, n_max, (1,), witness_limit)


def verify_parker_sign_pairs(
    n_max: int, q_values, *, witness_limit: int = DEFAULT_WITNESS_LIMIT
) -> ParityReport:
    """Check all even-degree sign-pair determinant classes up to n_max.

    Pairs run over (lam, mu) with |lam| + |mu| = n <= n_max, either side
    possibly empty (but not both); odd-degree characters are skipped.
    """
    return _sweep("sign-pair", _all_sign_pairs, sign_pair_determinant, n_max,
                  (as_odd_prime_power(q).q for q in q_values), witness_limit)
