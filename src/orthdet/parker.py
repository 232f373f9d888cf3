"""Batch parity verification: every computed determinant class must be odd.

The sweeps cover the three rational families (unipotent, symmetric group
via q = 1, and sign pairs) over configurable ranges, recording failures as
witnesses instead of booleans: a single even class would be mathematically
significant and has to be diagnosable.

Every family is one entry of a module-level table: a row builder and the
name of its public determinant function. A single sweep routine refuses an
n_max that leaves no rows, calls the determinant on every row at every q in
one serial loop, and assembles the report. The determinant checks q on every
row and rejects odd-degree characters, which the loop skips.

Rows keep the determinants' symbolic products, which come from the Hecke
determinant's GF(2) walk: squarefree products of q-integers and a power of
q. At odd q, a GL row's product and whether its degree is even do not
depend on q, so `gl` builds them once per shape or pair and a sweep over
many q pays per q only for validation and the parity. A row's parity is
read off the factors through 2-adic valuations, and only printed rows are
classified, which needs factorization; no row evaluates a degree at q or
runs the full determinant polynomial.

The point-wise parity lemma behind the sweeps compares c(c+2) with
[c]_q [c+2]_q; both sides are read through their 2-adic valuation, which
for q^e - 1 is read off q^e mod 2^64 (exactly, from q^e - 1 itself, only
when q^e = 1 mod 2^64), so the check never forms q-integers thousands of
digits long.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import NotIrrPlusError, check_int
from .gl import sign_pair_determinant, unipotent_determinant
from .hecke import QIntProduct, det_poly_reduced, hecke_determinant
from .squareclass import Parity, SquareClass, two_adic_valuation
from .tableaux import check_partition, enumerate_partitions, syt_count

DEFAULT_WITNESS_LIMIT = 8


def lemma_parity_check(c: int, q: int) -> bool:
    """Whether c(c+2) and [c]_q [c+2]_q lie in square classes of equal parity.

    True for every valid input is the theorem; a False return is a finding.
    """
    check_int(c, "c", 1)
    if check_int(q, "q", 3) % 2 == 0:
        raise ValueError(f"q must be odd, got {q}")
    # A class is even iff its 2-adic valuation is odd, and v2 is additive, so
    # the two sides agree iff the valuations of c(c+2), [c]_q and [c+2]_q sum
    # to an even number. v2([e]_q) = v2(q^e - 1) - v2(q - 1); the two
    # v2(q - 1) terms sum to an even number and drop out.
    power = pow(q, c, 1 << 64)
    total = two_adic_valuation(c * (c + 2)) + _v2_power_less_one(power, q, c)
    total += _v2_power_less_one(power * q * q % (1 << 64), q, c + 2)
    return total % 2 == 0


def _v2_power_less_one(residue: int, q: int, e: int) -> int:
    """v2(q^e - 1) for odd q, given residue = q^e mod 2^64.

    q^e - 1 is congruent to residue - 1 mod 2^64, so a nonzero difference
    has the same valuation (below 64); a zero one falls back to q^e - 1
    itself, so no bound on the valuation is assumed.
    """
    return two_adic_valuation(residue - 1 or q**e - 1)


def parity_bridge_check(shape, q: int) -> bool:
    """Whether the determinant class parity at q matches the one at 1."""
    shape = check_partition(shape)
    if syt_count(shape) % 2:
        raise ValueError(f"shape {shape} has odd degree: no determinant class")
    if check_int(q, "q", 3) % 2 == 0:
        raise ValueError(f"q must be odd, got {q}")
    reduced = det_poly_reduced(shape)
    return reduced.parity_at(q) == reduced.parity_at(1)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


# Keyed by report name: (rows, determinant). `rows(n_max)` lists the shape
# tuples of the sweep: (shape,) for unipotent and symmetric, (lam, mu) for
# sign pairs. `determinant` names the public function called on each row,
# looked up in this module at every sweep, not stored, so that a tracer
# rebinding module attributes sees it.
_FAMILIES = {
    "unipotent": (_all_shapes, "unipotent_determinant"),
    "symmetric": (_all_shapes, "hecke_determinant"),
    "sign-pair": (_all_sign_pairs, "sign_pair_determinant"),
}


def _sweep(name, n_max, q_values, witness_limit) -> ParityReport:
    build_rows, determinant_name = _FAMILIES[name]
    check_int(n_max, "n_max", 1)
    check_int(witness_limit, "witness_limit", 0)
    q_values = tuple(q_values)
    if len(set(q_values)) != len(q_values):
        raise ValueError(f"q values must be distinct, got {list(q_values)}")
    shape_rows = build_rows(n_max)
    if not shape_rows:
        raise ValueError(f"n_max = {n_max} leaves the {name} sweep nothing to check")
    determinant = globals()[determinant_name]
    rows = []
    for shapes in shape_rows:
        for q in q_values:
            try:
                result = determinant(*shapes, q)
            except NotIrrPlusError:
                continue
            rows.append(ParityWitness(shapes, q, result.symbolic))
    return ParityReport(
        family=name,
        n_max=n_max,
        q_values=q_values,
        checked=len(rows),
        failures=tuple(row for row in rows if row.parity is not Parity.ODD),
        witnesses=tuple(rows[:witness_limit]),
    )


def verify_parker_unipotent(
    n_max: int, q_values, *, witness_limit: int = DEFAULT_WITNESS_LIMIT
) -> ParityReport:
    """Check all even-degree unipotent determinant classes up to n_max."""
    return _sweep("unipotent", n_max, q_values, witness_limit)


def verify_parker_symmetric(
    n_max: int, *, witness_limit: int = DEFAULT_WITNESS_LIMIT
) -> ParityReport:
    """Check all even-degree symmetric group determinant classes up to n_max."""
    return _sweep("symmetric", n_max, (1,), witness_limit)


def verify_parker_sign_pairs(
    n_max: int, q_values, *, witness_limit: int = DEFAULT_WITNESS_LIMIT
) -> ParityReport:
    """Check all even-degree sign-pair determinant classes up to n_max.

    Pairs run over (lam, mu) with |lam| + |mu| = n <= n_max, either side
    possibly empty (but not both); odd-degree characters are skipped.
    """
    return _sweep("sign-pair", n_max, q_values, witness_limit)
