"""Exact linear algebra kernels: no floats anywhere.

Every matrix is a sequence of dense rows of equal length. `mat_mul` is the
plain row-by-column product, kept as a reference for tests. `bareiss_determinant`
runs fraction-free Bareiss elimination on a copy of the rows, and
`rational_determinant`, the only code that touches Fractions, clears
denominators row by row before calling it. Homogeneous systems are reduced
incrementally into an integer row-echelon structure whose rows are kept
content-free to control entry growth; its callers are the tests' reference
solve of the invariant form and the benchmark tracer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul

Matrix = list[list]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The rows of A B for A and B given by their rows."""
    columns = list(zip(*b))
    return [[sum(map(mul, row, column)) for column in columns] for row in a]


def bareiss_determinant(a: Matrix) -> int:
    """Determinant of a square integer matrix given by its rows.

    A copy of the rows is reduced by fraction-free Bareiss elimination, in
    which every interior division is exact. A row of the wrong length, or an
    entry that is not an int, raises ValueError.
    """
    n = len(a)
    m = [list(row) for row in a]
    for r, row in enumerate(m):
        if len(row) != n or any(type(v) is not int for v in row):
            raise ValueError(f"row {r} of a {n}x{n} integer matrix is {row!r}")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def rational_determinant(a: Matrix) -> Fraction:
    """Determinant of a matrix with Fraction (or int) entries, exactly."""
    scale = 1
    rows = []
    for row in a:
        row = [Fraction(x) for x in row]
        den = reduce(lcm, (x.denominator for x in row), 1)
        scale *= den
        rows.append([int(x * den) for x in row])
    return Fraction(bareiss_determinant(rows), scale)


class IntegerKernelSolver:
    """Incremental row echelon over the integers for homogeneous systems.

    Equations arrive as sparse {column: coefficient} dicts; each is reduced
    against the current pivot rows by cross-multiplication and stored
    content-free. Afterwards the kernel can be read off when the corank
    is exactly one.
    """

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def corank(self) -> int:
        return self.num_vars - self.rank

    @staticmethod
    def _normalize(row: dict[int, int]) -> dict[int, int]:
        g = reduce(gcd, row.values())
        p = min(row)
        if row[p] < 0:
            g = -g
        return {c: v // g for c, v in row.items()}

    def add_equation(self, row: dict[int, int]) -> bool:
        """Insert one equation; returns True when it increased the rank."""
        row = {c: v for c, v in row.items() if v}
        while row:
            p = min(row)
            pivot = self.rows.get(p)
            if pivot is None:
                self.rows[p] = self._normalize(row)
                return True
            a, b = row[p], pivot[p]
            merged = {c: b * v for c, v in row.items()}
            for c, v in pivot.items():
                merged[c] = merged.get(c, 0) - a * v
            row = {c: v for c, v in merged.items() if v}
            if row:
                row = self._normalize(row)
        return False

    def kernel_vector(self) -> list[int]:
        """The one-dimensional kernel as a primitive integer vector.

        Requires corank exactly 1. Deterministic sign: the first nonzero
        entry is positive.
        """
        free = [c for c in range(self.num_vars) if c not in self.rows]
        if len(free) != 1:
            raise ValueError(f"kernel dimension is {len(free)}, expected 1")
        x = [0] * self.num_vars
        x[free[0]] = 1
        # Back-substitution on a multiple of the solution: x is scaled up
        # only when a pivot does not divide its unknown (pivots are positive).
        for p in sorted(self.rows, reverse=True):
            row = self.rows[p]
            total = sum(v * x[c] for c, v in row.items() if c != p)
            if total % row[p]:
                m = row[p] // gcd(total, row[p])
                x = [v * m for v in x]
                total *= m
            x[p] = -total // row[p]
        g = gcd(*x)
        if next(v for v in x if v) < 0:
            g = -g
        return [v // g for v in x]
