"""Exact linear algebra kernels: no floats anywhere.

Every matrix is stored as its columns: column c is the row-sorted tuple of
its nonzero (row, value) entries. `mat_mul` is the one product, columns by
columns, and `transpose` turns a square matrix's columns into its rows.
Dense lists exist only inside the Bareiss blocks of `bareiss_determinant`
and as the input of `rational_determinant`, the only code that touches
Fractions, clearing denominators row by row. Determinants use
fraction-free Bareiss elimination on each diagonal block of the nonzero
pattern (a diagonal form costs one pass over its entries). Homogeneous
systems are reduced incrementally into an integer row-echelon structure
whose rows are kept content-free to control entry growth; its callers are
the tests' reference solve of the invariant form and the benchmark tracer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

Matrix = tuple[tuple, ...]
Columns = tuple[tuple[tuple[int, int], ...], ...]


def identity_matrix(n: int) -> Columns:
    return tuple(((c, 1),) for c in range(n))


def mat_mul(a: Columns, b: Columns, shift: int = 0) -> Columns:
    """The columns of (A + shift) B for A and B given by their columns, zeros dropped."""
    out = []
    for col in b:
        acc: dict[int, int] = {}
        for k, v in col:
            acc[k] = acc.get(k, 0) + shift * v
            for r, w in a[k]:
                acc[r] = acc.get(r, 0) + w * v
        out.append(tuple(sorted((r, v) for r, v in acc.items() if v)))
    return tuple(out)


def transpose(a: Columns) -> Columns:
    """The columns of the transpose of a square matrix given by its columns."""
    out: list[list[tuple[int, int]]] = [[] for _ in a]
    for c, col in enumerate(a):
        for r, v in col:
            out[r].append((c, v))
    return tuple(map(tuple, out))


def bareiss_determinant(a: Columns) -> int:
    """Determinant of a square integer matrix given by its columns, block by block.

    The indices split into the connected components of the nonzero-entry
    graph (i ~ j when the entry at (i, j) or at (j, i) is nonzero). A
    simultaneous permutation of rows and columns makes the matrix block
    diagonal without changing its determinant, so that is the product of
    the Bareiss determinants of the diagonal blocks. Each block is filled
    densely reading columns as rows (det A^T = det A). An entry that is
    not an int, or a row index outside 0..dim-1, raises ValueError.
    """
    dim = len(a)
    label = list(range(dim))

    def root(i):
        while label[i] != i:
            label[i] = label[label[i]]
            i = label[i]
        return i

    for c, col in enumerate(a):
        for r, v in col:
            if type(v) is not int or not 0 <= r < dim:
                raise ValueError(f"entry {v!r} at ({r!r}, {c}) of a {dim}x{dim} integer matrix")
            if r != c:
                label[root(r)] = root(c)
    blocks: dict[int, list[int]] = {}
    for i in range(dim):
        blocks.setdefault(root(i), []).append(i)
    det = 1
    for block in blocks.values():
        where = {i: j for j, i in enumerate(block)}
        m = [[0] * len(block) for _ in block]
        for row, c in zip(m, block):
            for r, v in a[c]:
                row[where[r]] = v
        det *= _bareiss(m)
        if det == 0:
            break
    return det


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of a nonempty square integer matrix (list of lists, overwritten).

    Every interior division in the Bareiss recurrence is exact.
    """
    n = len(m)
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
    return sign * m[n - 1][n - 1]


def rational_determinant(a: Matrix) -> Fraction:
    """Determinant of a matrix with Fraction (or int) entries, exactly."""
    scale = 1
    transposed = []  # the columns of the transpose, whose determinant is the same
    for row in a:
        row = [Fraction(x) for x in row]
        den = reduce(lcm, (x.denominator for x in row), 1)
        scale *= den
        transposed.append(tuple((c, int(x * den)) for c, x in enumerate(row) if x))
    return Fraction(bareiss_determinant(tuple(transposed)), scale)


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
