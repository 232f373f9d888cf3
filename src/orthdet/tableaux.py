"""Partitions, hooks, standard Young tableaux and their transposition graph.

Partitions are plain tuples of weakly decreasing positive ints. Cells are
1-based (row, col) pairs. A standard tableau is held only as its content
vector, whose entry k - 1 is the content col - row of entry k. Rows are
built from it, by `tableau_rows`, only to print a tableau
(`TableauGraph.nodes`) or to read its word. The transposition graph on the
tableaux of a shape connects t and s_k.t whenever the contents of k and k+1
differ by at least 2, that is when the entry swap keeps t standard; its
breadth-first distance from the row-filling tableau is the Coxeter length
of the permutation carrying one to the other; `tableau_word` reads a word
of that length off a content vector, with no graph.

One cached record per shape (`shape_record`) holds its hooks, the cyclotomic
multiplicities of its q-hook degree and v2 of its tableau count: `syt_count`,
the odd-degree gate `check_even_degree` and the degrees of `gl` read it.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property, lru_cache
from math import prod
from typing import NamedTuple

from .errors import InvariantViolation, NotIrrPlusError, ResourceGuardError, check_int, record
from .intpoly import cyclotomic_at_one

# Ceiling on the tableaux of one graph, built for `syt`, the oracle and the
# reference `hecke.tableau_polynomials` (the determinant products walk the
# Young lattice instead, under `hecke.MAX_SUBDIAGRAM_ROWS`). Per tableau of
# (6,4,2,1,1), n = 14 (2-core VM, CPython 3.11), the graph costs 0.64 KB and
# 8 us, the rows `syt` prints 0.34 KB and 8 us more, and the graph with its
# tableau polynomials 1.4 KB and 0.035-0.050 ms: one shape stays near 140 MB
# and 5 s; admits n <= 14.
MAX_TABLEAUX = 100_000

Cell = tuple[int, int]


def check_partition(parts) -> tuple[int, ...]:
    """Validate and canonicalize a partition; the empty partition is allowed."""
    shape = tuple(parts)
    for i, p in enumerate(shape):
        check_int(p, "partition part", 1)
        if i and shape[i - 1] < p:
            raise ValueError(f"partition parts must be weakly decreasing, got {shape}")
    return shape


def enumerate_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, lexicographically decreasing: (n) first."""
    check_int(n, "n", 1)
    result: list[tuple[int, ...]] = []
    _extend_partitions(n, n, (), result)
    return result


def _extend_partitions(remaining: int, cap: int, prefix: tuple[int, ...], out: list) -> None:
    # Module-level, not a closure: a nested function that calls itself is a
    # reference cycle, left for the collector on every call.
    if remaining == 0:
        out.append(prefix)
        return
    for part in range(min(cap, remaining), 0, -1):
        _extend_partitions(remaining - part, part, prefix + (part,), out)


def conjugate_partition(shape) -> tuple[int, ...]:
    shape = check_partition(shape)
    if not shape:
        return ()
    return tuple(sum(1 for p in shape if p > j) for j in range(shape[0]))


def hook_lengths(shape) -> dict[Cell, int]:
    """Hook length of every cell: arm + leg + 1."""
    shape = check_partition(shape)
    conj = conjugate_partition(shape)
    return {
        (i, j): (shape[i - 1] - j) + (conj[j - 1] - i) + 1
        for i in range(1, len(shape) + 1)
        for j in range(1, shape[i - 1] + 1)
    }


class ShapeRecord(NamedTuple):
    hooks: tuple[int, ...]
    multiplicities: tuple[tuple[int, int], ...]
    count_v2: int


# Unbounded: one small record per shape, read for every character. Callers
# validate first: True equals 1, so a bool part could hit an int's entry.
@lru_cache(maxsize=None)
def shape_record(shape: tuple[int, ...]) -> ShapeRecord:
    """Hooks of a validated shape, the multiplicities ((d, m_d), ...) with m_d > 0, and v2(f).

    With n(shape) = sum (i - 1) * row_i, the q-hook degree is D(x) = x^n(shape)
    prod_{i <= n} [i]_x / prod_hooks [h]_x = x^n(shape) prod_d Phi_d(x)^m_d, where
    m_d = floor(n/d) - #hooks divisible by d. A negative m_d raises
    InvariantViolation; with none, D lies in Z[x]. The tableau count
    f = n! / prod_hooks h is D(1) = prod_d Phi_d(1)^m_d: by Legendre, a prime p
    divides it sum_k (floor(n/p^k) - #hooks divisible by p^k) = sum_k m_{p^k}
    times, and Phi_d(1) is p for d = p^k and 1 for other d > 1 (m_1 = 0).
    So v2(f) = sum_k m_{2^k}, and f is odd iff it is 0.
    """
    hooks = tuple(hook_lengths(shape).values())
    n = sum(shape)
    per_length = [0] * (n + 1)
    for h in hooks:
        per_length[h] += 1
    multiplicities = []
    for d in range(1, n + 1):
        m_d = n // d - sum(per_length[d::d])
        if m_d < 0:
            raise InvariantViolation(
                f"q-hook degree of {shape} is not a polynomial: Phi_d has multiplicity "
                f"{m_d} at d = {d}"
            )
        if m_d:
            multiplicities.append((d, m_d))
    count_v2 = sum(m_d for d, m_d in multiplicities if d & (d - 1) == 0)
    return ShapeRecord(hooks, tuple(multiplicities), count_v2)


def check_even_degree(shape: tuple[int, ...]) -> None:
    """NotIrrPlusError if a validated shape has an odd tableau count, hence odd degree."""
    if not shape_record(shape).count_v2:
        raise NotIrrPlusError(f"shape {shape} has odd degree: no orthogonal determinant")


def syt_count(shape) -> int:
    """Number of standard Young tableaux: the hook formula as prod_d Phi_d(1)^m_d, no n! formed."""
    record = shape_record(check_partition(shape))
    return prod(cyclotomic_at_one(d) ** m_d for d, m_d in record.multiplicities)


def even_degree_shapes(n_max: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n for 2 <= n <= n_max with an even number of tableaux.

    Generated n by n, so a caller that stops early never enumerates the
    partitions of a larger n.
    """
    shapes = (shape for n in range(2, n_max + 1) for shape in enumerate_partitions(n))
    return (shape for shape in shapes if shape_record(shape).count_v2)


def tableau_rows(contents) -> tuple[tuple[int, ...], ...]:
    """The rows of the standard tableau in which entry k has content contents[k-1].

    After each entry the filled cells of a standard tableau form a Young
    diagram, whose cells on diagonal c run down from row max(0, -c). So
    entry k goes to row i = max(0, -c) + (the entries already on diagonal c),
    column i + c (0-based). ValueError unless the cell's left and upper
    neighbours are filled already, or lie off the diagram: the helper
    accepts exactly the content vectors of standard tableaux.
    """
    rows: list[list[int]] = []
    filled: dict[int, int] = {}
    for k, c in enumerate(contents, start=1):
        i = max(0, -c) + filled.get(c, 0)
        if i == len(rows):
            rows.append([])
        if i > len(rows) or len(rows[i]) != i + c or (i and len(rows[i - 1]) <= i + c):
            raise ValueError(f"entry {k} of content {c} extends no standard tableau of rows {rows}")
        rows[i].append(k)
        filled[c] = filled.get(c, 0) + 1
    return tuple(map(tuple, rows))


@record
class TableauGraph:
    """All standard tableaux of one shape, wired by simple transpositions.

    contents[i][k-1] is the content (col - row) of entry k in tableau i, the
    one format in which the package holds a tableau; `nodes` builds the rows
    only to print them. Tableaux are in breadth-first discovery order from
    the row-filling one (generator index ascending within a tableau), the
    package-wide canonical basis order. Each edge (lo, hi, k) stores indices
    with distance(hi) = distance(lo) + 1 and s_k, which swaps the contents
    of k and k+1, applied to either endpoint giving the other.
    """

    shape: tuple[int, ...]
    contents: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, int], ...]
    distances: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.contents)

    @cached_property
    def nodes(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The tableaux as tuples of rows, built from `contents` on first access to print them."""
        return tuple(map(tableau_rows, self.contents))


def enumerate_syt(shape) -> TableauGraph:
    """Breadth-first enumeration of all standard tableaux of a shape.

    Raises ResourceGuardError, before building anything, for a shape with
    more than MAX_TABLEAUX tableaux.
    """
    shape = check_partition(shape)
    count = syt_count(shape)
    if count > MAX_TABLEAUX:
        raise ResourceGuardError(f"shape {shape}: {count} tableaux > limit {MAX_TABLEAUX}")
    return _build_graph(shape)


# Bounded: one graph can hold tens of thousands of tableaux. Sweeps build no
# graphs; `oracle-check` and `selftest` rebuild one shape at several q.
@lru_cache(maxsize=32)
def _build_graph(shape: tuple[int, ...]) -> TableauGraph:
    root = tuple(j - i for i, part in enumerate(shape) for j in range(part))
    contents = [root]
    index = {root: 0}
    dist = [0]
    edges: list[tuple[int, int, int]] = []
    for head, c in enumerate(contents):  # breadth-first: the list grows as it is read
        d = dist[head]
        for k in range(1, len(root)):
            if -2 < c[k - 1] - c[k] < 2:
                continue
            u = c[:k - 1] + (c[k], c[k - 1]) + c[k + 1:]
            at = index.get(u)
            if at is None:
                index[u] = at = len(contents)
                contents.append(u)
                dist.append(d + 1)
                edges.append((head, at, k))
            elif dist[at] == d + 1:
                edges.append((head, at, k))
            elif dist[at] != d - 1:
                raise InvariantViolation(
                    f"transposition graph of {shape} is not graded: "
                    f"edge s_{k} joins distances {d} and {dist[at]}"
                )
    expected = syt_count(shape)
    if len(contents) != expected:
        raise InvariantViolation(
            f"enumerated {len(contents)} tableaux of shape {shape}, hook formula says {expected}"
        )
    return TableauGraph(shape, tuple(contents), tuple(edges), tuple(dist))


def tableau_word(contents) -> tuple[int, ...]:
    """A reduced word for the permutation w with t = w . t_shape, t the tableau of a content vector.

    Applying s_(word[-1]) first and s_(word[0]) last to the row-filling
    tableau yields t. The rows of the entries come from `tableau_rows`, with
    no graph. While some entry k lies in a lower row than k+1, swap the
    smallest such pair (that keeps the tableau standard and removes one
    inversion) and record k; the rows then ascend as in the row-filling
    tableau, so the word is reduced and its length is the graph distance.
    """
    rows = [0] * len(contents)
    for i, row in enumerate(tableau_rows(contents)):
        for k in row:
            rows[k - 1] = i
    word = []
    while descents := [k for k in range(1, len(rows)) if rows[k - 1] > rows[k]]:
        k = descents[0]
        rows[k - 1], rows[k] = rows[k], rows[k - 1]
        word.append(k)
    return tuple(word)
